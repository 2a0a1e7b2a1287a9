"""Asyncio front end: coalesce concurrent pair queries into engine ticks.

:class:`QueryServer` accepts single ``C2(a, b)`` queries from any number
of concurrent callers, gathers everything that arrives within one *tick*
into a single :class:`~repro.engine.BatchQueryEngine` workload, and
resolves each caller's future with its own estimate. The per-tick batch
runs against the server's epoch-scoped
:class:`~repro.serving.cache.NoisyViewCache`, so:

* the bulk RR draw (the expensive, budget-charging step) is amortized
  across every caller in the tick;
* a vertex perturbed earlier in the epoch serves later queries from its
  cached noisy view at **zero** additional budget — replaying a workload
  within one epoch costs exactly the one-shot batch spend;
* ``rotate_epoch`` (manual, automatic every ``epoch_ticks`` ticks, or on
  a wall clock every ``epoch_seconds``) drops the views: the next
  queries re-draw and recharge. A rotation can *warm* the new epoch by
  pre-drawing the previous epoch's hottest vertices so the first
  post-rotation tick doesn't stampede on the hot pool.

Multi-tenant serving hands the server a
:class:`~repro.serving.tenants.TenantRegistry`: every query is tagged
with its tenant, cache hits stay free for everyone, and a tick's fresh
vertices are paid for by the first tenant that needs them — a tenant out
of quota gets :class:`~repro.errors.BudgetExceededError` on its own
queries while the rest of the tick proceeds.

The tick loop runs on the event loop itself (the engine's array work is
fast and releasing the GIL would not help a single-process server); with
``tick_interval=0`` a tick fires as soon as the loop drains the currently
runnable callers, which coalesces any burst issued in one scheduling
round into one batch.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.engine.core import BatchQueryEngine
from repro.engine.planner import pair_endpoints
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import ShardTransport, make_transport
from repro.engine.sketches import SketchConfig
from repro.errors import (
    GraphError,
    ProtocolError,
    QueryDeadlineError,
    ServerOverloadedError,
    ServerStalledError,
)
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.mechanisms import LaplaceMechanism
from repro.privacy.rng import RngLike, ensure_rng
from repro.privacy.sensitivity import degree_sensitivity
from repro.protocol.messages import FLOAT_BYTES, CommunicationLog, Direction
from repro.protocol.session import ExecutionMode, resolve_mode
from repro.serving.cache import NoisyViewCache
from repro.serving.tenants import TenantRegistry

__all__ = ["ServedEstimate", "ServerStats", "Subscription", "QueryServer"]

# Bounded grace stop() gives a tick the watchdog abandoned: the zombie
# engine call still holds the cache and shard runner, so shutdown waits
# this long for it to drain before freeing them (then proceeds anyway —
# shutdown must stay bounded even under a permanently wedged engine).
_STOP_GRACE_S = 5.0


@dataclass(frozen=True)
class ServedEstimate:
    """One caller's answer: the estimate plus its serving provenance."""

    pair: QueryPair
    value: float
    noisy_intersection: int
    noisy_union: int
    epoch: int
    tick: int
    cache_hit: bool  # True when the query triggered no fresh charge
    epsilon: float
    noisy_degree_a: float | None = None
    noisy_degree_b: float | None = None
    tenant: str | None = None


@dataclass
class Subscription:
    """A standing ``C2(a, b)`` query registered with :meth:`QueryServer.subscribe`.

    The server keeps the latest estimate in ``last`` and refreshes it
    after every rotation that could have changed it: a *full* rotation
    refreshes every subscription (all streams redrew), an *incremental*
    rotation refreshes only subscriptions touching a dirty vertex —
    clean pairs keep their bit-identical answer, so re-serving them
    would be a no-op. ``stale`` is True from the rotation until the
    refresh estimate lands.
    """

    id: int
    pair: QueryPair
    tenant: str | None = None
    last: ServedEstimate | None = None
    stale: bool = False
    refreshes: int = 0


@dataclass
class ServerStats:
    """Lifetime serving counters (cache counters live on the cache)."""

    ticks: int = 0
    queries_served: int = 0
    queries_rejected: int = 0  # tenant-budget refusals
    queries_shed: int = 0  # admission-queue overflow refusals (no debit)
    deadline_expired: int = 0  # queries whose deadline passed pre-tick
    stalled_ticks: int = 0  # ticks abandoned by the watchdog
    deferred_rotations: int = 0  # timed rotations skipped mid-tick
    max_coalesced: int = 0
    ticks_in_epoch: int = 0
    epochs_completed: int = 0
    timed_rotations: int = 0  # rotations fired by the wall-clock timer
    warmed_vertices: int = 0  # views pre-drawn across all rotations
    mutations: int = 0  # edge ops recorded through mutate()
    subscription_refreshes: int = 0  # standing queries re-served post-rotation
    errors: int = 0

    def mean_coalesced(self) -> float:
        """Mean queries per tick across the server's lifetime."""
        return self.queries_served / self.ticks if self.ticks else 0.0


class QueryServer:
    """Serve single-pair C2 queries from coalesced, epoch-cached batches.

    Parameters
    ----------
    graph, layer, epsilon:
        The serving context; every query runs at the same pinned epsilon
        (the epoch cache's draws are only valid at their own budget).
    mode:
        Engine execution mode; ``AUTO`` resolves by candidate-pool size.
        ``SKETCH_VIEW`` serves every query from fixed-size per-vertex
        sketch views (requires ``sketch_bits``).
    sketch_bits:
        Serve sublinear-memory *sketch views*: every vertex releases one
        blipped Bloom filter of this many bits (a positive multiple of
        8) instead of a noisy neighbor list, so
        resident view memory is ``sketch_bits / 8`` bytes per vertex
        regardless of degree. Implies ``SKETCH_VIEW`` mode (and refuses
        any other explicit ``mode``). Cached views keep the same reuse,
        eviction and deterministic-redraw contract as materialized rows.
    tick_interval:
        Seconds to linger before closing a tick (``0`` coalesces exactly
        the burst that is runnable when the first query lands).
    epoch_ticks:
        Rotate the epoch automatically after this many ticks (``None`` =
        no tick-based rotation).
    epoch_seconds:
        Rotate the epoch on a wall clock, every this many seconds, from
        a background task that runs for the server's lifetime (``None``
        = no timed rotation). Composes with ``epoch_ticks``; whichever
        fires first rotates.
    warm_vertices:
        At every rotation, pre-draw (and charge) the closed epoch's this
        many hottest vertices into the fresh epoch — those without a
        resident view — so the first post-rotation tick over the hot
        pool doesn't stampede into one giant miss batch. Materialize and
        sketch-view modes only; ``0`` disables warming.
    cache_bytes, cache_entries:
        Optional LRU budget for the noisy-view cache (see
        :class:`~repro.serving.cache.NoisyViewCache`): stores evict
        least-recently-used views past the budget, and evicted views are
        reconstructed deterministically — privacy-free — on their next
        touch.
    shards, shard_mem_bytes:
        Shard every materialize-mode miss draw across forked worker
        processes (``shards`` worker cap and range count, or
        ``shard_mem_bytes`` per-shard noisy-payload budget with a
        cpu-count worker cap). Sharded serving draws from the keyed
        Philox streams, so the served bits are identical whatever the
        shard boundaries; the server owns the
        :class:`~repro.engine.sharded.ShardedRunner` and frees its
        workers on :meth:`stop`. Ignored in sketch mode (there are no
        rows to shard). See ``docs/sharding-guide.md``.
    shard_timeout_s, shard_retries:
        Resilience knobs forwarded to the sharded runner: the per-task
        deadline and the re-dispatch budget before a failed range
        degrades to inline execution (see ``docs/resilience-guide.md``).
    shard_transport, shard_workers:
        *Where* sharded serving runs: a
        :class:`~repro.engine.transport.ShardTransport` instance, or a
        kind name (``"inline"``, ``"fork"``, ``"socket"``);
        ``shard_workers`` lists the socket cluster's ``host:port``
        addresses. Defaults to the fork pool. Giving a transport alone
        turns sharding on with one range per transport worker. See
        ``docs/distributed-guide.md``.
    warm_decay:
        EWMA coefficient of the cross-epoch warm set (forwarded to the
        cache): each rotation folds the closed epoch's touch counts into
        a smoothed heat, so the warmed vertices track the *persistent*
        hot set instead of whatever the last epoch happened to touch.
        ``1.0`` recovers last-epoch-only warming.
    max_pending:
        Bound on the admission queue. When a new query would push the
        queue past the bound, the query with the *oldest deadline* is
        refused with :class:`~repro.errors.ServerOverloadedError`
        (queries without deadlines are never preferred as victims; if no
        queued query carries an earlier deadline, the newcomer itself is
        refused). Shedding happens before tenant admission, so a shed
        query never debits any tenant. ``None`` = unbounded.
    query_deadline_s:
        Default per-query deadline. A query still pending when its
        deadline passes is failed with
        :class:`~repro.errors.QueryDeadlineError` at the next tick
        *before* tenant admission — its untouched budget stays with the
        tenant. :meth:`query` accepts a per-call ``deadline_s``
        override. ``None`` = no deadline.
    tick_watchdog_s:
        When set, each tick's engine call runs on a dedicated worker
        thread under this deadline; a stuck tick is abandoned — its
        callers get :class:`~repro.errors.ServerStalledError` and
        admission debits are refunded — instead of hanging every client
        forever. The abandoned call keeps the tick thread until it
        actually finishes, and timed rotations *and later ticks* wait
        for it (a later tick stalls in turn if the zombie outlives its
        own watchdog window), so an abandoned call can never race an
        epoch swap or another engine call on the shared cache.
    tenants:
        A :class:`~repro.serving.tenants.TenantRegistry` turns on
        multi-tenant serving: every :meth:`query` must then carry a
        registered ``tenant`` name, cache misses debit that tenant's
        budget, and over-quota queries are refused individually.
    degree_epsilon:
        When set, every answer also carries epoch-cached noisy Laplace
        degrees for both endpoints (first release per vertex per epoch is
        charged, later ones are free) — the ingredients similarity-style
        applications need.
    epsilon_per_epoch:
        Per-vertex epoch allowance enforced by the accountant. The
        default (``"auto"``) caps materialize- and sketch-view-mode
        serving at ``epsilon + degree_epsilon`` — which cache-hit
        accounting never exceeds, even through evict/redraw cycles and
        warm pre-draws — and leaves sketch mode unenforced, since new
        overlapping pairs legitimately recharge there. Pass ``None`` to disable
        enforcement entirely, or a float to cap explicitly.
    ledger, rng:
        Optional long-lived ledger (default: a fresh unlimited one) and
        the server's random stream.

    Raises
    ------
    ProtocolError
        If ``epoch_ticks``/``epoch_seconds`` are not positive,
        ``warm_vertices`` is negative, ``degree_epsilon`` is not
        positive when given, or the cache bounds are invalid.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        epsilon: float,
        *,
        mode: ExecutionMode = ExecutionMode.AUTO,
        sketch_bits: int | None = None,
        tick_interval: float = 0.0,
        epoch_ticks: int | None = None,
        epoch_seconds: float | None = None,
        warm_vertices: int = 0,
        cache_bytes: int | None = None,
        cache_entries: int | None = None,
        shards: int | None = None,
        shard_mem_bytes: int | None = None,
        shard_timeout_s: float | None = None,
        shard_retries: int = 2,
        shard_transport: "ShardTransport | str | None" = None,
        shard_workers: list[str] | tuple[str, ...] | None = None,
        warm_decay: float = 0.5,
        max_pending: int | None = None,
        query_deadline_s: float | None = None,
        tick_watchdog_s: float | None = None,
        tenants: TenantRegistry | None = None,
        degree_epsilon: float | None = None,
        epsilon_per_epoch: float | str | None = "auto",
        ledger: PrivacyLedger | None = None,
        rng: RngLike = None,
    ):
        if epoch_ticks is not None and epoch_ticks <= 0:
            raise ProtocolError(f"epoch_ticks must be positive, got {epoch_ticks}")
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise ProtocolError(
                f"epoch_seconds must be positive, got {epoch_seconds}"
            )
        if warm_vertices < 0:
            raise ProtocolError(f"warm_vertices must be >= 0, got {warm_vertices}")
        if degree_epsilon is not None and degree_epsilon <= 0:
            raise ProtocolError("degree_epsilon must be positive when given")
        if shards is not None and shards <= 0:
            raise ProtocolError(f"shards must be positive, got {shards}")
        if shard_mem_bytes is not None and shard_mem_bytes <= 0:
            raise ProtocolError(
                f"shard_mem_bytes must be positive, got {shard_mem_bytes}"
            )
        if max_pending is not None and max_pending <= 0:
            raise ProtocolError(f"max_pending must be positive, got {max_pending}")
        if query_deadline_s is not None and query_deadline_s <= 0:
            raise ProtocolError(
                f"query_deadline_s must be positive, got {query_deadline_s}"
            )
        if tick_watchdog_s is not None and tick_watchdog_s <= 0:
            raise ProtocolError(
                f"tick_watchdog_s must be positive, got {tick_watchdog_s}"
            )
        sketch = None
        if sketch_bits is not None:
            sketch = SketchConfig("bloom", int(sketch_bits))
            if mode is ExecutionMode.AUTO:
                mode = ExecutionMode.SKETCH_VIEW
            elif mode is not ExecutionMode.SKETCH_VIEW:
                raise ProtocolError(
                    f"sketch_bits implies sketch-view mode, got {mode.value}"
                )
        elif mode is ExecutionMode.SKETCH_VIEW:
            raise ProtocolError("sketch-view serving needs sketch_bits")
        self.rng = ensure_rng(rng)
        runner = None
        if (
            shards is not None
            or shard_mem_bytes is not None
            or shard_transport is not None
        ):
            if resolve_mode(graph, layer, mode) is ExecutionMode.MATERIALIZE:
                transport = shard_transport
                if isinstance(transport, str):
                    transport = make_transport(
                        transport,
                        max_workers=shards,
                        workers=shard_workers,
                    )
                runner = ShardedRunner(
                    graph,
                    layer,
                    max_workers=shards,
                    timeout_s=shard_timeout_s,
                    max_retries=shard_retries,
                    transport=transport,
                )
        self._shard_runner = runner
        cache = NoisyViewCache(
            graph, layer, epsilon,
            mode=mode,
            max_bytes=cache_bytes,
            max_entries=cache_entries,
            rng=self.rng,
            shard_runner=runner,
            shard_mem_bytes=shard_mem_bytes,
            sketch=sketch,
            warm_decay=warm_decay,
        )
        if epsilon_per_epoch == "auto":
            # Vertex-granular modes never exceed one release per vertex
            # per epoch; only pair-granular sketch mode recharges.
            if cache.mode is not ExecutionMode.SKETCH:
                epsilon_per_epoch = float(epsilon) + (degree_epsilon or 0.0)
            else:
                epsilon_per_epoch = None
        cache.accountant.epsilon_per_epoch = epsilon_per_epoch

        self.layer = layer
        self.epsilon = float(epsilon)
        self.cache = cache
        self.mode = cache.mode
        self.tick_interval = float(tick_interval)
        self.epoch_ticks = epoch_ticks
        self.epoch_seconds = None if epoch_seconds is None else float(epoch_seconds)
        self.warm_vertices = int(warm_vertices)
        self.max_pending = max_pending
        self.query_deadline_s = (
            None if query_deadline_s is None else float(query_deadline_s)
        )
        self.tick_watchdog_s = (
            None if tick_watchdog_s is None else float(tick_watchdog_s)
        )
        self.tenants = tenants
        self.degree_epsilon = degree_epsilon
        self.ledger = ledger if ledger is not None else PrivacyLedger()
        self.comm = CommunicationLog()
        self.engine = BatchQueryEngine(mode=self.mode, sketch=sketch)
        self.stats = ServerStats()
        # Pending entries carry an absolute loop-clock deadline (None =
        # no deadline) used by load shedding and pre-tick pruning.
        self._pending: list[
            tuple[QueryPair, str | None, asyncio.Future, float | None]
        ] = []
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._rotator: asyncio.Task | None = None
        self._closing = False
        # True while an engine call — live *or* abandoned by the
        # watchdog — is running on the tick thread; cleared only when
        # the call actually finishes. Rotations and later ticks gate on
        # it so a zombie call can never race them on the shared cache,
        # ledger and rng. `_tick_idle` is the awaitable complement.
        self._tick_busy = False
        self._tick_idle = asyncio.Event()
        self._tick_idle.set()
        self._tick_pool: ThreadPoolExecutor | None = None
        self._subscriptions: dict[int, Subscription] = {}
        self._next_sub_id = 1
        self._refresh_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The served graph snapshot (swapped by incremental rotations)."""
        return self.cache.graph

    @property
    def accountant(self):
        """The cache's per-vertex epoch accountant."""
        return self.cache.accountant

    @property
    def epoch(self) -> int:
        """The current serving epoch (starts at 0)."""
        return self.cache.epoch

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the tick loop (and the wall-clock rotator, if configured).

        Raises
        ------
        ProtocolError
            If the server is already running.
        """
        if self._task is not None:
            raise ProtocolError("server is already running")
        self._closing = False
        self._task = asyncio.create_task(self._run())
        if self.epoch_seconds is not None:
            self._rotator = asyncio.create_task(self._rotate_loop())

    async def stop(self) -> None:
        """Serve whatever is still pending, then shut the tick loop down."""
        if self._task is None:
            return
        self._closing = True
        if self._rotator is not None:
            self._rotator.cancel()
            try:
                await self._rotator
            except asyncio.CancelledError:
                pass
            self._rotator = None
        self._wake.set()
        await self._task
        self._task = None
        if self._refresh_tasks:
            # Subscription refreshes scheduled by a late rotation; the
            # tick loop is gone, so they can only error — drop them.
            for task in list(self._refresh_tasks):
                task.cancel()
            await asyncio.gather(*self._refresh_tasks, return_exceptions=True)
            self._refresh_tasks.clear()
        if self._tick_busy:
            # A tick the watchdog abandoned may still be running on the
            # tick thread; give it a bounded grace to drain before the
            # shard runner and cache underneath it are freed.
            try:
                await asyncio.wait_for(
                    self._tick_idle.wait(), timeout=_STOP_GRACE_S
                )
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        if self._tick_pool is not None:
            self._tick_pool.shutdown(wait=False, cancel_futures=True)
            self._tick_pool = None
        if self._shard_runner is not None:
            self._shard_runner.close()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def query(
        self,
        a: int,
        b: int,
        *,
        tenant: str | None = None,
        deadline_s: float | None = None,
    ) -> ServedEstimate:
        """Estimate ``C2(a, b)``; resolves after the coalescing tick runs.

        Parameters
        ----------
        a, b:
            Distinct query vertices on the server's layer.
        tenant:
            The requesting analyst's registered name. Required when the
            server has a :class:`TenantRegistry`; forbidden otherwise.
        deadline_s:
            Per-call deadline override (seconds from now); defaults to
            the server's ``query_deadline_s``.

        Returns
        -------
        ServedEstimate
            The caller's answer with its serving provenance (epoch, tick,
            cache-hit flag, optional noisy degrees).

        Raises
        ------
        GraphError
            If a vertex id is out of range for the serving layer.
        ProtocolError
            If the server is not running, the pair is degenerate, the
            tenant tag is missing/unknown/unexpected, or ``deadline_s``
            is not positive.
        BudgetExceededError
            If the requesting tenant cannot cover the query's marginal
            cost, or (enforced accountants) a vertex would exceed its
            epoch allowance.
        ServerOverloadedError
            If the admission queue is full and this query holds the
            oldest deadline among the shedding candidates. Nothing was
            charged.
        QueryDeadlineError
            If the query's deadline passed before its tick ran. Nothing
            was charged.
        """
        pair = QueryPair(self.layer, a, b)  # validates distinctness
        n_layer = self.graph.layer_size(self.layer)
        if not (0 <= pair.a < n_layer and 0 <= pair.b < n_layer):
            raise GraphError(
                f"query vertex out of range for {self.layer} layer of size {n_layer}"
            )
        if self.tenants is not None:
            if tenant is None:
                raise ProtocolError(
                    "this server is multi-tenant: pass tenant=<registered name>"
                )
            self.tenants.get(tenant)  # raises ProtocolError when unknown
        elif tenant is not None:
            raise ProtocolError(
                "tenant tags need a TenantRegistry (pass tenants= to the server)"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ProtocolError(f"deadline_s must be positive, got {deadline_s}")
        if self._task is None or self._closing:
            raise ProtocolError("server is not running (use `async with` or start())")
        loop = asyncio.get_running_loop()
        if deadline_s is None:
            deadline_s = self.query_deadline_s
        deadline = None if deadline_s is None else loop.time() + float(deadline_s)
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self._shed_for(pair, deadline)
        future: asyncio.Future = loop.create_future()
        self._pending.append((pair, tenant, future, deadline))
        self._wake.set()
        return await future

    def _shed_for(self, pair: QueryPair, deadline: float | None) -> None:
        """Make room for a new query by refusing the oldest-deadline one.

        The victim is the queued query with the earliest deadline, unless
        the newcomer's own deadline is at least as early (or nothing
        queued carries one) — then the newcomer is refused instead, by
        raising out of :meth:`query` before its future exists. Either
        way the refusal precedes tenant admission, so no budget moves.
        """
        victim = None
        victim_deadline = deadline  # the newcomer's; None sorts last
        for i, (_, _, _, d) in enumerate(self._pending):
            if d is not None and (victim_deadline is None or d < victim_deadline):
                victim, victim_deadline = i, d
        self.stats.queries_shed += 1
        if victim is None:
            raise ServerOverloadedError(
                f"admission queue is full ({self.max_pending} pending); "
                f"query {(pair.a, pair.b)} shed unserved (nothing charged)"
            )
        vpair, _, vfuture, _ = self._pending.pop(victim)
        if not vfuture.done():
            vfuture.set_exception(
                ServerOverloadedError(
                    f"admission queue is full ({self.max_pending} pending); "
                    f"query {(vpair.a, vpair.b)} shed unserved "
                    "(nothing charged)"
                )
            )

    async def query_pair(
        self,
        pair: QueryPair,
        *,
        tenant: str | None = None,
        deadline_s: float | None = None,
    ) -> ServedEstimate:
        """:meth:`query` for an existing :class:`QueryPair`."""
        return await self.query(
            pair.a, pair.b, tenant=tenant, deadline_s=deadline_s
        )

    def mutate(
        self,
        inserts: np.ndarray | list | tuple = (),
        deletes: np.ndarray | list | tuple = (),
    ) -> int:
        """Record streaming edge mutations, applied at the next rotation.

        The served snapshot is immutable between epochs: mutations land
        in the cache's out-of-place delta log, and the next
        :meth:`rotate_epoch` swaps in the mutated graph *incrementally* —
        only the net delta's dirty vertices redraw (and recharge); clean
        vertices keep serving their existing bit-identical views for
        free. Returns the number of ops recorded.

        Raises
        ------
        GraphError
            If an edge endpoint is out of range.
        """
        recorded = self.cache.mutate(inserts, deletes)
        self.stats.mutations += recorded
        return recorded

    def ingest_ledger(self) -> dict | None:
        """The shard transport's streaming-ingest traffic ledger, if any.

        A socket cluster absorbing :meth:`mutate` rotations reports what
        each resync cost: MUTATE delta pushes (and the bytes they saved
        against re-shipping the snapshot), full GRAPH installs, and
        pushes workers refused because their delta chain diverged.
        ``None`` when the server is not sharded or its transport keeps
        no such ledger (inline / fork).
        """
        if self._shard_runner is None:
            return None
        return self._shard_runner.transport.describe().get("ingest")

    async def subscribe(
        self, a: int, b: int, *, tenant: str | None = None
    ) -> Subscription:
        """Register a standing ``C2(a, b)`` query and serve its first estimate.

        The returned :class:`Subscription` is live: after every rotation
        that could change the answer — any full rotation, or an
        incremental rotation that dirtied ``a`` or ``b`` — the server
        re-queries the pair and replaces ``last``. Rotations that leave
        both endpoints clean do not refresh (the cached answer is still
        bit-identical). Raises exactly like :meth:`query`.
        """
        estimate = await self.query(a, b, tenant=tenant)
        sub = Subscription(
            id=self._next_sub_id,
            pair=QueryPair(self.layer, a, b),
            tenant=tenant,
            last=estimate,
        )
        self._next_sub_id += 1
        self._subscriptions[sub.id] = sub
        return sub

    def unsubscribe(self, sub_id: int) -> bool:
        """Drop a standing query; True when it existed."""
        return self._subscriptions.pop(int(sub_id), None) is not None

    @property
    def subscriptions(self) -> list[Subscription]:
        """The live standing queries (registration order)."""
        return list(self._subscriptions.values())

    def rotate_epoch(self) -> int:
        """Start a new epoch: views dropped, next queries re-draw and recharge.

        With pending :meth:`mutate` ops whose net effect is nonempty, the
        rotation is *incremental* (see :meth:`NoisyViewCache.rotate`):
        the mutated snapshot is swapped in and only dirty vertices drop
        their views; clean vertices keep serving charge-free.

        When ``warm_vertices > 0`` (materialize and sketch-view modes),
        the closed epoch's hottest vertices that hold no resident view
        are immediately drawn — and, when never drawn this epoch, charged
        — into the fresh epoch, server-funded: tenants see them as cache
        hits. A hot vertex that kept its view through an incremental
        rotation is left alone: redrawing it would re-release it.

        Standing subscriptions touched by the rotation (all of them on a
        full rotation, dirty-endpoint ones on an incremental rotation)
        are marked stale and re-queried on the event loop.

        Returns the new epoch id.
        """
        epoch = self.cache.rotate()
        self.stats.epochs_completed += 1
        self.stats.ticks_in_epoch = 0
        # No warming during shutdown: the pre-draw may fan out to the
        # shard runner, which stop() is about to free.
        if (
            self.warm_vertices
            and self.mode is not ExecutionMode.SKETCH
            and not self._closing
        ):
            self._prewarm(self.cache.hottest_last_epoch(self.warm_vertices))
        self._refresh_subscriptions(self.cache.last_rotation)
        return epoch

    def _refresh_subscriptions(self, rotation: dict) -> None:
        """Mark rotation-affected subscriptions stale and re-query them.

        Outside a running event loop the subscriptions are only marked
        stale — the next in-loop rotation (or a manual re-query) clears
        them; refreshing needs the tick loop.
        """
        if not self._subscriptions:
            return
        if rotation.get("incremental"):
            dirty = {int(v) for v in rotation.get("dirty_vertices", ())}
            affected = [
                s for s in self._subscriptions.values()
                if s.pair.a in dirty or s.pair.b in dirty
            ]
        else:
            affected = list(self._subscriptions.values())
        if not affected:
            return
        for sub in affected:
            sub.stale = True
        if self._closing or self._task is None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        for sub in affected:
            task = loop.create_task(self._refresh_one(sub))
            self._refresh_tasks.add(task)
            task.add_done_callback(self._refresh_tasks.discard)

    async def _refresh_one(self, sub: Subscription) -> None:
        if self._closing or sub.id not in self._subscriptions:
            return
        try:
            estimate = await self.query_pair(sub.pair, tenant=sub.tenant)
        except ProtocolError:
            return  # server stopped under the refresh
        except Exception:  # noqa: BLE001 - a standing query must not crash
            self.stats.errors += 1
            return
        if sub.id in self._subscriptions:
            sub.last = estimate
            sub.stale = False
            sub.refreshes += 1
            self.stats.subscription_refreshes += 1

    def _prewarm(self, hot: list[int]) -> None:
        """Charge and pre-draw the given vertices' missing views."""
        if not hot:
            return
        warmed = self.cache.resolve_views(
            np.asarray(hot, dtype=np.int64), self.rng,
            ledger=self.ledger, stage="warm-rr", gather=False,
        )
        if warmed.upload_bytes:
            self.comm.record(Direction.UPLOAD, warmed.upload_bytes, "serve:warm")
        self.cache.stats.warm_draws += warmed.drawn
        self.stats.warmed_vertices += warmed.drawn
        self.cache.evict_to_budget()

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            if self.tick_interval > 0:
                await asyncio.sleep(self.tick_interval)
            else:
                # One extra scheduling round so every caller made runnable
                # by the same burst lands in this tick.
                await asyncio.sleep(0)
            batch, self._pending = self._pending, []
            self._wake.clear()
            batch = self._prune_expired(batch)
            if batch:
                await self._serve_tick(batch)
            if self._closing and not self._pending:
                return

    def _prune_expired(
        self,
        batch: list[tuple[QueryPair, str | None, asyncio.Future, float | None]],
    ) -> list[tuple[QueryPair, str | None, asyncio.Future, float | None]]:
        """Fail queries whose deadline passed before their tick ran.

        Pruning happens *before* tenant admission, so an expired query's
        budget is untouched — the "refund" is that nothing was ever
        debited for it.
        """
        if all(deadline is None for _, _, _, deadline in batch):
            return batch
        now = asyncio.get_running_loop().time()
        live = []
        for entry in batch:
            pair, _, future, deadline = entry
            if deadline is not None and deadline <= now:
                self.stats.deadline_expired += 1
                if not future.done():
                    future.set_exception(
                        QueryDeadlineError(
                            f"deadline expired before the tick for query "
                            f"{(pair.a, pair.b)} (nothing charged)"
                        )
                    )
            else:
                live.append(entry)
        return live

    async def _rotate_loop(self) -> None:
        """Wall-clock epoch rotation, cancelled on :meth:`stop`.

        A failed warm pre-draw (e.g. a capped ledger refusing the warm
        charge) must not kill the timer: the rotation itself has already
        happened by then, so the error is counted and the clock keeps
        running — silently stopping rotation would stretch epochs
        indefinitely, which is privacy-relevant. Only successful
        rotations count toward ``stats.timed_rotations``.

        Deadlines are absolute: each rotation is scheduled
        ``epoch_seconds`` after the *previous deadline*, not after the
        previous rotation finished, so rotation/warm-draw time does not
        drift the epoch clock (a tardy loop catches up instead of
        compounding the delay).
        """
        assert self.epoch_seconds is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.epoch_seconds
        while True:
            delay = deadline - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # Shutdown check *after* the sleep: stop() takes the closing
            # flag before anything is freed, so a rotation that wakes
            # inside the shutdown window must not touch the cache or the
            # shard runner it is about to lose.
            if self._closing:
                return
            deadline += self.epoch_seconds
            if self._tick_busy:
                # A watched tick — possibly one the watchdog already
                # abandoned — is still running on the tick thread;
                # rotating under it would swap the cache epoch mid-draw.
                # Skip — the absolute deadline already advanced, so the
                # next window rotates on schedule.
                self.stats.deferred_rotations += 1
                continue
            try:
                self.rotate_epoch()
            except Exception:  # noqa: BLE001 - keep the clock alive
                self.stats.errors += 1
            else:
                self.stats.timed_rotations += 1

    async def _serve_tick(
        self,
        batch: list[tuple[QueryPair, str | None, asyncio.Future, float | None]],
    ) -> None:
        # The tick's pairs and their (n, 2) endpoint block, read once at
        # C level; admission and the hit flags both read the block.
        pairs = list(map(itemgetter(0), batch))
        endpoints = pair_endpoints(pairs)
        admission = tagged = None
        if self.tenants is not None:
            tagged = list(zip(pairs, map(itemgetter(1), batch)))
            admission = self.tenants.admit(
                tagged, self.cache, degree_epsilon=self.degree_epsilon,
                endpoints=endpoints,
            )
            for position, exc in admission.rejected:
                future = batch[position][2]
                if not future.done():
                    future.set_exception(exc)
            self.stats.queries_rejected += len(admission.rejected)
            if admission.rejected:
                admitted = list(admission.admitted)
                batch = [batch[position] for position in admitted]
                pairs = [pairs[position] for position in admitted]
                endpoints = endpoints[admitted]
            if not batch:
                return
        epoch = self.cache.epoch
        self.stats.ticks += 1
        self.stats.ticks_in_epoch += 1
        self.stats.max_coalesced = max(self.stats.max_coalesced, len(batch))
        tick = self.stats.ticks
        hits = self._pre_tick_hits(endpoints)
        try:
            result = await self._run_engine(pairs)
            degrees = self._release_degrees(result.vertices)
        except Exception as exc:  # noqa: BLE001 - routed to the callers
            self.stats.errors += 1
            if self.tenants is not None:
                # Nobody was answered and nothing was released: undo the
                # admission debits so quotas track real spend only.
                self.tenants.refund(tagged, admission)
            for _, _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        hits = hits.tolist()
        if self.tenants is not None:
            self.tenants.settle(list(zip(pairs, map(itemgetter(1), batch))), hits)
        # Result columns as Python scalars in one conversion each.
        columns = zip(
            batch,
            result.values.tolist(),
            result.noisy_intersections.tolist(),
            result.noisy_unions.tolist(),
            hits,
        )
        for (pair, tenant, future, _), value, n1, n2, hit in columns:
            estimate = ServedEstimate(
                pair=pair,
                value=value,
                noisy_intersection=n1,
                noisy_union=n2,
                epoch=epoch,
                tick=tick,
                cache_hit=hit,
                epsilon=self.epsilon,
                noisy_degree_a=None if degrees is None else degrees[pair[1]],
                noisy_degree_b=None if degrees is None else degrees[pair[2]],
                tenant=tenant,
            )
            if not future.done():
                future.set_result(estimate)
        self.stats.queries_served += len(batch)
        if self.epoch_ticks is not None and self.stats.ticks_in_epoch >= self.epoch_ticks:
            self.rotate_epoch()

    async def _run_engine(self, pairs: list[QueryPair]):
        """The tick's engine call, watched when ``tick_watchdog_s`` is set.

        The default path runs the engine inline on the event loop — the
        array work is fast and a single-process server gains nothing
        from a thread. With a watchdog the call moves to a dedicated
        single-thread executor under ``asyncio.wait_for``: a tick stuck
        past the deadline is abandoned (its callers get
        :class:`~repro.errors.ServerStalledError` and the tick's
        admission debits are refunded by the caller's error path) rather
        than hanging every client. ``_tick_busy`` stays set until the
        abandoned call *actually finishes* — a done-callback on the
        executor future clears it — so timed rotations stay deferred and
        later ticks wait for the zombie instead of racing it on the
        shared cache, ledger and rng; a later tick whose wait outlives
        its own watchdog window is stalled in turn. A zombie that
        eventually completes has still charged the cache accountant for
        the views it drew; its tick's admission debits were refunded, so
        those views are server-funded — later queries see them as free
        cache hits, exactly like epoch warming.
        """

        def call():
            return self.engine.estimate_pairs(
                self.graph, self.layer, pairs, self.epsilon,
                rng=self.rng, mode=self.mode,
                ledger=self.ledger, comm=self.comm, cache=self.cache,
            )

        if self.tick_watchdog_s is None:
            return call()
        if self._tick_busy:
            # An abandoned tick's engine call is still running; starting
            # another beside it would corrupt shared state.
            try:
                await asyncio.wait_for(
                    self._tick_idle.wait(), timeout=self.tick_watchdog_s
                )
            except (asyncio.TimeoutError, TimeoutError) as exc:
                self.stats.stalled_ticks += 1
                raise ServerStalledError(
                    f"a previous tick is still stuck past the "
                    f"{self.tick_watchdog_s}s watchdog; this tick failed "
                    "instead of racing it"
                ) from exc
        loop = asyncio.get_running_loop()
        if self._tick_pool is None:
            self._tick_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-tick"
            )
        self._tick_busy = True
        self._tick_idle.clear()
        tick_future = self._tick_pool.submit(call)

        def finished(_future) -> None:
            # Runs on the tick thread when the call truly completes —
            # including long after the watchdog abandoned it.
            try:
                loop.call_soon_threadsafe(self._tick_finished)
            except RuntimeError:  # pragma: no cover - loop already closed
                self._tick_busy = False

        tick_future.add_done_callback(finished)
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(tick_future, loop=loop),
                timeout=self.tick_watchdog_s,
            )
        except (asyncio.TimeoutError, TimeoutError) as exc:
            self.stats.stalled_ticks += 1
            raise ServerStalledError(
                f"tick stuck past the {self.tick_watchdog_s}s watchdog; "
                "pending queries failed instead of hanging"
            ) from exc

    def _tick_finished(self) -> None:
        self._tick_busy = False
        self._tick_idle.set()

    def _pre_tick_hits(self, endpoints: np.ndarray) -> np.ndarray:
        """Per-caller hit flags over the tick's ``(n, 2)`` endpoint block,
        taken before the tick mutates the cache: a resident pair draw in
        sketch mode, both endpoints' views resident otherwise."""
        if self.mode is ExecutionMode.SKETCH:
            return self.cache.pair_cached_mask(endpoints)
        return self.cache.vertex_cached_mask(endpoints).all(axis=1)

    def _release_degrees(self, vertices: np.ndarray) -> dict[int, float] | None:
        """Epoch-cached noisy degrees for the tick's distinct vertices.

        Only degrees never *drawn* this epoch are charged: a bounded
        cache reconstructs an evicted degree from its keyed stream —
        privacy-free, like evicted rows — so the redraw re-uploads but
        must not recharge (or trip the epoch allowance).
        """
        if self.degree_epsilon is None:
            return None
        fresh = np.array(
            [v for v in vertices if not self.cache.has_degree(v)], dtype=np.int64
        )
        if fresh.size:
            # Charge first: a refused charge must not leave cached degrees
            # behind to be served free (and unaccounted) on later ticks.
            charged = self.cache.uncharged_degrees(fresh)
            self.accountant.charge_vertices(
                self.layer, charged, self.degree_epsilon,
                "laplace-degree", "serve-degrees", ledger=self.ledger,
            )
            mech = LaplaceMechanism(self.degree_epsilon, degree_sensitivity())
            self.cache.degree_fresh(fresh, mech, self.rng)
            self.comm.record(
                Direction.UPLOAD, int(fresh.size) * FLOAT_BYTES, "serve:degrees"
            )
            self.cache.stats.degree_misses += int(fresh.size)
        self.cache.stats.degree_hits += int(len(vertices) - fresh.size)
        released = {int(v): self.cache.degree(v) for v in vertices}
        if fresh.size:
            # Degrees count against the LRU budget like everything else;
            # the engine's end-of-tick eviction ran before they landed.
            self.cache.evict_to_budget()
        return released
