"""The batch query engine: a whole pair workload in one vectorized pass.

:class:`BatchQueryEngine` is the array-level replacement for running
:class:`~repro.estimators.batch.BatchOneRound` (or worse, one
:class:`~repro.protocol.session.ProtocolSession` per pair) over a
workload. One call plans the workload, perturbs every distinct vertex in
one bulk RR draw (or draws sketch-mode sufficient statistics), counts all
pairwise noisy intersections through one sparse product, de-biases every
pair with a single vectorized expression, and emits exactly one
:class:`~repro.privacy.accountant.PrivacyLedger` /
:class:`~repro.protocol.messages.CommunicationLog` accounting for the
batch.

Privacy matches the shared-round protocol: each distinct workload vertex
passes through one ε-RR invocation, so the batch is ε-edge LDP by parallel
composition regardless of how many pairs it answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.bulkrr import bulk_randomized_response
from repro.engine.pairwise import (
    choose_backend,
    debias_pair_counts,
    pair_id_total,
    pairwise_intersections,
)
from repro.engine.planner import (
    WorkloadPlan,
    pair_keys,
    plan_shards,
    plan_workload,
)
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import ShardTransport, make_transport
from repro.engine.sketch import sketch_pair_counts
from repro.engine.sketches import SketchConfig, sketch_family
from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.codes import sorted_unique, unique_rows
from repro.graph.sampling import QueryPair
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.composition import QueryBudgetManager
from repro.privacy.mechanisms import flip_probability
from repro.privacy.rng import RngLike, ensure_rng
from repro.protocol.messages import ID_BYTES, CommunicationLog, Direction
from repro.protocol.session import ExecutionMode, resolve_mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving uses engine)
    from repro.serving.cache import NoisyViewCache

__all__ = ["BATCH_METHODS", "EngineResult", "BatchQueryEngine", "workload_party"]

# Application-level method names that route a workload through the engine
# instead of a per-pair estimator (shared by similarity / projection /
# community so the aliases cannot drift apart).
BATCH_METHODS = ("batch-oner", "batch", "engine")


def workload_party(layer: Layer, num_vertices: int) -> str:
    """Ledger group label for a batch's distinct query vertices.

    All rounds of one batch must charge the same label so sequential
    composition across rounds (RR + degree reports) adds up per vertex.
    """
    return f"{layer.value}:workload[{num_vertices}v]"


@dataclass(frozen=True)
class EngineResult:
    """Every pair's estimate plus the batch's accounting, in arrays."""

    layer: Layer
    epsilon: float
    pairs: tuple[QueryPair, ...]
    values: np.ndarray
    noisy_intersections: np.ndarray
    noisy_unions: np.ndarray
    vertices: np.ndarray  # distinct query vertices, sorted
    ia: np.ndarray  # per-pair slot of pair.a within `vertices`
    ib: np.ndarray
    upload_bytes: int
    num_query_vertices: int
    mode: ExecutionMode
    max_epsilon_spent: float
    details: dict = field(default_factory=dict)
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value(self, pair: QueryPair) -> float:
        """The estimate for one of the batch's pairs (O(1) lookup)."""
        if not self._index:
            self._index.update({p: i for i, p in enumerate(self.pairs)})
        try:
            return float(self.values[self._index[pair]])
        except KeyError:
            raise ProtocolError(f"pair {pair} is not part of this batch") from None


class BatchQueryEngine:
    """Answers same-layer pair workloads with array-level work only.

    Parameters
    ----------
    mode:
        Default execution mode (``AUTO`` resolves by candidate-pool
        size).
    shards, shard_mem_bytes:
        Turn on sharded execution of the materialize-mode bulk-RR +
        pairwise stages: the workload's vertex block is split into
        contiguous ranges, each range is drawn from the keyed Philox
        kernel by a forked worker process, and pairwise N1 reduces over
        shard blocks with a per-block backend re-choice. When only
        ``shards`` is given it is both the range count and the worker
        cap; ``shard_mem_bytes`` sizes ranges by their expected noisy
        payload instead (workers then default to the cpu count, or to
        ``shards`` when both are given — the same semantics the
        :class:`~repro.serving.server.QueryServer` options use). The
        drawn bits are shard-invariant (see ``docs/sharding-guide.md``),
        and ``details["shards"]`` records every range and backend
        choice. Sketch mode has no rows to shard and ignores both
        options.
    shard_timeout_s, shard_retries:
        Resilience knobs forwarded to the :class:`ShardedRunner`: the
        per-task deadline and the re-dispatch budget before a failed
        range degrades to inline execution. Whatever the resilience
        envelope did is reported in ``details["shards"]["faults"]``.
    shard_transport, shard_workers:
        *Where* shard work runs: a
        :class:`~repro.engine.transport.ShardTransport` instance, or a
        kind name (``"inline"``, ``"fork"``, ``"socket"``) resolved via
        :func:`~repro.engine.transport.make_transport`;
        ``shard_workers`` is the socket cluster's ``host:port`` address
        list. Defaults to the fork pool. Giving a transport alone (no
        ``shards``/``shard_mem_bytes``) turns sharding on with one
        range per transport worker. Per-draw traffic accounting lands
        in ``details["shards"]["transport"]``.
    sketch, view_mem_bytes:
        A :class:`~repro.engine.sketches.SketchConfig` turns on
        sublinear-memory sketch views. Under ``SKETCH_VIEW`` mode every
        workload vertex releases one fixed-size sketch; under
        ``MATERIALIZE`` the planner decides per vertex (hybrid): a
        vertex whose expected noisy row outweighs the sketch — or that
        the optional ``view_mem_bytes`` workload budget forces out — is
        sketched, and the decision is closed over pairs so every pair is
        answered from one view kind (see
        :func:`~repro.engine.planner.plan_views`). The decision is
        reported in ``details["planner"]``.

    A sharding engine owns a worker pool; call :meth:`close` (or use the
    engine as a context manager) to free the processes.
    """

    name = "engine-batch"
    unbiased = True

    def __init__(
        self,
        *,
        mode: ExecutionMode = ExecutionMode.AUTO,
        shards: int | None = None,
        shard_mem_bytes: int | None = None,
        shard_timeout_s: float | None = None,
        shard_retries: int = 2,
        shard_transport: "ShardTransport | str | None" = None,
        shard_workers: Sequence[str] | None = None,
        sketch: "SketchConfig | None" = None,
        view_mem_bytes: int | None = None,
    ):
        if shards is not None and shards <= 0:
            raise ProtocolError(f"shards must be positive, got {shards}")
        if shard_mem_bytes is not None and shard_mem_bytes <= 0:
            raise ProtocolError(
                f"shard_mem_bytes must be positive, got {shard_mem_bytes}"
            )
        if view_mem_bytes is not None and sketch is None:
            raise ProtocolError("view_mem_bytes requires a sketch config")
        if mode is ExecutionMode.SKETCH_VIEW and sketch is None:
            raise ProtocolError(
                "sketch-view mode needs a SketchConfig (pass sketch=)"
            )
        self.mode = mode
        self.shards = shards
        self.shard_mem_bytes = shard_mem_bytes
        self.shard_timeout_s = shard_timeout_s
        self.shard_retries = shard_retries
        self.shard_transport = shard_transport
        self.shard_workers = list(shard_workers) if shard_workers else None
        self.sketch = sketch
        self.view_mem_bytes = view_mem_bytes
        self._runner: ShardedRunner | None = None

    # ------------------------------------------------------------------
    @property
    def sharding(self) -> bool:
        """True when this engine shards its materialize-mode draws."""
        return (
            self.shards is not None
            or self.shard_mem_bytes is not None
            or self.shard_transport is not None
        )

    def close(self) -> None:
        """Release the sharded runner's worker pool (no-op otherwise)."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "BatchQueryEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _shard_runner(self, graph: BipartiteGraph, layer: Layer) -> ShardedRunner:
        """The engine's runner, rebound when the serving context changes."""
        runner = self._runner
        if runner is not None and (
            runner.graph is not graph or runner.layer is not layer
        ):
            runner.close()
            runner = None
        if runner is None:
            transport = self.shard_transport
            if isinstance(transport, str):
                transport = make_transport(
                    transport,
                    max_workers=self.shards,
                    workers=self.shard_workers,
                )
            runner = ShardedRunner(
                graph,
                layer,
                max_workers=self.shards,
                timeout_s=self.shard_timeout_s,
                max_retries=self.shard_retries,
                transport=transport,
            )
            self._runner = runner
        return runner

    def _plan_shard_count(self, runner: ShardedRunner) -> int | None:
        """Range count for :func:`plan_shards` (None when a mem budget rules)."""
        if self.shard_mem_bytes is not None:
            return None
        if self.shards is not None:
            return self.shards
        # Transport-only configuration: one range per transport worker.
        return max(1, runner.transport.workers)

    def estimate_pairs(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        pairs: Sequence[QueryPair],
        epsilon: float | None = None,
        *,
        budget: QueryBudgetManager | None = None,
        rng: RngLike = None,
        mode: ExecutionMode | None = None,
        ledger: PrivacyLedger | None = None,
        comm: CommunicationLog | None = None,
        cache: "NoisyViewCache | None" = None,
    ) -> EngineResult:
        """Estimate ``C2`` for every pair from one shared noisy round.

        ``budget`` (a :class:`QueryBudgetManager`) may fund the batch
        instead of ``epsilon``; one slice is drawn per call. An external
        ``ledger``/``comm`` can be passed when the batch is one round of a
        larger protocol (e.g. batch similarity, which adds a degree round
        against the same ledger).

        ``cache`` (a :class:`~repro.serving.cache.NoisyViewCache`) turns
        the call into one epoch-cached serving tick: vertices (materialize
        and sketch-view modes) or pairs (sketch mode) already holding an
        epoch view are
        served from the identical cached draw with **zero** additional
        budget charge; only cache misses are perturbed and charged —
        through the cache's :class:`~repro.privacy.epoch.EpochAccountant`
        and, in aggregate, ``ledger.charge_parallel``. Epsilon defaults to
        (and must match) the cache's pinned budget.

        A sharding engine (``shards=`` / ``shard_mem_bytes=`` at
        construction) executes the uncached materialize path as a fanned
        keyed draw plus a per-shard-block pairwise reduce, reporting
        every range and backend choice in ``details["shards"]``; cached
        ticks shard inside the cache instead (attach a runner to the
        cache / server).
        """
        if cache is not None:
            if budget is not None:
                raise PrivacyError(
                    "an epoch cache pins the batch epsilon; a budget manager "
                    "cannot fund cached batches"
                )
            if epsilon is None:
                epsilon = cache.epsilon
        rng = ensure_rng(rng)
        if mode is None and cache is not None:
            mode = cache.mode
        mode = self._resolve_mode(graph, layer, mode)
        sketch = self.sketch
        if sketch is None and cache is not None:
            sketch = cache.sketch
        if mode is ExecutionMode.SKETCH_VIEW and sketch is None:
            raise ProtocolError(
                "sketch-view mode needs a SketchConfig (pass sketch= to the "
                "engine or serve from a sketch-view cache)"
            )
        # Uncached batches with a sketch config carry a per-vertex
        # list-vs-sketch plan: forced all-sketch in SKETCH_VIEW mode,
        # decided by row economics / the view budget under MATERIALIZE.
        plan_sketch = (
            cache is None
            and sketch is not None
            and mode in (ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH_VIEW)
        )
        plan = plan_workload(
            graph, layer, pairs, epsilon, budget=budget,
            **(
                {
                    "sketch_bytes": sketch.bytes_per_vertex,
                    "view_mem_bytes": self.view_mem_bytes,
                    "force_sketch": mode is ExecutionMode.SKETCH_VIEW,
                }
                if plan_sketch
                else {}
            ),
        )
        if ledger is None:
            ledger = PrivacyLedger(limit=plan.epsilon)
        if comm is None:
            comm = CommunicationLog()
        domain = graph.layer_size(plan.layer.opposite())

        if cache is not None:
            cache.check_compatible(graph, plan.layer, plan.epsilon, mode, self.sketch)
            return self._estimate_pairs_cached(
                plan, mode, cache, rng, ledger, comm, domain
            )
        if mode is ExecutionMode.SKETCH:
            n1, n2, sizes = sketch_pair_counts(
                graph, plan.layer, plan.vertices, plan.ia, plan.ib, plan.epsilon, rng
            )
            values = debias_pair_counts(n1, n2, domain, plan.epsilon)
            upload_bytes = int(sizes.sum()) * ID_BYTES
            details: dict = {"backend": "sketch"}
        else:
            values, n1, n2, upload_bytes, details = self._estimate_views(
                graph, plan, sketch, rng, domain
            )

        k = plan.num_vertices
        party = workload_party(plan.layer, k)
        # Every vertex — listed, sketched or pair-sampled — releases one
        # ε-LDP report: one parallel-composition charge for the batch.
        ledger.charge_parallel(
            party, plan.epsilon, "randomized-response", "engine-batch-rr", count=k
        )
        comm.record(
            Direction.UPLOAD,
            upload_bytes,
            "engine-batch:views" if "planner" in details else "engine-batch:edges",
        )
        ledger.assert_within(ledger.limit if ledger.limit is not None else plan.epsilon)
        return self._result(
            plan, mode, values, n1, n2, upload_bytes, ledger.max_spent(), domain,
            party=party, **details,
        )

    def _estimate_views(
        self,
        graph: BipartiteGraph,
        plan: WorkloadPlan,
        sketch: "SketchConfig | None",
        rng: np.random.Generator,
        domain: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, dict]:
        """One uncached batch answered from fresh per-vertex views.

        Returns ``(values, n1, n2, upload_bytes, details)``. A vertex is
        *listed* (a noisy RR row) or, under a view plan, *sketched* (a
        fixed-size sketch). The plan's sketch mask is pair-closed, so
        every pair is answered from one view kind: sketched pairs through
        the family's debiased intersection estimator, listed pairs
        through the pairwise + Theorem-3 pipeline. A plan without
        sketched vertices (every plain materialize call) is the all-listed
        case and draws no sketch entropy. Otherwise the sketch entropy is
        drawn from ``rng`` *before* any listed randomness, making the
        sketch bits invariant to the listed block's backend and sharding
        (and bit-reproducible per seed).

        Sketched pairs have no ``(N1, N2)`` counts; their slots carry the
        ``-1`` sentinel. ``details["sketch_variance"]`` carries the
        closed-form variance of each sketched pair's estimate (0 for
        listed pairs).
        """
        vp = plan.views
        sketched = vp is not None and vp.num_sketched > 0
        sk = (
            vp.sketch_mask if sketched else np.zeros(plan.num_vertices, dtype=bool)
        )
        pair_sk = sk[plan.ia]  # closure: sk[ia] == sk[ib] for every pair
        n1 = np.full(plan.num_pairs, -1, dtype=np.int64)
        n2 = np.full(plan.num_pairs, -1, dtype=np.int64)
        values = np.empty(plan.num_pairs, dtype=np.float64)
        upload_bytes = 0
        details: dict = {"backend": "sketch-view"}

        if sketched:
            family = sketch_family(sketch)
            ia_sk, ib_sk = _sub_block(sk, plan.ia[pair_sk], plan.ib[pair_sk])
            entropy = int(rng.integers(1 << 62))
            views = family.encode_release(
                graph, plan.layer, plan.vertices[sk], plan.epsilon,
                entropy=entropy, epoch=0,
            )
            sketch_values = family.intersect(views, ia_sk, ib_sk, plan.epsilon)
            values[pair_sk] = sketch_values
            upload_bytes += int(views.nbytes)
            # Closed-form variance of every sketched estimate (listed slots
            # 0), from the family's conservative bound at the estimated
            # degrees.
            deg_hat = np.clip(family.cardinality(views, plan.epsilon), 0.0, None)
            variance = np.zeros(plan.num_pairs, dtype=np.float64)
            variance[pair_sk] = family.intersection_variance(
                deg_hat[ia_sk], deg_hat[ib_sk],
                np.clip(sketch_values, 0.0, None), plan.epsilon,
            )
            details.update(
                planner={
                    "sketched_vertices": vp.num_sketched,
                    "listed_vertices": vp.num_listed,
                    "promoted": vp.promoted,
                    "sketch_bytes_per_vertex": vp.sketch_bytes,
                    "est_view_bytes": vp.est_view_bytes,
                    "sketch_kind": sketch.kind,
                    "sketch_buckets": sketch.m,
                    "sketch_pairs": int(np.count_nonzero(pair_sk)),
                    "listed_pairs": int(np.count_nonzero(~pair_sk)),
                },
                sketch_entropy=entropy,
                sketch_variance=variance,
            )

        if not sk.all():
            listed = ~pair_sk
            ia_li, ib_li = _sub_block(~sk, plan.ia[listed], plan.ib[listed])
            li_n1, sizes, backend, shard_details = self._draw_listed(
                graph, plan.layer, plan.vertices[~sk], ia_li, ib_li,
                plan.epsilon, rng, domain,
            )
            li_n2 = sizes[ia_li] + sizes[ib_li] - li_n1
            n1[listed] = li_n1
            n2[listed] = li_n2
            values[listed] = debias_pair_counts(li_n1, li_n2, domain, plan.epsilon)
            # Every listed vertex uploads its full noisy row regardless of
            # where it was reduced, so sizes (not a fragment's columns)
            # are the honest upload accounting.
            upload_bytes += int(sizes.sum()) * ID_BYTES
            details["backend"] = f"sketch-view+{backend}" if sketched else backend
            if shard_details:
                details["shards"] = shard_details
        return values, n1, n2, upload_bytes, details

    def _draw_listed(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        vertices: np.ndarray,
        ia: np.ndarray,
        ib: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        domain: int,
    ) -> tuple[np.ndarray, np.ndarray, str, dict | None]:
        """Draw fresh RR rows for ``vertices`` and count every pair's N1.

        Returns ``(n1, row_sizes, backend, shard_details)``. A sharding
        engine fans keyed draws (entropy from ``rng``, so the run is
        reproducible per seed) over the shard plan's ranges and reduces
        N1 per shard block — shard boundaries never change the drawn
        bits; a mem budget sizes the ranges, an explicit count only
        applies without one (it then still caps the workers). Otherwise
        one shared bulk-RR pass feeds the pairwise backend chosen for the
        block's shape.
        """
        if not self.sharding:
            indptr, columns = bulk_randomized_response(
                graph, layer, vertices, epsilon, rng
            )
            backend = choose_backend(
                vertices.size, ia.size, domain, pair_id_total(indptr, ia, ib)
            )
            n1 = pairwise_intersections(
                indptr, columns, ia, ib, domain, backend=backend
            )
            return n1, np.diff(indptr), backend, None
        runner = self._shard_runner(graph, layer)
        shard_plan = plan_shards(
            graph, layer, vertices, epsilon,
            shards=self._plan_shard_count(runner),
            mem_bytes=self.shard_mem_bytes,
        )
        workload = runner.run_workload(
            shard_plan, epsilon,
            entropy=int(rng.integers(1 << 62)), epoch=0,
            ia=ia, ib=ib, domain=domain,
        )
        return workload.n1, workload.sizes, "sharded", {
            "count": shard_plan.num_shards,
            "mem_bytes": shard_plan.mem_bytes,
            "draw": workload.shards,
            "pairwise": workload.blocks,
            "faults": workload.faults,
            "transport": workload.transport,
        }

    def _estimate_pairs_cached(
        self,
        plan: WorkloadPlan,
        mode: ExecutionMode,
        cache: "NoisyViewCache",
        rng: np.random.Generator,
        ledger: PrivacyLedger,
        comm: CommunicationLog,
        domain: int,
    ) -> EngineResult:
        """One serving tick: perturb and charge only the cache misses.

        Materialize and sketch-view modes are vertex-granular: the plan's
        distinct vertex block goes through
        :meth:`~repro.serving.cache.NoisyViewCache.resolve_views` (charge
        the never-drawn vertices, draw the non-resident ones, gather),
        then the whole tick is answered from cached views — so a pair
        repeated within the epoch gets a bit-identical estimate. Sketch
        mode is pair-granular: repeated pairs replay their cached
        ``(N1, N2)`` draw; new pairs draw fresh statistics and recharge
        their endpoints (documented sketch-mode honesty: without a
        stored list there is nothing to reuse).
        """
        recharges_before = cache.stats.recharges
        if mode is ExecutionMode.SKETCH:
            keys = pair_keys(plan)
            hit_mask = cache.pair_cached_mask(keys)
            upload_bytes = 0
            charged = np.empty(0, dtype=np.int64)
            party = None
            if not hit_mask.all():
                # Unique missed keys: a pair repeated within the tick draws
                # once and every occurrence replays that stored draw. Only
                # pairs never drawn this epoch recharge their endpoints —
                # a bounded cache replays evicted pairs deterministically.
                miss_keys = unique_rows(keys[~hit_mask])
                charged = sorted_unique(cache.unseen_pairs(miss_keys))
                # The charge must precede the draw so a refusal leaves no
                # uncharged cached statistics behind.
                party = cache.accountant.charge_vertices(
                    plan.layer, charged, plan.epsilon,
                    "randomized-response", "serve-rr", ledger=ledger,
                )
                _, _, upload_ids = cache.sketch_fresh(miss_keys, rng)
                upload_bytes = upload_ids * ID_BYTES
            n1, n2 = cache.gather_pair_counts(keys)
            hits = int(np.count_nonzero(hit_mask))
            misses = plan.num_pairs - hits
            cache.stats.pair_hits += hits
            cache.stats.pair_misses += misses
            values = debias_pair_counts(n1, n2, domain, plan.epsilon)
            backend = "sketch"
        else:
            resolved = cache.resolve_views(plan.vertices, rng, ledger=ledger)
            charged, party = resolved.charged, resolved.party
            upload_bytes = resolved.upload_bytes
            misses = resolved.drawn
            hits = plan.num_vertices - misses
            if mode is ExecutionMode.SKETCH_VIEW:
                values = sketch_family(cache.sketch).intersect(
                    resolved.views, plan.ia, plan.ib, plan.epsilon
                )
                n1 = np.full(plan.num_pairs, -1, dtype=np.int64)
                n2 = np.full(plan.num_pairs, -1, dtype=np.int64)
                backend = "sketch-view"
            else:
                # Cached views are packed bit rows: report sizes are row
                # popcounts and N1 comes straight off the gathered block,
                # with no CSR block or dense scratch to build.
                packed = resolved.views
                sizes = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
                backend = "bitset"
                n1 = pairwise_intersections(
                    None, None, plan.ia, plan.ib, domain,
                    backend=backend, packed=packed,
                )
                n2 = sizes[plan.ia] + sizes[plan.ib] - n1
                values = debias_pair_counts(n1, n2, domain, plan.epsilon)

        if upload_bytes:
            comm.record(Direction.UPLOAD, upload_bytes, "engine-batch:edges")
        # The tick is done with its working set: enforce the LRU budget
        # (no-op on unbounded caches).
        cache.evict_to_budget()
        shards = (
            {
                "shards": {
                    "draw": cache.last_shard_draw,
                    "faults": cache.last_shard_faults,
                }
            }
            if cache.shard_runner is not None and cache.last_shard_draw
            else {}
        )
        return self._result(
            plan, mode, values, n1, n2, upload_bytes,
            cache.accountant.max_lifetime_spent(), domain,
            backend=backend,
            party=party,
            cache={
                "epoch": cache.epoch,
                "hits": hits,
                "misses": misses,
                "charged_vertices": int(charged.size),
                # Evicted entries redrawn (privacy-free) by this tick:
                # re-upload work the byte budget traded for memory.
                "recharges": cache.stats.recharges - recharges_before,
            },
            **shards,
        )

    @staticmethod
    def _result(
        plan: WorkloadPlan,
        mode: ExecutionMode,
        values: np.ndarray,
        n1: np.ndarray,
        n2: np.ndarray,
        upload_bytes: int,
        max_epsilon_spent: float,
        domain: int,
        **details,
    ) -> EngineResult:
        """Every route's :class:`EngineResult`, with the shared ``details``
        keys (flip probability, candidate pool) ahead of the route's own."""
        return EngineResult(
            layer=plan.layer,
            epsilon=plan.epsilon,
            pairs=plan.pairs,
            values=values,
            noisy_intersections=np.asarray(n1, dtype=np.int64),
            noisy_unions=np.asarray(n2, dtype=np.int64),
            vertices=plan.vertices,
            ia=plan.ia,
            ib=plan.ib,
            upload_bytes=upload_bytes,
            num_query_vertices=plan.num_vertices,
            mode=mode,
            max_epsilon_spent=max_epsilon_spent,
            details={
                "flip_probability": flip_probability(plan.epsilon),
                "candidate_pool": domain,
                **details,
            },
        )

    def _resolve_mode(
        self, graph: BipartiteGraph, layer: Layer, mode: ExecutionMode | None
    ) -> ExecutionMode:
        return resolve_mode(graph, layer, mode if mode is not None else self.mode)


def _sub_block(
    members: np.ndarray, ia: np.ndarray, ib: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-index pair slots into the sub-block of vertices with ``members``
    set (every listed slot must be a member)."""
    position = np.full(members.size, -1, dtype=np.int64)
    position[members] = np.arange(int(np.count_nonzero(members)))
    return position[ia], position[ib]
