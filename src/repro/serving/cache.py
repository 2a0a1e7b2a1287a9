"""Epoch-scoped noisy views: perturb once per epoch, serve the rest free.

Both the source paper and the Imola et al. line of graph-LDP protocols
build on *reusable* per-user randomized reports: once a vertex's neighbor
list has passed through ε-RR, the released report is data-independent
noise plus signal and can answer any number of queries without further
privacy loss. :class:`NoisyViewCache` formalizes that as an epoch-scoped
store keyed by the serving layer's fixed ``(graph, layer, epsilon,
mode)``:

* **Materialize and sketch-view modes** cache one *vertex view* per
  vertex: its noisy neighbor list as one packed bit row
  (``ceil(domain / 8)`` bytes, bit ``c`` set iff column ``c`` was
  reported) or its fixed-size released sketch, in one resident store.
  OneR reads a report only through popcounts (its size and its
  intersection with another report), so the bit row carries all of it
  and a tick gathers the rows as the bitset backend's packed block.
  Every view takes one path, :meth:`NoisyViewCache.resolve_views`:
  charge the vertices not yet drawn this epoch, draw only the
  non-resident ones, gather. Every later query touching a cached vertex
  in the same epoch reuses the identical draw, bit for bit.
* **Sketch mode** never materializes lists, so per-vertex reuse has no
  state to reuse; the cache is pair-granular instead: a repeated pair is
  served from its cached ``(N1, N2)`` draw for free, while a *new* pair
  honestly recharges its endpoints (a fresh marginal draw simulates a
  fresh release — the :class:`~repro.privacy.epoch.EpochAccountant`
  records the accumulated loss instead of hiding it). The pair store is
  array-native: sorted int64 *pair codes* ``min(a, b) * n + max(a, b)``
  (``n`` the serving layer's size) with aligned ``N1``, ``N2`` and LRU
  stamp arrays — 32 bytes per entry — so a tick's hits, unseen keys,
  store and touching read are each one vectorized pass over the tick's
  ``(k, 2)`` key block (see :mod:`repro.graph.codes`).

Every membership question a tick asks is one array read: view residency
and the *charge memory* (which vertices, degrees and pairs were drawn —
and so charged — this epoch) are dense per-vertex flags and a sorted
pair-code array, kept current by every store, eviction and rotation.

``rotate()`` starts a new epoch: views are dropped, so the next query
re-draws and recharges each vertex it touches. The paired accountant
rotates in lockstep.

Bounded memory (``max_bytes`` / ``max_entries``)
------------------------------------------------
An unbounded cache holds every view until rotation; a long epoch over a
large graph therefore holds the whole noisy graph in memory. Passing a
byte and/or entry budget turns on LRU eviction: whenever a store pushes
the cache over budget, the least-recently-touched views are dropped
until it fits again.

Eviction is **privacy-free**. A bounded cache draws every view from a
deterministic per-``(epoch, vertex)`` (or per-``(epoch, pair)``) random
stream — the serving analogue of RAPPOR's *memoized* permanent
randomized response — so the next touch of an evicted entry reconstructs
the **bit-identical** report instead of drawing fresh noise. The
reconstruction re-runs the perturbation (CPU) and re-uploads the report
(bytes, counted in the tick's communication log) but releases nothing
new, so the :class:`EpochAccountant` is charged exactly once per vertex
per epoch no matter how many evict/redraw cycles happen. The tunable
tradeoff is therefore memory versus recharge latency/communication —
never privacy — and :class:`CacheStats` counts ``evictions`` and
``recharges`` so the tradeoff is observable.

The bounded mode's keyed streams are *counter-based*: every draw comes
from ``np.random.Philox`` with the fixed counter layout defined in
:mod:`repro.engine.bulkrr` (key ``[entropy, domain-tag]``, counter
``[block, stage, vertex, epoch]``; pairs use ``[block, b, a, epoch]``).
Because each vertex owns a private counter range, a whole miss block is
drawn through one vectorized pass
(:func:`~repro.engine.bulkrr.keyed_bulk_randomized_response`) that is
bit-identical to drawing each vertex alone — bounded caches keep the
bulk-RR speed of the unbounded path, paying only the generator's keying
overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.engine.bulkrr import (
    bulk_randomized_response,
    keyed_bulk_randomized_response,
    keyed_laplace_noise,
    keyed_pair_generator,
)
from repro.engine.pairwise import pack_bitset_rows
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import ShardTransport
from repro.engine.sketch import sketch_pair_counts
from repro.engine.sketches import SketchConfig, check_sketch_epsilon, sketch_family
from repro.errors import ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.codes import (
    decode,
    encode,
    sorted_find,
    sorted_member,
    sorted_union,
    sorted_unique,
)
from repro.graph.delta import DeltaLog
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.epoch import EpochAccountant
from repro.privacy.mechanisms import LaplaceMechanism
from repro.privacy.rng import RngLike, ensure_rng
from repro.protocol.messages import ID_BYTES
from repro.protocol.session import ExecutionMode, resolve_mode

__all__ = ["CacheStats", "NoisyViewCache", "ResolvedViews"]

# Bookkeeping cost of one sketch-mode pair entry: its int64 pair code,
# the (N1, N2) counts and its LRU stamp, as four 8-byte integers.
_PAIR_ENTRY_BYTES = 32
# Bookkeeping cost of one noisy-degree entry: the vertex key and the
# released float, as two 8-byte words.
_DEGREE_ENTRY_BYTES = 16
# Expected noisy payload (8-byte ids) per fill chunk: a materialize fill
# draws (keyed) or packs (shared, sharded) this much at a time, which
# bounds the draw's and the packer's scratch instead of scaling it with
# the miss block.
_FILL_CHUNK_BYTES = 2 << 20


@dataclass
class CacheStats:
    """Hit/miss/eviction counters accumulated across the cache's lifetime."""

    vertex_hits: int = 0
    vertex_misses: int = 0
    pair_hits: int = 0
    pair_misses: int = 0
    degree_hits: int = 0
    degree_misses: int = 0
    rotations: int = 0
    evictions: int = 0  # entries dropped by the LRU budget
    eviction_batches: int = 0  # victim selections (a shard range = 1 batch)
    recharges: int = 0  # evicted entries reconstructed on a later touch
    warm_draws: int = 0  # views pre-drawn at rotation (server warming)
    mutations: int = 0  # edge ops recorded through mutate()
    incremental_rotations: int = 0  # rotations that only redrew dirty vertices

    def hit_rate(self) -> float:
        """Fraction of vertex/pair lookups served from cache."""
        hits = self.vertex_hits + self.pair_hits
        total = hits + self.vertex_misses + self.pair_misses
        return hits / total if total else 0.0


@dataclass(frozen=True)
class ResolvedViews:
    """What one :meth:`NoisyViewCache.resolve_views` call did."""

    drawn: int  # non-resident vertices drawn (the misses)
    charged: np.ndarray  # vertices charged: never drawn this epoch
    party: str | None  # the accountant's ledger party (None: nothing charged)
    upload_bytes: int  # bytes of the (re-)released views
    # The gathered ``(len(vertices), width)`` block — packed bit rows in
    # materialize mode, sketches in sketch-view mode; None when not
    # gathered.
    views: np.ndarray | None


class NoisyViewCache:
    """Per-vertex (materialize, sketch-view) / per-pair (sketch) noisy views
    for one epoch.

    Parameters
    ----------
    graph, layer, epsilon:
        The serving context the views are bound to. Epsilon is pinned:
        reusing a draw at a different budget would mis-debias, so the
        engine refuses mismatched requests.
    mode:
        ``AUTO`` resolves exactly like the engine (materialize while the
        opposite layer fits the materialization limit, sketch beyond it).
    epsilon_per_epoch:
        Forwarded to the paired :class:`EpochAccountant`; ``None`` records
        without enforcing.
    max_bytes, max_entries:
        Optional LRU budget (see the module docs). Either bound — or both
        — turns on the *bounded* cache: stores evict least-recently-used
        entries past the budget, and every draw becomes deterministic per
        ``(epoch, vertex)`` / ``(epoch, pair)`` so evicted entries can be
        reconstructed bit-identically without a fresh privacy charge.
        The budget is a soft cap, enforced at tick boundaries: a tick
        stores its fresh draws first and evicts afterwards, so one
        tick's working set may transiently overshoot. Note that the
        *charge memory* (which keys were drawn this epoch) survives
        eviction by design and is not part of the byte accounting: one
        byte per serving-layer vertex for views and one for degrees,
        plus 8 bytes per pair drawn this epoch in sketch mode (bounded
        by rotation cadence).
    rng:
        Entropy source for the keyed deterministic streams (one integer
        is drawn at construction; pass the server's generator for
        reproducible serving runs). Unused — and never consumed — when
        the cache is unbounded and unsharded.
    shard_runner, shard_mem_bytes:
        A :class:`~repro.engine.sharded.ShardedRunner` — or a bare
        :class:`~repro.engine.transport.ShardTransport` (inline, fork, or
        socket), which the cache wraps in a runner bound to its own
        graph/layer — turns every
        materialize-mode miss block into a sharded draw: the block is
        split into contiguous ranges (sized by ``shard_mem_bytes``
        expected noisy payload per shard, or byte-balanced over the
        runner's workers when ``None``) and fanned out to the runner's
        forked workers. A sharded cache always draws from the keyed
        Philox streams — the contract that makes shard boundaries
        invisible in the bits — even when it has no LRU budget, so
        attaching a runner to an unbounded cache changes *which* (still
        distribution-identical) bits are drawn. The last sharded draw's
        per-shard log is kept in :attr:`last_shard_draw` and its
        resilience log (retries, timeouts, degraded ranges) in
        :attr:`last_shard_faults`. A *sharded bounded* cache also evicts
        at shard-range granularity: victims leave with their whole last
        drawn range in one batch (``stats.eviction_batches`` counts the
        scans), so trimming a big over-budget working set costs one LRU
        scan per range instead of one per vertex.
    warm_decay:
        EWMA coefficient for the cross-epoch warm set (``0 < alpha <=
        1``): at every rotation each vertex's heat becomes ``alpha *
        this_epoch_touches + (1 - alpha) * previous_heat``, and
        :meth:`hottest_last_epoch` ranks by that heat. ``1.0`` recovers
        the old last-epoch-only ordering; the 0.5 default keeps a stable
        hot set warm through one-epoch blips while still tracking a
        drifted hot set within about two epochs.

    Raises
    ------
    ProtocolError
        If ``max_bytes`` or ``max_entries`` is not positive.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        epsilon: float,
        *,
        mode: ExecutionMode = ExecutionMode.AUTO,
        epsilon_per_epoch: float | None = None,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        rng: RngLike = None,
        shard_runner: "ShardedRunner | ShardTransport | None" = None,
        shard_mem_bytes: int | None = None,
        sketch: "SketchConfig | None" = None,
        warm_decay: float = 0.5,
    ):
        mode = resolve_mode(graph, layer, mode)
        if mode is ExecutionMode.SKETCH_VIEW and sketch is None:
            raise ProtocolError(
                "a sketch-view cache needs a SketchConfig (pass sketch=)"
            )
        if sketch is not None:
            # Surface the hll stability floor at construction time, before
            # any budget is spent on views the estimator cannot invert.
            check_sketch_epsilon(sketch, epsilon)
        if max_bytes is not None and max_bytes <= 0:
            raise ProtocolError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries is not None and max_entries <= 0:
            raise ProtocolError(f"max_entries must be positive, got {max_entries}")
        if not 0.0 < warm_decay <= 1.0:
            raise ProtocolError(
                f"warm_decay must be in (0, 1], got {warm_decay}"
            )
        self.graph = graph
        self.layer = layer
        self.epsilon = float(epsilon)
        self.mode = mode
        self.domain = graph.layer_size(layer.opposite())
        self.epoch = 0
        # The epoch word baked into keyed counters. Full rotations move it
        # in lockstep with the logical epoch; *incremental* rotations leave
        # it pinned and bump per-vertex version words instead, so clean
        # vertices keep replaying the identical stream across rotations.
        self.draw_epoch = 0
        self._versions = np.zeros(graph.layer_size(layer), dtype=np.uint64)
        self._pending: DeltaLog | None = None
        self.last_rotation: dict = {}
        self.stats = CacheStats()
        self.accountant = EpochAccountant(epsilon_per_epoch)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.bounded = max_bytes is not None or max_entries is not None
        if isinstance(shard_runner, ShardTransport):
            # A bare transport says *where* shard work runs; the cache
            # supplies the what (its own graph/layer) by wrapping it in
            # a runner it then owns like any other.
            shard_runner = ShardedRunner(graph, layer, transport=shard_runner)
        if shard_runner is not None and (
            shard_runner.graph is not graph or shard_runner.layer is not layer
        ):
            # A mismatched runner would draw rows from *its* graph while
            # the plan sizes ranges from ours — silently wrong estimates.
            raise ProtocolError(
                "shard_runner is bound to a different graph/layer than "
                "this cache"
            )
        self.shard_runner = shard_runner
        self.shard_mem_bytes = shard_mem_bytes
        # Keyed caches (bounded, or sharded) draw deterministically per
        # (entropy, epoch, key); a plain unbounded cache keeps the shared
        # rng stream. Entropy is only drawn when keyed so a plain cache
        # never consumes caller randomness.
        self.keyed = self.bounded or shard_runner is not None
        self._entropy = (
            int(ensure_rng(rng).integers(1 << 62)) if self.keyed else 0
        )
        self.last_shard_draw: list[dict] = []
        self.last_shard_faults: dict = {}
        self._bytes = 0
        n_layer = graph.layer_size(layer)
        # Resident vertex views in LRU order: noisy rows (materialize) or
        # fixed-size released sketches (sketch-view), one store either way;
        # `_resident` flags the same vertices densely.
        self._views: OrderedDict[int, np.ndarray] = OrderedDict()
        self._resident = np.zeros(n_layer, dtype=bool)
        # Sketch-mode pair store: ascending pair codes
        # min(a, b) * _span + max(a, b) with aligned counts and LRU stamps
        # from one monotone clock (least recently touched = lowest stamp);
        # `_drawn_codes` (set by `_clear_pairs` too) is its charge memory.
        self._span = n_layer
        self._clear_pairs()
        self._clock = 0
        self.sketch = sketch
        self._family = sketch_family(sketch) if sketch is not None else None
        self._degrees: OrderedDict[int, float] = OrderedDict()
        # Epoch-scoped charge memory: which vertices/degrees (dense flags)
        # and pairs (ascending codes) have already been drawn — and
        # charged — this epoch, surviving eviction. Every resident entry
        # is also drawn, so "drawn" alone answers "charge-free".
        self._drawn_vertices = np.zeros(n_layer, dtype=bool)
        self._drawn_degrees = np.zeros(n_layer, dtype=bool)
        # Per-vertex touch counts feed the warm pre-draw at rotation,
        # smoothed across epochs by an EWMA so one quiet (or bursty) epoch
        # does not wipe out — or hijack — the warm set.
        self.warm_decay = float(warm_decay)
        self._touches = np.zeros(graph.layer_size(layer), dtype=np.int64)
        self._heat = np.zeros(graph.layer_size(layer), dtype=np.float64)
        # Last drawn shard range per vertex (sharded caches only): the
        # eviction batch key for shard-aware trimming.
        self._shard_group: dict[int, int] = {}
        self._shard_group_seq = 0

    # ------------------------------------------------------------------
    # Vertex views (materialize rows, sketch-view sketches)
    # ------------------------------------------------------------------
    def has_view(self, vertex: int) -> bool:
        """True when ``vertex`` holds a resident view this epoch."""
        return self._in_layer(vertex) and bool(self._resident[int(vertex)])

    def view(self, vertex: int) -> np.ndarray:
        """The cached view: a noisy neighbor list (sorted int64 column
        ids, unpacked from the resident bit row) in materialize mode, the
        released sketch in sketch-view mode.

        Raises
        ------
        KeyError
            If the vertex holds no resident view (check :meth:`has_view`).
        """
        view = self._views[int(vertex)]
        if self.mode is ExecutionMode.SKETCH_VIEW:
            return view
        bits = np.unpackbits(view, count=self.domain)
        return np.flatnonzero(bits).astype(np.int64, copy=False)

    def vertex_cached_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean per entry (any shape): does a resident epoch view
        already exist?"""
        return self._resident[np.asarray(vertices, dtype=np.int64)]

    def uncharged(self, vertices: np.ndarray) -> np.ndarray:
        """The subset of ``vertices`` not yet drawn (= charged) this epoch.

        In an unbounded cache every uncached vertex is uncharged; in a
        bounded cache an evicted vertex stays *charged* — its next draw
        is a free deterministic reconstruction, so it must not be charged
        again.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        return vertices[~self._drawn_vertices[vertices]]

    def resolve_views(
        self,
        vertices: np.ndarray,
        rng: RngLike = None,
        *,
        ledger: PrivacyLedger | None = None,
        stage: str = "serve-rr",
        gather: bool = True,
    ) -> ResolvedViews:
        """Charge, draw and gather the views of distinct ``vertices``.

        The one path every vertex view takes, in this order:

        1. **charge** the vertices never drawn this epoch, ``epsilon``
           each, through the accountant (mirrored into ``ledger`` under
           the round label ``stage``) — *before* any draw, so a refused
           charge (epoch allowance, ledger limit) leaves no stored view
           for later queries to ride for free;
        2. **draw** only the non-resident vertices
           (:meth:`materialize_fresh`): a resident view is never redrawn,
           so it is never re-released under fresh randomness, and an
           evicted view of a bounded cache replays its keyed stream
           without a charge;
        3. **gather** every vertex's view into one block
           (:meth:`gather_views`), counting the lookups as vertex
           hits/misses. ``gather=False`` stops after the draw (the
           server's warm pre-draw serves no query).

        Raises
        ------
        BudgetExceededError
            If the charge would push a vertex past its epoch allowance or
            the ledger past its limit; nothing is drawn or stored then.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        missing = vertices[~self.vertex_cached_mask(vertices)]
        charged = self.uncharged(missing)
        party = self.accountant.charge_vertices(
            self.layer, charged, self.epsilon,
            "randomized-response", stage, ledger=ledger,
        )
        self.last_shard_draw = []
        self.last_shard_faults = {}
        upload_bytes = self.materialize_fresh(missing, rng)
        views = None
        if gather:
            self.stats.vertex_hits += int(vertices.size - missing.size)
            self.stats.vertex_misses += int(missing.size)
            views = self.gather_views(vertices)
        return ResolvedViews(
            int(missing.size), charged, party, upload_bytes, views
        )

    def materialize_fresh(self, vertices: np.ndarray, rng: RngLike = None) -> int:
        """Draw and store a view for every listed vertex, resident or not.

        Returns the upload bytes of the (re-)released views: noisy rows
        (8-byte ids each) in materialize mode, sketches in sketch-view
        mode. A plain cache draws the whole block from ``rng`` (the
        vectorized bulk-RR pass, or the sketch family's release); a keyed
        cache (bounded or sharded) ignores ``rng`` and draws every vertex
        from its own deterministic ``(entropy, epoch, vertex)`` Philox
        stream, so a redraw of an evicted vertex reproduces the original
        view bit for bit whether it is drawn alone or inside any block.
        Noisy rows are packed into bit rows chunk by chunk as they land
        (see :meth:`_draw_rows`). Evicted-vertex redraws are counted in
        ``stats.recharges``. Nothing is charged here: serving paths go
        through :meth:`resolve_views`.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return 0
        if self.bounded:
            self.stats.recharges += int(
                np.count_nonzero(self._drawn_vertices[vertices])
            )
        if self.mode is ExecutionMode.SKETCH_VIEW:
            stream = (
                {
                    "entropy": self._entropy,
                    "epoch": self.draw_epoch,
                    "versions": self._versions[vertices],
                }
                if self.keyed
                else {"rng": ensure_rng(rng)}
            )
            block = self._family.encode_release(
                self.graph, self.layer, vertices, self.epsilon, **stream
            )
            for vertex, view in zip(vertices.tolist(), block):
                # A copy, so evicting one view frees its own bytes.
                self._store_view(vertex, np.array(view))
            return int(block.nbytes)
        ids = 0
        for lo, hi, indptr, columns in self._draw_rows(vertices, rng):
            rows = pack_bitset_rows(indptr, columns, self.domain)
            for vertex, row in zip(vertices[lo:hi].tolist(), rows):
                self._store_view(vertex, row.copy())
            ids += int(columns.size)
        return ids * ID_BYTES

    def _draw_rows(self, vertices: np.ndarray, rng: RngLike):
        """Noisy rows of ``vertices`` as ``(lo, hi, indptr, columns)`` CSR
        chunks covering ``vertices[lo:hi]``, each of about
        :data:`_FILL_CHUNK_BYTES` expected payload.

        A keyed unsharded cache draws chunk by chunk: keyed bits are per
        vertex, so the chunks are byte-identical to one block draw. A
        plain cache keeps one shared-stream draw (chunking it would move
        the bits) and a sharded cache one fanned draw; their rows are
        then sliced into the same chunks for packing.
        """
        chunks = plan_shards(
            self.graph, self.layer, vertices, self.epsilon,
            mem_bytes=_FILL_CHUNK_BYTES,
        ).ranges()
        if self.keyed and self.shard_runner is None:
            for lo, hi in chunks:
                block = vertices[lo:hi]
                yield lo, hi, *keyed_bulk_randomized_response(
                    self.graph, self.layer, block, self.epsilon,
                    entropy=self._entropy, epoch=self.draw_epoch,
                    versions=self._versions[block],
                )
            return
        if self.shard_runner is None:
            indptr, columns = bulk_randomized_response(
                self.graph, self.layer, vertices, self.epsilon,
                ensure_rng(rng),
            )
        else:
            indptr, columns = self._draw_sharded(vertices)
        for lo, hi in chunks:
            start, stop = indptr[lo], indptr[hi]
            yield lo, hi, indptr[lo : hi + 1] - start, columns[start:stop]

    def _draw_sharded(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One CSR block of noisy rows fanned over the shard runner."""
        # The block fans out over the runner's workers, each range from
        # the same keyed streams — the reassembled rows are byte-identical
        # to the unsharded keyed pass (and to any earlier draw of the same
        # vertices).
        shard_plan = plan_shards(
            self.graph, self.layer, vertices, self.epsilon,
            shards=(
                None
                if self.shard_mem_bytes is not None
                else self.shard_runner.max_workers
            ),
            mem_bytes=self.shard_mem_bytes,
        )
        drawn = self.shard_runner.draw(
            shard_plan, self.epsilon,
            entropy=self._entropy, epoch=self.draw_epoch,
            versions=self._versions[vertices],
        )
        self.last_shard_draw = drawn.shards
        self.last_shard_faults = drawn.faults
        # Remember which shard range each vertex last arrived in: bounded
        # eviction drops whole ranges at once (see evict_to_budget), so
        # co-drawn vertices leave together and their recharge comes back
        # as one vectorized sharded draw.
        for lo, hi in shard_plan.ranges():
            self._shard_group_seq += 1
            group = self._shard_group_seq
            for v in vertices[lo:hi]:
                self._shard_group[int(v)] = group
        return drawn.indptr, drawn.columns

    def _store_view(self, vertex: int, view: np.ndarray) -> None:
        self._drop_view(vertex)
        self._views[vertex] = view
        self._bytes += view.nbytes
        self._resident[vertex] = True
        self._drawn_vertices[vertex] = True

    def _drop_view(self, vertex: int) -> None:
        """Forget a resident view (the charge memory stays)."""
        dropped = self._views.pop(vertex, None)
        if dropped is not None:
            self._bytes -= dropped.nbytes
            self._resident[vertex] = False

    def gather_views(self, vertices: np.ndarray) -> np.ndarray:
        """Stack the cached views of ``vertices`` into one
        ``(len(vertices), width)`` block: packed bit rows in materialize
        mode (the bitset backend's ``packed`` block), sketches in
        sketch-view mode.

        Also the cache's read barrier: every gathered vertex counts one
        touch (feeding the hottest-vertex snapshot) and moves to the LRU
        tail.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        views = []
        for v in vertices.tolist():
            self._views.move_to_end(v)
            views.append(self._views[v])
        np.add.at(self._touches, vertices, 1)
        return np.stack(views) if views else np.empty((0, 0), dtype=np.uint8)

    def packed_matrix(self, vertices: np.ndarray) -> np.ndarray:
        """The resident packed bit rows of ``vertices`` (materialize
        mode), stacked like :meth:`gather_views` but without touching the
        LRU order or the warm-set counts.

        Raises
        ------
        KeyError
            If a vertex holds no resident view.
        """
        return np.stack([self._views[int(v)] for v in vertices])

    # ------------------------------------------------------------------
    # Sketch mode: per-pair sufficient statistics
    # ------------------------------------------------------------------
    def pair_cached_mask(self, keys: np.ndarray) -> np.ndarray:
        """Per ``(a, b)`` row of ``keys`` (either order): does the pair
        hold a resident ``(N1, N2)`` draw this epoch?"""
        return sorted_member(self._codes, self._pair_codes(keys))

    def has_pair(self, a: int, b: int) -> bool:
        """True when the pair holds a resident ``(N1, N2)`` draw this epoch."""
        return self._in_layer(a, b) and bool(self.pair_cached_mask((a, b))[0])

    def gather_pair_counts(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(N1, N2)`` draws of every ``(a, b)`` row of ``keys``
        as two int64 arrays — the pair store's touching read.

        Rows touch their entries' LRU stamps in order (a key repeated in
        ``keys`` keeps the stamp of its last row) and count one warm-set
        touch per endpoint per row.

        Raises
        ------
        KeyError
            If a key holds no resident entry (check :meth:`pair_cached_mask`);
            nothing is touched then.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        at = sorted_find(self._codes, self._pair_codes(keys))
        if np.any(at < 0):
            raise KeyError(self._key(*keys[np.argmax(at < 0)]))
        stamps = self._clock + np.arange(at.size, dtype=np.int64)
        self._clock += at.size
        np.maximum.at(self._stamp, at, stamps)
        np.add.at(self._touches, keys.ravel(), 1)
        return self._n1[at], self._n2[at]

    def pair_counts(self, a: int, b: int) -> tuple[int, int]:
        """The cached ``(N1, N2)`` draw for a pair (touches its LRU slot).

        Raises
        ------
        KeyError
            If the pair holds no resident entry (check :meth:`has_pair`).
        """
        if not self._in_layer(a, b):
            raise KeyError(self._key(a, b))
        n1, n2 = self.gather_pair_counts((a, b))
        return int(n1[0]), int(n2[0])

    def unseen_pairs(self, keys: np.ndarray) -> np.ndarray:
        """The ``(a, b)`` rows of ``keys`` never drawn (= charged) this epoch.

        Mirrors :meth:`uncharged` at pair granularity: an evicted pair's
        redraw is deterministic and free, so only genuinely new pairs
        recharge their endpoints.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        return keys[~sorted_member(self._drawn_codes, self._pair_codes(keys))]

    def store_pair_counts(
        self, keys: np.ndarray, n1: np.ndarray, n2: np.ndarray
    ) -> None:
        """Adopt freshly drawn per-pair counts (keys from ``pair_keys``).

        One sorted insertion for the whole block. Rows store in order: a
        key repeated in ``keys`` keeps the counts and LRU stamp of its
        last row. Every stored key joins the epoch's charge memory.
        """
        codes = self._pair_codes(keys)
        if codes.size == 0:
            return
        stamps = self._clock + np.arange(codes.size, dtype=np.int64)
        self._clock += codes.size
        # The last row of each distinct code: a stable sort keeps each
        # run of equal codes in row order.
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        last = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=last[:-1])
        rows = order[last]
        codes = codes[last]
        n1 = np.asarray(n1, dtype=np.int64)[rows]
        n2 = np.asarray(n2, dtype=np.int64)[rows]
        stamps = stamps[rows]
        at = sorted_find(self._codes, codes)
        old = at >= 0
        self._n1[at[old]] = n1[old]
        self._n2[at[old]] = n2[old]
        self._stamp[at[old]] = stamps[old]
        new = ~old
        if new.any():
            where = np.searchsorted(self._codes, codes[new])
            self._codes = np.insert(self._codes, where, codes[new])
            self._n1 = np.insert(self._n1, where, n1[new])
            self._n2 = np.insert(self._n2, where, n2[new])
            self._stamp = np.insert(self._stamp, where, stamps[new])
            self._bytes += _PAIR_ENTRY_BYTES * int(np.count_nonzero(new))
        self._drawn_codes = sorted_union(self._drawn_codes, codes)

    def sketch_fresh(
        self, keys: np.ndarray, rng: RngLike = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Draw and store ``(N1, N2)`` for every listed (uncached) pair key.

        Returns ``(n1, n2, upload_ids)`` aligned with ``keys``. Unbounded
        caches draw the whole block at once with ``rng``; bounded caches
        draw each pair from its deterministic keyed Philox stream
        (counter ``[block, b, a, epoch]``, see
        :func:`~repro.engine.bulkrr.keyed_pair_generator`) so an evicted
        pair's redraw replays the original draw (counted in
        ``stats.recharges``).
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                0,
            )
        if not self.keyed:
            verts, inverse = np.unique(keys, return_inverse=True)
            inverse = inverse.reshape(keys.shape)
            n1, n2, sizes = sketch_pair_counts(
                self.graph, self.layer, verts,
                inverse[:, 0], inverse[:, 1], self.epsilon, ensure_rng(rng),
            )
            self.store_pair_counts(keys, n1, n2)
            return n1, n2, int(sizes.sum())
        if self.bounded:
            # Every row but the first of each key never drawn this epoch
            # replays a drawn pair: a recharge.
            fresh = sorted_unique(self._pair_codes(keys))
            self.stats.recharges += len(keys) - int(
                np.count_nonzero(~sorted_member(self._drawn_codes, fresh))
            )
        n1 = np.empty(len(keys), dtype=np.int64)
        n2 = np.empty(len(keys), dtype=np.int64)
        total = 0
        for i, key in enumerate(keys.tolist()):
            keyed = keyed_pair_generator(
                self._entropy, self.draw_epoch, *key,
                version=int(self._versions[key[0]] + self._versions[key[1]]),
            )
            pair_n1, pair_n2, sizes = sketch_pair_counts(
                self.graph,
                self.layer,
                np.array(key, dtype=np.int64),
                np.array([0]),
                np.array([1]),
                self.epsilon,
                keyed,
            )
            n1[i], n2[i] = int(pair_n1[0]), int(pair_n2[0])
            total += int(sizes.sum())
        self.store_pair_counts(keys, n1, n2)
        return n1, n2, total

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        a, b = int(a), int(b)
        return (a, b) if a <= b else (b, a)

    def pair_key(self, a: int, b: int) -> tuple[int, int]:
        """Order-normalized cache key of a (symmetric) pair."""
        return self._key(a, b)

    def _pair_codes(self, keys: np.ndarray) -> np.ndarray:
        """``min(a, b) * n + max(a, b)`` per ``(a, b)`` row of ``keys``."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        a, b = keys[:, 0], keys[:, 1]
        return encode(np.minimum(a, b), np.maximum(a, b), self._span)

    def _in_layer(self, *vertices: int) -> bool:
        """True when every id is a vertex of the serving layer (the
        scalar reads' guard: out-of-range ids are never cached)."""
        return all(0 <= int(v) < self._span for v in vertices)

    def pair_charge_free_mask(self, keys: np.ndarray) -> np.ndarray:
        """Per ``(a, b)`` row of ``keys``: will serving the pair charge no
        privacy budget?

        Resident pairs replay their stored draw; in a bounded cache an
        evicted-but-drawn pair reconstructs it deterministically. Either
        way the accountant sees nothing.
        """
        return sorted_member(self._drawn_codes, self._pair_codes(keys))

    def pair_charge_free(self, a: int, b: int) -> bool:
        """True when serving this pair will charge no privacy budget."""
        return self._in_layer(a, b) and bool(self.pair_charge_free_mask((a, b))[0])

    def vertex_charge_free_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Per entry (any shape): will serving the vertex's view charge no
        privacy budget (resident, or evicted but drawn this epoch)?"""
        return self._drawn_vertices[np.asarray(vertices, dtype=np.int64)]

    def vertex_charge_free(self, vertex: int) -> bool:
        """True when serving this vertex will charge no privacy budget."""
        return self._in_layer(vertex) and bool(self._drawn_vertices[int(vertex)])

    # ------------------------------------------------------------------
    # Noisy degrees (either mode; used by the serving degree option)
    # ------------------------------------------------------------------
    def has_degree(self, vertex: int) -> bool:
        """True when ``vertex`` holds a *resident* epoch-cached noisy degree."""
        return int(vertex) in self._degrees

    def degree(self, vertex: int) -> float:
        """The epoch-cached noisy Laplace degree of ``vertex``.

        Touches the entry's LRU slot (degrees are evictable in a bounded
        cache, like every other store).

        Raises
        ------
        KeyError
            If no degree is resident for the vertex (check
            :meth:`has_degree`).
        """
        vertex = int(vertex)
        self._degrees.move_to_end(vertex)
        return self._degrees[vertex]

    def degree_charge_free_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Per entry (any shape): will releasing the vertex's degree charge
        no budget?

        Resident degrees replay their stored release; in a bounded cache
        an evicted-but-drawn degree reconstructs it deterministically.
        """
        return self._drawn_degrees[np.asarray(vertices, dtype=np.int64)]

    def degree_charge_free(self, vertex: int) -> bool:
        """True when releasing this vertex's degree charges no budget."""
        return self._in_layer(vertex) and bool(self._drawn_degrees[int(vertex)])

    def uncharged_degrees(self, vertices: np.ndarray) -> np.ndarray:
        """The subset of ``vertices`` with no degree drawn (= charged)
        this epoch — :meth:`uncharged` at degree granularity."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return vertices[~self._drawn_degrees[vertices]]

    def store_degrees(self, vertices: np.ndarray, values: np.ndarray) -> None:
        """Adopt freshly released noisy degrees as this epoch's entries."""
        vertices = np.asarray(vertices, dtype=np.int64)
        for vertex, value in zip(vertices.tolist(), values):
            if vertex not in self._degrees:
                self._bytes += _DEGREE_ENTRY_BYTES
            self._degrees[vertex] = float(value)
            self._degrees.move_to_end(vertex)
        self._drawn_degrees[vertices] = True

    def degree_fresh(
        self,
        vertices: np.ndarray,
        mechanism: LaplaceMechanism,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Draw and store noisy degrees for every listed (non-resident) vertex.

        Returns the released values aligned with ``vertices``. Unbounded
        caches add independent Laplace noise from ``rng``; bounded caches
        draw each vertex's noise from its deterministic keyed stream
        (:func:`~repro.engine.bulkrr.keyed_laplace_noise`; ``rng`` is
        ignored), so an evicted degree's redraw replays the identical
        release — counted in ``stats.recharges`` — and eviction stays
        privacy-free at degree granularity too.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty(0, dtype=np.float64)
        true = self.graph.degrees(self.layer)[vertices].astype(np.float64)
        if not self.keyed:
            values = mechanism.release_many(true, ensure_rng(rng))
        else:
            if self.bounded:
                self.stats.recharges += int(
                    np.count_nonzero(self._drawn_degrees[vertices])
                )
            values = true + keyed_laplace_noise(
                self._entropy, self.draw_epoch, vertices, mechanism.scale,
                versions=self._versions[vertices],
            )
        self.store_degrees(vertices, values)
        return values

    # ------------------------------------------------------------------
    # Memory budget
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate resident payload bytes.

        Counts every store the budget governs: vertex views (a packed
        bit row of ``ceil(domain / 8)`` bytes per materialize view, the
        sketch's bytes per sketch view), sketch-mode pair draws
        (``_PAIR_ENTRY_BYTES`` each), and noisy-degree entries
        (``_DEGREE_ENTRY_BYTES`` each — degrees are part of the budget,
        not free riders).
        """
        return self._bytes

    def entries(self) -> int:
        """Resident cache entries (vertex views, pair draws, and degrees)."""
        return len(self._views) + int(self._codes.size) + len(self._degrees)

    def over_budget(self) -> bool:
        """True when either configured bound is currently exceeded."""
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            return True
        if self.max_entries is not None and self.entries() > self.max_entries:
            return True
        return False

    def evict_to_budget(self, pin: frozenset | set = frozenset()) -> int:
        """Evict least-recently-used entries until the budget fits.

        ``pin`` names vertices (vertex views) or pair keys (sketch) to
        skip — for callers that must keep part of the working set
        resident while trimming (the engine itself evicts at the end of
        each tick with nothing pinned). Degree entries are evicted LRU
        *first* (they are the cheapest to reconstruct: one keyed Philox
        block), then the mode's primary store; a pinned vertex also pins
        its degree. A fully pinned cache can stay over budget: the bound
        is a soft cap. Returns the number of entries evicted. No-op on
        an unbounded cache.

        A *sharded* cache evicts rows at shard-range granularity: the
        LRU victim takes every unpinned resident vertex of its last
        drawn shard range with it in one batch. Co-drawn vertices age
        together (they arrived in one draw and are typically re-touched
        together), and their eventual recharge is one vectorized sharded
        draw instead of per-vertex dribble; trimming a large over-budget
        working set costs one LRU scan per *range* instead of one per
        vertex (``stats.eviction_batches`` counts the scans).
        """
        if not self.bounded:
            return 0
        evicted = 0
        # Vertices named by the pin, either directly or via pair keys.
        pinned_vertices = {
            v for key in pin for v in (key if isinstance(key, tuple) else (key,))
        }
        store = self._views
        while self.over_budget():
            self.stats.eviction_batches += 1
            victim = next(
                (v for v in self._degrees if v not in pinned_vertices), None
            )
            if victim is not None:
                self._degrees.pop(victim)
                self._bytes -= _DEGREE_ENTRY_BYTES
                evicted += 1
                continue
            if self.mode is ExecutionMode.SKETCH:
                evicted += self._evict_pairs(pin)
                break
            victim = next((k for k in store if k not in pin), None)
            if victim is None:
                break
            group = self._shard_group.get(victim)
            batch = (
                [victim]
                if group is None
                else [
                    v for v in store
                    if v not in pin and self._shard_group.get(v) == group
                ]
            )
            for v in batch:
                self._drop_view(v)
            evicted += len(batch)
        self.stats.evictions += evicted
        return evicted

    def _evict_pairs(self, pin: frozenset | set) -> int:
        """Drop the least recently touched unpinned pair entries until the
        budget fits (or none is left), in one pass; returns the count.

        Called over budget with no evictable degree left, after one victim
        selection was counted. Each pair entry frees the same bytes and
        one entry, so the number to drop is known up front; victims leave
        in ascending stamp order, exactly as one-at-a-time LRU eviction
        would pick them, and ``stats.eviction_batches`` counts the scans
        that eviction would have made.
        """
        need = 0
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            need = -(-(self._bytes - self.max_bytes) // _PAIR_ENTRY_BYTES)
        if self.max_entries is not None:
            need = max(need, self.entries() - self.max_entries)
        pinned = np.array(
            [
                key for key in pin
                if isinstance(key, tuple) and 0 <= key[0] <= key[1] < self._span
            ],
            dtype=np.int64,
        )
        candidates = np.flatnonzero(
            ~sorted_member(np.sort(self._pair_codes(pinned)), self._codes)
        )
        victims = candidates[np.argsort(self._stamp[candidates])[:need]]
        # One scan per victim, plus the scan that finds none left.
        self.stats.eviction_batches += min(need - 1, candidates.size)
        if victims.size:
            keep = np.ones(self._codes.size, dtype=bool)
            keep[victims] = False
            self._keep_pairs(keep)
        return int(victims.size)

    def _clear_pairs(self) -> None:
        """Empty the pair store and the pair charge memory."""
        self._codes, self._n1, self._n2, self._stamp, self._drawn_codes = (
            np.empty(0, dtype=np.int64) for _ in range(5)
        )

    def _keep_pairs(self, keep: np.ndarray) -> None:
        """Shrink the pair store to the entries flagged in ``keep``."""
        self._bytes -= _PAIR_ENTRY_BYTES * int(keep.size - np.count_nonzero(keep))
        self._codes = self._codes[keep]
        self._n1 = self._n1[keep]
        self._n2 = self._n2[keep]
        self._stamp = self._stamp[keep]

    # ------------------------------------------------------------------
    def check_compatible(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        epsilon: float,
        mode: ExecutionMode,
        sketch: "SketchConfig | None" = None,
    ) -> None:
        """Refuse to serve a request the cached draws were not made for.

        Raises
        ------
        ProtocolError
            If ``graph``, ``layer``, ``epsilon``, ``mode`` — or, for
            sketch views, the :class:`SketchConfig` — differs from the
            serving context the cache is bound to.
        """
        if graph is not self.graph:
            raise ProtocolError("epoch cache is bound to a different graph")
        if layer is not self.layer:
            raise ProtocolError(
                f"epoch cache is bound to the {self.layer} layer, not {layer}"
            )
        if abs(float(epsilon) - self.epsilon) > 1e-12:
            raise ProtocolError(
                f"epoch cache draws are at epsilon={self.epsilon:g}; "
                f"cannot serve epsilon={epsilon:g} from them"
            )
        if mode is not self.mode:
            raise ProtocolError(
                f"epoch cache holds {self.mode.value} views; cannot serve "
                f"{mode.value} requests from them"
            )
        if sketch is not None and sketch != self.sketch:
            raise ProtocolError(
                f"epoch cache holds {self.sketch} views; cannot serve "
                f"{sketch} requests from them"
            )

    def cached_vertices(self) -> int:
        """Vertices holding a view (materialize/sketch-view) or degree-only
        entries."""
        return len(self._views) if self._views else len(self._degrees)

    def cached_pairs(self) -> int:
        """Resident sketch-mode pair entries."""
        return int(self._codes.size)

    def hottest_last_epoch(self, k: int) -> list[int]:
        """The ``k`` hottest vertices as of the latest :meth:`rotate`
        call (hottest first), by the cross-epoch EWMA of touch counts.

        Feeds the server's warm pre-draw: re-drawing these immediately
        after rotation keeps the first post-rotation tick from stampeding
        on the hot pool. Heat is ``warm_decay * last_epoch_touches +
        (1 - warm_decay) * previous_heat``, so one anomalous epoch can
        neither evict a stable hot set from the warm list nor park a
        one-off burst in it — while a genuinely drifted hot set takes
        over within about two epochs. Vertices of equal heat rank by
        vertex id, lowest first; heat that decayed to 1e-9 or below
        ranks nowhere. Empty before the first rotation.
        """
        k = max(0, int(k))
        hot = np.flatnonzero(self._heat)
        if k == 0 or hot.size == 0:
            return []
        order = np.lexsort((hot, -self._heat[hot]))
        return hot[order[:k]].tolist()

    # ------------------------------------------------------------------
    # Streaming mutations and epoch rotation
    # ------------------------------------------------------------------
    def mutate(
        self,
        inserts: np.ndarray | list | tuple = (),
        deletes: np.ndarray | list | tuple = (),
    ) -> int:
        """Record edge mutations against the bound graph (applied at rotate).

        Mutations accumulate in an out-of-place :class:`DeltaLog` — the
        served graph snapshot is untouched until the next :meth:`rotate`,
        which applies the log's *net* effect (last op per edge wins, so an
        insert cancelled by a delete inside one epoch leaves no trace) and
        redraws only the vertices the net delta actually touched. Inserts
        are recorded before deletes within one call. Returns the number of
        ops recorded by this call.

        Raises
        ------
        GraphError
            If an edge endpoint is out of range for the bound graph.
        """
        if self._pending is None:
            self._pending = DeltaLog(self.graph)
        before = len(self._pending)
        self._pending.insert_edges(inserts)
        self._pending.delete_edges(deletes)
        recorded = len(self._pending) - before
        self.stats.mutations += recorded
        return recorded

    @property
    def pending_delta(self) -> DeltaLog | None:
        """The delta log accumulating since the last rotation (or None)."""
        return self._pending

    def pending_dirty(self) -> np.ndarray:
        """Serving-layer vertices the pending net delta would redraw."""
        if self._pending is None:
            return np.empty(0, dtype=np.int64)
        return self._pending.dirty_vertices(self.layer)

    def vertex_version(self, vertex: int) -> int:
        """The vertex's current stream version (bumped per dirty rotation)."""
        return int(self._versions[int(vertex)])

    def rotate(self) -> int:
        """Start the next epoch (accountant in lockstep).

        Without pending mutations this is the classic *full* rotation:
        every view drops, and both the logical epoch and the keyed
        ``draw_epoch`` advance, so the next query re-draws and recharges
        whatever it touches. With a pending net-nonempty delta the
        rotation is *incremental*: the mutated snapshot is swapped in,
        only the net delta's dirty vertices drop their views (and bump
        their keyed version word — their next draw is a fresh stream and
        a fresh charge), while every clean vertex keeps its resident view
        and its bit-identical keyed stream, charge-free. A pending delta
        whose ops cancelled out entirely falls back to the full path —
        indistinguishable, draws included, from never having mutated.

        Returns the new epoch id. Also folds the closed epoch's touch
        counts into the heat that :meth:`hottest_last_epoch` ranks.
        """
        pending = self._pending
        self._pending = None
        # Fold the closed epoch's touch counts into the cross-epoch EWMA;
        # heat that decayed to noise drops out of the warm set.
        alpha = self.warm_decay
        self._heat *= 1.0 - alpha
        self._heat += alpha * self._touches
        self._heat[self._heat <= 1e-9] = 0.0
        self._touches.fill(0)
        if pending is not None and not pending.is_net_empty:
            return self._rotate_incremental(pending)
        self._views.clear()
        self._resident.fill(False)
        self._clear_pairs()
        self._degrees.clear()
        self._drawn_vertices.fill(False)
        self._drawn_degrees.fill(False)
        self._shard_group.clear()
        self._bytes = 0
        self.stats.rotations += 1
        self.epoch = self.accountant.rotate()
        self.draw_epoch = self.epoch
        self.last_rotation = {"incremental": False, "dirty": 0}
        return self.epoch

    def _rotate_incremental(self, pending: DeltaLog) -> int:
        """Apply a net-nonempty delta and drop only its dirty vertices."""
        new_graph = pending.apply()
        dirty = sorted_unique(pending.dirty_vertices(self.layer))
        self._versions[dirty] += np.uint64(1)
        for v in dirty.tolist():
            self._drop_view(v)
            if self._degrees.pop(v, None) is not None:
                self._bytes -= _DEGREE_ENTRY_BYTES
        self._drawn_vertices[dirty] = False
        self._drawn_degrees[dirty] = False
        # A pair is stale when either half of its code is dirty: one
        # dense dirty-mask gather per half.
        dirty_mask = np.zeros(self._span, dtype=bool)
        dirty_mask[dirty] = True
        self._keep_pairs(self._clean_pairs(self._codes, dirty_mask))
        self._drawn_codes = self._drawn_codes[
            self._clean_pairs(self._drawn_codes, dirty_mask)
        ]
        self.graph = new_graph
        if self.shard_runner is not None:
            # The delta rides along so a socket transport can resync its
            # workers with one MUTATE push instead of re-shipping the
            # whole snapshot (compacted: net ops only).
            self.shard_runner.rebind(new_graph, delta=pending.compact())

        self.stats.rotations += 1
        self.stats.incremental_rotations += 1
        self.epoch = self.accountant.rotate()
        # draw_epoch stays pinned: clean vertices replay their streams.
        self.last_rotation = {
            "incremental": True,
            "dirty": int(dirty.size),
            "dirty_vertices": dirty,
            "inserts": int(len(pending.net_inserts())),
            "deletes": int(len(pending.net_deletes())),
            "recorded": len(pending),
        }
        return self.epoch

    def _clean_pairs(self, codes: np.ndarray, dirty_mask: np.ndarray) -> np.ndarray:
        """Per pair code: are both of its vertices clean?"""
        a, b = decode(codes, self._span)
        return ~(dirty_mask[a] | dirty_mask[b])

    def __repr__(self) -> str:
        return (
            f"NoisyViewCache(layer={self.layer.value}, mode={self.mode.value}, "
            f"epsilon={self.epsilon:g}, epoch={self.epoch}, "
            f"views={len(self._views)}, pairs={self._codes.size}, "
            f"bytes={self._bytes}"
            + (
                f"/{self.max_bytes}" if self.max_bytes is not None else ""
            )
            + ")"
        )
