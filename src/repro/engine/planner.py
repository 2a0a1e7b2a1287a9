"""Workload planning: validation, vertex dedup and budget slicing.

A plan turns an arbitrary same-layer pair workload into the arrays the
vectorized stages consume: the sorted distinct query vertices (each
perturbs exactly once, whatever the pair multiplicity) and, per pair, the
slots of its endpoints within that vertex block. Budgets come either as an
explicit per-batch ``epsilon`` or as one slice of a
:class:`~repro.privacy.composition.QueryBudgetManager`, so a sequence of
batches can honestly share an analyst budget.

For epoch-cached serving, :func:`pair_keys` gives every pair its
order-normalized key for pair-granular (sketch-mode) caching; the
vertex-granular modes resolve the plan's distinct vertex block through
the cache itself (only its non-resident vertices are perturbed, and only
its never-drawn vertices are charged, each tick).

Sketch-view planning (:func:`plan_views`) adds the per-vertex list-vs-
sketch decision: a vertex whose expected noisy row outweighs the
configured sketch keeps a fixed-size sketch view instead of a
materialized list, sized so the workload's total view memory fits an
optional byte budget. The decision is closed over the pair graph —
if either endpoint of a pair is sketched, both are ("sketch contagion")
— so every pair is answered homogeneously (list×list or sketch×sketch)
and each vertex still releases exactly one ε-LDP view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.errors import GraphError, PrivacyError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair
from repro.privacy.composition import QueryBudgetManager
from repro.privacy.mechanisms import flip_probability

__all__ = [
    "WorkloadPlan",
    "TenantSlice",
    "ShardPlan",
    "ViewPlan",
    "plan_workload",
    "pair_endpoints",
    "pair_keys",
    "slice_by_tenant",
    "estimate_noisy_row_bytes",
    "plan_shards",
    "plan_views",
]

# Bytes per transmitted column id of a noisy row (mirrors
# ``repro.protocol.messages.ID_BYTES`` without importing the protocol
# layer into the planner).
_ROW_ID_BYTES = 8


@dataclass(frozen=True)
class WorkloadPlan:
    """A validated batch: distinct vertices, pair slots and the budget."""

    layer: Layer
    epsilon: float
    pairs: tuple[QueryPair, ...]
    vertices: np.ndarray  # sorted distinct query vertices
    ia: np.ndarray  # slot of pair.a within `vertices`, per pair
    ib: np.ndarray  # slot of pair.b within `vertices`, per pair
    # Optional per-vertex list-vs-sketch decision (see plan_views);
    # None when the workload was planned without a sketch config.
    views: "ViewPlan | None" = None

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True)
class TenantSlice:
    """One tenant's share of a multi-tenant workload plan."""

    tenant: str
    indices: np.ndarray  # slots of this tenant's pairs within `plan.pairs`
    vertices: np.ndarray  # sorted distinct vertices those pairs touch

    @property
    def num_pairs(self) -> int:
        return int(self.indices.size)


def slice_by_tenant(
    plan: WorkloadPlan, tags: Sequence[str]
) -> dict[str, TenantSlice]:
    """Partition a plan's pairs into per-tenant slices.

    ``tags`` gives the requesting tenant of each pair, aligned with
    ``plan.pairs``. Returns one :class:`TenantSlice` per distinct tag,
    in first-appearance order — the view the serving layer's per-tenant
    accounting and reports are built on. Slices share vertices freely
    (that sharing is exactly what makes the common epoch cache pay off);
    whether a shared vertex's charge lands on one tenant or another is
    decided at serving time by arrival order, not here.

    Raises
    ------
    ProtocolError
        If ``tags`` is not aligned with the plan's pairs.
    """
    if len(tags) != plan.num_pairs:
        raise ProtocolError(
            f"{len(tags)} tenant tags do not match the plan's "
            f"{plan.num_pairs} pairs"
        )
    order: dict[str, list[int]] = {}
    for i, tag in enumerate(tags):
        order.setdefault(str(tag), []).append(i)
    slices: dict[str, TenantSlice] = {}
    for tag, indices in order.items():
        idx = np.asarray(indices, dtype=np.int64)
        verts = np.unique(
            np.concatenate([plan.vertices[plan.ia[idx]], plan.vertices[plan.ib[idx]]])
        )
        slices[tag] = TenantSlice(tenant=tag, indices=idx, vertices=verts)
    return slices


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous vertex ranges covering one workload's distinct vertices.

    Shard ``s`` owns ``vertices[offsets[s]:offsets[s + 1]]``; the ranges
    are contiguous, disjoint and cover the whole block in order, so
    concatenating per-shard CSR fragments in shard order reproduces the
    unsharded row layout exactly. ``est_bytes`` carries the planner's
    expected noisy-payload size per shard (see
    :func:`estimate_noisy_row_bytes`) — the quantity the memory budget
    sized the ranges by.
    """

    vertices: np.ndarray  # the full sorted distinct vertex block
    offsets: np.ndarray  # shard s = vertices[offsets[s]:offsets[s + 1]]
    est_bytes: np.ndarray  # expected noisy payload bytes per shard
    mem_bytes: int | None  # the budget that sized the plan (None: count-sized)

    @property
    def num_shards(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def max_shard_bytes(self) -> int:
        """The largest per-shard estimate — what one worker must hold."""
        return int(self.est_bytes.max()) if self.num_shards else 0

    def ranges(self) -> list[tuple[int, int]]:
        """Per-shard ``(lo, hi)`` index ranges into :attr:`vertices`."""
        return [
            (int(self.offsets[s]), int(self.offsets[s + 1]))
            for s in range(self.num_shards)
        ]

    def shard_vertices(self, shard: int) -> np.ndarray:
        """The vertex ids owned by one shard."""
        return self.vertices[self.offsets[shard] : self.offsets[shard + 1]]

    def shard_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """The shard owning each workload row slot (vectorized lookup)."""
        return np.searchsorted(self.offsets, rows, side="right") - 1


def estimate_noisy_row_bytes(
    degrees: np.ndarray, domain: int, epsilon: float
) -> np.ndarray:
    """Expected noisy-report size, in bytes, per vertex.

    Under ε-randomized response a degree-``d`` vertex reports each of its
    ``d`` edges with probability ``1 - p`` and each of its ``domain - d``
    non-edges with probability ``p``, so the expected report length is
    ``d (1 - p) + (domain - d) p`` column ids of 8 bytes each. This is
    the quantity :func:`plan_shards` packs against a memory budget — the
    noisy output dominates a shard's working set.

    Parameters
    ----------
    degrees:
        True degree per vertex (array or scalar).
    domain:
        Opposite-layer size (the candidate pool each row ranges over).
    epsilon:
        The RR budget the rows will be drawn at.

    Returns
    -------
    numpy.ndarray
        Expected bytes per vertex, as float64 (same shape as
        ``degrees``).

    Example
    -------
    >>> import numpy as np
    >>> est = estimate_noisy_row_bytes(np.array([10, 0]), 1000, 2.0)
    >>> bool((est > 0).all())
    True
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    p = flip_probability(epsilon)
    expected_ids = degrees * (1.0 - p) + (domain - degrees) * p
    return expected_ids * _ROW_ID_BYTES


@dataclass(frozen=True)
class ViewPlan:
    """Per-vertex list-vs-sketch decision for one workload.

    ``sketch_mask[i]`` is True when ``vertices[i]`` releases a fixed-size
    sketch view instead of a materialized noisy row. The mask is closed
    over the workload's pair graph: every pair is either list×list or
    sketch×sketch (a mixed pair would need exploding-variance product
    estimators, and answering it from *both* view kinds would double-
    charge the vertex). ``promoted`` counts vertices sketched only by
    that closure; ``row_bytes`` carries the planner's expected
    materialized size per vertex and ``sketch_bytes`` the fixed
    per-vertex sketch size the decision traded it against.
    """

    vertices: np.ndarray  # the plan's sorted distinct vertices
    sketch_mask: np.ndarray  # bool per vertex: True -> sketch view
    row_bytes: np.ndarray  # expected noisy-row bytes if materialized
    sketch_bytes: int  # fixed per-vertex sketch view bytes
    promoted: int  # vertices sketched only by the pair closure

    @property
    def num_sketched(self) -> int:
        return int(np.count_nonzero(self.sketch_mask))

    @property
    def num_listed(self) -> int:
        return int(self.sketch_mask.size - self.num_sketched)

    @property
    def est_view_bytes(self) -> int:
        """Expected total view memory under this plan's decisions."""
        listed = self.row_bytes[~self.sketch_mask].sum()
        return int(listed + self.num_sketched * self.sketch_bytes)

    def per_vertex_bytes(self) -> np.ndarray:
        """Expected view bytes per vertex (rows where listed, else sketch)."""
        return np.where(
            self.sketch_mask, float(self.sketch_bytes), self.row_bytes
        )


def plan_views(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    *,
    ia: np.ndarray,
    ib: np.ndarray,
    sketch_bytes: int,
    mem_bytes: int | None = None,
    force_sketch: bool = False,
) -> ViewPlan:
    """Decide list-vs-sketch per vertex, driven by degree and memory budget.

    The decision has three stages:

    1. **Economy** — a vertex is sketched when its expected noisy-row
       bytes (:func:`estimate_noisy_row_bytes`, a monotone function of
       its degree) exceed ``sketch_bytes``; a sketch that is bigger than
       the row it replaces never pays.
    2. **Budget** — with ``mem_bytes``, still-listed vertices are flipped
       to sketch largest-row-first until the workload's total expected
       view memory fits the budget (sketching cheap rows is pointless, so
       flips start at the most expensive). The budget is a soft cap: if
       every vertex is sketched and the total still exceeds it, the plan
       reports the overshoot via :attr:`ViewPlan.est_view_bytes`.
    3. **Pair closure** — any pair with one sketched endpoint promotes
       the other endpoint to sketch too, iterated to a fixpoint over the
       workload's pair graph. Every pair is then answered from one view
       kind and each vertex still releases exactly one ε-LDP view.

    ``force_sketch`` short-circuits all three stages (the pure
    sketch-view execution mode).

    Parameters
    ----------
    graph, layer, vertices, epsilon:
        As for :func:`plan_shards`; ``epsilon`` fixes the expected noisy
        row size.
    ia, ib:
        Per-pair endpoint slots within ``vertices`` (the closure runs
        over them).
    sketch_bytes:
        Fixed per-vertex sketch view size (positive) —
        ``SketchConfig.bytes_per_vertex``.
    mem_bytes:
        Optional workload-wide expected view memory budget (positive).
    force_sketch:
        Sketch every vertex regardless of economy or budget.

    Returns
    -------
    ViewPlan

    Raises
    ------
    ProtocolError
        If ``sketch_bytes`` or ``mem_bytes`` is not positive.
    GraphError
        If a vertex id is out of range for ``layer``.
    """
    if sketch_bytes <= 0:
        raise ProtocolError(f"sketch_bytes must be positive, got {sketch_bytes}")
    if mem_bytes is not None and mem_bytes <= 0:
        raise ProtocolError(f"mem_bytes must be positive, got {mem_bytes}")
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.size
    n_layer = graph.layer_size(layer)
    if k and (vertices.min() < 0 or vertices.max() >= n_layer):
        raise GraphError(f"view-plan vertex out of range for {layer} layer")
    domain = graph.layer_size(layer.opposite())
    row_bytes = (
        estimate_noisy_row_bytes(graph.degrees(layer)[vertices], domain, epsilon)
        if k
        else np.empty(0, dtype=np.float64)
    )
    if force_sketch:
        return ViewPlan(
            vertices=vertices,
            sketch_mask=np.ones(k, dtype=bool),
            row_bytes=row_bytes,
            sketch_bytes=int(sketch_bytes),
            promoted=0,
        )
    mask = row_bytes > float(sketch_bytes)
    if mem_bytes is not None and k:
        total = row_bytes[~mask].sum() + np.count_nonzero(mask) * sketch_bytes
        # Flip the most expensive still-listed rows until the budget fits
        # (each flip replaces row_bytes with sketch_bytes, and flips are
        # only attempted where that shrinks the total).
        order = np.argsort(row_bytes)[::-1]
        for slot in order:
            if total <= mem_bytes:
                break
            if mask[slot] or row_bytes[slot] <= sketch_bytes:
                continue
            total += sketch_bytes - row_bytes[slot]
            mask[slot] = True
    budgeted = int(np.count_nonzero(mask))
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    # Pair closure to a fixpoint: sketching spreads over pair-graph
    # connected components (each sweep extends the mask by one hop, so
    # the loop runs at most the largest component's diameter).
    while True:
        pair_sketch = mask[ia] | mask[ib]
        before = int(np.count_nonzero(mask))
        mask[ia[pair_sketch]] = True
        mask[ib[pair_sketch]] = True
        if int(np.count_nonzero(mask)) == before:
            break
    return ViewPlan(
        vertices=vertices,
        sketch_mask=mask,
        row_bytes=row_bytes,
        sketch_bytes=int(sketch_bytes),
        promoted=int(np.count_nonzero(mask)) - budgeted,
    )


def plan_shards(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    *,
    shards: int | None = None,
    mem_bytes: int | None = None,
    view_plan: "ViewPlan | None" = None,
) -> ShardPlan:
    """Split a workload's vertex block into contiguous budget-sized ranges.

    Exactly one of ``shards`` and ``mem_bytes`` sizes the plan (neither
    means one shard). With ``mem_bytes`` the block is packed greedily:
    each range takes vertices until its expected noisy payload
    (:func:`estimate_noisy_row_bytes`) would exceed the budget — a single
    vertex whose own estimate exceeds the budget still gets a
    (one-vertex, over-budget) shard, since rows are indivisible. With
    ``shards`` the block is cut at the byte-balanced quantiles, so the
    requested number of ranges carry roughly equal expected payloads.

    Shard boundaries never change the drawn bits: the keyed kernel gives
    every vertex a private counter-based stream, so any plan's per-shard
    draws concatenate to the byte-identical unsharded output (see
    ``docs/sharding-guide.md``).

    Parameters
    ----------
    graph, layer:
        The serving context; ``vertices`` must be valid ids on ``layer``.
    vertices:
        The workload's (typically sorted distinct) vertex block.
    epsilon:
        The RR budget the rows will be drawn at (fixes the flip
        probability the size estimate depends on).
    shards:
        Explicit shard count (positive). Mutually exclusive with
        ``mem_bytes``.
    mem_bytes:
        Per-shard byte budget for the expected noisy payload (positive).
        Mutually exclusive with ``shards``.
    view_plan:
        Optional :class:`ViewPlan` over the same vertex block. When
        given, packing uses its per-vertex view bytes (fixed
        ``sketch_bytes`` for sketched vertices, expected row bytes for
        listed ones) instead of assuming every vertex materializes —
        sketched shards pack far more vertices per budget.

    Returns
    -------
    ShardPlan
        The contiguous ranges with their per-shard byte estimates. An
        empty vertex block yields a zero-shard plan.

    Raises
    ------
    ProtocolError
        If both ``shards`` and ``mem_bytes`` are given, or either is not
        positive.
    GraphError
        If a vertex id is out of range for ``layer``.

    Example
    -------
    >>> from repro.graph.generators import random_bipartite
    >>> from repro.graph.bipartite import Layer
    >>> g = random_bipartite(40, 30, 200, rng=0)
    >>> plan = plan_shards(g, Layer.UPPER, np.arange(40), 2.0, shards=4)
    >>> plan.num_shards, int(plan.offsets[0]), int(plan.offsets[-1])
    (4, 0, 40)
    """
    if shards is not None and mem_bytes is not None:
        raise ProtocolError("pass either shards or mem_bytes, not both")
    if shards is not None and shards <= 0:
        raise ProtocolError(f"shards must be positive, got {shards}")
    if mem_bytes is not None and mem_bytes <= 0:
        raise ProtocolError(f"mem_bytes must be positive, got {mem_bytes}")
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.size
    n_layer = graph.layer_size(layer)
    if k and (vertices.min() < 0 or vertices.max() >= n_layer):
        raise GraphError(f"shard vertex out of range for {layer} layer")
    domain = graph.layer_size(layer.opposite())
    if view_plan is not None:
        if view_plan.sketch_mask.shape != (k,):
            raise ProtocolError(
                f"view plan covers {view_plan.sketch_mask.size} vertices, "
                f"shard plan needs {k}"
            )
        per_vertex = view_plan.per_vertex_bytes()
    else:
        per_vertex = (
            estimate_noisy_row_bytes(
                graph.degrees(layer)[vertices], domain, epsilon
            )
            if k
            else np.empty(0, dtype=np.float64)
        )
    if k == 0:
        return ShardPlan(
            vertices=vertices,
            offsets=np.zeros(1, dtype=np.int64),
            est_bytes=np.empty(0, dtype=np.int64),
            mem_bytes=mem_bytes,
        )
    cumulative = np.concatenate(([0.0], np.cumsum(per_vertex)))
    if mem_bytes is not None:
        # Greedy packing: each cut lands on the last vertex that still
        # fits the running budget; a single over-budget vertex advances
        # by one (rows are indivisible).
        cuts = [0]
        while cuts[-1] < k:
            start = cuts[-1]
            fit = int(
                np.searchsorted(
                    cumulative, cumulative[start] + mem_bytes, side="right"
                )
                - 1
            )
            cuts.append(max(fit, start + 1))
        offsets = np.asarray(cuts, dtype=np.int64)
    elif shards is not None and shards > 1:
        # Byte-balanced quantile cuts (deduplicated: never more shards
        # than vertices, every shard nonempty).
        targets = cumulative[-1] * np.arange(1, shards) / shards
        interior = np.searchsorted(cumulative[1:-1], targets, side="left") + 1
        offsets = np.unique(
            np.concatenate(([0], np.minimum(interior, k - 1), [k]))
        ).astype(np.int64)
    else:
        offsets = np.array([0, k], dtype=np.int64)
    est = np.diff(cumulative[offsets]).astype(np.int64)
    return ShardPlan(
        vertices=vertices, offsets=offsets, est_bytes=est, mem_bytes=mem_bytes
    )


def pair_endpoints(pairs: Sequence[QueryPair]) -> np.ndarray:
    """The ``(a, b)`` of every pair as one ``(len(pairs), 2)`` int64 array,
    read at C level (no per-pair property calls)."""
    return np.fromiter(
        chain.from_iterable(map(itemgetter(1, 2), pairs)),
        dtype=np.int64,
        count=2 * len(pairs),
    ).reshape(-1, 2)


def pair_keys(plan: WorkloadPlan) -> np.ndarray:
    """Order-normalized ``(min, max)`` vertex-id key per pair.

    ``C2`` is symmetric, so ``(a, b)`` and ``(b, a)`` must share one cache
    entry; the key array has shape ``(num_pairs, 2)``.
    """
    a = plan.vertices[plan.ia]
    b = plan.vertices[plan.ib]
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


def plan_workload(
    graph: BipartiteGraph,
    layer: Layer,
    pairs: Sequence[QueryPair],
    epsilon: float | None = None,
    *,
    budget: QueryBudgetManager | None = None,
    sketch_bytes: int | None = None,
    view_mem_bytes: int | None = None,
    force_sketch: bool = False,
) -> WorkloadPlan:
    """Validate a pair workload and resolve its batch budget.

    Exactly one of ``epsilon`` and ``budget`` funds the batch; with a
    manager, one slice is reserved per call (a batch is one query against
    the analyst's total, however many pairs it answers).

    With ``sketch_bytes`` the plan additionally carries a
    :class:`ViewPlan` (see :func:`plan_views`): the per-vertex
    list-vs-sketch decision, sized against ``view_mem_bytes`` when given
    and forced all-sketch by ``force_sketch``.

    Parameters
    ----------
    graph, layer:
        The serving context; every pair must live on ``layer`` and its
        endpoints must be valid vertex ids there.
    pairs:
        The same-layer :class:`~repro.graph.sampling.QueryPair` workload
        (at least one pair; duplicates are allowed and deduplicate into
        shared vertex slots).
    epsilon:
        Explicit per-batch budget. Mutually exclusive with ``budget``.
    budget:
        A :class:`~repro.privacy.composition.QueryBudgetManager`; one
        slice is reserved by this call and funds the whole batch.
    sketch_bytes:
        Fixed per-vertex sketch view size; enables sketch-view planning
        (``SketchConfig.bytes_per_vertex``).
    view_mem_bytes:
        Optional workload-wide view memory budget for the list-vs-sketch
        decision. Requires ``sketch_bytes``.
    force_sketch:
        Sketch every vertex (pure sketch-view mode). Requires
        ``sketch_bytes``.

    Returns
    -------
    WorkloadPlan
        The validated plan: resolved ``epsilon``, the sorted distinct
        query vertices, and each pair's endpoint slots within them.

    Raises
    ------
    ProtocolError
        If the workload is empty or a pair sits on the wrong layer.
    PrivacyError
        If both or neither of ``epsilon``/``budget`` are given, or the
        resolved epsilon is not a positive finite number.
    GraphError
        If any endpoint is out of range for ``layer``.
    BudgetExceededError
        Propagated from ``budget`` when its total is exhausted.

    Example
    -------
    >>> from repro.graph.generators import random_bipartite
    >>> from repro.graph.sampling import QueryPair
    >>> g = random_bipartite(10, 8, 30, rng=0)
    >>> plan = plan_workload(
    ...     g, Layer.UPPER,
    ...     [QueryPair(Layer.UPPER, 1, 4), QueryPair(Layer.UPPER, 4, 2)],
    ...     epsilon=2.0,
    ... )
    >>> plan.num_pairs, plan.vertices.tolist()
    (2, [1, 2, 4])
    """
    if not pairs:
        raise ProtocolError("batch needs at least one query pair")
    # An identity count at C level; the loop only names the offender.
    if list(map(itemgetter(0), pairs)).count(layer) != len(pairs):
        for pair in pairs:
            if pair.layer is not layer:
                raise ProtocolError(
                    f"pair {pair} is not on the requested {layer} layer"
                )

    if budget is not None:
        if epsilon is not None:
            raise PrivacyError("pass either epsilon or a budget manager, not both")
        epsilon = budget.next_budget()
    if epsilon is None:
        raise PrivacyError("a batch needs an epsilon or a budget manager")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise PrivacyError(f"epsilon must be a positive finite number, got {epsilon}")

    endpoints = pair_endpoints(pairs)
    n_layer = graph.layer_size(layer)
    if endpoints.min() < 0 or endpoints.max() >= n_layer:
        raise GraphError(f"query vertex out of range for {layer} layer of size {n_layer}")
    vertices, inverse = np.unique(endpoints, return_inverse=True)
    inverse = inverse.reshape(endpoints.shape)
    ia = np.ascontiguousarray(inverse[:, 0])
    ib = np.ascontiguousarray(inverse[:, 1])
    if sketch_bytes is None:
        if view_mem_bytes is not None or force_sketch:
            raise ProtocolError(
                "view_mem_bytes/force_sketch require sketch_bytes"
            )
        views = None
    else:
        views = plan_views(
            graph,
            layer,
            vertices,
            epsilon,
            ia=ia,
            ib=ib,
            sketch_bytes=sketch_bytes,
            mem_bytes=view_mem_bytes,
            force_sketch=force_sketch,
        )
    return WorkloadPlan(
        layer=layer,
        epsilon=epsilon,
        pairs=tuple(pairs),
        vertices=vertices,
        ia=ia,
        ib=ib,
        views=views,
    )
