"""Sampling utilities for experiments.

Three samplers back the paper's evaluation protocol:

* :func:`sample_vertex_fraction` — vertex-induced subgraphs at a fraction
  of ``|V|`` (Fig. 11 scalability study).
* :func:`sample_query_pairs` — uniform same-layer query pairs (all error
  figures; the paper samples 100 pairs per dataset).
* :func:`sample_imbalanced_pairs` — pairs whose degree ratio exceeds a
  factor κ (Fig. 9 robustness study).
"""

from __future__ import annotations

from operator import index

import numpy as np

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.privacy.rng import ensure_rng

__all__ = [
    "QueryPair",
    "sample_vertex_fraction",
    "sample_query_pairs",
    "sample_imbalanced_pairs",
    "heaviest_layer",
]


class QueryPair(tuple):
    """A ``(layer, a, b)`` query: two distinct vertices on the same layer.

    Vertex ids must be integers (Python or NumPy); anything else — a
    float such as ``1.5``, even an integral ``np.float64(2.0)``, or a
    string — raises :class:`~repro.errors.GraphError` instead of being
    truncated into some other vertex (or into a self-pair).
    """

    __slots__ = ()

    def __new__(cls, layer: Layer, a: int, b: int):
        try:
            a, b = index(a), index(b)
        except TypeError:
            raise GraphError(
                f"query vertices must be integers, got {a!r} and {b!r}"
            ) from None
        if a == b:
            raise GraphError("query vertices must be distinct")
        return super().__new__(cls, (layer, a, b))

    @property
    def layer(self) -> Layer:
        return self[0]

    @property
    def a(self) -> int:
        return self[1]

    @property
    def b(self) -> int:
        return self[2]


def sample_vertex_fraction(
    graph: BipartiteGraph,
    fraction: float,
    rng: np.random.Generator | int | None = None,
) -> BipartiteGraph:
    """Uniformly keep ``fraction`` of the vertices on each layer (Fig. 11).

    Mirrors the paper: sample vertices uniformly, take the induced
    subgraph. Both layers are subsampled at the same rate; at least one
    vertex per non-empty layer is kept.
    """
    if not 0.0 < fraction <= 1.0:
        raise GraphError(f"fraction must be in (0, 1], got {fraction}")
    rng = ensure_rng(rng)
    if fraction == 1.0:
        return graph

    def _pick(size: int) -> np.ndarray:
        if size == 0:
            return np.empty(0, dtype=np.int64)
        keep = max(1, int(round(size * fraction)))
        return rng.choice(size, size=keep, replace=False)

    return graph.induced_subgraph(_pick(graph.num_upper), _pick(graph.num_lower))


def heaviest_layer(graph: BipartiteGraph) -> Layer:
    """The layer with the larger maximum degree.

    Degree-imbalance workloads (Fig. 9) need a layer whose tail actually
    contains vertices κ times heavier than the lightest ones; on bipartite
    graphs that is the layer with the heavier hub (users in user–item
    graphs, teams in athlete–team graphs, ...).
    """
    upper = graph.max_degree(Layer.UPPER)
    lower = graph.max_degree(Layer.LOWER)
    return Layer.UPPER if upper >= lower else Layer.LOWER


def _eligible_vertices(graph: BipartiteGraph, layer: Layer, min_degree: int) -> np.ndarray:
    degrees = graph.degrees(layer)
    eligible = np.flatnonzero(degrees >= min_degree)
    if eligible.size < 2:
        raise GraphError(
            f"layer {layer} has fewer than two vertices with degree >= {min_degree}"
        )
    return eligible


def sample_query_pairs(
    graph: BipartiteGraph,
    layer: Layer,
    count: int,
    rng: np.random.Generator | int | None = None,
    min_degree: int = 1,
) -> list[QueryPair]:
    """Uniformly sample ``count`` distinct-vertex query pairs on ``layer``.

    ``min_degree`` excludes isolated vertices by default (a common-neighbor
    query against an isolated vertex is trivially zero and the paper's
    query workload is drawn from active vertices).
    """
    if count <= 0:
        return []
    rng = ensure_rng(rng)
    eligible = _eligible_vertices(graph, layer, min_degree)
    pairs: list[QueryPair] = []
    while len(pairs) < count:
        a, b = rng.choice(eligible, size=2, replace=False)
        pairs.append(QueryPair(layer, int(a), int(b)))
    return pairs


def sample_imbalanced_pairs(
    graph: BipartiteGraph,
    layer: Layer,
    count: int,
    kappa: float,
    rng: np.random.Generator | int | None = None,
    min_degree: int = 1,
    max_attempts: int = 200_000,
) -> list[QueryPair]:
    """Sample pairs with ``max(deg) > kappa * min(deg)`` (Fig. 9 workload).

    Rejection-samples uniform pairs first; if the constraint is too rare it
    falls back to stratified construction (one endpoint from the lowest
    degree decile, the other from vertices whose degree satisfies the
    ratio). Raises :class:`GraphError` when the graph simply has no
    qualifying pair.
    """
    if kappa < 1.0:
        raise GraphError(f"kappa must be >= 1, got {kappa}")
    if count <= 0:
        return []
    rng = ensure_rng(rng)
    eligible = _eligible_vertices(graph, layer, min_degree)
    degrees = graph.degrees(layer)

    pairs: list[QueryPair] = []
    attempts = 0
    while len(pairs) < count and attempts < max_attempts:
        attempts += 1
        a, b = rng.choice(eligible, size=2, replace=False)
        da, db = degrees[a], degrees[b]
        if max(da, db) > kappa * min(da, db):
            pairs.append(QueryPair(layer, int(a), int(b)))

    if len(pairs) < count:
        # Stratified fallback: pair low-degree anchors with heavy vertices,
        # cycling through the anchors (ascending degree) until the quota is
        # met. Anchors are sorted ascending, so once one anchor has no
        # sufficiently heavy partner, no later anchor can have one either.
        order = eligible[np.argsort(degrees[eligible], kind="stable")]
        while len(pairs) < count:
            added = False
            for low in order:
                if len(pairs) >= count:
                    break
                threshold = kappa * degrees[low]
                heavy = eligible[degrees[eligible] > threshold]
                heavy = heavy[heavy != low]
                if heavy.size == 0:
                    break
                partner = int(rng.choice(heavy))
                # Randomize slot order so neither pair position is biased
                # toward the low-degree endpoint (MultiR-SS's error depends
                # on which one plays the source role).
                if rng.random() < 0.5:
                    pairs.append(QueryPair(layer, int(low), partner))
                else:
                    pairs.append(QueryPair(layer, partner, int(low)))
                added = True
            if not added:
                raise GraphError(
                    f"could not find {count} pairs with degree imbalance "
                    f"kappa={kappa}"
                )
    return pairs
