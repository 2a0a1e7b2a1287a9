"""Seeded workload inputs, built as numpy arrays before any timed set-up.

Everything a workload feeds the program is drawn here from the workload
seed: the graph's edge arrays (``repro.datasets.synthesis.synthesize`` on a
copy of the dataset spec whose seed is derived from the workload seed), the
per-client pair streams, and the serve_churn mutation script. Nothing here
reads the dataset cache on disk, and nothing is drawn after set-up starts,
so one seed fixes every input and the program only ever sees arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.registry import get_spec
from repro.datasets.synthesis import synthesize

__all__ = [
    "EPSILON",
    "MUTATION_EDGES",
    "SHAPES",
    "GraphArrays",
    "Inputs",
    "Shape",
    "build_inputs",
    "derive_seed",
]

#: Upper-layer budget of every workload.
EPSILON = 2.0
#: Edge operations per serve_churn mutation burst (half inserts, half deletes).
MUTATION_EDGES = 32


@dataclass(frozen=True)
class Shape:
    """The fixed shape of one workload's inputs.

    ``clients`` is the number of concurrent callers (for engine_batch, the
    pairs per engine call) and ``rows`` the length of each caller's
    pre-drawn stream; a caller that runs past its stream wraps around.
    """

    dataset: str
    clients: int
    rows: int
    pairs: str  # "uniform" or "zipf"
    zipf_s: float = 0.0
    repeat_every: int = 0  # every n-th stream row repeats the row before it
    bursts: int = 0  # mutation bursts pre-drawn for serve_churn


SHAPES: dict[str, Shape] = {
    "engine_batch": Shape("RM", clients=4000, rows=96, pairs="uniform"),
    "serve_churn": Shape(
        "RM", clients=500, rows=256, pairs="zipf", zipf_s=0.9, bursts=400
    ),
    "serve_wide": Shape(
        "AC", clients=250, rows=512, pairs="uniform", repeat_every=8
    ),
}


def derive_seed(seed: int, tag: int) -> int:
    """A 32-bit seed for one input stream, fixed by the workload seed.

    Any integer seed is accepted; it is taken modulo 2**64.
    """
    entropy = [int(seed) % (1 << 64), int(tag)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class GraphArrays:
    """A bipartite graph as plain arrays: layer sizes and sorted unique edges."""

    n_upper: int
    n_lower: int
    edges: np.ndarray  # (m, 2) int64, lexicographically sorted, unique

    @property
    def active(self) -> np.ndarray:
        """Upper vertices with at least one edge, ascending."""
        return np.flatnonzero(np.bincount(self.edges[:, 0], minlength=self.n_upper))


@dataclass(frozen=True)
class Inputs:
    """Every array one workload run feeds the program."""

    workload: str
    seed: int
    shape: Shape
    graph: GraphArrays
    warm_a: np.ndarray  # one burst of pairs touching every active upper vertex
    warm_b: np.ndarray
    stream_a: np.ndarray  # (rows, clients): caller i's j-th pair is [j, i]
    stream_b: np.ndarray
    mutations: tuple[tuple[np.ndarray, np.ndarray], ...]  # (inserts, deletes)


def _graph(dataset: str, seed: int) -> GraphArrays:
    spec = get_spec(dataset)
    spec = replace(spec, seed=derive_seed(seed, spec.seed))
    graph = synthesize(spec, max_edges=spec.paper_edges)
    return GraphArrays(
        graph.num_upper, graph.num_lower, np.array(graph.edges, dtype=np.int64)
    )


def _distinct_second(first: np.ndarray, draw) -> np.ndarray:
    """Draw partners with ``draw(shape)`` until none equals its first."""
    second = draw(first.shape)
    clash = second == first
    while clash.any():
        second[clash] = draw(int(clash.sum()))
        clash = second == first
    return second


def _stream(
    rng: np.random.Generator, shape: Shape, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    size = (shape.rows, shape.clients)
    if shape.pairs == "uniform":
        def draw(s):
            return rng.integers(0, active.size, size=s)
        ranked = active
    elif shape.pairs == "zipf":
        # Finite Zipf over a random ranking of the active vertices.
        ranked = rng.permutation(active)
        weights = np.arange(1, active.size + 1, dtype=np.float64) ** -shape.zipf_s
        cdf = np.cumsum(weights) / weights.sum()

        def draw(s):
            slot = np.searchsorted(cdf, rng.random(s), side="right")
            return np.minimum(slot, active.size - 1)
    else:  # pragma: no cover - SHAPES is fixed
        raise ValueError(f"unknown pair distribution {shape.pairs!r}")
    first = draw(size)
    second = _distinct_second(first, draw)
    a = ranked[first].astype(np.int32)
    b = ranked[second].astype(np.int32)
    if shape.repeat_every:
        k = shape.repeat_every
        a[k - 1 :: k] = a[k - 2 :: k][: a[k - 1 :: k].shape[0]]
        b[k - 1 :: k] = b[k - 2 :: k][: b[k - 1 :: k].shape[0]]
    return a, b


def _warm_pairs(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = active[0::2], active[1::2]
    if active.size % 2:
        a = np.append(a, active[-1])
        b = np.append(b, active[0])
    return a.astype(np.int64), b.astype(np.int64)


def _mutation_script(
    rng: np.random.Generator, graph: GraphArrays, bursts: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Bursts of absent-edge inserts and present-edge deletes.

    Each burst is drawn against the graph as the bursts before it left
    it, so every op changes membership and no edge is named twice in one
    burst: the net delta of a burst is the burst itself.
    """
    n_lower = graph.n_lower
    present = (graph.edges[:, 0] * n_lower + graph.edges[:, 1]).tolist()
    slot = {code: i for i, code in enumerate(present)}
    active = graph.active
    half = MUTATION_EDGES // 2
    script = []
    for _ in range(bursts):
        deletes = set()
        while len(deletes) < MUTATION_EDGES - half:
            deletes.add(present[int(rng.integers(len(present)))])
        inserts = set()
        while len(inserts) < half:
            code = int(active[rng.integers(active.size)]) * n_lower + int(
                rng.integers(n_lower)
            )
            if code not in slot and code not in deletes:
                inserts.add(code)
        for code in sorted(deletes):
            i = slot.pop(code)
            last = present.pop()
            if i < len(present):
                present[i] = last
                slot[last] = i
        for code in sorted(inserts):
            slot[code] = len(present)
            present.append(code)
        ins = np.array(sorted(inserts), dtype=np.int64)
        dels = np.array(sorted(deletes), dtype=np.int64)
        script.append(
            (
                np.column_stack([ins // n_lower, ins % n_lower]),
                np.column_stack([dels // n_lower, dels % n_lower]),
            )
        )
    return tuple(script)


def build_inputs(workload: str, seed: int) -> Inputs:
    """All arrays for one run of ``workload`` under ``seed``."""
    shape = SHAPES[workload]
    graph = _graph(shape.dataset, seed)
    active = graph.active
    rng = np.random.default_rng(derive_seed(seed, 2))
    stream_a, stream_b = _stream(rng, shape, active)
    warm_a, warm_b = _warm_pairs(active)
    mutations = _mutation_script(
        np.random.default_rng(derive_seed(seed, 3)), graph, shape.bursts
    )
    return Inputs(
        workload=workload,
        seed=int(seed),
        shape=shape,
        graph=graph,
        warm_a=warm_a,
        warm_b=warm_b,
        stream_a=stream_a,
        stream_b=stream_b,
        mutations=mutations,
    )
