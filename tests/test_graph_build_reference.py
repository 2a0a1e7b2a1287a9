"""The sorted-code graph build keeps the unique-and-lexsort build's bytes.

``reference_build`` is :class:`BipartiteGraph`'s construction as it was
when it deduplicated with ``np.unique(arr, axis=0)`` and built each CSR
with a ``lexsort``, kept verbatim as the reference. The live build sorts
``upper * n_lower + lower`` edge codes once, drops adjacent repeats, and
reads the upper CSR straight off them (the lower CSR sorts the transposed
codes). On hypothesis edge lists — duplicates, unsorted input, empty
layers, int32 input, ids at both layer bounds — the edge array and both
CSRs must be byte-equal, with equal dtypes, layouts and read-only flags.
The mutation path's dedupe (``apply_edge_delta``) is held to the same
standard.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, Layer, _as_edge_array
from repro.graph.codes import (
    sorted_find,
    sorted_member,
    sorted_union,
    sorted_unique,
    unique_rows,
)


def _build_csr(src: np.ndarray, dst: np.ndarray, n_src: int) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR (indptr, indices) for ``src -> dst`` with sorted rows."""
    order = np.lexsort((dst, src))
    counts = np.bincount(src, minlength=n_src)
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst[order]


def reference_build(n_upper: int, n_lower: int, edges) -> dict[str, np.ndarray]:
    """The earlier ``BipartiteGraph.__init__`` body, returning its arrays."""
    arr = _as_edge_array(edges)
    if arr.shape[0]:
        arr = np.unique(arr, axis=0)
    u_indptr, u_indices = _build_csr(arr[:, 0], arr[:, 1], n_upper)
    l_indptr, l_indices = _build_csr(arr[:, 1], arr[:, 0], n_lower)
    built = {
        "_edges": arr,
        "_u_indptr": u_indptr,
        "_u_indices": u_indices,
        "_l_indptr": l_indptr,
        "_l_indices": l_indices,
    }
    for a in built.values():
        a.setflags(write=False)
    return built


def _assert_same_arrays(graph: BipartiteGraph, reference: dict) -> None:
    for name, want in reference.items():
        got = getattr(graph, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.writeable == want.flags.writeable, name
        assert got.flags.c_contiguous == want.flags.c_contiguous, name


@st.composite
def edge_lists(draw):
    n_upper = draw(st.integers(0, 9))
    n_lower = draw(st.integers(0, 9))
    if n_upper == 0 or n_lower == 0:
        return n_upper, n_lower, np.empty((0, 2), dtype=np.int64)
    # Ids at both layer bounds are always in the pool.
    upper = st.sampled_from(sorted({0, n_upper - 1, *range(n_upper)}))
    lower = st.sampled_from(sorted({0, n_lower - 1, *range(n_lower)}))
    edges = draw(st.lists(st.tuples(upper, lower), max_size=40))
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))  # duplicates
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    return n_upper, n_lower, np.array(edges, dtype=dtype).reshape(-1, 2)


class TestGraphBuildReference:
    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_build_matches_unique_and_lexsort(self, case):
        n_upper, n_lower, edges = case
        graph = BipartiteGraph(n_upper, n_lower, edges)
        _assert_same_arrays(graph, reference_build(n_upper, n_lower, edges))

    @given(edge_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_delta_matches_rebuild(self, case, data):
        n_upper, n_lower, edges = case
        if n_upper == 0 or n_lower == 0:
            return
        graph = BipartiteGraph(n_upper, n_lower, edges)
        cells = [(u, v) for u in range(n_upper) for v in range(n_lower)]
        present = {tuple(e) for e in graph.edges.tolist()}
        inserts = data.draw(st.lists(st.sampled_from(cells), max_size=8))
        deletes = [
            e for e in data.draw(st.lists(st.sampled_from(cells), max_size=8))
            if e not in set(inserts)
        ]
        mutated = graph.apply_edge_delta(
            np.array(inserts, dtype=np.int32).reshape(-1, 2),
            np.array(deletes, dtype=np.int64).reshape(-1, 2),
        )
        final = (present | set(inserts)) - set(deletes)
        expected = np.array(sorted(final), dtype=np.int64).reshape(-1, 2)
        _assert_same_arrays(mutated, reference_build(n_upper, n_lower, expected))

    def test_unsorted_duplicates_and_bounds(self):
        edges = [(2, 0), (0, 3), (2, 0), (0, 0), (2, 3), (0, 3)]
        graph = BipartiteGraph(3, 4, np.array(edges, dtype=np.int32))
        _assert_same_arrays(graph, reference_build(3, 4, np.array(edges)))
        assert graph.edges.tolist() == [[0, 0], [0, 3], [2, 0], [2, 3]]
        assert graph.neighbors(Layer.LOWER, 0).tolist() == [0, 2]
        assert graph.neighbors(Layer.UPPER, 1).size == 0


class TestCodes:
    @given(st.lists(st.integers(0, 50), max_size=60), st.lists(st.integers(0, 50), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_set_operations_match_numpy(self, base, codes):
        base_sorted = np.unique(np.array(base, dtype=np.int64))
        codes = np.array(codes, dtype=np.int64)
        np.testing.assert_array_equal(sorted_unique(codes), np.unique(codes))
        np.testing.assert_array_equal(
            sorted_member(base_sorted, codes), np.isin(codes, base_sorted)
        )
        slot = {c: i for i, c in enumerate(base_sorted.tolist())}
        np.testing.assert_array_equal(
            sorted_find(base_sorted, codes),
            [slot.get(c, -1) for c in codes.tolist()],
        )
        union = sorted_union(base_sorted, codes)
        np.testing.assert_array_equal(union, np.union1d(base_sorted, codes))
        assert union.dtype == np.int64

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_unique_rows_matches_numpy(self, rows):
        rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
        got = unique_rows(rows)
        want = np.unique(rows, axis=0) if rows.size else rows
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
