"""Core bipartite-graph data structure.

A :class:`BipartiteGraph` stores an unweighted bipartite graph
``G(V = (U, L), E)`` with ``n1 = |U|`` upper vertices, ``n2 = |L|`` lower
vertices, and ``m = |E|`` edges. Vertices on each layer are integers
``0 .. n-1`` within that layer; an edge is a pair ``(upper, lower)``.

Adjacency is kept in CSR form in *both* directions so that neighbor lookups,
degrees and common-neighbor intersections are O(degree) with sorted
neighbor arrays. The structure is immutable after construction, which makes
it safe to share between the simulated vertices and the data curator.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError
from repro.graph.codes import (
    decode,
    encode,
    sorted_member,
    sorted_unique,
    unique_rows,
)

__all__ = ["Layer", "BipartiteGraph"]


class Layer(enum.Enum):
    """One of the two vertex layers of a bipartite graph."""

    UPPER = "upper"
    LOWER = "lower"

    def opposite(self) -> "Layer":
        """Return the other layer."""
        return Layer.LOWER if self is Layer.UPPER else Layer.UPPER

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _as_edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Normalize ``edges`` into an ``(m, 2)`` int64 array (possibly empty)."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        float_arr = np.asarray(arr, dtype=np.float64)
        if not np.all(float_arr == np.floor(float_arr)):
            raise GraphError("edge endpoints must be integers")
        arr = float_arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


def _indptr(src: np.ndarray, n_src: int) -> np.ndarray:
    """CSR row pointers of the ascending row ids ``src``."""
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_src), out=indptr[1:])
    return indptr


def _splice_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    n_src: int,
    n_dst: int,
    ins_src: np.ndarray,
    ins_dst: np.ndarray,
    del_src: np.ndarray,
    del_dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild a sorted-row CSR under an edge delta without a global sort.

    A sorted-row CSR's ``(src, dst)`` entries, encoded as
    ``src * n_dst + dst``, form one globally sorted code sequence — so
    the delta reduces to array-level sorted-set operations: drop the
    delete codes with one ``searchsorted`` membership pass, merge the
    insert codes at their ``searchsorted`` positions, and decode. Total
    cost is O(m + k log k) with pure-numpy constants — no per-row
    Python loop, no O(m log m) re-sort.
    """
    src = np.repeat(np.arange(n_src, dtype=np.int64), np.diff(indptr))
    codes = src * n_dst + indices
    if del_src.size:
        codes = codes[~sorted_member(np.sort(encode(del_src, del_dst, n_dst)), codes)]
    if ins_src.size:
        ins_codes = np.sort(encode(ins_src, ins_dst, n_dst))
        codes = np.insert(codes, np.searchsorted(codes, ins_codes), ins_codes)
    src, dst = decode(codes, n_dst)
    return _indptr(src, n_src), dst


class BipartiteGraph:
    """Immutable unweighted bipartite graph with two-directional CSR adjacency.

    Parameters
    ----------
    n_upper, n_lower:
        Number of vertices on the upper / lower layer. Both must be >= 0.
    edges:
        Iterable or ``(m, 2)`` array of ``(upper_index, lower_index)`` pairs.
        Duplicates are removed; endpoints must lie in range.
    """

    def __init__(
        self,
        n_upper: int,
        n_lower: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
    ):
        if n_upper < 0 or n_lower < 0:
            raise GraphError("layer sizes must be non-negative")
        self._n_upper = int(n_upper)
        self._n_lower = int(n_lower)

        arr = _as_edge_array(edges)
        if arr.shape[0]:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= self._n_upper:
                raise GraphError("upper endpoint out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= self._n_lower:
                raise GraphError("lower endpoint out of range")
        # The sorted distinct edge codes list the upper CSR as it stands;
        # the lower CSR sorts the transposed codes.
        n_upper, n_lower = max(self._n_upper, 1), max(self._n_lower, 1)
        upper, lower = decode(
            sorted_unique(encode(arr[:, 0], arr[:, 1], n_lower)), n_lower
        )
        self._edges = np.column_stack([upper, lower])
        self._u_indptr = _indptr(upper, self._n_upper)
        self._u_indices = lower
        self._l_indptr = _indptr(lower, self._n_lower)
        self._l_indices = np.sort(encode(lower, upper, n_upper)) % n_upper
        for a in (self._edges, self._u_indptr, self._u_indices, self._l_indptr, self._l_indices):
            a.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_upper(self) -> int:
        """Number of upper-layer vertices (``n1`` in the paper)."""
        return self._n_upper

    @property
    def num_lower(self) -> int:
        """Number of lower-layer vertices (``n2`` in the paper)."""
        return self._n_lower

    @property
    def num_vertices(self) -> int:
        """Total number of vertices ``n = n1 + n2``."""
        return self._n_upper + self._n_lower

    @property
    def num_edges(self) -> int:
        """Number of (distinct) edges ``m``."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of ``(upper, lower)`` edges."""
        return self._edges

    def layer_size(self, layer: Layer) -> int:
        """Number of vertices on ``layer``."""
        return self._n_upper if layer is Layer.UPPER else self._n_lower

    def density(self) -> float:
        """Edge density ``m / (n1 * n2)`` (0 for degenerate layers)."""
        cells = self._n_upper * self._n_lower
        return self.num_edges / cells if cells else 0.0

    # ------------------------------------------------------------------
    # Adjacency queries
    # ------------------------------------------------------------------
    def _check_vertex(self, layer: Layer, v: int) -> int:
        v = int(v)
        size = self.layer_size(layer)
        if not 0 <= v < size:
            raise GraphError(f"vertex {v} out of range for {layer} layer of size {size}")
        return v

    def neighbors(self, layer: Layer, v: int) -> np.ndarray:
        """Sorted array of neighbors (indices on the opposite layer) of ``v``."""
        v = self._check_vertex(layer, v)
        if layer is Layer.UPPER:
            return self._u_indices[self._u_indptr[v] : self._u_indptr[v + 1]]
        return self._l_indices[self._l_indptr[v] : self._l_indptr[v + 1]]

    def degree(self, layer: Layer, v: int) -> int:
        """Degree of vertex ``v`` on ``layer``."""
        v = self._check_vertex(layer, v)
        ptr = self._u_indptr if layer is Layer.UPPER else self._l_indptr
        return int(ptr[v + 1] - ptr[v])

    def degrees(self, layer: Layer) -> np.ndarray:
        """Degree array for all vertices on ``layer``."""
        ptr = self._u_indptr if layer is Layer.UPPER else self._l_indptr
        return np.diff(ptr)

    def adjacency_csr(self, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``(indptr, indices)`` CSR adjacency of ``layer``.

        Row ``v`` of the CSR pair is ``v``'s sorted neighbor list on the
        opposite layer — the zero-copy bulk view the batch query engine
        vectorizes over instead of slicing :meth:`neighbors` per vertex.
        """
        if layer is Layer.UPPER:
            return self._u_indptr, self._u_indices
        return self._l_indptr, self._l_indices

    def max_degree(self, layer: Layer) -> int:
        """Maximum degree on ``layer`` (0 for an empty layer)."""
        deg = self.degrees(layer)
        return int(deg.max()) if deg.size else 0

    def average_degree(self, layer: Layer) -> float:
        """Mean degree on ``layer`` (0.0 for an empty layer)."""
        size = self.layer_size(layer)
        return self.num_edges / size if size else 0.0

    def has_edge(self, upper: int, lower: int) -> bool:
        """Whether the edge ``(upper, lower)`` exists."""
        upper = self._check_vertex(Layer.UPPER, upper)
        lower = self._check_vertex(Layer.LOWER, lower)
        row = self.neighbors(Layer.UPPER, upper)
        i = np.searchsorted(row, lower)
        return bool(i < row.size and row[i] == lower)

    # ------------------------------------------------------------------
    # Common-neighborhood queries (the paper's C2)
    # ------------------------------------------------------------------
    def common_neighbors(self, layer: Layer, a: int, b: int) -> np.ndarray:
        """Vertices adjacent to both ``a`` and ``b`` (both on ``layer``)."""
        na = self.neighbors(layer, a)
        nb = self.neighbors(layer, b)
        return np.intersect1d(na, nb, assume_unique=True)

    def count_common_neighbors(self, layer: Layer, a: int, b: int) -> int:
        """``C2(a, b)`` — the number of common neighbors of ``a`` and ``b``."""
        return int(self.common_neighbors(layer, a, b).size)

    def neighborhood_union_size(self, layer: Layer, a: int, b: int) -> int:
        """``|N(a) ∪ N(b)|`` for two vertices on the same layer."""
        c2 = self.count_common_neighbors(layer, a, b)
        return self.degree(layer, a) + self.degree(layer, b) - c2

    def jaccard(self, layer: Layer, a: int, b: int) -> float:
        """Exact (non-private) Jaccard similarity of ``a`` and ``b``."""
        c2 = self.count_common_neighbors(layer, a, b)
        union = self.degree(layer, a) + self.degree(layer, b) - c2
        return c2 / union if union else 0.0

    # ------------------------------------------------------------------
    # Out-of-place mutation (streaming support)
    # ------------------------------------------------------------------
    def _membership(self, arr: np.ndarray) -> np.ndarray:
        """Boolean mask: does each ``(upper, lower)`` row exist as an edge?"""
        out = np.empty(arr.shape[0], dtype=bool)
        for i, (upper, lower) in enumerate(arr):
            row = self._u_indices[
                self._u_indptr[upper] : self._u_indptr[upper + 1]
            ]
            j = np.searchsorted(row, lower)
            out[i] = bool(j < row.size and row[j] == lower)
        return out

    def _check_edge_array(self, edges, what: str) -> np.ndarray:
        arr = _as_edge_array(edges)
        if arr.shape[0]:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= self._n_upper:
                raise GraphError(f"{what}: upper endpoint out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= self._n_lower:
                raise GraphError(f"{what}: lower endpoint out of range")
            arr = unique_rows(arr)
        return arr

    def insert_edges(
        self, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "BipartiteGraph":
        """A new graph with ``edges`` added (set semantics: inserting an
        existing edge is a no-op). ``self`` is untouched."""
        return self.apply_edge_delta(edges, ())

    def delete_edges(
        self, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "BipartiteGraph":
        """A new graph with ``edges`` removed (set semantics: deleting an
        absent edge is a no-op). ``self`` is untouched."""
        return self.apply_edge_delta((), edges)

    def apply_edge_delta(
        self,
        inserts: Iterable[tuple[int, int]] | np.ndarray,
        deletes: Iterable[tuple[int, int]] | np.ndarray,
    ) -> "BipartiteGraph":
        """A new graph with ``inserts`` added and ``deletes`` removed.

        Already-present inserts and already-absent deletes are dropped
        (set semantics); an edge named in both lists is a conflict and
        raises — :class:`~repro.graph.delta.DeltaLog` resolves ordering
        before it gets here. When the net delta is empty, ``self`` is
        returned (the graph is immutable, so sharing is safe).

        The construction splices only the dirty rows of both directional
        CSRs instead of re-sorting all ``m`` edges, so small deltas on
        large graphs cost an O(m) copy, not an O(m log m) rebuild.
        """
        ins = self._check_edge_array(inserts, "insert")
        dels = self._check_edge_array(deletes, "delete")
        if ins.shape[0] and dels.shape[0]:
            ins_codes = ins[:, 0] * self._n_lower + ins[:, 1]
            del_codes = dels[:, 0] * self._n_lower + dels[:, 1]
            if np.intersect1d(ins_codes, del_codes).size:
                raise GraphError(
                    "edge named in both inserts and deletes; resolve "
                    "ordering through DeltaLog"
                )
        if ins.shape[0]:
            ins = ins[~self._membership(ins)]
        if dels.shape[0]:
            dels = dels[self._membership(dels)]
        if not (ins.shape[0] or dels.shape[0]):
            return self

        empty = np.empty(0, dtype=np.int64)
        ins_u, ins_l = (ins[:, 0], ins[:, 1]) if ins.shape[0] else (empty, empty)
        del_u, del_l = (dels[:, 0], dels[:, 1]) if dels.shape[0] else (empty, empty)

        u_indptr, u_indices = _splice_csr(
            self._u_indptr, self._u_indices, self._n_upper, self._n_lower,
            ins_u, ins_l, del_u, del_l,
        )
        l_indptr, l_indices = _splice_csr(
            self._l_indptr, self._l_indices, self._n_lower, self._n_upper,
            ins_l, ins_u, del_l, del_u,
        )
        # The upper CSR's (row, neighbor) pairs are exactly the edge list
        # in lexicographic order — rebuild it without sorting.
        src = np.repeat(
            np.arange(self._n_upper, dtype=np.int64), np.diff(u_indptr)
        )
        new_edges = np.column_stack([src, u_indices])

        graph = object.__new__(BipartiteGraph)
        graph._n_upper = self._n_upper
        graph._n_lower = self._n_lower
        graph._edges = new_edges
        graph._u_indptr, graph._u_indices = u_indptr, u_indices
        graph._l_indptr, graph._l_indices = l_indptr, l_indices
        for a in (
            graph._edges,
            graph._u_indptr,
            graph._u_indices,
            graph._l_indptr,
            graph._l_indices,
        ):
            a.setflags(write=False)
        return graph

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self,
        upper_keep: np.ndarray,
        lower_keep: np.ndarray,
    ) -> "BipartiteGraph":
        """Vertex-induced subgraph, relabelling kept vertices contiguously.

        ``upper_keep`` / ``lower_keep`` are sorted index arrays (or anything
        ``np.asarray`` accepts) of the vertices to retain on each layer.
        """
        upper_keep = np.unique(np.asarray(upper_keep, dtype=np.int64))
        lower_keep = np.unique(np.asarray(lower_keep, dtype=np.int64))
        if upper_keep.size and (upper_keep[0] < 0 or upper_keep[-1] >= self._n_upper):
            raise GraphError("upper_keep index out of range")
        if lower_keep.size and (lower_keep[0] < 0 or lower_keep[-1] >= self._n_lower):
            raise GraphError("lower_keep index out of range")

        upper_map = np.full(self._n_upper, -1, dtype=np.int64)
        upper_map[upper_keep] = np.arange(upper_keep.size)
        lower_map = np.full(self._n_lower, -1, dtype=np.int64)
        lower_map[lower_keep] = np.arange(lower_keep.size)

        if self.num_edges:
            src = upper_map[self._edges[:, 0]]
            dst = lower_map[self._edges[:, 1]]
            mask = (src >= 0) & (dst >= 0)
            new_edges = np.column_stack([src[mask], dst[mask]])
        else:
            new_edges = np.empty((0, 2), dtype=np.int64)
        return BipartiteGraph(upper_keep.size, lower_keep.size, new_edges)

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``bipartite`` node labels.

        Upper vertices become ``("u", i)`` and lower vertices ``("l", j)``.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((("u", i) for i in range(self._n_upper)), bipartite=0)
        g.add_nodes_from((("l", j) for j in range(self._n_lower)), bipartite=1)
        g.add_edges_from((("u", int(a)), ("l", int(b))) for a, b in self._edges)
        return g

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self._n_upper == other._n_upper
            and self._n_lower == other._n_lower
            and self._edges.shape == other._edges.shape
            and bool(np.all(self._edges == other._edges))
        )

    def __hash__(self) -> int:
        return hash((self._n_upper, self._n_lower, self.num_edges))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(upper, lower)`` tuples."""
        return iter(map(tuple, self._edges))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n_upper={self._n_upper}, "
            f"n_lower={self._n_lower}, m={self.num_edges})"
        )
