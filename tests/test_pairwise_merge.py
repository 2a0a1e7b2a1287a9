"""The vectorized sorted merge counts exactly what the per-pair loop did.

``reference_merge_intersections`` is the engine's earlier merge backend,
kept verbatim: one ``searchsorted`` of the shorter row into the longer,
per pair, in Python. The engine now keys every pair's rows as ``pair *
domain + column`` and counts all pairs with one search and one
``bincount`` per block of pairs; it must agree with the loop and with the
bitset backend on any block. The backend rule compares the bytes each
backend would touch, and sketch mode's exact-C2 step — sparse true rows
over a wide domain — must stay sized by the rows, not by the domain.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import pairwise
from repro.engine.pairwise import (
    choose_backend,
    pair_id_total,
    pairwise_intersections,
)
from repro.engine.sketch import sketch_pair_counts
from repro.graph.bipartite import BipartiteGraph, Layer


def reference_merge_intersections(indptr, columns, ia, ib) -> np.ndarray:
    out = np.empty(ia.size, dtype=np.int64)
    for j in range(ia.size):
        a0, a1 = indptr[ia[j]], indptr[ia[j] + 1]
        b0, b1 = indptr[ib[j]], indptr[ib[j] + 1]
        if a1 - a0 > b1 - b0:
            a0, a1, b0, b1 = b0, b1, a0, a1
        short = columns[a0:a1]
        longer = columns[b0:b1]
        if short.size == 0 or longer.size == 0:
            out[j] = 0
            continue
        at = np.searchsorted(longer, short)
        at[at == longer.size] = longer.size - 1
        out[j] = int(np.count_nonzero(longer[at] == short))
    return out


def csr_block(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    columns = np.concatenate(rows) if rows else np.empty(0)
    return indptr, columns.astype(np.int64)


def assert_backends_agree(indptr, columns, ia, ib, domain, block_ids):
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    saved = pairwise._MERGE_BLOCK_IDS
    pairwise._MERGE_BLOCK_IDS = block_ids
    try:
        merged = pairwise_intersections(
            indptr, columns, ia, ib, domain, backend="merge"
        )
    finally:
        pairwise._MERGE_BLOCK_IDS = saved
    expected = reference_merge_intersections(indptr, columns, ia, ib)
    bitset = pairwise_intersections(indptr, columns, ia, ib, domain, backend="bitset")
    assert merged.dtype == np.int64
    assert merged.tolist() == expected.tolist() == bitset.tolist()
    return merged


@st.composite
def merge_workloads(draw):
    """A random CSR block with empty, full and last-column rows, pairs over
    it (self-pairs included) and a merge block size small enough to split
    the pair list."""
    domain = draw(st.sampled_from((1, 2, 9, 64, 300)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("empty", "full", "some", "last")))
        if kind == "empty":
            row = np.empty(0, dtype=np.int64)
        elif kind == "full":
            row = np.arange(domain)
        else:
            row = np.flatnonzero(rng.random(domain) < rng.random())
            if kind == "last":
                row = np.union1d(row, [domain - 1])
        rows.append(row)
    indptr, columns = csr_block(rows)
    num_pairs = draw(st.integers(0, 30))
    ia = rng.integers(0, len(rows), num_pairs)
    ib = np.where(rng.random(num_pairs) < 0.2, ia, rng.integers(0, len(rows), num_pairs))
    block_ids = draw(st.integers(1, 4 * domain + 4))
    return indptr, columns, ia, ib, domain, block_ids


@settings(max_examples=200, deadline=None)
@given(workload=merge_workloads())
def test_merge_matches_loop_and_bitset(workload):
    assert_backends_agree(*workload)


@pytest.mark.parametrize("block_ids", [1, 5, 1 << 20])
def test_named_edges(block_ids):
    domain = 600
    rows = [
        np.arange(domain),  # full row: counts past one byte
        np.empty(0, dtype=np.int64),
        np.array([3, domain - 1]),
        np.arange(0, domain, 2),
    ]
    indptr, columns = csr_block(rows)
    ia = [0, 0, 1, 2, 3, 2, 0]
    ib = [0, 3, 1, 0, 3, 2, 2]
    got = assert_backends_agree(indptr, columns, ia, ib, domain, block_ids)
    assert got.tolist() == [600, 300, 0, 2, 300, 2, 2]
    # An empty pair list counts nothing.
    empty = assert_backends_agree(indptr, columns, [], [], domain, block_ids)
    assert empty.size == 0


def test_backend_rule_compares_bytes_touched():
    rng = np.random.default_rng(0)
    # serve_wide-like true rows: 496 rows of ~4.6 ids over 22,000 columns,
    # 248 pairs. Merge touches ~37 KB, a bitset scratch 10.9 MB.
    wide = np.zeros(497, dtype=np.int64)
    np.cumsum(rng.poisson(4.6, 496), out=wide[1:])
    ia, ib = np.arange(0, 496, 2), np.arange(1, 496, 2)
    ids = pair_id_total(wide, ia, ib)
    assert 16 * ids < 496 * 22_000
    assert choose_backend(496, ia.size, 22_000, ids) == "merge"
    # engine_batch-like noisy rows: 1,200 rows of ~1,000 ids over 8,100
    # columns, 4,000 pairs. Merge would touch ~128 MB, bitset 9.7 MB.
    dense = np.zeros(1_201, dtype=np.int64)
    np.cumsum(rng.binomial(8_100, 0.12, 1_200), out=dense[1:])
    ia, ib = rng.integers(0, 1_200, (2, 4_000))
    ids = pair_id_total(dense, ia, ib)
    assert choose_backend(1_200, 4_000, 8_100, ids) == "bitset"
    # No pairs, no rows: today's guards.
    assert choose_backend(0, 0, 8_100, 0) == "bitset"


def test_sketch_exact_counts_stay_sized_by_the_rows():
    """Sketch mode is meant for huge candidate pools, so its exact-C2 step
    must not allocate a scratch sized by ``rows x domain``: a million-wide
    domain once cost a 150 MB boolean block for 150 sparse rows."""
    rng = np.random.default_rng(5)
    n_upper, n_lower = 150, 1_000_000
    lower = np.where(
        rng.random(3_000) < 0.7,
        rng.integers(0, 400, 3_000),
        rng.integers(0, n_lower, 3_000),
    )
    graph = BipartiteGraph(
        n_upper, n_lower, np.column_stack((rng.integers(0, n_upper, 3_000), lower))
    )
    vertices = np.arange(n_upper, dtype=np.int64)
    ia, ib = rng.integers(0, n_upper, (2, 200))
    ib[:10] = ia[:10]
    tracemalloc.start()
    try:
        n1, union, _ = sketch_pair_counts(
            graph, Layer.UPPER, vertices, ia, ib, 64.0, np.random.default_rng(1)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # At epsilon = 64 no bit flips, so the drawn counts are the exact ones.
    rows = [graph.neighbors(Layer.UPPER, v) for v in vertices]
    c2 = [np.intersect1d(rows[a], rows[b]).size for a, b in zip(ia, ib)]
    cup = [np.union1d(rows[a], rows[b]).size for a, b in zip(ia, ib)]
    assert n1.tolist() == c2
    assert union.tolist() == cup
    assert max(c2) > 0
