"""The packed-bit view store: every materialize view is one bit row.

A materialize view is held as ``ceil(|L| / 8)`` bytes in
:func:`numpy.packbits` order, so the byte budget counts exactly that,
``view(v)`` unpacks the row back to the drawn noisy list, and a cached
tick counts report sizes and N1 straight off the gathered rows. The
fill draws (keyed) or packs (shared, sharded) in chunks, which must not
move a single bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.serving.cache as cache_mod
from repro.engine.bulkrr import (
    bulk_randomized_response,
    keyed_bulk_randomized_response,
)
from repro.engine.core import BatchQueryEngine
from repro.engine.pairwise import pack_bitset_rows, pairwise_intersections
from repro.engine.sharded import ShardedRunner
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair, sample_query_pairs
from repro.protocol.session import ExecutionMode
from repro.serving.cache import NoisyViewCache

EPS = 2.0
MATERIALIZE = ExecutionMode.MATERIALIZE


@pytest.fixture(scope="module")
def graph():
    # 61 lower vertices: a row is 8 bytes with three padding bits.
    return random_bipartite(90, 61, 800, rng=29)


def row_bytes(graph) -> int:
    return math.ceil(graph.layer_size(Layer.LOWER) / 8)


def rows_of(indptr, columns):
    return [columns[lo:hi] for lo, hi in zip(indptr[:-1], indptr[1:])]


def test_resident_bytes_per_view_are_one_bit_row(graph):
    cache = NoisyViewCache(graph, Layer.UPPER, EPS, mode=MATERIALIZE)
    vertices = np.arange(40, dtype=np.int64)
    cache.materialize_fresh(vertices, rng=3)
    assert row_bytes(graph) == 8
    assert cache.nbytes() == vertices.size * row_bytes(graph)
    for v in vertices:
        assert cache.packed_matrix([v]).shape == (1, row_bytes(graph))


def test_budget_of_n_rows_keeps_n_views_without_eviction(graph):
    n = 30
    cache = NoisyViewCache(
        graph, Layer.UPPER, EPS, mode=MATERIALIZE,
        max_bytes=n * row_bytes(graph), rng=4,
    )
    pairs = [QueryPair(Layer.UPPER, i, i + 1) for i in range(0, n, 2)]
    BatchQueryEngine().estimate_pairs(
        graph, Layer.UPPER, pairs, cache=cache, rng=5
    )
    assert cache.entries() == n
    assert cache.stats.evictions == 0
    assert not cache.over_budget()


def test_view_round_trips_a_shared_stream_fill(graph):
    cache = NoisyViewCache(graph, Layer.UPPER, EPS, mode=MATERIALIZE)
    vertices = np.array([5, 0, 17, 3, 88], dtype=np.int64)
    uploaded = cache.materialize_fresh(vertices, rng=np.random.default_rng(6))
    indptr, columns = bulk_randomized_response(
        graph, Layer.UPPER, vertices, EPS, np.random.default_rng(6)
    )
    for v, row in zip(vertices, rows_of(indptr, columns)):
        got = cache.view(v)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, row)
    assert uploaded == columns.size * 8


def test_view_round_trips_a_keyed_fill(graph):
    cache = NoisyViewCache(
        graph, Layer.UPPER, EPS, mode=MATERIALIZE, max_entries=1000, rng=7
    )
    vertices = np.arange(0, 90, 3, dtype=np.int64)
    cache.materialize_fresh(vertices)
    indptr, columns = keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, EPS,
        entropy=cache._entropy, epoch=cache.draw_epoch,
    )
    for v, row in zip(vertices, rows_of(indptr, columns)):
        np.testing.assert_array_equal(cache.view(v), row)


def test_view_round_trips_a_sharded_fill(graph):
    with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPS, mode=MATERIALIZE, rng=8,
            shard_runner=runner, shard_mem_bytes=2_000,
        )
        vertices = np.arange(60, dtype=np.int64)
        cache.materialize_fresh(vertices)
        assert len(cache.last_shard_draw) > 1
    indptr, columns = keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, EPS,
        entropy=cache._entropy, epoch=cache.draw_epoch,
    )
    for v, row in zip(vertices, rows_of(indptr, columns)):
        np.testing.assert_array_equal(cache.view(v), row)


def test_chunked_keyed_fill_is_byte_identical_to_one_block(graph, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return keyed_bulk_randomized_response(*args, **kwargs)

    # A budget of a few rows' expected payload forces many chunks.
    monkeypatch.setattr(cache_mod, "_FILL_CHUNK_BYTES", 800)
    monkeypatch.setattr(cache_mod, "keyed_bulk_randomized_response", counted)
    cache = NoisyViewCache(
        graph, Layer.UPPER, EPS, mode=MATERIALIZE, max_bytes=10**6, rng=9
    )
    vertices = np.arange(90, dtype=np.int64)[::-1].copy()
    uploaded = cache.materialize_fresh(vertices)
    assert len(calls) > 1 and sum(calls) == vertices.size
    indptr, columns = keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, EPS,
        entropy=cache._entropy, epoch=cache.draw_epoch,
    )
    one_block = pack_bitset_rows(indptr, columns, graph.layer_size(Layer.LOWER))
    assert cache.packed_matrix(vertices).tobytes() == one_block.tobytes()
    assert uploaded == columns.size * 8


@pytest.mark.parametrize(
    "budget", [{}, {"max_entries": 12}], ids=["unbounded", "bounded"]
)
def test_cached_tick_counts_match_the_merge_backend(graph, budget):
    cache = NoisyViewCache(
        graph, Layer.UPPER, EPS, mode=MATERIALIZE, rng=10, **budget
    )
    engine = BatchQueryEngine()
    rng = np.random.default_rng(11)
    for tick in range(3):
        pairs = sample_query_pairs(graph, Layer.UPPER, 25, rng=20 + tick)
        result = engine.estimate_pairs(
            graph, Layer.UPPER, pairs, cache=cache, rng=rng
        )
        assert result.details["backend"] == "bitset"
        # The rows the tick read, as lists: gathered before the tick's
        # own eviction ran, so redraw any the budget dropped since.
        missing = result.vertices[~cache.vertex_cached_mask(result.vertices)]
        cache.materialize_fresh(missing)
        rows = [cache.view(v) for v in result.vertices]
        indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        columns = np.concatenate(rows)
        n1 = pairwise_intersections(
            indptr, columns, result.ia, result.ib,
            graph.layer_size(Layer.LOWER), backend="merge",
        )
        sizes = np.diff(indptr)
        np.testing.assert_array_equal(result.noisy_intersections, n1)
        np.testing.assert_array_equal(
            result.noisy_unions, sizes[result.ia] + sizes[result.ib] - n1
        )
