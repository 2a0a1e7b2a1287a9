"""Sharded bulk RR: plan sizing, shard-boundary invariance, the runner.

The contract under test (``docs/sharding-guide.md``): shard boundaries
are *invisible* in the drawn bits. Any split of a workload's vertex
block into contiguous ranges — one per worker, empty, or one vertex per
shard — must reassemble to the byte-identical noisy rows and therefore
identical N1 estimates, because every vertex draws from its private
keyed Philox stream.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bulkrr import (
    keyed_bulk_randomized_response,
    merge_csr_fragments,
    shard_bulk_randomized_response,
)
from repro.engine.core import BatchQueryEngine
from repro.engine.pairwise import pairwise_intersections
from repro.engine.planner import (
    estimate_noisy_row_bytes,
    plan_shards,
)
from repro.engine.sharded import ShardedRunner, fork_available
from repro.errors import GraphError, ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.serving.cache import NoisyViewCache
from repro.serving.server import QueryServer
from repro.protocol.session import ExecutionMode

EPS = 2.0


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(120, 80, 900, rng=13)


# ----------------------------------------------------------------------
# ShardPlan sizing
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_explicit_count_tiles_the_block(self, graph):
        verts = np.arange(120, dtype=np.int64)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, shards=4)
        assert plan.num_shards == 4
        ranges = plan.ranges()
        assert ranges[0][0] == 0 and ranges[-1][1] == 120
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, disjoint, in order

    def test_memory_budget_respected(self, graph):
        verts = np.arange(120, dtype=np.int64)
        per_vertex = estimate_noisy_row_bytes(
            graph.degrees(Layer.UPPER)[verts], 80, EPS
        )
        budget = int(per_vertex.sum() / 5)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, mem_bytes=budget)
        assert plan.num_shards >= 5
        # Every multi-vertex shard fits the budget (a single indivisible
        # row may exceed it; none does on this graph).
        assert (plan.est_bytes <= budget).all()
        # int64 truncation per shard, so the sum is within num_shards bytes
        assert abs(int(plan.est_bytes.sum()) - per_vertex.sum()) <= (
            plan.num_shards
        )

    def test_oversized_single_vertex_still_gets_a_shard(self, graph):
        verts = np.arange(10, dtype=np.int64)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, mem_bytes=1)
        assert plan.num_shards == 10  # one (over-budget) vertex per shard
        assert all(hi - lo == 1 for lo, hi in plan.ranges())

    def test_more_shards_than_vertices_collapses(self, graph):
        plan = plan_shards(
            graph, Layer.UPPER, np.arange(3, dtype=np.int64), EPS, shards=8
        )
        assert plan.num_shards <= 3
        assert plan.ranges()[-1][1] == 3

    def test_empty_block_zero_shards(self, graph):
        plan = plan_shards(
            graph, Layer.UPPER, np.empty(0, dtype=np.int64), EPS, shards=2
        )
        assert plan.num_shards == 0
        assert plan.max_shard_bytes == 0

    def test_rejects_conflicting_and_invalid_sizing(self, graph):
        verts = np.arange(5, dtype=np.int64)
        with pytest.raises(ProtocolError):
            plan_shards(
                graph, Layer.UPPER, verts, EPS, shards=2, mem_bytes=100
            )
        with pytest.raises(ProtocolError):
            plan_shards(graph, Layer.UPPER, verts, EPS, shards=0)
        with pytest.raises(ProtocolError):
            plan_shards(graph, Layer.UPPER, verts, EPS, mem_bytes=0)
        with pytest.raises(GraphError):
            plan_shards(graph, Layer.UPPER, np.array([500]), EPS, shards=1)


# ----------------------------------------------------------------------
# Shard-boundary invariance (the determinism contract)
# ----------------------------------------------------------------------
class TestShardInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        num_shards=st.sampled_from([1, 2, 4]),
        entropy=st.integers(min_value=0, max_value=2**60),
        data=st.data(),
    )
    def test_any_split_is_byte_identical(self, num_shards, entropy, data):
        """Property: every 1/2/4-way split yields byte-identical rows
        and identical N1 estimates to the unsharded pass."""
        graph = random_bipartite(60, 40, 350, rng=17)
        verts = np.arange(60, dtype=np.int64)
        # Arbitrary split points, not just balanced ones.
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=60),
                    min_size=num_shards - 1,
                    max_size=num_shards - 1,
                )
            )
        )
        bounds = [0, *cuts, 60]
        ranges = list(zip(bounds[:-1], bounds[1:]))
        full = keyed_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS, entropy=entropy, epoch=3
        )
        sharded = shard_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS,
            entropy=entropy, epoch=3, ranges=ranges,
        )
        np.testing.assert_array_equal(sharded[0], full[0])
        np.testing.assert_array_equal(sharded[1], full[1])
        ia = np.arange(30, dtype=np.int64)
        ib = ia + 30
        n1_full = pairwise_intersections(full[0], full[1], ia, ib, 40)
        n1_shard = pairwise_intersections(sharded[0], sharded[1], ia, ib, 40)
        np.testing.assert_array_equal(n1_shard, n1_full)

    def test_degenerate_shards_empty_and_single_vertex(self, graph):
        verts = np.arange(20, dtype=np.int64)
        full = keyed_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS, entropy=11, epoch=0
        )
        # Empty ranges at the front, middle and back; single-vertex runs.
        ranges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 19), (19, 20), (20, 20)]
        sharded = shard_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS,
            entropy=11, epoch=0, ranges=ranges,
        )
        np.testing.assert_array_equal(sharded[0], full[0])
        np.testing.assert_array_equal(sharded[1], full[1])

    def test_empty_block(self, graph):
        indptr, columns = shard_bulk_randomized_response(
            graph, Layer.UPPER, np.empty(0, dtype=np.int64), EPS,
            entropy=1, epoch=0, ranges=[],
        )
        assert indptr.tolist() == [0] and columns.size == 0

    def test_non_tiling_ranges_rejected(self, graph):
        verts = np.arange(10, dtype=np.int64)
        for ranges in ([(0, 5)], [(0, 5), (6, 10)], [(2, 10)]):
            with pytest.raises(GraphError):
                shard_bulk_randomized_response(
                    graph, Layer.UPPER, verts, EPS,
                    entropy=1, epoch=0, ranges=ranges,
                )

    def test_merge_csr_fragments_empty(self):
        indptr, columns = merge_csr_fragments([])
        assert indptr.tolist() == [0] and columns.size == 0


# ----------------------------------------------------------------------
# The process-parallel runner
# ----------------------------------------------------------------------
class TestShardedRunner:
    def test_inline_runner_matches_serial(self, graph):
        verts = np.arange(120, dtype=np.int64)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, shards=3)
        full = keyed_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS, entropy=21, epoch=2
        )
        with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
            assert not runner.parallel
            draw = runner.draw(plan, EPS, entropy=21, epoch=2)
        np.testing.assert_array_equal(draw.indptr, full[0])
        np.testing.assert_array_equal(draw.columns, full[1])
        assert len(draw.shards) == 3
        assert sum(s["noisy_ids"] for s in draw.shards) == full[1].size

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_runner_matches_serial(self, graph):
        verts = np.arange(120, dtype=np.int64)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, shards=4)
        full = keyed_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS, entropy=33, epoch=1
        )
        with ShardedRunner(graph, Layer.UPPER, max_workers=2) as runner:
            assert runner.parallel
            draw = runner.draw(plan, EPS, entropy=33, epoch=1)
            np.testing.assert_array_equal(draw.indptr, full[0])
            np.testing.assert_array_equal(draw.columns, full[1])
            # Reusable after close (a restarted server reuses its runner).
            runner.close()
            again = runner.draw(plan, EPS, entropy=33, epoch=1)
            np.testing.assert_array_equal(again.columns, full[1])

    def test_pairwise_reduce_rechooses_backend_per_block(self, graph):
        verts = np.arange(120, dtype=np.int64)
        plan = plan_shards(graph, Layer.UPPER, verts, EPS, shards=3)
        full = keyed_bulk_randomized_response(
            graph, Layer.UPPER, verts, EPS, entropy=5, epoch=0
        )
        rng = np.random.default_rng(0)
        ia = rng.integers(0, 120, 200)
        ib = (ia + 1 + rng.integers(0, 118, 200)) % 120
        ref = pairwise_intersections(full[0], full[1], ia, ib, 80)
        with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
            n1, blocks = runner.pairwise(plan, full[0], full[1], ia, ib, 80)
        np.testing.assert_array_equal(n1, ref)
        assert blocks  # every populated block logged its own choice
        for block in blocks:
            assert block["backend"] in {"bitset", "sparse", "merge"}
            s, t = block["block"]
            assert 0 <= s <= t < plan.num_shards
        assert sum(b["pairs"] for b in blocks) == 200

    def test_rejects_nonpositive_workers(self, graph):
        with pytest.raises(ProtocolError):
            ShardedRunner(graph, Layer.UPPER, max_workers=0)

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.skipif(
                    not fork_available(), reason="needs fork"
                ),
            ),
        ],
    )
    def test_dropped_runner_releases_its_context(
        self, graph, workers, fork_workers
    ):
        """A runner dropped without close() must not pin the graph in
        the module context registry, nor leave a forked worker running
        (GC finalizer)."""
        import gc

        from repro.engine import sharded as sharded_mod

        runner = ShardedRunner(graph, Layer.UPPER, max_workers=workers)
        token = runner.transport._token
        assert token in sharded_mod._WORKER_CONTEXTS
        if workers > 1:
            verts = np.arange(120, dtype=np.int64)
            plan = plan_shards(graph, Layer.UPPER, verts, EPS, shards=2)
            runner.draw(plan, EPS, entropy=5, epoch=0)
            fork_workers.hold(runner.transport)
            assert fork_workers.procs, "a 2-worker draw should have forked"
        del runner
        gc.collect()
        assert token not in sharded_mod._WORKER_CONTEXTS
        fork_workers.assert_exited()


# ----------------------------------------------------------------------
# Engine and serving integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_shard_count_never_changes_estimates(self, graph):
        """End to end: same seed, different shard counts -> identical
        estimates (the engine derives entropy from its rng, and the
        keyed draw is shard-invariant)."""
        pairs = sample_query_pairs(graph, Layer.UPPER, 150, rng=2)
        values = []
        for shards in (1, 2, 4):
            with BatchQueryEngine(shards=shards) as engine:
                result = engine.estimate_pairs(
                    graph, Layer.UPPER, pairs, epsilon=EPS, rng=9
                )
            values.append(result.values)
            details = result.details["shards"]
            assert details["count"] == min(shards, 120)
            assert result.details["backend"] == "sharded"
            assert all(
                b["backend"] in {"bitset", "sparse", "merge"}
                for b in details["pairwise"]
            )
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])

    def test_mem_budget_engine_matches_counted(self, graph):
        pairs = sample_query_pairs(graph, Layer.UPPER, 60, rng=3)
        with BatchQueryEngine(shards=2) as by_count:
            a = by_count.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=4
            )
        with BatchQueryEngine(shard_mem_bytes=10_000) as by_mem:
            b = by_mem.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=4
            )
        np.testing.assert_array_equal(a.values, b.values)
        assert b.details["shards"]["mem_bytes"] == 10_000

    def test_engine_combines_worker_cap_with_mem_budget(self, graph):
        """`shards` + `shard_mem_bytes` together mean: budget sizes the
        ranges, shards caps the workers (the server's semantics)."""
        pairs = sample_query_pairs(graph, Layer.UPPER, 40, rng=8)
        with BatchQueryEngine(shards=2, shard_mem_bytes=10_000) as engine:
            result = engine.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=4
            )
            assert engine._runner.max_workers == 2
        assert result.details["shards"]["mem_bytes"] == 10_000

    def test_engine_rejects_invalid_shard_options(self):
        with pytest.raises(ProtocolError):
            BatchQueryEngine(shards=0)
        with pytest.raises(ProtocolError):
            BatchQueryEngine(shard_mem_bytes=-5)

    def test_unsharded_engine_has_no_shard_details(self, graph):
        pairs = sample_query_pairs(graph, Layer.UPPER, 10, rng=5)
        result = BatchQueryEngine().estimate_pairs(
            graph, Layer.UPPER, pairs, epsilon=EPS, rng=6
        )
        assert "shards" not in result.details


class TestServingIntegration:
    def test_sharded_cache_draw_is_bit_identical_to_unsharded(self, graph):
        verts = np.arange(50, dtype=np.int64)
        with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
            sharded = NoisyViewCache(
                graph, Layer.UPPER, EPS,
                mode=ExecutionMode.MATERIALIZE,
                rng=7, shard_runner=runner, shard_mem_bytes=4_000,
            )
            plain = NoisyViewCache(
                graph, Layer.UPPER, EPS,
                mode=ExecutionMode.MATERIALIZE,
                max_entries=1000, rng=7,  # bounded: keyed, same entropy seed
            )
            assert sharded.keyed and sharded._entropy == plain._entropy
            sharded.materialize_fresh(verts)
            plain.materialize_fresh(verts)
            assert len(sharded.last_shard_draw) >= 2
            for v in (0, 17, 49):
                np.testing.assert_array_equal(sharded.view(v), plain.view(v))

    def test_sharded_bounded_cache_redraws_evicted_views_identically(
        self, graph
    ):
        with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
            cache = NoisyViewCache(
                graph, Layer.UPPER, EPS,
                mode=ExecutionMode.MATERIALIZE,
                max_entries=8, rng=3, shard_runner=runner,
            )
            verts = np.arange(20, dtype=np.int64)
            cache.materialize_fresh(verts)
            originals = {v: cache.view(v).copy() for v in range(3)}
            cache.evict_to_budget()
            assert cache.stats.evictions > 0
            redraw = np.array(
                [v for v in range(3) if not cache.has_view(v)], dtype=np.int64
            )
            assert redraw.size  # the oldest views were evicted
            cache.materialize_fresh(redraw)
            for v in redraw:
                np.testing.assert_array_equal(
                    cache.view(int(v)), originals[int(v)]
                )
            assert not cache.uncharged(redraw).size  # recharge-free

    def test_server_with_shards_serves_and_logs(self, graph):
        async def drive():
            async with QueryServer(
                graph, Layer.UPPER, EPS, rng=1, shards=2,
            ) as server:
                first = await asyncio.gather(
                    server.query(3, 7), server.query(8, 11)
                )
                replay = await server.query(3, 7)
                return first, replay, list(server.cache.last_shard_draw)

        first, replay, shard_log = asyncio.run(drive())
        assert not first[0].cache_hit and replay.cache_hit
        assert first[0].value == replay.value  # same epoch view, bit for bit
        assert shard_log == []  # the replay tick drew nothing

    def test_server_rejects_invalid_shard_options(self, graph):
        with pytest.raises(ProtocolError):
            QueryServer(graph, Layer.UPPER, EPS, shards=0)
        with pytest.raises(ProtocolError):
            QueryServer(graph, Layer.UPPER, EPS, shard_mem_bytes=-1)

    def test_cache_rejects_mismatched_runner(self, graph):
        other = random_bipartite(50, 40, 300, rng=1)
        with ShardedRunner(other, Layer.UPPER, max_workers=1) as runner:
            with pytest.raises(ProtocolError):
                NoisyViewCache(
                    graph, Layer.UPPER, EPS,
                    mode=ExecutionMode.MATERIALIZE, shard_runner=runner,
                )
