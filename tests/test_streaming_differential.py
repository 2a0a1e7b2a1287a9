"""Differential harness for streaming mutations with incremental epochs.

The contract under test: after any sequence of ``mutate()`` +
``rotate()`` rounds, the incremental cache's state is **bit-identical**
to a from-scratch rebuild — a direct keyed draw over the *mutated* graph
at the cache's own ``(entropy, draw_epoch, versions)``. Clean vertices
must keep their resident draws byte for byte across rotations, dirty
vertices must come back as fresh streams, and the identity must hold
whatever the shard tiling (1/2/4 ranges or real forked workers): version
words ride inside each vertex's private counter, so range boundaries
cannot see them.

Mutation scripts are hypothesis-generated; the ``ci`` profile
(derandomized, no deadline) keeps runs reproducible under pytest-timeout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bulkrr import (
    keyed_bulk_randomized_response,
    keyed_laplace_noise,
    keyed_pair_generator,
    shard_bulk_randomized_response,
)
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner
from repro.engine.sketch import sketch_pair_counts
from repro.engine.sketches import SketchConfig, sketch_family
from repro.graph import Layer, random_bipartite
from repro.privacy.mechanisms import LaplaceMechanism
from repro.privacy.sensitivity import degree_sensitivity
from repro.protocol.session import ExecutionMode
from repro.serving import NoisyViewCache

EPSILON = 2.0
N_UPPER, N_LOWER, N_EDGES = 30, 24, 180


# ----------------------------------------------------------------------
# Mutation-script strategy: a few epochs of coordinate-level edge ops.
# Coordinates are drawn as raw (u, l) cells; whether an op is a net
# insert, a net delete, or a no-op depends on the evolving membership —
# exactly the ambiguity the delta log must resolve.
# ----------------------------------------------------------------------
ops = st.tuples(
    st.booleans(),  # True = insert, False = delete
    st.integers(0, N_UPPER - 1),
    st.integers(0, N_LOWER - 1),
)
scripts = st.lists(  # one inner list of ops per mutate+rotate round
    st.lists(ops, min_size=1, max_size=10), min_size=1, max_size=3
)


def _graph(seed: int = 11):
    return random_bipartite(N_UPPER, N_LOWER, N_EDGES, rng=seed)


def _run_script(
    cache: NoisyViewCache, script, refill=None
) -> tuple[list[set[int]], bool]:
    """Apply each round as one mutate()+rotate().

    ``refill(cache)`` re-draws dropped entries between rounds (like a
    serving epoch touching the whole layer); it is *not* called after
    the final rotation so retention can be asserted on the raw state.
    Returns the per-round dirty sets and whether every rotation took the
    incremental path (a round whose ops cancel to nothing rotates fully).
    """
    dirty_sets = []
    all_incremental = True
    for i, round_ops in enumerate(script):
        inserts = [(u, l) for ins, u, l in round_ops if ins]
        deletes = [(u, l) for ins, u, l in round_ops if not ins]
        cache.mutate(inserts=inserts, deletes=deletes)
        dirty_sets.append({int(v) for v in cache.pending_dirty()})
        cache.rotate()
        all_incremental &= bool(cache.last_rotation["incremental"])
        if refill is not None and i + 1 < len(script):
            refill(cache)
    return dirty_sets, all_incremental


def _materialized_rows(cache, vertices):
    return {int(v): cache.view(v).copy() for v in vertices}


class TestMaterializeDifferential:
    @given(scripts)
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_from_scratch(self, script):
        graph = _graph()
        verts = np.arange(N_UPPER, dtype=np.int64)
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON, max_entries=10**6,
            rng=np.random.default_rng(21),
        )
        def refill(c):
            c.materialize_fresh(
                np.array(
                    [v for v in range(N_UPPER) if not c.has_view(v)],
                    dtype=np.int64,
                )
            )

        cache.materialize_fresh(verts)
        before = _materialized_rows(cache, verts)
        dirty_sets, all_incremental = _run_script(cache, script, refill)

        if cache.last_rotation["incremental"]:
            # Clean vertices of the final round kept their resident rows.
            for v in range(N_UPPER):
                if v not in dirty_sets[-1]:
                    assert cache.has_view(v)

        # Redraw whatever dropped, then compare the complete state to a
        # from-scratch keyed pass over the mutated graph.
        missing = np.array(
            [v for v in range(N_UPPER) if not cache.has_view(v)],
            dtype=np.int64,
        )
        cache.materialize_fresh(missing)
        ref_ip, ref_cols = keyed_bulk_randomized_response(
            cache.graph, Layer.UPPER, verts, EPSILON,
            entropy=cache._entropy, epoch=cache.draw_epoch,
            versions=cache._versions[verts],
        )
        for i, v in enumerate(verts):
            np.testing.assert_array_equal(
                cache.view(v), ref_cols[ref_ip[i] : ref_ip[i + 1]]
            )
        # When no round fell back to a full rotation, a never-dirtied
        # vertex still replays its original epoch-0 draw.
        if all_incremental:
            ever_dirty = set().union(*dirty_sets)
            for v in range(N_UPPER):
                if v not in ever_dirty:
                    np.testing.assert_array_equal(cache.view(v), before[v])

    @given(scripts)
    @settings(max_examples=12, deadline=None)
    @pytest.mark.parametrize("num_ranges", [1, 2, 4])
    def test_shard_tilings_are_byte_identical(self, num_ranges, script):
        """Version words must survive range partitioning byte-identically."""
        graph = _graph()
        verts = np.arange(N_UPPER, dtype=np.int64)
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON, max_entries=10**6,
            rng=np.random.default_rng(22),
        )
        _run_script(cache, script)[0]
        ref_ip, ref_cols = keyed_bulk_randomized_response(
            cache.graph, Layer.UPPER, verts, EPSILON,
            entropy=cache._entropy, epoch=cache.draw_epoch,
            versions=cache._versions[verts],
        )
        bounds = np.linspace(0, verts.size, num_ranges + 1).astype(int)
        ranges = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(num_ranges)
        ]
        tiled_ip, tiled_cols = shard_bulk_randomized_response(
            cache.graph, Layer.UPPER, verts, EPSILON,
            entropy=cache._entropy, epoch=cache.draw_epoch,
            ranges=ranges, versions=cache._versions[verts],
        )
        np.testing.assert_array_equal(tiled_ip, ref_ip)
        np.testing.assert_array_equal(tiled_cols, ref_cols)


class TestShardedRunnerDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_forked_workers_match_unsharded_after_mutations(self, workers):
        """Real process-pool shards on the mutated snapshot: the runner is
        rebound at rotation and its fragments carry the version words."""
        graph = _graph(31)
        verts = np.arange(N_UPPER, dtype=np.int64)
        runner = ShardedRunner(graph, Layer.UPPER, max_workers=workers)
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON,
            rng=np.random.default_rng(23), shard_runner=runner,
        )
        try:
            cache.materialize_fresh(verts)
            edge = tuple(int(x) for x in graph.edges[0])
            cache.mutate(inserts=[(0, 1), (5, 3)], deletes=[edge])
            cache.rotate()
            assert cache.last_rotation["incremental"]
            missing = np.array(
                [v for v in range(N_UPPER) if not cache.has_view(v)],
                dtype=np.int64,
            )
            cache.materialize_fresh(missing)  # sharded draw on new graph
            ref_ip, ref_cols = keyed_bulk_randomized_response(
                cache.graph, Layer.UPPER, verts, EPSILON,
                entropy=cache._entropy, epoch=cache.draw_epoch,
                versions=cache._versions[verts],
            )
            for i, v in enumerate(verts):
                np.testing.assert_array_equal(
                    cache.view(v), ref_cols[ref_ip[i] : ref_ip[i + 1]]
                )
            # And an explicit runner draw over every vertex re-tiles the
            # same bytes whatever the plan boundaries.
            plan = plan_shards(
                cache.graph, Layer.UPPER, verts, EPSILON, shards=workers
            )
            drawn = runner.draw(
                plan, EPSILON, entropy=cache._entropy,
                epoch=cache.draw_epoch, versions=cache._versions[verts],
            )
            np.testing.assert_array_equal(drawn.indptr, ref_ip)
            np.testing.assert_array_equal(drawn.columns, ref_cols)
        finally:
            runner.close()


class TestSketchViewDifferential:
    @given(scripts)
    @settings(max_examples=12, deadline=None)
    def test_incremental_views_equal_from_scratch(self, script):
        graph = _graph(41)
        verts = np.arange(N_UPPER, dtype=np.int64)
        config = SketchConfig("bloom", 128)
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON, mode=ExecutionMode.SKETCH_VIEW,
            sketch=config, max_entries=10**6,
            rng=np.random.default_rng(24),
        )
        def refill(c):
            c.materialize_fresh(
                np.array(
                    [v for v in range(N_UPPER) if not c.has_view(v)],
                    dtype=np.int64,
                )
            )

        cache.materialize_fresh(verts)
        before = {int(v): cache.view(v).copy() for v in verts}
        dirty_sets, all_incremental = _run_script(cache, script, refill)

        missing = np.array(
            [v for v in range(N_UPPER) if not cache.has_view(v)],
            dtype=np.int64,
        )
        cache.materialize_fresh(missing)
        family = sketch_family(config)
        ref = family.encode_release(
            cache.graph, Layer.UPPER, verts, EPSILON,
            entropy=cache._entropy, epoch=cache.draw_epoch,
            versions=cache._versions[verts],
        )
        for i, v in enumerate(verts):
            np.testing.assert_array_equal(cache.view(v), ref[i])
        if all_incremental:
            ever_dirty = set().union(*dirty_sets)
            for v in range(N_UPPER):
                if v not in ever_dirty:
                    np.testing.assert_array_equal(
                        cache.view(v), before[v]
                    )


class TestPairSketchDifferential:
    @given(scripts)
    @settings(max_examples=10, deadline=None)
    def test_pair_draws_equal_from_scratch(self, script):
        graph = _graph(51)
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON, mode=ExecutionMode.SKETCH,
            max_entries=10**6, rng=np.random.default_rng(25),
        )
        pairs = [(0, 1), (2, 9), (4, 17), (1, 9)]
        keys = np.array(pairs, dtype=np.int64)
        cache.sketch_fresh(keys)
        before = {k: cache.pair_counts(*k) for k in map(tuple, pairs)}
        dirty_sets, all_incremental = _run_script(cache, script)
        ever_dirty = set().union(*dirty_sets)

        for a, b in pairs:
            key = cache.pair_key(a, b)
            clean = a not in ever_dirty and b not in ever_dirty
            if clean and all_incremental:
                assert cache.has_pair(a, b)
                assert cache.pair_counts(*key) == before[key]
            if not cache.has_pair(a, b):
                cache.sketch_fresh(np.array([key], dtype=np.int64))
            # From-scratch oracle on the mutated graph with the combined
            # endpoint version.
            keyed = keyed_pair_generator(
                cache._entropy, cache.draw_epoch, *key,
                version=int(cache._versions[key[0]] + cache._versions[key[1]]),
            )
            n1, n2, _ = sketch_pair_counts(
                cache.graph, Layer.UPPER, np.array(key, dtype=np.int64),
                np.array([0]), np.array([1]), EPSILON, keyed,
            )
            assert cache.pair_counts(*key) == (int(n1[0]), int(n2[0]))


class TestDegreeDifferential:
    @given(scripts)
    @settings(max_examples=10, deadline=None)
    def test_degree_releases_equal_from_scratch(self, script):
        graph = _graph(61)
        verts = np.arange(N_UPPER, dtype=np.int64)
        mech = LaplaceMechanism(1.0, degree_sensitivity())
        cache = NoisyViewCache(
            graph, Layer.UPPER, EPSILON, max_entries=10**6,
            rng=np.random.default_rng(26),
        )
        cache.degree_fresh(verts, mech)
        before = {int(v): cache.degree(v) for v in verts}
        dirty_sets, all_incremental = _run_script(cache, script)
        ever_dirty = set().union(*dirty_sets)

        missing = np.array(
            [v for v in range(N_UPPER) if not cache.has_degree(v)],
            dtype=np.int64,
        )
        if missing.size:
            cache.degree_fresh(missing, mech)
        true = cache.graph.degrees(Layer.UPPER)[verts].astype(np.float64)
        ref = true + keyed_laplace_noise(
            cache._entropy, cache.draw_epoch, verts, mech.scale,
            versions=cache._versions[verts],
        )
        for i, v in enumerate(verts):
            assert cache.degree(v) == ref[i]
            if all_incremental and int(v) not in ever_dirty:
                assert cache.degree(v) == before[int(v)]
