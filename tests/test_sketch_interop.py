"""Sketch-view interop: every sketch family × planner / engine / cache.

The sublinear-memory path is only useful if each family plugs into the
whole stack: the per-vertex list-vs-sketch planner, the batch engine
(pure sketch-view, hybrid, and sharded), and the epoch cache with
eviction + deterministic redraw. Alongside the plumbing, the statistical
contract is checked on enumerated small domains: sketch estimates agree
with the materialized/exact answer within the family's closed-form
variance, the released Bloom bits follow the exact per-bit Bernoulli law
(chi-square), and the VoC noise matches the Laplace law (KS).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.core import BatchQueryEngine
from repro.engine.planner import plan_views, plan_workload
from repro.engine.sketches import (
    SKETCH_KINDS,
    SketchConfig,
    sketch_family,
)
from repro.errors import ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair
from repro.privacy.mechanisms import flip_probability
from repro.serving.cache import NoisyViewCache
from repro.protocol.session import ExecutionMode

pytestmark = pytest.mark.timeout(120)

EPS = 2.0

# One config per family, sized comparably (64-byte budget except voc,
# which needs 8 bytes per bucket).
CONFIGS = {
    "bloom": SketchConfig("bloom", 512),
    "voc": SketchConfig("voc", 64),
    "hll": SketchConfig("hll", 64),
}


def _pairs(layer, ia, ib):
    return [QueryPair(layer, int(a), int(b)) for a, b in zip(ia, ib)]


@pytest.fixture()
def workload(medium_graph):
    rng = np.random.default_rng(31)
    ia = rng.integers(0, 120, size=40)
    ib = (ia + 1 + rng.integers(0, 100, size=40)) % 120
    return medium_graph, _pairs(Layer.UPPER, ia, ib)


# ---------------------------------------------------------------- planner
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_plan_views_closure_leaves_no_mixed_pairs(workload, kind):
    graph, pairs = workload
    plan = plan_workload(
        graph, Layer.UPPER, pairs, EPS,
        sketch_bytes=CONFIGS[kind].bytes_per_vertex,
        view_mem_bytes=4096,
    )
    vp = plan.views
    assert vp is not None
    mixed = vp.sketch_mask[plan.ia] ^ vp.sketch_mask[plan.ib]
    assert not mixed.any(), "pair closure must not leave mixed pairs"
    assert vp.num_sketched + vp.num_listed == plan.num_vertices


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_plan_views_force_sketch_covers_everything(workload, kind):
    graph, pairs = workload
    plan = plan_workload(
        graph, Layer.UPPER, pairs, EPS,
        sketch_bytes=CONFIGS[kind].bytes_per_vertex,
        force_sketch=True,
    )
    assert plan.views.sketch_mask.all()
    assert plan.views.est_view_bytes == (
        plan.num_vertices * CONFIGS[kind].bytes_per_vertex
    )


def test_plan_views_budget_flips_more_vertices(workload):
    graph, pairs = workload
    plan = plan_workload(graph, Layer.UPPER, pairs, EPS)
    vertices, ia, ib = plan.vertices, plan.ia, plan.ib
    free = plan_views(
        graph, Layer.UPPER, vertices, EPS, ia=ia, ib=ib, sketch_bytes=64
    )
    tight = plan_views(
        graph, Layer.UPPER, vertices, EPS, ia=ia, ib=ib,
        sketch_bytes=64, mem_bytes=2048,
    )
    assert tight.num_sketched >= free.num_sketched
    assert tight.est_view_bytes <= max(2048, tight.vertices.size * 64)


def test_plan_views_rejects_bad_budgets(workload):
    graph, pairs = workload
    plan = plan_workload(graph, Layer.UPPER, pairs, EPS)
    with pytest.raises(ProtocolError):
        plan_views(
            graph, Layer.UPPER, plan.vertices, EPS,
            ia=plan.ia, ib=plan.ib, sketch_bytes=0,
        )
    with pytest.raises(ProtocolError):
        plan_workload(graph, Layer.UPPER, pairs, EPS, view_mem_bytes=1024)


# ----------------------------------------------------------------- engine
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_engine_pure_sketch_view_is_seed_deterministic(
    workload, kind, expect_hll_floor
):
    graph, pairs = workload
    engine = BatchQueryEngine(mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS[kind])
    with expect_hll_floor(kind, EPS):
        runs = [
            engine.estimate_pairs(
                graph, Layer.UPPER, pairs, EPS, rng=np.random.default_rng(99)
            )
            for _ in range(2)
        ]
    assert np.array_equal(runs[0].values, runs[1].values)
    planner = runs[0].details["planner"]
    assert planner["sketched_vertices"] == runs[0].num_query_vertices
    assert planner["listed_vertices"] == 0
    assert planner["sketch_kind"] == kind


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_engine_sketch_view_invariant_across_sharding(
    workload, kind, expect_hll_floor
):
    graph, pairs = workload
    with expect_hll_floor(kind, EPS):
        baseline = BatchQueryEngine(
            mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS[kind]
        ).estimate_pairs(
            graph, Layer.UPPER, pairs, EPS, rng=np.random.default_rng(5)
        )
    for shards in (2, 4):
        with BatchQueryEngine(
            mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS[kind], shards=shards
        ) as engine, expect_hll_floor(kind, EPS):
            sharded = engine.estimate_pairs(
                graph, Layer.UPPER, pairs, EPS, rng=np.random.default_rng(5)
            )
        assert np.array_equal(baseline.values, sharded.values)


def test_engine_hybrid_sketched_values_shard_invariant(workload, expect_hll_floor):
    """Hybrid plans (mixed list/sketch) keep sketched pairs bit-identical
    whatever the listed block's shard count is."""
    graph, pairs = workload
    sketch = SketchConfig("hll", 300)
    results = {}
    for shards in (None, 2, 4):
        with BatchQueryEngine(
            mode=ExecutionMode.MATERIALIZE, sketch=sketch, shards=shards
        ) as engine, expect_hll_floor(sketch.kind, EPS):
            results[shards] = engine.estimate_pairs(
                graph, Layer.UPPER, pairs, EPS, rng=np.random.default_rng(17)
            )
    base = results[None]
    planner = base.details["planner"]
    assert 0 < planner["sketched_vertices"] < base.num_query_vertices, (
        "hybrid fixture must genuinely mix listed and sketched vertices"
    )
    # Sketched pairs carry the -1 sentinel in the noisy-count columns.
    sk_pairs = base.noisy_intersections == -1
    assert 0 < sk_pairs.sum() < sk_pairs.size
    for shards in (2, 4):
        assert np.array_equal(
            base.values[sk_pairs], results[shards].values[sk_pairs]
        )


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_engine_budget_charge_matches_materialize_path(
    workload, kind, expect_hll_floor
):
    """One ε-charge per distinct vertex — same parallel composition as the
    materialized engine round."""
    graph, pairs = workload
    engine = BatchQueryEngine(mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS[kind])
    with expect_hll_floor(kind, EPS):
        res = engine.estimate_pairs(
            graph, Layer.UPPER, pairs, EPS, rng=np.random.default_rng(3)
        )
    assert res.max_epsilon_spent == pytest.approx(EPS)
    assert res.upload_bytes == (
        res.num_query_vertices * CONFIGS[kind].bytes_per_vertex
    )


# ------------------------------------------------------------------ cache
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_cache_eviction_redraw_is_bit_identical(small_graph, kind, expect_hll_floor):
    config = CONFIGS[kind]
    with expect_hll_floor(kind, EPS):
        cache = NoisyViewCache(
            small_graph, Layer.UPPER, EPS,
            mode=ExecutionMode.SKETCH_VIEW, sketch=config,
            max_bytes=8 * config.bytes_per_vertex,
            rng=np.random.default_rng(11),
        )
    vertices = np.arange(20, dtype=np.int64)
    with expect_hll_floor(kind, EPS):
        cache.materialize_fresh(vertices)
    first = cache.gather_views(vertices).copy()
    assert cache.evict_to_budget() > 0, "budget must actually evict views"
    # Touch everything again: evicted vertices redraw from the keyed
    # stream and must reproduce the identical released view.
    with expect_hll_floor(kind, EPS):
        cache.materialize_fresh(vertices)
    again = cache.gather_views(vertices)
    assert np.array_equal(first, again)
    assert cache.stats.recharges > 0


@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_cached_serving_tick_charges_once(small_graph, kind, expect_hll_floor):
    config = CONFIGS[kind]
    with expect_hll_floor(kind, EPS):
        cache = NoisyViewCache(
            small_graph, Layer.UPPER, EPS,
            mode=ExecutionMode.SKETCH_VIEW, sketch=config,
            rng=np.random.default_rng(23),
        )
    rng = np.random.default_rng(7)
    ia = rng.integers(0, 40, size=12)
    ib = (ia + 1 + rng.integers(0, 30, size=12)) % 40
    pairs = _pairs(Layer.UPPER, ia, ib)
    # An AUTO engine adopts the cache's mode and sketch config per tick.
    engine = BatchQueryEngine()
    with expect_hll_floor(kind, EPS):
        first = engine.estimate_pairs(
            small_graph, Layer.UPPER, pairs, rng=np.random.default_rng(1), cache=cache
        )
    assert first.details["cache"]["charged_vertices"] > 0
    second = engine.estimate_pairs(
        small_graph, Layer.UPPER, pairs, rng=np.random.default_rng(2), cache=cache
    )
    assert second.details["cache"]["charged_vertices"] == 0
    assert np.array_equal(first.values, second.values)
    rotated = cache.rotate()
    assert rotated >= 0
    with expect_hll_floor(kind, EPS):
        third = engine.estimate_pairs(
            small_graph, Layer.UPPER, pairs, rng=np.random.default_rng(3), cache=cache
        )
    assert third.details["cache"]["charged_vertices"] > 0


def test_cache_rejects_mismatched_sketch_config(small_graph):
    cache = NoisyViewCache(
        small_graph, Layer.UPPER, EPS,
        mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS["bloom"],
    )
    engine = BatchQueryEngine(
        mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIGS["voc"]
    )
    with pytest.raises(ProtocolError):
        engine.estimate_pairs(
            small_graph, Layer.UPPER,
            [QueryPair(Layer.UPPER, 0, 1)], EPS, cache=cache,
        )


# ------------------------------------------------- statistical agreement
@pytest.mark.parametrize("kind", SKETCH_KINDS)
def test_sketch_agrees_with_exact_within_closed_form_variance(small_graph, kind):
    """Mean over repeated releases lands within the closed-form error bar.

    VoC is exactly unbiased; Bloom/HLL carry an asymptotic (log-inversion)
    bias, so the tolerance is five standard errors of the *declared*
    variance plus a small-count slack — if the closed form under-reported
    the true spread, this margin would trip. HLL's k-RR over 31 symbols
    needs a larger ε before its inversion is informative at all, so each
    family is tested at the smallest ε where its estimator is usable.
    """
    eps = {"bloom": EPS, "voc": EPS, "hll": 6.0}[kind]
    family = sketch_family(CONFIGS[kind])
    u, w = 3, 9
    true = small_graph.count_common_neighbors(Layer.UPPER, u, w)
    deg = np.array(
        [small_graph.degree(Layer.UPPER, u), small_graph.degree(Layer.UPPER, w)],
        dtype=np.float64,
    )
    vertices = np.array([u, w], dtype=np.int64)
    repeats = 160
    estimates = np.empty(repeats)
    for i in range(repeats):
        views = family.encode_release(
            small_graph, Layer.UPPER, vertices, eps,
            rng=np.random.default_rng(5000 + i),
        )
        estimates[i] = family.intersect(
            views, np.array([0]), np.array([1]), eps
        )[0]
    declared = family.intersection_variance(
        deg[:1], deg[1:], np.array([float(true)]), eps
    )[0]
    se = np.sqrt(declared / repeats)
    assert abs(estimates.mean() - true) <= 5.0 * se + 2.0
    # The closed form is conservative: the observed spread must not
    # exceed it by more than sampling slack.
    assert estimates.var(ddof=1) <= 3.0 * declared + 1.0


def test_bloom_released_bits_follow_bernoulli_law():
    """Chi-square on an enumerated domain: every released bit is Bernoulli
    with P(1) = 1-p on set bits and p on clear bits."""
    scipy_stats = pytest.importorskip("scipy.stats")
    config = SketchConfig("bloom", 32)
    family = sketch_family(config)
    p = flip_probability(EPS)
    raw = np.zeros((1, 32), dtype=bool)
    raw[0, :7] = True  # enumerated truth: bits 0..6 set, rest clear
    rng = np.random.default_rng(404)
    n = 4000
    ones = np.zeros(32)
    for _ in range(n):
        packed = family.release(raw, EPS, rng=rng)
        ones += np.unpackbits(packed, axis=1)[0, :32]
    expected = np.where(raw[0], (1.0 - p) * n, p * n)
    chi2 = float((((ones - expected) ** 2) / (expected * (1.0 - expected / n))).sum())
    pvalue = float(scipy_stats.chi2.sf(chi2, df=32))
    assert pvalue > 1e-4, f"released bits deviate from Bernoulli law (chi2={chi2:.1f})"


def test_voc_noise_matches_laplace_law():
    """KS test: released minus raw VoC buckets are Laplace(1/ε) draws."""
    scipy_stats = pytest.importorskip("scipy.stats")
    config = SketchConfig("voc", 64)
    family = sketch_family(config)
    raw = np.arange(64, dtype=np.float64).reshape(1, 64).repeat(60, axis=0)
    released = family.release(raw, EPS, rng=np.random.default_rng(808))
    noise = (released - raw).ravel()
    stat, pvalue = scipy_stats.kstest(
        noise, scipy_stats.laplace(scale=1.0 / EPS).cdf
    )
    assert pvalue > 1e-4, f"VoC noise fails Laplace KS test (D={stat:.4f})"


def test_keyed_release_matches_law_too():
    """The keyed (Philox inverse-CDF) Laplace path follows the same law as
    the rng path — KS on a large keyed draw."""
    scipy_stats = pytest.importorskip("scipy.stats")
    config = SketchConfig("voc", 64)
    family = sketch_family(config)
    raw = np.zeros((80, 64))
    released = family.release(
        raw, EPS, entropy=123456789, epoch=0,
        vertices=np.arange(80, dtype=np.int64),
    )
    stat, pvalue = scipy_stats.kstest(
        released.ravel(), scipy_stats.laplace(scale=1.0 / EPS).cdf
    )
    assert pvalue > 1e-4, f"keyed VoC noise fails Laplace KS test (D={stat:.4f})"
