"""Sketch views at scale: memory budget, throughput, error, determinism.

The sublinear-memory claim the sketch subsystem makes is concrete: a
million-vertex workload answered end-to-end in sketch-view mode must
keep every released view within a fixed per-vertex byte budget (64 bytes
here — a 512-bit blipped Bloom filter), while staying

* **competitive in throughput** — a warm sketch-view serving tick
  (views resident, pure gather + debias) must answer pairs at least as
  fast as the per-pair sketch-mode estimator path those views replace.
  The one-time keyed release cost (the price of bit-identical redraw
  and shard invariance) is reported alongside;
* **within the documented closed-form error bound** — each pair's
  absolute error against the exact count is checked against six standard
  deviations of the family's conservative variance, and
* **bit-identical** across 1/2/4-way sharding of the engine and across
  bounded-cache eviction + keyed redraw.

Run directly (``python benchmarks/bench_sketch_views.py``) or via pytest
(``pytest benchmarks/bench_sketch_views.py -s``). ``REPRO_BENCH_QUICK=1``
shrinks the graph from 1M x 1M to 50k x 50k for the CI smoke lane; every
assertion still runs, only the perf ratio is relaxed (tiny workloads
time the fixed overheads, not the paths).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine.core import BatchQueryEngine
from repro.engine.sketches import SketchConfig
from repro.estimators.oner import OneRoundEstimator
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair
from repro.protocol.session import ExecutionMode
from repro.serving.cache import NoisyViewCache

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
if QUICK:
    N_VERTS, N_EDGES, N_PAIRS, CACHE_VERTS = 50_000, 500_000, 2_000, 2_000
else:
    N_VERTS, N_EDGES, N_PAIRS, CACHE_VERTS = 1_000_000, 8_000_000, 10_000, 20_000
EPSILON = 2.0
BUDGET_BYTES = 64  # the sublinear-memory target per released view
CONFIG = SketchConfig.for_budget("bloom", BUDGET_BYTES)  # 512 blipped bits
SEED = 20260808
PER_PAIR_SAMPLE = 500  # pairs timed on the per-pair baseline (extrapolated)
# Quick mode times fixed overheads on a tiny workload; full scale must
# genuinely keep up with the per-pair path it replaces.
MIN_THROUGHPUT_RATIO = 0.3 if QUICK else 1.0
ERROR_SIGMAS = 6.0
MIN_WITHIN_BOUND = 0.99


def _workload(rng):
    graph = random_bipartite(N_VERTS, N_VERTS, N_EDGES, rng=rng)
    ia = rng.integers(0, N_VERTS, size=N_PAIRS)
    ib = (ia + 1 + rng.integers(0, N_VERTS - 1, size=N_PAIRS)) % N_VERTS
    pairs = [QueryPair(Layer.UPPER, int(a), int(b)) for a, b in zip(ia, ib)]
    return graph, pairs


def run_sketch_views_bench() -> tuple[str, dict]:
    rng = np.random.default_rng(SEED)
    graph, pairs = _workload(rng)

    # --- cold end-to-end sketch-view batch under the byte budget ------
    engine = BatchQueryEngine(mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIG)
    start = time.perf_counter()
    result = engine.estimate_pairs(
        graph, Layer.UPPER, pairs, EPSILON, rng=np.random.default_rng(1)
    )
    t_cold = time.perf_counter() - start
    k = result.num_query_vertices
    bytes_per_vertex = result.upload_bytes / k

    # --- exact error against the closed-form bound --------------------
    exact = np.array(
        [graph.count_common_neighbors(Layer.UPPER, a, b) for _, a, b in pairs],
        dtype=np.float64,
    )
    sigma = np.sqrt(np.asarray(result.details["sketch_variance"]))
    within = np.abs(result.values - exact) <= ERROR_SIGMAS * sigma + 1.0
    within_frac = float(within.mean())
    mae = float(np.abs(result.values - exact).mean())

    # --- warm serving tick vs the per-pair sketch path ----------------
    # The per-pair baseline: one OneRoundEstimator call per pair in
    # sketch mode — the pre-engine way to answer a workload, redrawing
    # noise on every query. Timed on a sample and extrapolated.
    per_pair = OneRoundEstimator()
    baseline_rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _, a, b in pairs[:PER_PAIR_SAMPLE]:
        per_pair.estimate(
            graph, Layer.UPPER, a, b, EPSILON,
            rng=baseline_rng, mode=ExecutionMode.SKETCH,
        )
    t_per_pair = (time.perf_counter() - start) * (N_PAIRS / PER_PAIR_SAMPLE)

    cache = NoisyViewCache(
        graph, Layer.UPPER, EPSILON,
        mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIG,
        rng=np.random.default_rng(3),
    )
    serve = BatchQueryEngine()
    warm_rng = np.random.default_rng(4)
    first = serve.estimate_pairs(
        graph, Layer.UPPER, pairs, rng=warm_rng, cache=cache
    )
    start = time.perf_counter()
    second = serve.estimate_pairs(
        graph, Layer.UPPER, pairs, rng=warm_rng, cache=cache
    )
    t_warm = time.perf_counter() - start
    assert second.details["cache"]["charged_vertices"] == 0
    np.testing.assert_array_equal(first.values, second.values)
    ratio = t_per_pair / t_warm if t_warm > 0 else float("inf")

    # --- bit-identity across 1/2/4-way sharding -----------------------
    for shards in (2, 4):
        with BatchQueryEngine(
            mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIG, shards=shards
        ) as sharded:
            again = sharded.estimate_pairs(
                graph, Layer.UPPER, pairs, EPSILON, rng=np.random.default_rng(1)
            )
        np.testing.assert_array_equal(result.values, again.values)

    # --- bounded-cache eviction + keyed redraw ------------------------
    bounded = NoisyViewCache(
        graph, Layer.UPPER, EPSILON,
        mode=ExecutionMode.SKETCH_VIEW, sketch=CONFIG,
        max_bytes=(CACHE_VERTS // 2) * CONFIG.bytes_per_vertex,
        rng=np.random.default_rng(5),
    )
    cached_vertices = np.arange(CACHE_VERTS, dtype=np.int64)
    bounded.materialize_fresh(cached_vertices)
    reference = bounded.gather_views(cached_vertices).copy()
    evicted = bounded.evict_to_budget()
    bounded.materialize_fresh(cached_vertices)  # deterministic redraw
    np.testing.assert_array_equal(
        reference, bounded.gather_views(cached_vertices)
    )

    rows = {
        "vertices": N_VERTS,
        "edges": N_EDGES,
        "pairs": N_PAIRS,
        "workload_vertices": k,
        "bytes_per_vertex": bytes_per_vertex,
        "budget_bytes": BUDGET_BYTES,
        "t_cold": t_cold,
        "t_warm": t_warm,
        "t_per_pair": t_per_pair,
        "throughput_ratio": ratio,
        "warm_pairs_per_s": N_PAIRS / t_warm,
        "mae": mae,
        "within_bound_frac": within_frac,
        "cache_evicted": evicted,
    }
    lines = [
        f"{N_PAIRS} pairs on {N_VERTS:,} x {N_VERTS:,} ({N_EDGES:,} edges), "
        f"epsilon={EPSILON}, bloom m={CONFIG.m}"
        + (" [QUICK]" if QUICK else ""),
        "",
        f"view budget    : {bytes_per_vertex:.1f} bytes/vertex "
        f"(budget {BUDGET_BYTES})",
        f"cold release   : {t_cold:.3f}s "
        f"({N_PAIRS / t_cold:,.0f} pairs/s, keyed draw included)",
        f"warm tick      : {t_warm:.3f}s ({N_PAIRS / t_warm:,.0f} pairs/s)",
        f"per-pair path  : {t_per_pair:.3f}s extrapolated "
        f"({N_PAIRS / t_per_pair:,.0f} pairs/s; warm tick is {ratio:.1f}x)",
        f"error          : MAE {mae:.2f}; {within_frac:.1%} of pairs within "
        f"{ERROR_SIGMAS:.0f} sigma of the closed-form bound",
        f"determinism    : bit-identical at 1/2/4 shards; "
        f"{evicted} evicted views redrawn bit-identically",
    ]
    return "\n".join(lines), rows


def test_sketch_views_bench(emit):
    text, rows = run_sketch_views_bench()
    emit("sketch_views", text)
    assert rows["bytes_per_vertex"] <= rows["budget_bytes"], (
        f"released views average {rows['bytes_per_vertex']:.1f} bytes/vertex, "
        f"over the {rows['budget_bytes']}-byte budget"
    )
    assert rows["within_bound_frac"] >= MIN_WITHIN_BOUND, (
        f"only {rows['within_bound_frac']:.1%} of pairs landed within "
        f"{ERROR_SIGMAS:.0f} sigma of the closed-form variance"
    )
    assert rows["throughput_ratio"] >= MIN_THROUGHPUT_RATIO, (
        f"warm sketch-view tick is {rows['throughput_ratio']:.2f}x the "
        f"per-pair sketch path (floor {MIN_THROUGHPUT_RATIO}x)"
    )
    assert rows["cache_evicted"] > 0, "cache bound never forced an eviction"


if __name__ == "__main__":
    text, _ = run_sketch_views_bench()
    print(text)
