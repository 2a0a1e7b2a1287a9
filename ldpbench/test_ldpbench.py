"""Tests of the benchmark itself: span arithmetic, the tail rule,
determinism of the accounting window, and the correctness gates."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from ldpbench import run
from ldpbench.checks import (
    EdgeSet,
    independent_mask,
    repeat_gate,
    standardized_error_gate,
)
from ldpbench.inputs import EPSILON, SHAPES, build_inputs
from ldpbench.layers import PER_LAYER
from ldpbench.measure import TAIL_BEYOND, per_tick_max, tail
from ldpbench.tracer import SpanRecorder, covered_ns, instrument, self_times
from ldpbench.workloads import run_segment
from repro.analysis.loss import oner_variance
from repro.engine.core import BatchQueryEngine
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_the_union_of_children():
    # 0 [0, 100) has children 1 [10, 40) and 2 [30, 60) (overlapping) and
    # 3 [90, 120) (runs past its parent); 1 has child 4 [15, 25).
    start = np.array([0, 10, 30, 90, 15])
    end = np.array([100, 40, 60, 120, 25])
    parent = np.array([-1, 0, 0, 0, 1])
    selfs = self_times(start, end, parent)
    # Parent 0: children cover [10, 60) and [90, 100) -> 60 of 100.
    assert selfs.tolist() == [40, 20, 30, 30, 10]


def test_covered_ns_merges_and_clips():
    assert covered_ns([(5, 8), (0, 3), (2, 6)], 1, 7) == 6
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(20, 30)], 0, 10) == 0


def test_recorder_nests_spans_and_restores_the_program():
    recorder = SpanRecorder()
    original = BatchQueryEngine.estimate_pairs
    edges = np.array([[0, 0], [0, 1], [1, 1], [2, 0], [2, 2]])
    with instrument(recorder):
        graph = BipartiteGraph(3, 3, edges)
        pairs = [(0, 1), (1, 2)]
        BatchQueryEngine().estimate_pairs(
            graph, Layer.UPPER, [QueryPair(Layer.UPPER, a, b) for a, b in pairs],
            EPSILON, rng=1,
        )
    assert BatchQueryEngine.estimate_pairs is original
    spans = recorder.arrays()
    names = [spans.names[i] for i in spans.name]
    assert names[0] == "graph.build"
    core = names.index("engine.core")
    assert spans.parent[core] == -1
    for child in ("engine.planner", "engine.bulkrr.shared", "engine.pairwise"):
        assert spans.parent[names.index(child)] == core
    assert spans.count_a[core] == 2  # pairs answered
    ledger = names.index("privacy.ledger")
    assert spans.count_a[ledger] == 3 * EPSILON  # three vertices charged


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = np.arange(1, 101, dtype=float)
    result = tail(samples)
    assert result.value == 90.0
    assert np.count_nonzero(samples > result.value) == TAIL_BEYOND
    assert result.percentile == pytest.approx(90.0)
    assert result.samples == 100
    with pytest.raises(ValueError):
        tail(np.ones(TAIL_BEYOND))


def test_serving_tail_counts_ticks_not_queries():
    # 50 ticks of 100 queries; one tick is slow for every query in it.
    ticks = np.repeat(np.arange(50), 100)
    latencies = np.full(ticks.size, 0.010)
    latencies[ticks == 7] = 0.500
    latencies += np.tile(np.linspace(0.0, 0.001, 100), 50)
    # Counted per query, the one slow tick alone fills the tail.
    assert tail(latencies).value > 0.5
    per_tick = per_tick_max(ticks, latencies)
    assert per_tick.size == 50
    result = tail(per_tick)
    assert result.samples == 50
    assert result.value == pytest.approx(0.011)


# ----------------------------------------------------------------------
# Determinism of the accounting window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["engine_batch", "serve_churn"])
def test_window_counts_repeat_for_a_seed(workload):
    inputs = build_inputs(workload, 5)
    first = run_segment(inputs, 0.01, True).window
    second = run_segment(inputs, 0.01, True).window
    for name in ("attempted", "answered", "eps", "upload_bytes", "abs_error"):
        assert getattr(first, name) == getattr(second, name), name
    assert first.answered == first.attempted > 0


def test_inputs_depend_only_on_the_seed():
    a, b = build_inputs("serve_wide", 3), build_inputs("serve_wide", 3)
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert np.array_equal(a.stream_a, b.stream_a)
    c = build_inputs("serve_wide", 4)
    assert not np.array_equal(a.stream_a, c.stream_a)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _engine_window(seed: int, calls: int):
    inputs = build_inputs("engine_batch", seed)
    g = inputs.graph
    graph = BipartiteGraph(g.n_upper, g.n_lower, g.edges)
    truth = EdgeSet.from_edges(g.n_upper, g.n_lower, g.edges)
    engine = BatchQueryEngine()
    rng = np.random.default_rng(seed)
    rows = []
    for row in range(calls):
        a = inputs.stream_a[row].astype(np.int64)
        b = inputs.stream_b[row].astype(np.int64)
        result = engine.estimate_pairs(
            graph, Layer.UPPER,
            [QueryPair(Layer.UPPER, x, y) for x, y in zip(a.tolist(), b.tolist())],
            EPSILON, rng=rng,
        )
        keep = independent_mask(((x,), (y,)) for x, y in zip(a.tolist(), b.tolist()))
        rows.append((a[keep], b[keep], result.values[keep]))
    a, b, values = (np.concatenate(col) for col in zip(*rows))
    exact = truth.common_neighbors(a, b)
    return values, exact, truth.degrees[a], truth.degrees[b], g.n_lower


def test_standardized_gate_passes_the_program_and_rejects_a_bias():
    values, exact, deg_a, deg_b, n_lower = _engine_window(seed=8, calls=4)
    ok, message = standardized_error_gate(values, exact, deg_a, deg_b, n_lower, EPSILON)
    assert ok, message
    sd = np.sqrt(oner_variance(EPSILON, n_lower, deg_a, deg_b))
    ok, message = standardized_error_gate(
        values + 0.5 * sd, exact, deg_a, deg_b, n_lower, EPSILON
    )
    assert not ok, message


def test_repeat_gate_rejects_one_perturbed_estimate():
    a = np.array([1, 2, 1, 3, 2])
    b = np.array([2, 3, 2, 4, 3])
    values = np.array([5.0, 7.0, 5.0, 1.0, 7.0])
    epochs = np.zeros(5, dtype=np.int64)
    assert repeat_gate(a, b, values, epochs)[0]
    perturbed = values.copy()
    perturbed[2] = np.nextafter(perturbed[2], np.inf)
    assert not repeat_gate(a, b, perturbed, epochs)[0]
    # The same pair in another epoch may differ, but then nothing repeats.
    assert not repeat_gate(a, b, perturbed, np.array([0, 0, 1, 0, 1]))[0]


def test_exact_counts_match_the_program_graph():
    inputs = build_inputs("serve_churn", 2)
    g = inputs.graph
    graph = BipartiteGraph(g.n_upper, g.n_lower, g.edges)
    truth = EdgeSet.from_edges(g.n_upper, g.n_lower, g.edges)
    a, b = inputs.stream_a[0][:200], inputs.stream_b[0][:200]
    expected = [graph.count_common_neighbors(Layer.UPPER, x, y) for x, y in zip(a, b)]
    assert truth.common_neighbors(a, b).tolist() == expected
    inserts, deletes = inputs.mutations[0]
    mutated = graph.apply_edge_delta(inserts, deletes)
    assert np.array_equal(truth.apply(inserts, deletes).edges(), mutated.edges)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(SHAPES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
