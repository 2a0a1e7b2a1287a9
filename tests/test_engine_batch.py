"""Tests for the vectorized batch query engine.

The engine must reproduce ``BatchOneRound``'s estimates distributionally
(same per-pair mean and variance — the RNG streams differ, so bit-for-bit
equality is not expected), stay unbiased on the sketch path, agree across
all counting backends, and keep the batch accounting within budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.ingredients import batch_pair_ingredients
from repro.engine import (
    BatchQueryEngine,
    bernoulli_hits,
    bulk_randomized_response,
    pack_bitset_rows,
    pairwise_intersections,
    plan_workload,
)
from repro.errors import GraphError, PrivacyError, ProtocolError
from repro.estimators.batch import BatchOneRound
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair, sample_query_pairs
from repro.privacy.composition import QueryBudgetManager
from repro.privacy.mechanisms import RandomizedResponse
from repro.privacy.rng import spawn_rngs
from repro.protocol.session import ExecutionMode


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(40, 60, 450, rng=77)


@pytest.fixture(scope="module")
def workload(graph):
    return sample_query_pairs(graph, Layer.UPPER, 12, rng=5)


@pytest.fixture(scope="module")
def truths(graph, workload):
    return np.array(
        [graph.count_common_neighbors(Layer.UPPER, p.a, p.b) for p in workload]
    )


class TestPlanner:
    def test_dedupes_vertices_and_maps_slots(self, graph):
        pairs = [
            QueryPair(Layer.UPPER, 3, 7),
            QueryPair(Layer.UPPER, 7, 3),
            QueryPair(Layer.UPPER, 3, 9),
        ]
        plan = plan_workload(graph, Layer.UPPER, pairs, 1.0)
        assert plan.vertices.tolist() == [3, 7, 9]
        assert plan.vertices[plan.ia].tolist() == [3, 7, 3]
        assert plan.vertices[plan.ib].tolist() == [7, 3, 9]

    def test_empty_workload_rejected(self, graph):
        with pytest.raises(ProtocolError):
            plan_workload(graph, Layer.UPPER, [], 1.0)

    def test_wrong_layer_rejected(self, graph):
        with pytest.raises(ProtocolError):
            plan_workload(graph, Layer.UPPER, [QueryPair(Layer.LOWER, 0, 1)], 1.0)

    def test_out_of_range_vertex_rejected(self, graph):
        with pytest.raises(GraphError):
            plan_workload(graph, Layer.UPPER, [QueryPair(Layer.UPPER, 0, 10_000)], 1.0)

    def test_needs_exactly_one_funding_source(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, 1)]
        manager = QueryBudgetManager(4.0, policy="uniform", num_queries=2)
        with pytest.raises(PrivacyError):
            plan_workload(graph, Layer.UPPER, pairs)
        with pytest.raises(PrivacyError):
            plan_workload(graph, Layer.UPPER, pairs, 1.0, budget=manager)

    def test_budget_manager_slices(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, 1)]
        manager = QueryBudgetManager(4.0, policy="uniform", num_queries=2)
        plan_a = plan_workload(graph, Layer.UPPER, pairs, budget=manager)
        plan_b = plan_workload(graph, Layer.UPPER, pairs, budget=manager)
        assert plan_a.epsilon == pytest.approx(2.0)
        assert plan_b.epsilon == pytest.approx(2.0)
        assert manager.remaining == pytest.approx(0.0)


class TestBulkRandomizedResponse:
    def test_rows_sorted_unique_in_domain(self, graph):
        vertices = np.arange(graph.num_upper)
        indptr, cols = bulk_randomized_response(graph, Layer.UPPER, vertices, 1.0, rng=3)
        assert indptr[-1] == cols.size
        for i in range(vertices.size):
            row = cols[indptr[i] : indptr[i + 1]]
            if row.size:
                assert (np.diff(row) > 0).all()
                assert row[0] >= 0 and row[-1] < graph.num_lower

    def test_matches_per_vertex_distribution(self, graph):
        """Row-size mean/variance agree with perturb_neighbor_list."""
        rr = RandomizedResponse(1.0)
        vertices = np.arange(20)
        bulk_rng, ref_rng = np.random.default_rng(1), np.random.default_rng(2)
        trials = 400
        bulk_sizes = np.empty((trials, vertices.size))
        ref_sizes = np.empty((trials, vertices.size))
        for t in range(trials):
            indptr, _ = bulk_randomized_response(
                graph, Layer.UPPER, vertices, 1.0, bulk_rng
            )
            bulk_sizes[t] = np.diff(indptr)
            ref_sizes[t] = [
                rr.perturb_neighbor_list(
                    graph.neighbors(Layer.UPPER, v), graph.num_lower, ref_rng
                ).size
                for v in vertices
            ]
        se = np.sqrt(
            bulk_sizes.var(axis=0) / trials + ref_sizes.var(axis=0) / trials
        )
        diff = np.abs(bulk_sizes.mean(axis=0) - ref_sizes.mean(axis=0))
        assert (diff < 5.0 * se + 1e-9).all()
        ratio = bulk_sizes.var(axis=0, ddof=1) / ref_sizes.var(axis=0, ddof=1)
        assert (0.6 < ratio).all() and (ratio < 1.7).all()

    def test_huge_epsilon_returns_true_rows(self, graph):
        vertices = np.arange(10)
        indptr, cols = bulk_randomized_response(graph, Layer.UPPER, vertices, 60.0, rng=1)
        for i, v in enumerate(vertices):
            np.testing.assert_array_equal(
                cols[indptr[i] : indptr[i + 1]], graph.neighbors(Layer.UPPER, v)
            )

    def test_empty_vertex_list(self, graph):
        indptr, cols = bulk_randomized_response(
            graph, Layer.UPPER, np.empty(0, dtype=np.int64), 1.0, rng=0
        )
        assert indptr.tolist() == [0] and cols.size == 0

    def test_out_of_range_vertex(self, graph):
        with pytest.raises(GraphError):
            bulk_randomized_response(graph, Layer.UPPER, np.array([999]), 1.0, rng=0)


class TestBernoulliHits:
    def test_moments(self):
        rng = np.random.default_rng(0)
        p, cells, trials = 0.2, 500, 800
        counts = np.array([bernoulli_hits(cells, p, rng).size for _ in range(trials)])
        assert counts.mean() == pytest.approx(cells * p, abs=5 * np.sqrt(cells * p / trials))
        occupancy = np.zeros(cells)
        for _ in range(200):
            occupancy[bernoulli_hits(cells, p, rng)] += 1
        assert occupancy.mean() == pytest.approx(200 * p, rel=0.1)

    def test_positions_sorted_distinct(self):
        rng = np.random.default_rng(1)
        hits = bernoulli_hits(10_000, 0.4, rng)
        assert (np.diff(hits) > 0).all()
        assert hits[0] >= 0 and hits[-1] < 10_000

    def test_tiny_p_and_empty(self):
        rng = np.random.default_rng(2)
        assert bernoulli_hits(0, 0.3, rng).size == 0
        assert bernoulli_hits(100, 0.0, rng).size == 0
        assert bernoulli_hits(1000, 1e-21, rng).size in (0, 1, 2)


class TestPairwiseBackends:
    @pytest.fixture(scope="class")
    def csr_and_pairs(self, graph):
        pairs = sample_query_pairs(graph, Layer.UPPER, 40, rng=9)
        plan = plan_workload(graph, Layer.UPPER, pairs, 2.0)
        indptr, cols = bulk_randomized_response(
            graph, Layer.UPPER, plan.vertices, 2.0, np.random.default_rng(11)
        )
        return indptr, cols, plan

    @pytest.mark.parametrize("backend", ["bitset", "sparse", "merge"])
    def test_backends_agree_with_reference(self, csr_and_pairs, graph, backend):
        indptr, cols, plan = csr_and_pairs
        got = pairwise_intersections(
            indptr, cols, plan.ia, plan.ib, graph.num_lower, backend=backend
        )
        expected = [
            np.intersect1d(
                cols[indptr[a] : indptr[a + 1]],
                cols[indptr[b] : indptr[b + 1]],
                assume_unique=True,
            ).size
            for a, b in zip(plan.ia, plan.ib)
        ]
        assert got.tolist() == expected

    def test_empty_rows(self):
        indptr = np.array([0, 0, 2], dtype=np.int64)
        cols = np.array([1, 3], dtype=np.int64)
        for backend in ("bitset", "sparse", "merge"):
            got = pairwise_intersections(
                indptr, cols, np.array([0]), np.array([1]), 5, backend=backend
            )
            assert got.tolist() == [0]

    def test_packer_rejects_negative_columns(self):
        # A negative column must not wrap to the row's last bit.
        with pytest.raises(IndexError, match="out of range"):
            pack_bitset_rows(np.array([0, 1]), np.array([-1]), 16)

    @pytest.mark.parametrize("indptr", [[0, 1], [0, 1, 1]])
    def test_packer_rejects_columns_past_the_domain(self, indptr):
        # With a second row, column == domain would be its bit 0.
        with pytest.raises(IndexError):
            pack_bitset_rows(np.array(indptr), np.array([16]), 16)

    def test_packed_rows_count_without_csr_block(self, csr_and_pairs, graph):
        indptr, cols, plan = csr_and_pairs
        domain = graph.num_lower
        packed = pack_bitset_rows(indptr, cols, domain)
        expected = pairwise_intersections(
            indptr, cols, plan.ia, plan.ib, domain, backend="merge"
        )
        got = pairwise_intersections(
            None, None, plan.ia, plan.ib, domain, packed=packed
        )
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("backend", ["sparse", "merge"])
    def test_csr_backend_without_csr_block_names_it(self, csr_and_pairs, graph, backend):
        indptr, cols, plan = csr_and_pairs
        packed = pack_bitset_rows(indptr, cols, graph.num_lower)
        with pytest.raises(ValueError, match="CSR block"):
            pairwise_intersections(
                None, None, plan.ia, plan.ib, graph.num_lower,
                backend=backend, packed=packed,
            )


class TestEngineInterface:
    def test_result_shape_and_lookup(self, graph, workload):
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=1)
        assert result.values.shape == (len(workload),)
        assert result.pairs == tuple(workload)
        assert result.value(workload[3]) == result.values[3]
        with pytest.raises(ProtocolError):
            result.value(QueryPair(Layer.UPPER, 38, 39))

    def test_deterministic(self, graph, workload):
        a = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=3)
        b = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_auto_mode_selection(self, graph, workload):
        small = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=1)
        assert small.mode is ExecutionMode.MATERIALIZE
        big = random_bipartite(50, 30_000, 2000, rng=4)
        pairs = sample_query_pairs(big, Layer.UPPER, 5, rng=5)
        result = BatchQueryEngine().estimate_pairs(big, Layer.UPPER, pairs, 2.0, rng=6)
        assert result.mode is ExecutionMode.SKETCH
        assert result.details["backend"] == "sketch"

    def test_each_vertex_charged_once(self, graph):
        pairs = [QueryPair(Layer.UPPER, 0, other) for other in (1, 2, 3, 4, 5, 6)]
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, pairs, 1.5, rng=2)
        assert result.max_epsilon_spent == pytest.approx(1.5)
        assert result.num_query_vertices == 7

    def test_budget_manager_funding(self, graph, workload):
        manager = QueryBudgetManager(6.0, policy="uniform", num_queries=3)
        engine = BatchQueryEngine()
        for _ in range(3):
            result = engine.estimate_pairs(
                graph, Layer.UPPER, workload, budget=manager, rng=1
            )
            assert result.epsilon == pytest.approx(2.0)
            assert result.max_epsilon_spent <= 2.0 + 1e-9
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            engine.estimate_pairs(graph, Layer.UPPER, workload, budget=manager, rng=1)

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH]
    )
    def test_upload_accounting(self, graph, workload, mode):
        result = BatchQueryEngine(mode=mode).estimate_pairs(
            graph, Layer.UPPER, workload, 2.0, rng=8
        )
        assert result.upload_bytes > 0
        assert result.mode is mode


class TestEngineStatistics:
    def test_huge_epsilon_recovers_truth(self, graph, workload, truths):
        result = BatchQueryEngine().estimate_pairs(graph, Layer.UPPER, workload, 50.0, rng=6)
        np.testing.assert_allclose(result.values, truths, atol=1e-6)

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH]
    )
    def test_unbiased(self, graph, workload, truths, mode):
        """Mean/variance tolerance harness: the estimator mean must sit
        within 5 standard errors of the truth for every pair."""
        rngs = spawn_rngs(9 if mode is ExecutionMode.MATERIALIZE else 10, 900)
        sums = np.zeros(len(workload))
        squares = np.zeros(len(workload))
        engine = BatchQueryEngine(mode=mode)
        for r in rngs:
            values = engine.estimate_pairs(graph, Layer.UPPER, workload, 2.0, rng=r).values
            sums += values
            squares += values**2
        means = sums / len(rngs)
        variances = squares / len(rngs) - means**2
        se = np.sqrt(variances / len(rngs))
        assert (np.abs(means - truths) < 5 * se + 1e-9).all()

    def test_matches_batch_oner_distribution(self, graph, workload, truths):
        """The engine and BatchOneRound draw from the same distribution:
        per-pair means within pooled standard error, variances within a
        ratio band."""
        trials = 700
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        reference = BatchOneRound()
        e_rngs = spawn_rngs(21, trials)
        r_rngs = spawn_rngs(22, trials)
        e_values = np.empty((trials, len(workload)))
        r_values = np.empty((trials, len(workload)))
        for t in range(trials):
            e_values[t] = engine.estimate_pairs(
                graph, Layer.UPPER, workload, 1.5, rng=e_rngs[t]
            ).values
            r_values[t] = reference.estimate_pairs(
                graph, Layer.UPPER, workload, 1.5, rng=r_rngs[t]
            ).values
        pooled_se = np.sqrt(
            e_values.var(axis=0) / trials + r_values.var(axis=0) / trials
        )
        mean_gap = np.abs(e_values.mean(axis=0) - r_values.mean(axis=0))
        assert (mean_gap < 5.0 * pooled_se + 1e-9).all()
        ratio = e_values.var(axis=0, ddof=1) / r_values.var(axis=0, ddof=1)
        assert (0.6 < ratio).all() and (ratio < 1.7).all()

    def test_shared_vertex_errors_correlate_in_materialize(self):
        """Materialize mode reuses each vertex's noisy list across pairs,
        so errors of pairs sharing a vertex correlate when the other
        endpoints overlap (covariance = Var(phi) * C2(b, c))."""
        edges = [(0, j) for j in range(20)]
        edges += [(1, j) for j in range(5, 45)]
        edges += [(2, j) for j in range(5, 45)]
        planted = BipartiteGraph(3, 60, edges)
        pairs = [QueryPair(Layer.UPPER, 0, 1), QueryPair(Layer.UPPER, 0, 2)]
        engine = BatchQueryEngine(mode=ExecutionMode.MATERIALIZE)
        rngs = spawn_rngs(13, 800)
        errors = np.empty((len(rngs), 2))
        for i, r in enumerate(rngs):
            values = engine.estimate_pairs(planted, Layer.UPPER, pairs, 1.0, rng=r).values
            errors[i, 0] = values[0] - planted.count_common_neighbors(Layer.UPPER, 0, 1)
            errors[i, 1] = values[1] - planted.count_common_neighbors(Layer.UPPER, 0, 2)
        assert np.corrcoef(errors.T)[0, 1] > 0.15


class TestBatchIngredients:
    def test_per_vertex_spend_is_epsilon(self, graph, workload):
        batch = batch_pair_ingredients(graph, Layer.UPPER, workload, 2.0, rng=3)
        assert batch.max_epsilon_spent == pytest.approx(2.0)
        assert batch.epsilon_degrees + batch.epsilon_c2 == pytest.approx(2.0)
        assert batch.c2_estimates.shape == (len(workload),)
        assert batch.upload_bytes > 0

    def test_degrees_track_truth_at_high_budget(self, graph, workload):
        batch = batch_pair_ingredients(graph, Layer.UPPER, workload, 400.0, rng=4)
        true_a = [graph.degree(Layer.UPPER, p.a) for p in workload]
        np.testing.assert_allclose(batch.noisy_degrees_a, true_a, atol=1.0)

    def test_invalid_degree_fraction(self, graph, workload):
        with pytest.raises(PrivacyError):
            batch_pair_ingredients(graph, Layer.UPPER, workload, 2.0, degree_fraction=1.5)
