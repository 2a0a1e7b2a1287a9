"""Edge cases and failure injection across the stack.

Degenerate graphs (empty layers, isolated vertices, complete bipartite),
extreme privacy budgets, and hostile inputs must either work or fail with
the library's own exception types — never with bare numpy errors or
silent nonsense.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, PrivacyError, ReproError
from repro.estimators.registry import available_estimators, get_estimator
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.protocol.session import ExecutionMode, ProtocolSession

LDP_NAMES = [
    n for n in available_estimators() if n not in ("exact", "central-dp")
]


@pytest.fixture()
def isolated_pair_graph() -> BipartiteGraph:
    """Two completely isolated query vertices plus unrelated structure."""
    return BipartiteGraph(4, 6, [(2, 0), (2, 1), (3, 4)])


@pytest.fixture()
def complete_graph() -> BipartiteGraph:
    return BipartiteGraph(4, 5, [(u, l) for u in range(4) for l in range(5)])


class TestDegenerateGraphs:
    @pytest.mark.parametrize("name", LDP_NAMES)
    def test_isolated_query_vertices(self, isolated_pair_graph, name):
        """Degree-0 vertices must be estimable (true C2 = 0)."""
        # hll-view's 31-symbol k-RR inversion is only informative at
        # larger budgets (see docs/sketch-guide.md); query it there.
        epsilon = 8.0 if name == "hll-view" else 2.0
        result = get_estimator(name).estimate(
            isolated_pair_graph, Layer.UPPER, 0, 1, epsilon, rng=3
        )
        assert np.isfinite(result.value)
        # With no signal everything is noise around zero.
        assert abs(result.value) < 50

    @pytest.mark.parametrize(
        "name",
        [
            n for n in LDP_NAMES
            if ExecutionMode.MATERIALIZE
            in get_estimator(n).supported_modes
        ],
    )
    def test_complete_bipartite(self, complete_graph, name):
        """Full overlap: estimates concentrate near C2 = n_lower."""
        result = get_estimator(name).estimate(
            complete_graph, Layer.UPPER, 0, 1, 30.0, rng=4,
            mode=ExecutionMode.MATERIALIZE,
        )
        assert result.value == pytest.approx(5, abs=1.0)

    @pytest.mark.parametrize("name", ["bloom-view", "voc-view", "hll-view"])
    def test_complete_bipartite_sketch_views(self, complete_graph, name):
        """Sketch views concentrate in the mean (hash randomness keeps a
        single voc draw wide; the seed average must still land on C2)."""
        vals = [
            get_estimator(name).estimate(
                complete_graph, Layer.UPPER, 0, 1, 30.0, rng=seed
            ).value
            for seed in range(30)
        ]
        assert np.mean(vals) == pytest.approx(5, abs=1.0)

    def test_single_opposite_vertex(self):
        g = BipartiteGraph(3, 1, [(0, 0), (1, 0)])
        result = get_estimator("oner").estimate(g, Layer.UPPER, 0, 1, 2.0, rng=5)
        assert np.isfinite(result.value)

    def test_two_vertex_layer(self, expect_hll_floor):
        g = BipartiteGraph(2, 3, [(0, 0), (1, 0)])
        for name in LDP_NAMES:
            with expect_hll_floor(name, 2.0):
                result = get_estimator(name).estimate(
                    g, Layer.UPPER, 0, 1, 2.0, rng=6
                )
            assert np.isfinite(result.value), name

    def test_empty_opposite_layer_rejected_gracefully(self):
        g = BipartiteGraph(3, 0)
        # The candidate pool is empty; estimates are trivially zero-noise
        # for RR (nothing to perturb) but the protocol must not crash.
        result = get_estimator("oner").estimate(g, Layer.UPPER, 0, 1, 2.0, rng=7)
        assert result.value == pytest.approx(0.0)


class TestExtremeBudgets:
    def test_tiny_epsilon_still_valid(self, small_graph, expect_hll_floor):
        for name in LDP_NAMES:
            with expect_hll_floor(name, 0.01):
                result = get_estimator(name).estimate(
                    small_graph, Layer.UPPER, 0, 1, 0.01, rng=8
                )
            assert np.isfinite(result.value), name
            assert result.transcript.max_epsilon_spent <= 0.01 + 1e-9

    def test_zero_epsilon_rejected(self, small_graph):
        for name in LDP_NAMES:
            with pytest.raises((PrivacyError, ValueError)):
                get_estimator(name).estimate(small_graph, Layer.UPPER, 0, 1, 0.0)

    def test_negative_epsilon_rejected(self, small_graph):
        with pytest.raises(PrivacyError):
            ProtocolSession(small_graph, Layer.UPPER, 0, 1, -1.0)

    def test_nan_epsilon_rejected(self, small_graph):
        with pytest.raises(PrivacyError):
            ProtocolSession(small_graph, Layer.UPPER, 0, 1, float("nan"))


class TestHostileInputs:
    def test_estimator_rejects_out_of_range_vertex(self, small_graph):
        with pytest.raises(GraphError):
            get_estimator("oner").estimate(small_graph, Layer.UPPER, 0, 10**6, 2.0)

    def test_registry_error_lists_known_names(self):
        with pytest.raises(ReproError) as exc:
            get_estimator("does-not-exist")
        assert "multir-ds" in str(exc.value)

    def test_builder_rejects_unhashable_names(self):
        from repro.graph.builder import GraphBuilder

        with pytest.raises(TypeError):
            GraphBuilder().add_edge([1, 2], "x")

    def test_read_edge_list_missing_file(self, tmp_path):
        from repro.graph.io import read_edge_list

        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "nope.tsv")

    def test_session_rejects_lower_query_on_upper_session(self, small_graph):
        session = ProtocolSession(small_graph, Layer.UPPER, 0, 1, 2.0, rng=1)
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            session.randomized_response(55, 1.0)


class TestSeedStability:
    """Estimates must be bit-stable across runs for fixed seeds — the
    reproducibility contract the manifests rely on."""

    @pytest.mark.parametrize("name", LDP_NAMES)
    def test_repeatable_across_fresh_generators(
        self, small_graph, name, expect_hll_floor
    ):
        est = get_estimator(name)
        with expect_hll_floor(name, 2.0):
            a = est.estimate(small_graph, Layer.UPPER, 2, 5, 2.0, rng=999)
            b = est.estimate(small_graph, Layer.UPPER, 2, 5, 2.0, rng=999)
        assert a.value == b.value
        assert a.communication_bytes == b.communication_bytes

    def test_different_seeds_differ(self, small_graph):
        est = get_estimator("multir-ds")
        values = {
            est.estimate(small_graph, Layer.UPPER, 2, 5, 2.0, rng=s).value
            for s in range(8)
        }
        assert len(values) > 1
