"""Registry-wide estimator contract suite.

Every algorithm in :mod:`repro.estimators.registry` — including any added
later — is exercised under every execution mode it declares, against one
shared contract:

* **registration** — every concrete :class:`CommonNeighborEstimator`
  subclass in the package must be registered under its ``name`` (a new
  estimator that forgets to register fails the suite);
* **determinism** — a fixed seed reproduces the estimate bit-for-bit;
* **budget** — the transcript's realized ``max_epsilon_spent`` matches the
  class's ``declared_epsilon_cost`` × requested ε;
* **serialization** — results round-trip through
  ``to_dict``/``json``/``from_dict`` losslessly;
* **mode discipline** — unsupported execution modes are rejected, never
  silently coerced;
* **unbiasedness** — estimators declaring ``unbiased = True`` match the
  exact count in expectation once the noise is turned nearly off.

The suite discovers its parameter grid from the registry at collection
time, so registering a new estimator automatically subjects it to every
check below.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.estimators
from repro.errors import ProtocolError
from repro.estimators.base import CommonNeighborEstimator, EstimateResult
from repro.estimators.registry import ESTIMATOR_FACTORIES, get_estimator
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.protocol.session import ExecutionMode

pytestmark = pytest.mark.timeout(120)

# A query pair with a non-trivial exact count on the shared small_graph
# fixture (random_bipartite(60, 50, 500, rng=7)): C2(3, 9) = 4.
PAIR = (3, 9)

ALL_NAMES = sorted(ESTIMATOR_FACTORIES)
NAME_MODE = [
    pytest.param(name, mode, id=f"{name}-{mode.value}")
    for name in ALL_NAMES
    for mode in get_estimator(name).supported_modes
]
UNBIASED_PRIVATE = [
    name
    for name in ALL_NAMES
    if get_estimator(name).unbiased and get_estimator(name).declared_epsilon_cost > 0
]


def _concrete_estimator_classes() -> dict[str, type[CommonNeighborEstimator]]:
    """Import every module under repro.estimators and collect concrete classes.

    A class is part of the registry contract when it subclasses
    :class:`CommonNeighborEstimator` and overrides ``name`` (shared bases
    keep the sentinel ``"abstract"``).
    """
    classes: dict[str, type[CommonNeighborEstimator]] = {}
    for info in pkgutil.iter_modules(repro.estimators.__path__):
        module = importlib.import_module(f"repro.estimators.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, CommonNeighborEstimator)
                and obj.name != "abstract"
                and not inspect.isabstract(obj)
            ):
                classes[obj.name] = obj
    return classes


def test_every_concrete_estimator_is_registered():
    classes = _concrete_estimator_classes()
    missing = set(classes) - set(ESTIMATOR_FACTORIES)
    assert not missing, f"estimators defined but not registered: {sorted(missing)}"
    stale = set(ESTIMATOR_FACTORIES) - set(classes)
    assert not stale, f"registry names without a concrete class: {sorted(stale)}"
    for name, cls in classes.items():
        assert isinstance(get_estimator(name), cls)


def test_sketch_view_estimators_are_registered():
    # The sublinear-memory release path must stay queryable by name.
    assert {"bloom-view", "voc-view", "hll-view"} <= set(ESTIMATOR_FACTORIES)


def test_registry_names_match_class_names():
    for name, factory in ESTIMATOR_FACTORIES.items():
        assert factory().name == name


@pytest.mark.parametrize("name, mode", NAME_MODE)
def test_supported_mode_runs_and_is_deterministic(
    small_graph, name, mode, expect_hll_floor
):
    est = get_estimator(name)
    u, w = PAIR
    with expect_hll_floor(name, 2.0):
        results = [
            est.estimate(
                small_graph, Layer.UPPER, u, w, 2.0,
                rng=np.random.default_rng(1234), mode=mode,
            )
            for _ in range(2)
        ]
    assert np.isfinite(results[0].value)
    assert results[0].value == results[1].value
    assert results[0].to_dict() == results[1].to_dict()


@pytest.mark.parametrize("name, mode", NAME_MODE)
def test_budget_debit_matches_declared_cost(
    small_graph, name, mode, expect_hll_floor
):
    est = get_estimator(name)
    epsilon = 1.7
    with expect_hll_floor(name, epsilon):
        result = est.estimate(
            small_graph, Layer.UPPER, *PAIR, epsilon,
            rng=np.random.default_rng(9), mode=mode,
        )
    spent = result.transcript.max_epsilon_spent if result.transcript else 0.0
    assert spent == pytest.approx(est.declared_epsilon_cost * epsilon, abs=1e-9)


@pytest.mark.parametrize("name, mode", NAME_MODE)
def test_result_serialization_round_trip(
    small_graph, name, mode, expect_hll_floor
):
    est = get_estimator(name)
    with expect_hll_floor(name, 2.0):
        result = est.estimate(
            small_graph, Layer.UPPER, *PAIR, 2.0,
            rng=np.random.default_rng(77), mode=mode,
        )
    payload = result.to_dict()
    wire = json.loads(json.dumps(payload))  # must survive real JSON
    rebuilt = EstimateResult.from_dict(wire)
    assert rebuilt.value == result.value
    assert rebuilt.algorithm == result.algorithm
    assert rebuilt.layer is result.layer
    assert (rebuilt.u, rebuilt.w) == (result.u, result.w)
    assert rebuilt.to_dict() == payload
    if result.transcript is not None:
        assert rebuilt.transcript.mode is result.transcript.mode
        assert rebuilt.transcript.rounds == result.transcript.rounds
        assert rebuilt.transcript.upload_bytes == result.transcript.upload_bytes


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unsupported_modes_are_rejected(small_graph, name):
    est = get_estimator(name)
    unsupported = [m for m in ExecutionMode if m not in est.supported_modes]
    assert unsupported, f"{name} claims to support every mode"
    for mode in unsupported:
        with pytest.raises((ProtocolError, ValueError)):
            est.estimate(small_graph, Layer.UPPER, *PAIR, 2.0, mode=mode)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_identical_vertices_are_rejected(small_graph, name):
    with pytest.raises((ProtocolError, ValueError)):
        get_estimator(name).estimate(small_graph, Layer.UPPER, 3, 3, 2.0)


@pytest.mark.parametrize("name", UNBIASED_PRIVATE)
def test_unbiased_estimators_match_exact_at_near_zero_noise(small_graph, name):
    """With ε = 50 the noise is nearly off: E[f] must be the exact C2."""
    u, w = PAIR
    true = get_estimator("exact").estimate(small_graph, Layer.UPPER, u, w).value
    est = get_estimator(name)
    values = np.array([
        est.estimate(
            small_graph, Layer.UPPER, u, w, 50.0,
            rng=np.random.default_rng(1000 + i),
        ).value
        for i in range(200)
    ])
    se = values.std(ddof=1) / np.sqrt(values.size)
    # 5 standard errors plus a small absolute floor for the exact-replay
    # estimators whose sample variance is zero at this ε.
    assert abs(values.mean() - true) <= 5.0 * se + 0.05


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_contract_classvars(name):
    est = get_estimator(name)
    assert est.supported_modes, f"{name} declares no supported modes"
    assert all(isinstance(m, ExecutionMode) for m in est.supported_modes)
    assert est.declared_epsilon_cost >= 0.0
    assert isinstance(est.unbiased, bool)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    epsilon=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contract_holds_for_arbitrary_budgets(
    name, epsilon, seed, expect_hll_floor
):
    """Determinism + serialization + budget, property-style over (ε, seed)."""
    graph = random_bipartite(30, 24, 180, rng=3)
    est = get_estimator(name)
    run = lambda: est.estimate(  # noqa: E731
        graph, Layer.UPPER, 1, 4, epsilon, rng=np.random.default_rng(seed)
    )
    with expect_hll_floor(name, epsilon):
        first, second = run(), run()
    assert first.value == second.value
    assert EstimateResult.from_dict(
        json.loads(json.dumps(first.to_dict()))
    ).to_dict() == first.to_dict()
    spent = first.transcript.max_epsilon_spent if first.transcript else 0.0
    assert spent <= est.declared_epsilon_cost * epsilon + 1e-9
