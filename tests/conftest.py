"""Shared fixtures for the test suite, plus pinned hypothesis profiles."""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.engine.sketches import HLL_EPSILON_FLOOR
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.generators import random_bipartite

# CI pins the "ci" profile (HYPOTHESIS_PROFILE=ci) so property tests —
# including the chi-square statistical harness — replay the exact same
# examples on every run instead of flaking on a fresh random draw.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_configure(config: pytest.Config) -> None:
    # The CI contract-suite job installs pytest-timeout and enforces these
    # limits; local runs without the plugin must stay warning-clean, so
    # the marker is registered here (inert when the plugin is absent).
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock limit, enforced when the "
        "pytest-timeout plugin is installed (CI); inert without it",
    )


@pytest.fixture(scope="session")
def expect_hll_floor():
    """``expect_hll_floor(kind, epsilon)``: a context that asserts the HLL
    stability-floor ``RuntimeWarning`` when ``kind`` (a sketch family or
    a registry estimator name) is hll below the floor, and is a no-op
    otherwise. Session-scoped, so hypothesis tests can use it too."""

    def expect(kind: str, epsilon: float):
        if kind in ("hll", "hll-view") and epsilon < HLL_EPSILON_FLOOR:
            return pytest.warns(RuntimeWarning, match="stability floor")
        return contextlib.nullcontext()

    return expect


class ForkWorkerWatch:
    """The worker processes a fork transport forked, and proof they exited.

    :meth:`hold` records the workers the transport holds at that moment
    (its live pool's and every retired pool's); :meth:`assert_exited`
    joins each under a bounded wait and fails on any still running. The
    check reads these handles rather than
    ``multiprocessing.active_children()``: the pool's manager thread may
    reap a pid at the same moment, and that snapshot can then report a
    reaped worker alive.
    """

    def __init__(self):
        self.procs: list = []

    def hold(self, transport) -> None:
        pool = transport._pool_box[0]
        if pool is not None:
            self.procs.extend((pool._processes or {}).values())
        for procs in transport._retired:
            self.procs.extend(procs)

    def assert_exited(self, timeout_s: float = 10.0) -> None:
        deadline = time.monotonic() + timeout_s
        for proc in self.procs:
            # exitcode stays None for a moment when the manager thread is
            # mid-reap, so poll until the deadline rather than once.
            while proc.exitcode is None and time.monotonic() < deadline:
                proc.join(timeout=0.05)
        alive = [proc.pid for proc in self.procs if proc.exitcode is None]
        assert not alive, f"forked workers outlived close(): {alive}"


@pytest.fixture()
def fork_workers() -> ForkWorkerWatch:
    return ForkWorkerWatch()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240611)


@pytest.fixture()
def tiny_graph() -> BipartiteGraph:
    """The paper's Fig. 1-style example: 2 upper query vertices sharing
    3 common lower neighbors out of a pool of 8."""
    edges = [
        (0, 0), (0, 1), (0, 3),            # u0 -> v0, v1, v3
        (1, 0), (1, 1), (1, 3), (1, 7),    # u1 -> v0, v1, v3, v7
        (2, 2), (2, 4),                    # an unrelated upper vertex
    ]
    return BipartiteGraph(3, 8, edges)


@pytest.fixture()
def small_graph() -> BipartiteGraph:
    return random_bipartite(60, 50, 500, rng=7)


@pytest.fixture()
def medium_graph() -> BipartiteGraph:
    return random_bipartite(300, 240, 2600, rng=11)


@pytest.fixture()
def query_layer() -> Layer:
    return Layer.UPPER
