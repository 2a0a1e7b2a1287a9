"""Chaos suite: every injected failure schedule is invisible in the bits.

The resilience contract under test (``docs/resilience-guide.md``): a
shard task is a pure function of ``(graph, range, epsilon, entropy,
epoch)``, so killed workers, stalled workers, corrupted payloads — any
:class:`~repro.engine.faults.FaultPlan` at all — must yield output
byte-identical to the fault-free keyed pass, charge the privacy ledger
exactly once, and leave no ``SharedMemory`` segment behind.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.engine.bulkrr import keyed_bulk_randomized_response
from repro.engine.core import BatchQueryEngine
from repro.engine.faults import FAULT_PLAN_ENV, FaultAction, FaultPlan
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner, fork_available
from repro.engine.transport import ForkTransport
from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs
from repro.privacy.accountant import PrivacyLedger
from repro.protocol.session import ExecutionMode

EPS = 2.0
ENTROPY = 20240611
SHARDS = 3

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fault injection needs forked worker pools"
)


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(90, 60, 700, rng=23)


@pytest.fixture(scope="module")
def plan(graph):
    return plan_shards(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS, shards=SHARDS
    )


@pytest.fixture(scope="module")
def reference(graph):
    return keyed_bulk_randomized_response(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS,
        entropy=ENTROPY, epoch=0,
    )


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no installed fault plan."""
    FaultPlan.uninstall()
    yield
    FaultPlan.uninstall()


def shm_residue() -> list[str]:
    """Runner-created segments currently visible in /dev/shm."""
    prefix = f"/dev/shm/repro_{os.getpid():x}_"
    return glob.glob(prefix + "*")


def plant_empty_segment(name: str) -> None:
    """Create the 0-byte segment a worker terminated between ``shm_open``
    and ``ftruncate`` leaves behind."""
    import _posixshmem

    fd = _posixshmem.shm_open(
        "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
    )
    os.close(fd)


def remove_segment(name: str) -> None:
    import _posixshmem

    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# FaultPlan mechanics (no processes involved)
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown fault kind"):
            FaultAction(kind="segfault")

    def test_rejects_negative_delay(self):
        with pytest.raises(ProtocolError, match="delay_s"):
            FaultAction(kind="delay", delay_s=-1.0)

    def test_matches_shard_and_attempt(self):
        action = FaultAction(kind="kill", shard=2, attempts=(0, 1))
        assert action.matches(2, 0) and action.matches(2, 1)
        assert not action.matches(2, 2)
        assert not action.matches(1, 0)

    def test_none_wildcards_match_everything(self):
        action = FaultAction(kind="kill", shard=None, attempts=None)
        assert action.matches(0, 0) and action.matches(7, 5)

    def test_action_for_returns_first_match(self):
        plan = FaultPlan(
            (
                FaultAction(kind="delay", shard=1, delay_s=0.5),
                FaultAction(kind="kill", shard=None, attempts=None),
            )
        )
        assert plan.action_for(1, 0).kind == "delay"
        assert plan.action_for(0, 3).kind == "kill"

    def test_mutation_sentinel_is_disjoint_from_shard_tasks(self):
        """A plan keyed on the MUTATE sentinel fires only for mutation
        pushes (the worker looks it up under shard -2, sequence as the
        attempt) and never intercepts ordinary shard dispatches."""
        from repro.engine.worker import MUTATE_FAULT_SHARD

        plan = FaultPlan.kill_shards([MUTATE_FAULT_SHARD])
        assert plan.action_for(MUTATE_FAULT_SHARD, 0).kind == "kill"
        assert plan.action_for(MUTATE_FAULT_SHARD, 1) is None
        for shard in range(4):  # real shard tasks are untouched
            assert plan.action_for(shard, 0) is None

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultAction(kind="poison", shard=0),
                FaultAction(kind="delay", shard=None, attempts=None, delay_s=1.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_transport(self):
        plan = FaultPlan.kill_shards([1, 2], attempts=(0,))
        assert FaultPlan.from_env() is None
        with plan.active():
            assert os.environ[FAULT_PLAN_ENV]
            assert FaultPlan.from_env() == plan
        assert FaultPlan.from_env() is None

    def test_uninstall_is_idempotent(self):
        FaultPlan.uninstall()
        FaultPlan.uninstall()
        assert FaultPlan.from_env() is None


# ----------------------------------------------------------------------
# Runner parameter validation
# ----------------------------------------------------------------------
class TestRunnerValidation:
    def test_rejects_bad_timeout(self, graph):
        with pytest.raises(ProtocolError, match="timeout_s"):
            ShardedRunner(graph, Layer.UPPER, timeout_s=0)

    def test_rejects_negative_retries(self, graph):
        with pytest.raises(ProtocolError, match="max_retries"):
            ShardedRunner(graph, Layer.UPPER, max_retries=-1)

    def test_rejects_negative_backoff(self, graph):
        with pytest.raises(ProtocolError, match="backoff"):
            ShardedRunner(graph, Layer.UPPER, backoff_base_s=-0.1)


# ----------------------------------------------------------------------
# The chaos schedules: byte-identity survives every failure plan
# ----------------------------------------------------------------------
SCHEDULES = [
    pytest.param(FaultPlan.kill_shards([0]), id="kill-first"),
    pytest.param(FaultPlan.kill_shards([SHARDS - 1]), id="kill-last"),
    pytest.param(
        FaultPlan.kill_shards(list(range(SHARDS - 1))), id="kill-all-but-one"
    ),
    pytest.param(
        FaultPlan.kill_shards([1], after_write=True), id="kill-after-write"
    ),
    pytest.param(FaultPlan.delay_shards([0], 2.5), id="delay-past-deadline"),
    pytest.param(FaultPlan.poison_shards([2]), id="poison-payload"),
    pytest.param(
        FaultPlan.poison_shards(None, attempts=(0, 1)), id="poison-twice-all"
    ),
    pytest.param(
        FaultPlan.kill_shards(None, attempts=None), id="kill-all-every-attempt"
    ),
]


@needs_fork
@pytest.mark.parametrize("fault_plan", SCHEDULES)
def test_byte_identity_survives_schedule(graph, plan, reference, fault_plan):
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=1.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with fault_plan.active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert np.array_equal(drawn.indptr, ref_indptr)
        assert np.array_equal(drawn.columns, ref_columns)
        injected = any(
            drawn.faults[key]
            for key in ("retries", "timeouts", "worker_deaths", "payload_errors")
        ) or drawn.faults["degraded_ranges"]
        assert injected, "the schedule should have produced observable faults"
    assert not runner._segments, "segment registry must be empty after close"
    assert not shm_residue(), "no /dev/shm segment may outlive the runner"


@needs_fork
def test_kill_everything_degrades_to_inline(graph, plan, reference):
    """Retry exhaustion falls back to the parent and still finishes."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.kill_shards(None, attempts=None).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert sorted(drawn.faults["degraded_ranges"]) == plan.ranges()
    assert all(shard["degraded"] for shard in drawn.shards)


@needs_fork
def test_fault_counters_classify_the_failure(graph, plan):
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=1.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with FaultPlan.poison_shards([0]).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["payload_errors"] == 1
        assert drawn.faults["worker_deaths"] == 0
        assert drawn.faults["retries"] >= 1
        assert len(drawn.faults["backoff_s"]) >= 1
        assert runner.fault_totals["payload_errors"] == 1


@needs_fork
def test_delay_trips_deadline_and_zombie_segment_is_reclaimed(graph, plan):
    """A stalled worker times out; its late segment never leaks."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.3, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 1.5).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        # close() joins the zombie before the final sweep.
    assert not runner._segments
    assert not shm_residue()


@needs_fork
def test_kill_after_write_reclaims_orphaned_segment(graph, plan):
    """Regression: a worker dying between shm.create and the parent's
    fetch used to leak the segment; the parent-owned name registry now
    sweeps it on the failure path."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with FaultPlan.kill_shards([0], after_write=True).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["reclaimed_segments"] >= 1
        assert not shm_residue(), "orphan must be swept during the draw"
    assert not runner._segments


@needs_fork
def test_queued_tasks_do_not_spuriously_time_out(graph, reference):
    """The deadline bounds *execution*, not queue position: with more
    ranges than workers, a healthy task queued behind a full first wave
    must not be declared timed out (the round waits one deadline per
    execution wave)."""
    ref_indptr, ref_columns = reference
    plan4 = plan_shards(
        graph, Layer.UPPER, np.arange(90, dtype=np.int64), EPS, shards=4
    )
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.45, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        # Every task runs ~0.25s, so the second wave finishes ~0.5s
        # after dispatch — past one deadline, comfortably inside the
        # two-wave round budget of 0.9s.
        with FaultPlan.delay_shards(None, 0.25).active():
            drawn = runner.draw(plan4, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert drawn.faults["timeouts"] == 0
    assert drawn.faults["retries"] == 0
    assert not drawn.faults["degraded_ranges"]


@needs_fork
def test_close_is_bounded_with_a_wedged_worker(graph, plan, monkeypatch):
    """Regression: close() used to join retired pools with ``wait=True``,
    so a permanently stuck worker hung shutdown forever. The bounded
    join terminates stragglers instead."""
    import repro.engine.transport as transport_mod

    monkeypatch.setattr(transport_mod, "_JOIN_GRACE_S", 0.3)
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.2, max_retries=0, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 60.0).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        start = time.monotonic()
    elapsed = time.monotonic() - start  # `with` exit ran close()
    assert elapsed < 5.0, "close() must not inherit a wedged worker's hang"
    assert not runner._segments
    assert not shm_residue()


@needs_fork
def test_recurring_faults_do_not_grow_the_segment_registry(graph, plan):
    """Regression: names registered for dispatches whose worker died
    before ``shm.create`` stayed in the registry until close(). Retired
    pools are now reaped once their workers exit, dropping names nobody
    can ever create, so a long-running server under recurring faults
    keeps a bounded registry."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        for _ in range(3):
            with FaultPlan.kill_shards([0]).active():
                runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        # Give each retired pool's surviving workers a moment to exit,
        # then reap: nothing may accumulate across faulted draws.
        deadline = time.monotonic() + 5.0
        while runner._segments and time.monotonic() < deadline:
            runner._reap_retired()
            time.sleep(0.05)
        assert not runner._segments
        assert not runner._retired
    assert not shm_residue()


@needs_fork
def test_empty_segment_is_swept_and_counted():
    """Regression: a 0-byte segment cannot be mapped, so the sweep used to
    raise ``ValueError`` on it, abort, and leak it. It is unlinked by
    name instead."""
    name = f"repro_{os.getpid():x}_empty_0_0"
    transport = ForkTransport(max_workers=2)
    plant_empty_segment(name)
    try:
        transport._segments.add(name)
        assert transport.sweep() == 1
        assert not transport._segments
        assert not os.path.exists(f"/dev/shm/{name}")
    finally:
        remove_segment(name)
        transport.close()


@needs_fork
def test_leaked_segment_does_not_shadow_a_new_runner(graph, plan):
    """Regression: segment names restarted at 1 in every transport, so a
    segment leaked under an earlier runner's first name made the next
    runner's worker fail with ``FileExistsError`` (booked as a worker
    death). Names are unique per process now."""
    planted = f"repro_{os.getpid():x}_1_0_0"
    plant_empty_segment(planted)
    try:
        with ShardedRunner(
            graph, Layer.UPPER,
            max_workers=2, timeout_s=30.0, max_retries=2, backoff_base_s=0.01,
        ) as runner:
            with FaultPlan.poison_shards([0]).active():
                drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            assert drawn.faults["payload_errors"] == 1
            assert drawn.faults["worker_deaths"] == 0
        assert not runner._segments
        assert shm_residue() == [f"/dev/shm/{planted}"]
    finally:
        remove_segment(planted)


@needs_fork
def test_retired_pool_tracks_its_zombie_until_close(graph, plan, reference):
    """Regression: ``shutdown()`` empties the executor's process map, so a
    retired pool looked dead at once, the name its stalled worker would
    still create left the registry, and close() joined nobody — the
    segment appeared after close. The workers are kept with the pool."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.3, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 3.0).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        assert np.array_equal(drawn.columns, ref_columns)
        # The stalled worker is still asleep: its pool and the name it
        # will write are both still tracked.
        assert runner._retired
        assert runner._segments
    # close() joined the zombie (it wrote its segment) and swept.
    assert not runner._retired
    assert not runner._segments
    assert not shm_residue()


@needs_fork
def test_genuine_errors_are_not_retried(graph, plan):
    """A deterministic bug (bad epsilon) propagates instead of retrying."""
    with ShardedRunner(
        graph, Layer.UPPER, max_workers=2, timeout_s=5.0, max_retries=3
    ) as runner:
        with pytest.raises(PrivacyError):
            runner.draw(plan, -1.0, entropy=ENTROPY, epoch=0)
        assert runner.fault_totals["retries"] == 0
    assert not runner._segments
    assert not shm_residue()


def test_inline_runner_ignores_fault_plans(graph, plan, reference):
    """A 1-worker runner never forks, so no fault can touch it."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
        with FaultPlan.kill_shards(None, attempts=None).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
    assert np.array_equal(drawn.indptr, ref_indptr)
    assert np.array_equal(drawn.columns, ref_columns)
    assert drawn.faults["retries"] == 0
    assert not drawn.faults["degraded_ranges"]


@needs_fork
def test_backoff_schedule_is_keyed_not_wallclock(graph, plan):
    """The same failure schedule replays the same backoff waits."""
    waits = []
    for _ in range(2):
        with ShardedRunner(
            graph, Layer.UPPER,
            max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.02,
        ) as runner:
            with FaultPlan.poison_shards([0], attempts=(0, 1)).active():
                drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            waits.append(tuple(drawn.faults["backoff_s"]))
    assert waits[0] == waits[1]
    assert len(waits[0]) == 2


# ----------------------------------------------------------------------
# Engine-level accounting: faults charge nothing extra
# ----------------------------------------------------------------------
@needs_fork
def test_single_charge_accounting_under_faults(graph):
    """Fault vs no-fault runs: identical estimates, identical spend."""
    pairs = sample_query_pairs(graph, Layer.UPPER, 12, rng=5)

    def run(fault_plan):
        ledger = PrivacyLedger()
        with BatchQueryEngine(
            mode=ExecutionMode.MATERIALIZE,
            shards=SHARDS, shard_timeout_s=2.0, shard_retries=2,
        ) as engine:
            engine._shard_runner(graph, Layer.UPPER).backoff_base_s = 0.01
            if fault_plan is not None:
                with fault_plan.active():
                    result = engine.estimate_pairs(
                        graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                    )
            else:
                result = engine.estimate_pairs(
                    graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                )
        return result, ledger

    clean, clean_ledger = run(None)
    chaos, chaos_ledger = run(FaultPlan.kill_shards([0]))
    np.testing.assert_array_equal(clean.values, chaos.values)
    np.testing.assert_array_equal(
        clean.noisy_intersections, chaos.noisy_intersections
    )
    assert clean_ledger.max_spent() == chaos_ledger.max_spent()
    assert clean.upload_bytes == chaos.upload_bytes
    faults = chaos.details["shards"]["faults"]
    assert faults["worker_deaths"] >= 1
    assert clean.details["shards"]["faults"]["retries"] == 0
    assert not shm_residue()
