"""Chaos suite: every injected failure schedule is invisible in the bits.

The resilience contract under test (``docs/resilience-guide.md``): a
shard task is a pure function of ``(graph, range, epsilon, entropy,
epoch)``, so killed workers, stalled workers, corrupted payloads — any
:class:`~repro.engine.faults.FaultPlan` at all — must yield output
byte-identical to the fault-free keyed pass, charge the privacy ledger
exactly once, and leave no forked worker running after ``close()``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.engine.bulkrr import keyed_bulk_randomized_response
from repro.engine.core import BatchQueryEngine
from repro.engine.faults import FAULT_PLAN_ENV, FaultAction, FaultPlan
from repro.engine.planner import ShardPlan, plan_shards
from repro.engine.sharded import ShardedRunner, fork_available
from repro.errors import PrivacyError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
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
def test_byte_identity_survives_schedule(
    graph, plan, reference, fault_plan, fork_workers
):
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
        fork_workers.hold(runner.transport)
    fork_workers.assert_exited()


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


# Each fault kind with its counter and the most tasks it can fail: a
# poisoned answer fails only itself, while a worker death breaks its
# pool and every task in flight there.
CLASSIFIED = [
    pytest.param(FaultPlan.poison_shards([0]), "payload_errors", 1, id="poison"),
    pytest.param(
        FaultPlan.kill_shards([0], after_write=True), "worker_deaths", SHARDS,
        id="kill-after-write",
    ),
]


@needs_fork
@pytest.mark.parametrize("fault_plan, booked, most", CLASSIFIED)
def test_fault_counters_classify_the_failure(
    graph, plan, reference, fault_plan, booked, most
):
    """A fault is booked under its own counter and no other. A fork
    worker killed after its draw dies before answering, so the parent
    sees a broken pool, never a bad payload or a timeout."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.01,
    ) as runner:
        with fault_plan.active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert np.array_equal(drawn.columns, reference[1])
        counts = {
            key: drawn.faults[key]
            for key in ("timeouts", "worker_deaths", "payload_errors")
        }
        assert 1 <= counts.pop(booked) <= most
        assert not any(counts.values())
        assert drawn.faults["retries"] >= 1
        assert len(drawn.faults["backoff_s"]) >= 1
        assert not drawn.faults["degraded_ranges"]
        assert runner.fault_totals[booked] == drawn.faults[booked]


@needs_fork
def test_delay_trips_deadline_and_zombie_worker_exits_by_close(
    graph, plan, fork_workers
):
    """A stalled worker times out; close() joins the zombie."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.3, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 1.5).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        fork_workers.hold(runner.transport)
    assert not runner.transport._retired
    fork_workers.assert_exited()


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
def test_close_is_bounded_with_a_wedged_worker(
    graph, plan, monkeypatch, fork_workers
):
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
        fork_workers.hold(runner.transport)
        start = time.monotonic()
    elapsed = time.monotonic() - start  # `with` exit ran close()
    assert elapsed < 5.0, "close() must not inherit a wedged worker's hang"
    fork_workers.assert_exited()


@needs_fork
def test_recurring_faults_do_not_grow_the_retired_pools(
    graph, plan, fork_workers
):
    """Regression: every faulted round retires a pool, so a long-running
    server under recurring faults must drop retired pools once their
    workers exit instead of keeping them until close()."""
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        transport = runner.transport
        for _ in range(3):
            with FaultPlan.kill_shards([0]).active():
                drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            assert drawn.faults["worker_deaths"] >= 1
        # Once the killed pools' workers have exited, the next dispatch
        # drops their pools: nothing accumulates across faulted draws.
        # (That draw may fault again — the live pool forked while the
        # plan was installed — and retire a pool of its own.)
        retired = list(transport._retired)
        deadline = time.monotonic() + 10.0
        while any(proc.exitcode is None for procs in retired for proc in procs):
            assert time.monotonic() < deadline, "killed pools never exited"
            time.sleep(0.05)
        runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert all(procs not in retired for procs in transport._retired)
        fork_workers.hold(transport)
    fork_workers.assert_exited()


@needs_fork
def test_empty_fragment_is_verified_and_counted(fork_workers):
    """An answer with no noisy ids still carries a checksum. Isolated
    vertices at a flip probability that underflows draw an empty
    fragment; poisoning it flips the checksum's low bit (there is no
    word to corrupt), and the parent catches and retries it like any
    other bad payload."""
    eps = 64.0
    lonely = BipartiteGraph(30, 20, [(u, u % 20) for u in range(15, 30)])
    verts = np.arange(30, dtype=np.int64)
    split = ShardPlan(
        vertices=verts,
        offsets=np.array([0, 15, 30], dtype=np.int64),
        est_bytes=np.zeros(2, dtype=np.int64),
        mem_bytes=None,
    )
    ref_indptr, ref_columns = keyed_bulk_randomized_response(
        lonely, Layer.UPPER, verts, eps, entropy=ENTROPY, epoch=0
    )
    assert ref_indptr[15] == 0 and ref_columns.size > 0
    with ShardedRunner(
        lonely, Layer.UPPER,
        max_workers=2, timeout_s=5.0, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.poison_shards([0]).active():
            drawn = runner.draw(split, eps, entropy=ENTROPY, epoch=0)
        assert np.array_equal(drawn.indptr, ref_indptr)
        assert np.array_equal(drawn.columns, ref_columns)
        assert drawn.faults["payload_errors"] == 1
        assert drawn.faults["worker_deaths"] == 0
        empty = drawn.shards[0]
        assert empty["noisy_ids"] == 0 and empty["attempts"] == 2
        assert not empty["degraded"]
        fork_workers.hold(runner.transport)
    fork_workers.assert_exited()


@needs_fork
def test_poisoned_reduced_answer_is_caught(graph, plan, fork_workers):
    """A shard whose every pair is local answers sizes + N1 only. Its
    CRC covers both, so a poisoned reduced answer is caught, counted and
    retried, and the redrawn N1 equals the inline reduction."""
    pairs = [
        (a, a + 1) for lo, hi in plan.ranges() for a in range(lo, hi - 1, 2)
    ]
    ia, ib = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    kwargs = dict(
        entropy=ENTROPY, epoch=0, ia=ia, ib=ib, domain=graph.num_lower
    )
    with ShardedRunner(graph, Layer.UPPER, max_workers=1) as runner:
        ref = runner.run_workload(plan, EPS, **kwargs)
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=2.0, max_retries=2, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.poison_shards([0]).active():
            drawn = runner.run_workload(plan, EPS, **kwargs)
        fork_workers.hold(runner.transport)
    assert drawn.transport["reduced_shards"] == SHARDS
    np.testing.assert_array_equal(drawn.n1, ref.n1)
    np.testing.assert_array_equal(drawn.sizes, ref.sizes)
    assert drawn.faults["payload_errors"] == 1
    assert drawn.faults["worker_deaths"] == 0
    fork_workers.assert_exited()


@needs_fork
def test_retired_pool_tracks_its_zombie_until_close(
    graph, plan, reference, fork_workers
):
    """Regression: ``shutdown()`` empties the executor's process map, so a
    retired pool looked dead at once and close() joined nobody — the
    stalled worker outlived close(). The workers are kept with the
    pool."""
    ref_indptr, ref_columns = reference
    with ShardedRunner(
        graph, Layer.UPPER,
        max_workers=2, timeout_s=0.3, max_retries=1, backoff_base_s=0.0,
    ) as runner:
        with FaultPlan.delay_shards([0], 3.0).active():
            drawn = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        assert drawn.faults["timeouts"] >= 1
        assert np.array_equal(drawn.columns, ref_columns)
        # The stalled worker is still asleep: its retired pool is still
        # tracked, with the worker's handle.
        retired = runner.transport._retired
        assert retired
        assert any(proc.is_alive() for procs in retired for proc in procs)
        fork_workers.hold(runner.transport)
    # close() joined the zombie and dropped its pool.
    assert not runner.transport._retired
    fork_workers.assert_exited()


@needs_fork
def test_genuine_errors_are_not_retried(graph, plan, fork_workers):
    """A deterministic bug (bad epsilon) propagates instead of retrying."""
    with ShardedRunner(
        graph, Layer.UPPER, max_workers=2, timeout_s=5.0, max_retries=3
    ) as runner:
        with pytest.raises(PrivacyError):
            runner.draw(plan, -1.0, entropy=ENTROPY, epoch=0)
        assert runner.fault_totals["retries"] == 0
        fork_workers.hold(runner.transport)
    fork_workers.assert_exited()


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
def test_single_charge_accounting_under_faults(graph, fork_workers):
    """Fault vs no-fault runs: identical estimates, identical spend."""
    pairs = sample_query_pairs(graph, Layer.UPPER, 12, rng=5)

    def run(fault_plan):
        ledger = PrivacyLedger()
        with BatchQueryEngine(
            mode=ExecutionMode.MATERIALIZE,
            shards=SHARDS, shard_timeout_s=2.0, shard_retries=2,
        ) as engine:
            runner = engine._shard_runner(graph, Layer.UPPER)
            runner.backoff_base_s = 0.01
            if fault_plan is not None:
                with fault_plan.active():
                    result = engine.estimate_pairs(
                        graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                    )
            else:
                result = engine.estimate_pairs(
                    graph, Layer.UPPER, pairs, EPS, rng=99, ledger=ledger
                )
            fork_workers.hold(runner.transport)
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
    fork_workers.assert_exited()
