"""Loopback-cluster integration: real socket workers on 127.0.0.1.

The distributed acceptance (``docs/distributed-guide.md``): a
:class:`SocketTransport` speaking to ``python -m repro.engine.worker``
processes over real TCP sockets produces output byte-identical to the
inline and fork substrates for the same ``(seed, epsilon, epoch)`` —
including while a chaos plan kills a worker mid-draw, because the keyed
draw makes re-dispatch to the survivors invisible in the bits. Workers
are genuine subprocesses launched through the module entrypoint and
discovered by parsing the ``LISTENING host:port`` announcement line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.core import BatchQueryEngine
from repro.engine.faults import FAULT_PLAN_ENV, FaultPlan
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import (
    ForkTransport,
    InlineTransport,
    SocketTransport,
    fork_available,
)
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs

EPS = 2.0
ENTROPY = 424_242
SRC = Path(__file__).resolve().parents[1] / "src"


def launch_worker(extra_env: dict | None = None):
    """Start one worker subprocess; return (process, "host:port")."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_PLAN_ENV, None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.engine.worker",
            "--listen",
            "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise RuntimeError(f"worker never announced itself: {line!r}")
    return proc, line.split(" ", 1)[1]


def stop_worker(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:  # pragma: no cover - wedged worker
        proc.kill()
        proc.wait(timeout=5)


@pytest.fixture(scope="module")
def cluster():
    """Two healthy loopback workers, shared by the whole module."""
    workers = [launch_worker() for _ in range(2)]
    yield [addr for _, addr in workers]
    for proc, _ in workers:
        stop_worker(proc)


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(70, 50, 520, rng=41)


@pytest.fixture(scope="module")
def plan(graph):
    return plan_shards(
        graph, Layer.UPPER, np.arange(70, dtype=np.int64), EPS, shards=3
    )


def draw_with(graph, plan, transport):
    with ShardedRunner(graph, Layer.UPPER, transport=transport) as runner:
        return runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)


# ----------------------------------------------------------------------
# Byte-identity across every substrate
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_draw_matches_inline_and_fork(self, graph, plan, cluster):
        ref = draw_with(graph, plan, InlineTransport())
        socketed = draw_with(graph, plan, SocketTransport(cluster))
        np.testing.assert_array_equal(ref.indptr, socketed.indptr)
        np.testing.assert_array_equal(ref.columns, socketed.columns)
        if fork_available():
            forked = draw_with(graph, plan, ForkTransport(max_workers=2))
            np.testing.assert_array_equal(ref.indptr, forked.indptr)
            np.testing.assert_array_equal(ref.columns, forked.columns)

    def test_run_workload_matches_and_reduces_in_worker(
        self, graph, plan, cluster
    ):
        """Same n1/sizes on every substrate — and the socket path reduces
        diagonal blocks in the workers, so fragments never travel."""
        offsets = plan.offsets
        ia, ib = [], []
        for s in range(plan.num_shards):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            for a in range(lo, min(lo + 4, hi - 1)):
                ia.append(a)
                ib.append(a + 1)
        ia = np.array(ia, dtype=np.int64)
        ib = np.array(ib, dtype=np.int64)
        kwargs = dict(
            entropy=ENTROPY, epoch=0, ia=ia, ib=ib, domain=graph.num_lower
        )
        draws = {}
        transports = {
            "inline": InlineTransport(),
            "socket": SocketTransport(cluster),
        }
        if fork_available():
            transports["fork"] = ForkTransport(max_workers=2)
        for name, transport in transports.items():
            with ShardedRunner(
                graph, Layer.UPPER, transport=transport
            ) as runner:
                draws[name] = runner.run_workload(plan, EPS, **kwargs)
        for name, draw in draws.items():
            np.testing.assert_array_equal(draws["inline"].n1, draw.n1)
            np.testing.assert_array_equal(draws["inline"].sizes, draw.sizes)
        detail = draws["socket"].transport
        assert detail["name"] == "socket"
        # Every pair is diagonal, so every shard reduced locally: no
        # fragment crossed the wire and the ledger shows the saving.
        assert detail["reduced_shards"] == plan.num_shards
        assert detail["fragment_shards"] == 0
        assert detail["reduced_pairs"] == ia.size
        assert detail["bytes_saved"] > 0
        assert detail["bytes_to_parent"] < draws["socket"].sizes.sum() * 8

    def test_cross_shard_pairs_ship_fragments(self, graph, plan, cluster):
        """A pair spanning two shards forces both fragments to the
        parent, whose block reduction must still match inline."""
        ia = np.array([0, 1], dtype=np.int64)
        ib = np.array([int(plan.offsets[1]) + 1, 2], dtype=np.int64)
        kwargs = dict(
            entropy=ENTROPY, epoch=1, ia=ia, ib=ib, domain=graph.num_lower
        )
        with ShardedRunner(
            graph, Layer.UPPER, transport=InlineTransport()
        ) as runner:
            ref = runner.run_workload(plan, EPS, **kwargs)
        with ShardedRunner(
            graph, Layer.UPPER, transport=SocketTransport(cluster)
        ) as runner:
            socketed = runner.run_workload(plan, EPS, **kwargs)
        np.testing.assert_array_equal(ref.n1, socketed.n1)
        assert socketed.transport["fragment_shards"] >= 2


# ----------------------------------------------------------------------
# Chaos: a worker dying mid-draw is invisible in the bits
# ----------------------------------------------------------------------
class TestChaos:
    def test_kill_mid_draw_redispatches_byte_identically(self, graph, plan):
        """One worker carries a kill plan for its first dispatch of shard
        0: executing it takes the whole process down mid-draw. The driver
        must mark it dead, re-dispatch its ranges to the survivor, and
        return bytes identical to the fault-free inline pass."""
        chaos_env = {
            FAULT_PLAN_ENV: FaultPlan.kill_shards([0]).to_json()
        }
        chaos_proc, chaos_addr = launch_worker(chaos_env)
        healthy_proc, healthy_addr = launch_worker()
        try:
            ref = draw_with(graph, plan, InlineTransport())
            transport = SocketTransport([chaos_addr, healthy_addr])
            with ShardedRunner(
                graph, Layer.UPPER, transport=transport
            ) as runner:
                draw = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
                totals = dict(runner.fault_totals)
            np.testing.assert_array_equal(ref.indptr, draw.indptr)
            np.testing.assert_array_equal(ref.columns, draw.columns)
            # The substrate death was seen, retried, and attributed.
            assert draw.faults["worker_deaths"] >= 1
            assert draw.faults["retries"] >= 1
            assert totals["socket:worker_deaths"] >= 1
            assert not draw.faults["degraded_ranges"]
            # The dead worker left the live list; the survivor took over.
            described = {
                w["address"]: w for w in transport.registry.describe()
            }
            assert described[chaos_addr]["alive"] is False
            assert described[healthy_addr]["alive"] is True
            # Re-dispatch is visible in per-shard provenance.
            assert max(rec["attempts"] for rec in draw.shards) >= 2
        finally:
            stop_worker(chaos_proc)
            stop_worker(healthy_proc)

    def test_poisoned_payload_detected_and_redrawn(self, graph, plan):
        """A worker corrupting its fragment after the checksum was taken
        must be caught by wire-level verification and re-dispatched."""
        chaos_env = {
            FAULT_PLAN_ENV: FaultPlan.poison_shards([1]).to_json()
        }
        chaos_proc, chaos_addr = launch_worker(chaos_env)
        clean_proc, clean_addr = launch_worker()
        try:
            ref = draw_with(graph, plan, InlineTransport())
            # Shard 1 round-robins to handle index 1 of two workers, so
            # the poisoner must sit second in the registry.
            transport = SocketTransport([clean_addr, chaos_addr])
            with ShardedRunner(
                graph, Layer.UPPER, transport=transport
            ) as runner:
                draw = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            np.testing.assert_array_equal(ref.indptr, draw.indptr)
            np.testing.assert_array_equal(ref.columns, draw.columns)
            assert draw.faults["payload_errors"] >= 1
        finally:
            stop_worker(chaos_proc)
            stop_worker(clean_proc)


# ----------------------------------------------------------------------
# Liveness, heartbeats, and graph reinstall
# ----------------------------------------------------------------------
class TestCluster:
    def test_ping_marks_a_killed_worker_dead(self, graph):
        proc_a, addr_a = launch_worker()
        proc_b, addr_b = launch_worker()
        transport = SocketTransport([addr_a, addr_b])
        try:
            transport.bind(graph, Layer.UPPER)
            assert transport.ping() == 2
            stop_worker(proc_b)
            assert transport.ping() == 1
            live = transport.registry.live()
            assert [h.address for h in live] == [addr_a]
        finally:
            transport.close()
            stop_worker(proc_a)

    def test_rebind_reinstalls_the_new_graph(self, graph, plan, cluster):
        """A digest change (graph swap) propagates lazily: workers
        install the new snapshot on their next spec and serve its keyed
        draws byte-identically."""
        other = random_bipartite(40, 30, 260, rng=7)
        other_plan = plan_shards(
            other, Layer.UPPER, np.arange(40, dtype=np.int64), EPS, shards=2
        )
        transport = SocketTransport(cluster)
        with ShardedRunner(
            graph, Layer.UPPER, transport=transport
        ) as runner:
            first = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            runner.rebind(other)
            second = runner.draw(other_plan, EPS, entropy=ENTROPY, epoch=0)
        ref_first = draw_with(graph, plan, InlineTransport())
        with ShardedRunner(
            other, Layer.UPPER, transport=InlineTransport()
        ) as runner:
            ref_second = runner.draw(other_plan, EPS, entropy=ENTROPY, epoch=0)
        np.testing.assert_array_equal(ref_first.columns, first.columns)
        np.testing.assert_array_equal(ref_second.columns, second.columns)

    def test_rebind_with_delta_pushes_mutate_not_graph(self, graph, cluster):
        """A rebind carrying the rotation's delta log resyncs installed
        workers with MUTATE frames — no second GRAPH ship — and the
        draws on the mutated snapshot stay byte-identical to inline."""
        from repro.graph import DeltaLog

        transport = SocketTransport(cluster)
        with ShardedRunner(
            graph, Layer.UPPER, max_workers=2, transport=transport
        ) as runner:
            first_plan = plan_shards(
                graph, Layer.UPPER, np.arange(70, dtype=np.int64), EPS,
                shards=2,
            )
            runner.draw(first_plan, EPS, entropy=ENTROPY, epoch=0)
            installs = transport.describe()["ingest"]["graph_installs"]
            log = DeltaLog(graph)
            log.delete(*(int(x) for x in graph.edges[0]))
            log.insert(
                *next(
                    (u, l)
                    for u in range(70)
                    for l in range(50)
                    if not graph.has_edge(u, l)
                )
            )
            mutated = log.apply()
            runner.rebind(mutated, delta=log.compact())
            second_plan = plan_shards(
                mutated, Layer.UPPER, np.arange(70, dtype=np.int64), EPS,
                shards=2,
            )
            second = runner.draw(second_plan, EPS, entropy=ENTROPY, epoch=1)
            ingest = transport.describe()["ingest"]
        assert ingest["delta_pushes"] >= 1
        assert ingest["delta_saved_bytes"] > 0
        assert ingest["graph_installs"] == installs  # nobody re-shipped
        with ShardedRunner(
            mutated, Layer.UPPER, transport=InlineTransport()
        ) as runner:
            ref = runner.draw(second_plan, EPS, entropy=ENTROPY, epoch=1)
        np.testing.assert_array_equal(ref.indptr, second.indptr)
        np.testing.assert_array_equal(ref.columns, second.columns)

    def test_closed_runner_fans_out_to_the_cluster_again(
        self, graph, plan, cluster
    ):
        """Regression: close() set a closed flag that only a submit
        cleared, and the driver never submits while ``parallel`` reads
        False, so every draw after close() ran inline in the parent. A
        closed runner reconnects and dispatches to the cluster again."""
        transport = SocketTransport(cluster)
        with ShardedRunner(
            graph, Layer.UPPER, transport=transport
        ) as runner:
            first = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            dispatched = [h.dispatched for h in transport.registry.handles]
            runner.close()
            second = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            again = [h.dispatched for h in transport.registry.handles]
        assert sum(dispatched) == plan.num_shards
        assert again == [2 * n for n in dispatched]
        np.testing.assert_array_equal(first.indptr, second.indptr)
        np.testing.assert_array_equal(first.columns, second.columns)

    def test_repeat_draws_reuse_the_installed_graph(self, graph, plan, cluster):
        """The GRAPH frame ships once per worker per digest, not per
        draw: repeated draws on one runner keep the same bytes."""
        transport = SocketTransport(cluster)
        with ShardedRunner(
            graph, Layer.UPPER, transport=transport
        ) as runner:
            a = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            b = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.columns, b.columns)


# ----------------------------------------------------------------------
# Engine-level integration: serve real estimates over the cluster
# ----------------------------------------------------------------------
class TestEngineOverSockets:
    def test_estimates_match_local_sharded_engine(self, graph, cluster):
        pairs = sample_query_pairs(graph, Layer.UPPER, 60, rng=3)
        # Shard count never changes the keyed draw, so a 2-range local
        # engine is the byte-exact reference for the 2-worker cluster.
        with BatchQueryEngine(shards=2) as reference:
            plain = reference.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=9
            )
        with BatchQueryEngine(
            shard_transport=SocketTransport(cluster)
        ) as engine:
            socketed = engine.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=9
            )
        np.testing.assert_array_equal(plain.values, socketed.values)
        detail = socketed.details["shards"]["transport"]
        assert detail["name"] == "socket"
        assert socketed.details["shards"]["count"] >= 2

    def test_transport_by_name_with_worker_addresses(self, graph, cluster):
        pairs = sample_query_pairs(graph, Layer.UPPER, 30, rng=4)
        with BatchQueryEngine(
            shard_transport="socket", shard_workers=cluster
        ) as engine:
            result = engine.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=2
            )
        with BatchQueryEngine(shards=2) as reference:
            ref = reference.estimate_pairs(
                graph, Layer.UPPER, pairs, epsilon=EPS, rng=2
            )
        np.testing.assert_array_equal(ref.values, result.values)
