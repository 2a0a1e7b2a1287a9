"""Transport contract suite: the pluggable substrate behind sharded draws.

The contract under test (``docs/distributed-guide.md``): a shard task is
a pure function of its :class:`ShardSpec`, so *which*
:class:`ShardTransport` executes it — inline in the caller, a forked
worker pool, or a remote socket worker — is invisible in the bytes. This
suite pins the contract surface itself: :func:`execute_spec` purity,
transport lifecycle (``close()`` idempotent and safe never-started),
:func:`make_transport` resolution, :class:`RetryPolicy` validation and
keyed backoff, :class:`WorkerRegistry` parsing/liveness, and the
per-transport breakdown of :attr:`ShardedRunner.fault_totals`. The
loopback cluster integration lives in ``tests/test_distributed.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.faults import FaultPlan
from repro.engine.pairwise import pairwise_intersections
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import (
    ForkTransport,
    InlineTransport,
    RetryPolicy,
    ShardSpec,
    SocketTransport,
    WorkerHandle,
    WorkerRegistry,
    execute_spec,
    fork_available,
    make_transport,
)
from repro.errors import ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import sample_query_pairs

EPS = 2.0
ENTROPY = 77_001

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork transport needs the fork start method"
)


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(60, 40, 450, rng=31)


@pytest.fixture(scope="module")
def plan(graph):
    return plan_shards(
        graph, Layer.UPPER, np.arange(60, dtype=np.int64), EPS, shards=3
    )


def spec_for(plan, shard=0, **overrides):
    lo, hi = plan.ranges()[shard]
    base = dict(
        shard=shard,
        lo=int(lo),
        hi=int(hi),
        vertices=plan.vertices[lo:hi],
        epsilon=EPS,
        entropy=ENTROPY,
        epoch=0,
    )
    base.update(overrides)
    return ShardSpec(**base)


# ----------------------------------------------------------------------
# execute_spec: the one pure compute routine every substrate shares
# ----------------------------------------------------------------------
class TestExecuteSpec:
    def test_attempt_never_changes_the_bytes(self, graph, plan):
        """Re-dispatch safety in one line: the draw is keyed by
        (entropy, epoch, vertex, version), never by which attempt ran it."""
        results = [
            execute_spec(graph, Layer.UPPER, spec_for(plan, attempt=a))
            for a in (0, 3, -1)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].indptr, other.indptr)
            np.testing.assert_array_equal(results[0].columns, other.columns)

    def test_want_fragment_false_keeps_sizes_drops_rows(self, graph, plan):
        full = execute_spec(graph, Layer.UPPER, spec_for(plan))
        slim = execute_spec(
            graph, Layer.UPPER, spec_for(plan, want_fragment=False)
        )
        np.testing.assert_array_equal(full.sizes, slim.sizes)
        assert slim.indptr is None and slim.columns is None
        assert full.indptr is not None and full.columns is not None

    def test_local_pairs_match_parent_side_reduction(self, graph, plan):
        """In-worker diagonal reduction is exact: the worker's N1 scalars
        equal what the parent would count from the shipped fragment."""
        lo, hi = plan.ranges()[0]
        rows = hi - lo
        ia = np.array([0, 1, 2], dtype=np.int64)
        ib = np.array([3, 4, 5], dtype=np.int64)
        assert rows > 5
        domain = graph.num_lower
        reduced = execute_spec(
            graph,
            Layer.UPPER,
            spec_for(plan, ia=ia, ib=ib, domain=domain, want_fragment=False),
        )
        full = execute_spec(graph, Layer.UPPER, spec_for(plan))
        expected = pairwise_intersections(
            full.indptr, full.columns, ia, ib, domain
        )
        np.testing.assert_array_equal(reduced.n1, expected)
        assert reduced.backend is not None


# ----------------------------------------------------------------------
# Lifecycle: close() is idempotent and safe on a never-started transport
# ----------------------------------------------------------------------
class TestLifecycle:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: InlineTransport(),
            lambda: ForkTransport(max_workers=2),
            lambda: SocketTransport(["127.0.0.1:1"]),
        ],
        ids=["inline", "fork", "socket"],
    )
    def test_close_never_started_then_twice(self, build):
        """A transport that never ran a spec (a serve-mode runner whose
        first tick never arrived) must close cleanly — twice."""
        transport = build()
        transport.close()
        transport.close()

    def test_runner_close_idempotent_on_unstarted_socket_transport(
        self, graph
    ):
        """The satellite acceptance: a runner holding a socket transport
        pointed at an unreachable cluster closes without ever connecting."""
        runner = ShardedRunner(
            graph,
            Layer.UPPER,
            transport=SocketTransport(["127.0.0.1:1", "127.0.0.1:2"]),
        )
        runner.close()
        runner.close()

    def test_context_manager_closes(self, graph):
        with ForkTransport(max_workers=1) as transport:
            transport.bind(graph, Layer.UPPER)
        transport.close()  # and again, after __exit__ already closed

    def test_describe_names_the_substrate(self):
        assert InlineTransport().describe() == {"name": "inline", "workers": 1}
        fork = ForkTransport(max_workers=3).describe()
        assert fork["name"] == "fork" and fork["workers"] == 3
        sock = SocketTransport(["127.0.0.1:1"]).describe()
        assert sock["name"] == "socket"
        assert sock["cluster"][0]["address"] == "127.0.0.1:1"


# ----------------------------------------------------------------------
# Byte-identity: inline vs fork, draw and workload
# ----------------------------------------------------------------------
class TestForkMatchesInline:
    @needs_fork
    def test_draw_is_byte_identical(self, graph, plan):
        with ShardedRunner(
            graph, Layer.UPPER, transport=InlineTransport()
        ) as inline_runner:
            ref = inline_runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        with ShardedRunner(
            graph, Layer.UPPER, transport=ForkTransport(max_workers=2)
        ) as fork_runner:
            forked = fork_runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
        np.testing.assert_array_equal(ref.indptr, forked.indptr)
        np.testing.assert_array_equal(ref.columns, forked.columns)
        # Fork fragments cross the pipe as narrow ids; the parent must
        # hand back the same int64 columns, not just equal values.
        assert forked.columns.dtype == ref.columns.dtype == np.int64

    @needs_fork
    def test_run_workload_is_byte_identical(self, graph, plan):
        pairs = sample_query_pairs(graph, Layer.UPPER, 80, rng=5)
        ia = np.array([p.a for p in pairs], dtype=np.int64)
        ib = np.array([p.b for p in pairs], dtype=np.int64)
        kwargs = dict(
            entropy=ENTROPY, epoch=0, ia=ia, ib=ib, domain=graph.num_lower
        )
        with ShardedRunner(
            graph, Layer.UPPER, transport=InlineTransport()
        ) as inline_runner:
            ref = inline_runner.run_workload(plan, EPS, **kwargs)
        with ShardedRunner(
            graph, Layer.UPPER, transport=ForkTransport(max_workers=2)
        ) as fork_runner:
            forked = fork_runner.run_workload(plan, EPS, **kwargs)
        np.testing.assert_array_equal(ref.n1, forked.n1)
        np.testing.assert_array_equal(ref.sizes, forked.sizes)
        assert forked.transport["name"] == "fork"
        assert ref.transport["name"] == "inline"


# ----------------------------------------------------------------------
# make_transport: the CLI's resolution path
# ----------------------------------------------------------------------
class TestMakeTransport:
    def test_builds_each_kind(self):
        assert isinstance(make_transport("inline"), InlineTransport)
        fork = make_transport("fork", max_workers=3)
        assert isinstance(fork, ForkTransport) and fork.max_workers == 3
        sock = make_transport("socket", workers=["127.0.0.1:9"])
        assert isinstance(sock, SocketTransport)
        assert sock.registry.handles[0].port == 9

    def test_unknown_kind_refused(self):
        with pytest.raises(ProtocolError, match="unknown transport"):
            make_transport("carrier-pigeon")

    def test_socket_without_workers_refused(self):
        with pytest.raises(ProtocolError, match="--workers"):
            make_transport("socket")

    def test_fork_rejects_nonpositive_workers(self):
        with pytest.raises(ProtocolError, match="max_workers"):
            make_transport("fork", max_workers=0)


# ----------------------------------------------------------------------
# RetryPolicy: validation and the keyed backoff schedule
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ProtocolError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ProtocolError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ProtocolError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ProtocolError):
            RetryPolicy(backoff_cap_s=-1.0)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=0.2)
        waits = [policy.backoff_wait(123, 0, a) for a in range(1, 6)]
        again = [policy.backoff_wait(123, 0, a) for a in range(1, 6)]
        assert waits == again  # keyed jitter, no wall-clock randomness
        assert all(0 < w <= 0.2 for w in waits)
        # A different entropy decorrelates the jitter without changing
        # the envelope.
        other = [policy.backoff_wait(456, 0, a) for a in range(1, 6)]
        assert other != waits

    def test_zero_base_means_no_wait(self):
        policy = RetryPolicy(backoff_base_s=0.0)
        assert policy.backoff_wait(1, 0, 1) == 0.0


# ----------------------------------------------------------------------
# WorkerRegistry: address parsing and liveness bookkeeping
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def test_parses_address_forms(self):
        registry = WorkerRegistry(
            ["10.0.0.1:4000", ("10.0.0.2", 4001), WorkerHandle("h", 4002)]
        )
        assert [h.address for h in registry.handles] == [
            "10.0.0.1:4000",
            "10.0.0.2:4001",
            "h:4002",
        ]

    def test_rejects_malformed_and_empty(self):
        with pytest.raises(ProtocolError, match="host:port"):
            WorkerRegistry(["nocolon"])
        with pytest.raises(ProtocolError, match="host:port"):
            WorkerRegistry(["host:notaport"])
        with pytest.raises(ProtocolError, match="at least one"):
            WorkerRegistry([])

    def test_mark_dead_leaves_the_live_list(self):
        registry = WorkerRegistry(["a:1", "b:2"])
        assert len(registry.live()) == 2
        registry.mark_dead(registry.handles[0])
        assert [h.address for h in registry.live()] == ["b:2"]
        described = registry.describe()
        assert described[0]["alive"] is False
        assert described[1]["alive"] is True


# ----------------------------------------------------------------------
# Per-transport fault counters (the satellite's fault_totals breakdown)
# ----------------------------------------------------------------------
class TestPerTransportFaultTotals:
    @needs_fork
    def test_fork_faults_counted_under_the_transport_name(self, graph, plan):
        with FaultPlan.kill_shards([0]).active():
            with ShardedRunner(
                graph, Layer.UPPER, transport=ForkTransport(max_workers=2)
            ) as runner:
                draw = runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
                totals = dict(runner.fault_totals)
        assert draw.faults["worker_deaths"] >= 1
        assert totals["worker_deaths"] >= 1
        # The same counts accumulate under the substrate's name, so a
        # mixed-transport server can see which substrate faulted.
        assert totals["fork:worker_deaths"] == totals["worker_deaths"]
        assert totals["fork:retries"] == totals["retries"]

    def test_clean_inline_draw_records_no_faults(self, graph, plan):
        with ShardedRunner(
            graph, Layer.UPPER, transport=InlineTransport()
        ) as runner:
            runner.draw(plan, EPS, entropy=ENTROPY, epoch=0)
            totals = {
                k: v for k, v in runner.fault_totals.items() if v
            }
        assert totals == {}
