"""Serving-layer resilience: shedding, deadlines, watchdog, shutdown race.

The contract under test: every refusal the resilience layer issues —
load-shed (:class:`ServerOverloadedError`), deadline expiry
(:class:`QueryDeadlineError`), abandoned tick
(:class:`ServerStalledError`) — is typed, reaches exactly the affected
caller, and moves **no budget**: shedding and deadline pruning happen
before tenant admission, and a stalled tick refunds its admission
debits. The server itself survives all of it and keeps serving.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import (
    ProtocolError,
    QueryDeadlineError,
    ServerOverloadedError,
    ServerStalledError,
)
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.protocol.session import ExecutionMode
from repro.serving import QueryServer, TenantRegistry

EPSILON = 2.0


@pytest.fixture()
def graph():
    return random_bipartite(60, 50, 520, rng=7)


def make_registry(n=3, budget=100.0):
    registry = TenantRegistry()
    for i in range(n):
        registry.register(f"t{i}", budget)
    return registry


# ----------------------------------------------------------------------
# Parameter validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_pending": 0},
            {"max_pending": -3},
            {"query_deadline_s": 0},
            {"query_deadline_s": -1.0},
            {"tick_watchdog_s": 0},
            {"shard_timeout_s": -1.0, "shards": 2},
        ],
    )
    def test_rejects_bad_resilience_params(self, graph, kwargs):
        with pytest.raises(ProtocolError):
            QueryServer(graph, Layer.UPPER, EPSILON, **kwargs)

    def test_rejects_nonpositive_per_call_deadline(self, graph):
        async def run():
            async with QueryServer(graph, Layer.UPPER, EPSILON, rng=1) as server:
                with pytest.raises(ProtocolError, match="deadline_s"):
                    await server.query(0, 1, deadline_s=0)

        asyncio.run(run())


# ----------------------------------------------------------------------
# Load shedding (max_pending)
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_oldest_deadline_query_is_the_victim(self, graph):
        """Overflow refuses the queued query with the earliest deadline,
        not the newcomer, and no tenant is debited for it."""

        async def run():
            registry = make_registry()
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE,
                tick_interval=0.25, max_pending=2,
                tenants=registry, rng=3,
            ) as server:
                victim = asyncio.ensure_future(
                    server.query(0, 1, tenant="t0", deadline_s=30.0)
                )
                keeper = asyncio.ensure_future(
                    server.query(2, 3, tenant="t1", deadline_s=60.0)
                )
                await asyncio.sleep(0)  # let both enqueue
                assert len(server._pending) == 2
                # Queue is full: this admission sheds the oldest deadline.
                newcomer = await server.query(4, 5, tenant="t2")
                with pytest.raises(ServerOverloadedError):
                    await victim
                return server, registry, await keeper, newcomer

        server, registry, keeper, newcomer = asyncio.run(run())
        assert server.stats.queries_shed == 1
        assert keeper.pair.a == 2 and newcomer.pair.a == 4
        # The shed tenant was never admitted, so nothing was charged.
        assert registry.get("t0").stats.epsilon_charged == 0.0

    def test_newcomer_is_refused_when_it_holds_the_oldest_deadline(self, graph):
        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                tick_interval=0.25, max_pending=1, rng=3,
            ) as server:
                keeper = asyncio.ensure_future(server.query(0, 1))
                await asyncio.sleep(0)
                # The queued query has no deadline; the newcomer's finite
                # deadline makes it the shedding victim.
                with pytest.raises(ServerOverloadedError):
                    await server.query(2, 3, deadline_s=5.0)
                return server, await keeper

        server, keeper = asyncio.run(run())
        assert server.stats.queries_shed == 1
        assert keeper.pair == keeper.pair  # keeper resolved normally
        assert server.stats.queries_served == 1

    def test_deadline_free_overflow_refuses_the_newcomer(self, graph):
        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                tick_interval=0.25, max_pending=1, rng=3,
            ) as server:
                keeper = asyncio.ensure_future(server.query(0, 1))
                await asyncio.sleep(0)
                with pytest.raises(ServerOverloadedError):
                    await server.query(2, 3)
                await keeper
                return server

        server = asyncio.run(run())
        assert server.stats.queries_shed == 1


# ----------------------------------------------------------------------
# Per-query deadlines
# ----------------------------------------------------------------------
class TestQueryDeadlines:
    def test_expired_query_fails_without_charging(self, graph):
        async def run():
            registry = make_registry()
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE,
                tick_interval=0.3, tenants=registry, rng=3,
            ) as server:
                doomed = asyncio.ensure_future(
                    server.query(0, 1, tenant="t0", deadline_s=0.05)
                )
                served = asyncio.ensure_future(
                    server.query(2, 3, tenant="t1")
                )
                with pytest.raises(QueryDeadlineError):
                    await doomed
                return server, registry, await served

        server, registry, served = asyncio.run(run())
        assert server.stats.deadline_expired == 1
        assert server.stats.queries_served == 1
        assert served.pair.a == 2
        # Pruning precedes admission: the expired tenant paid nothing.
        assert registry.get("t0").stats.epsilon_charged == 0.0
        assert registry.get("t1").stats.epsilon_charged > 0.0

    def test_server_default_deadline_applies(self, graph):
        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                tick_interval=0.3, query_deadline_s=0.05, rng=3,
            ) as server:
                with pytest.raises(QueryDeadlineError):
                    await server.query(0, 1)
                # A generous per-call override outlives the tick delay.
                estimate = await server.query(2, 3, deadline_s=30.0)
                return server, estimate

        server, estimate = asyncio.run(run())
        assert server.stats.deadline_expired == 1
        assert estimate.pair.a == 2


# ----------------------------------------------------------------------
# Tick watchdog
# ----------------------------------------------------------------------
class TestTickWatchdog:
    def test_stuck_tick_fails_callers_and_refunds(self, graph):
        """A hung engine call is abandoned: callers get a typed error,
        admission debits come back, and the server keeps serving."""

        async def run():
            registry = make_registry()
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE,
                tick_watchdog_s=0.15, tenants=registry, rng=3,
            ) as server:
                real = server.engine.estimate_pairs

                def stuck(*args, **kwargs):
                    time.sleep(0.6)  # well past the watchdog
                    return real(*args, **kwargs)

                server.engine.estimate_pairs = stuck
                with pytest.raises(ServerStalledError):
                    await server.query(0, 1, tenant="t0")
                spent_after_stall = registry.get("t0").stats.epsilon_charged
                # The abandoned call keeps running as a zombie and later
                # ticks wait for it: let it drain before re-querying.
                while server._tick_busy:
                    await asyncio.sleep(0.02)
                # Un-wedge the engine: the server must still serve.
                server.engine.estimate_pairs = real
                estimate = await server.query(2, 3, tenant="t1")
                return server, spent_after_stall, estimate

        server, spent_after_stall, estimate = asyncio.run(run())
        assert server.stats.stalled_ticks == 1
        assert server.stats.errors >= 1
        assert spent_after_stall == 0.0, "stalled tick must refund admission"
        assert estimate.pair.a == 2
        assert server.stats.queries_served == 1

    def test_zombie_tick_serializes_later_ticks(self, graph):
        """Regression: the watchdog used to clear the busy flag on
        timeout while the abandoned engine call kept running, so the
        next tick could mutate the cache, ledger and rng concurrently
        with the zombie. The flag now holds until the call actually
        finishes: later ticks wait for it (or stall in turn), and
        engine calls never overlap."""

        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE, tick_watchdog_s=0.15, rng=3,
            ) as server:
                real = server.engine.estimate_pairs
                release = threading.Event()
                state = {"active": 0, "max_active": 0, "stalled_once": False}

                def slow(*args, **kwargs):
                    state["active"] += 1
                    state["max_active"] = max(
                        state["max_active"], state["active"]
                    )
                    try:
                        if not state["stalled_once"]:
                            state["stalled_once"] = True
                            release.wait(5.0)  # wedged until we say so
                        return real(*args, **kwargs)
                    finally:
                        state["active"] -= 1

                server.engine.estimate_pairs = slow
                with pytest.raises(ServerStalledError):
                    await server.query(0, 1)
                assert server._tick_busy, "zombie must keep the tick slot"
                # The zombie is still wedged: the next tick must refuse
                # to run beside it and stall in its turn.
                with pytest.raises(ServerStalledError):
                    await server.query(2, 3)
                release.set()
                while server._tick_busy:
                    await asyncio.sleep(0.02)
                estimate = await server.query(4, 5)
                return server, state, estimate

        server, state, estimate = asyncio.run(run())
        assert state["max_active"] == 1, "engine calls must never overlap"
        assert server.stats.stalled_ticks == 2
        assert estimate.pair.a == 4
        assert server.stats.queries_served == 1

    def test_fast_ticks_pass_under_watchdog(self, graph):
        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON, tick_watchdog_s=30.0, rng=3,
            ) as server:
                return server, await asyncio.gather(
                    *(server.query(0, i) for i in range(1, 6))
                )

        server, results = asyncio.run(run())
        assert len(results) == 5
        assert server.stats.stalled_ticks == 0


# ----------------------------------------------------------------------
# stop() vs the rotation window (the shutdown race)
# ----------------------------------------------------------------------
class TestShutdownRace:
    def test_stop_inside_rotation_window_skips_the_rotation(
        self, graph, fork_workers
    ):
        """Regression: a timed rotation waking during shutdown used to be
        able to warm-draw into a shard runner stop() was freeing. The
        closing flag now gates the rotation body."""

        async def run():
            async with QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE,
                epoch_seconds=0.08, warm_vertices=4, shards=2, rng=3,
            ) as server:
                await server.query(0, 1)
                # Land stop() right inside the rotation window: the timer
                # is mid-sleep and will wake while we are tearing down.
                await asyncio.sleep(0.06)
                fork_workers.hold(server._shard_runner.transport)
            return server

        server = asyncio.run(run())
        assert server._task is None and server._rotator is None
        # Whatever rotations ran, none touched the freed runner: it holds
        # no pool, and every worker it forked has exited.
        assert server._shard_runner is not None
        transport = server._shard_runner.transport
        assert transport._pool_box[0] is None and not transport._retired
        fork_workers.assert_exited()

    def test_stop_then_restart_still_serves(self, graph):
        async def run():
            server = QueryServer(
                graph, Layer.UPPER, EPSILON,
                mode=ExecutionMode.MATERIALIZE,
                epoch_seconds=0.05, warm_vertices=2, shards=2, rng=3,
            )
            for _ in range(2):
                async with server:
                    estimate = await server.query(0, 1)
                    await asyncio.sleep(0.07)  # cross a rotation window
            return server, estimate

        server, estimate = asyncio.run(run())
        assert estimate.pair.a == 0
        assert server.stats.queries_served == 2
