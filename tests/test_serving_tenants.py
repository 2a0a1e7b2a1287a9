"""Multi-tenant serving: budget isolation, free hits, refusals, rotation.

The acceptance contract: two tenants sharing one hot vertex pool never
touch each other's :class:`QueryBudgetManager` — a cache hit debits no
one, a miss debits exactly the requesting tenant by epsilon per fresh
vertex, and the per-tenant debits always sum to what the
:class:`EpochAccountant` actually charged. A tenant out of quota is
refused query by query while everyone else keeps being served.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.engine.planner import plan_workload, slice_by_tenant
from repro.errors import BudgetExceededError, PrivacyError, ProtocolError
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite
from repro.graph.sampling import QueryPair
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.composition import QueryBudgetManager
from repro.protocol.session import ExecutionMode
from repro.serving import QueryServer, TenantRegistry

EPSILON = 2.0
MODES = (ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH)


@pytest.fixture()
def graph():
    return random_bipartite(60, 50, 520, rng=7)


def make_registry(*totals: float) -> TenantRegistry:
    registry = TenantRegistry()
    for i, total in enumerate(totals):
        registry.register(f"t{i}", total)
    return registry


def serve(graph, registry, script, *, mode=ExecutionMode.MATERIALIZE, **kwargs):
    """Run `script(server)` against a started multi-tenant server."""

    async def run():
        async with QueryServer(
            graph, Layer.UPPER, EPSILON, mode=mode, tenants=registry, rng=3,
            **kwargs,
        ) as server:
            return await script(server)

    return asyncio.run(run())


class TestBudgetIsolation:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_misses_debit_requester_only_hits_debit_no_one(self, graph, mode):
        registry = make_registry(100.0, 100.0)
        a, b = registry.get("t0"), registry.get("t1")

        async def script(server):
            # t0 misses on a fresh pair: pays for both endpoints.
            await server.query(0, 1, tenant="t0")
            spent_after_miss = (a.budget.spent, b.budget.spent)
            # t1 replays the same pair: a pure cache hit, free for t1.
            await server.query(0, 1, tenant="t1")
            return spent_after_miss

        spent_after_miss = serve(graph, registry, script, mode=mode)
        assert spent_after_miss == (pytest.approx(2 * EPSILON), 0.0)
        # The hit debited neither tenant.
        assert a.budget.spent == pytest.approx(2 * EPSILON)
        assert b.budget.spent == 0.0
        assert a.stats.misses == 1 and b.stats.hits == 1

    def test_materialize_overlap_charges_only_new_vertex(self, graph):
        registry = make_registry(100.0, 100.0)
        a, b = registry.get("t0"), registry.get("t1")

        async def script(server):
            await server.query(0, 1, tenant="t0")  # t0 pays vertices 0 and 1
            await server.query(0, 2, tenant="t1")  # 0 is cached: t1 pays only 2

        serve(graph, registry, script)
        assert a.budget.spent == pytest.approx(2 * EPSILON)
        assert b.budget.spent == pytest.approx(EPSILON)
        assert a.stats.vertices_paid == 2
        assert b.stats.vertices_paid == 1

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_tenant_debits_sum_to_accountant_charges(self, graph, mode):
        """Across a racing two-tenant hot-pool workload, analyst-side
        metering and the privacy-side accountant must agree exactly."""
        registry = make_registry(500.0, 500.0)
        pool = list(range(12))
        rng = np.random.default_rng(5)
        pairs = [
            QueryPair(Layer.UPPER, *rng.choice(pool, size=2, replace=False))
            for _ in range(60)
        ]

        async def script(server):
            await asyncio.gather(
                *(
                    server.query_pair(pair, tenant=f"t{i % 2}")
                    for i, pair in enumerate(pairs)
                )
            )
            return server.accountant

        accountant = serve(graph, registry, script, mode=mode)
        total_charged = sum(
            accountant.lifetime_spent(Layer.UPPER, v) for v in range(60)
        )
        metered = sum(t.stats.epsilon_charged for t in registry.tenants())
        assert metered == pytest.approx(total_charged)

    def test_shared_tick_vertex_paid_once_by_first_requester(self, graph):
        """Two tenants race the same fresh pair into one tick: the first
        arrival pays, the second rides the same draw for free."""
        registry = make_registry(100.0, 100.0)

        async def script(server):
            await asyncio.gather(
                server.query(3, 4, tenant="t0"),
                server.query(3, 4, tenant="t1"),
            )
            return server.stats.ticks

        ticks = serve(graph, registry, script)
        assert ticks == 1
        assert registry.get("t0").budget.spent == pytest.approx(2 * EPSILON)
        assert registry.get("t1").budget.spent == 0.0


class TestRefusals:
    def test_out_of_quota_tenant_refused_others_served(self, graph):
        # t0 can afford exactly one two-vertex miss; t1 is rich.
        registry = make_registry(2 * EPSILON, 100.0)

        async def script(server):
            await server.query(0, 1, tenant="t0")  # exhausts t0
            with pytest.raises(BudgetExceededError):
                await server.query(2, 3, tenant="t0")
            # t1 is unaffected, and t0 can still ride cache hits for free.
            est = await server.query(2, 3, tenant="t1")
            hit = await server.query(0, 1, tenant="t0")
            return est, hit

        est, hit = serve(graph, registry, script)
        assert est.tenant == "t1"
        assert hit.cache_hit
        assert registry.get("t0").stats.rejected == 1
        assert registry.get("t0").budget.remaining == pytest.approx(0.0)

    def test_refused_cost_falls_to_next_requester(self, graph):
        """t0 cannot pay for pair (5, 6); t1 queries it in the same tick
        and picks up the charge instead."""
        registry = make_registry(EPSILON, 100.0)  # t0 cannot afford 2 vertices

        async def script(server):
            results = await asyncio.gather(
                server.query(5, 6, tenant="t0"),
                server.query(5, 6, tenant="t1"),
                return_exceptions=True,
            )
            return results

        results = serve(graph, registry, script)
        assert isinstance(results[0], BudgetExceededError)
        assert results[1].tenant == "t1"
        assert registry.get("t0").budget.spent == 0.0
        assert registry.get("t1").budget.spent == pytest.approx(2 * EPSILON)

    def test_failed_tick_refunds_admission_debits(self, graph):
        """Sketch mode with an enforced allowance: the engine refuses the
        recharge of an overlapping new pair *after* admission debited the
        tenant — the debit must be rolled back, keeping metering equal to
        the accountant's truth."""
        registry = make_registry(100.0)
        tenant = registry.get("t0")

        async def script(server):
            await server.query(0, 1, tenant="t0")
            spent_before = tenant.budget.spent
            with pytest.raises(BudgetExceededError):
                # New pair (0, 2): vertex 0 would exceed the allowance.
                await server.query(0, 2, tenant="t0")
            return spent_before, server.accountant

        spent_before, accountant = serve(
            graph, registry, script,
            mode=ExecutionMode.SKETCH, epsilon_per_epoch=EPSILON,
        )
        assert spent_before == pytest.approx(2 * EPSILON)
        assert tenant.budget.spent == pytest.approx(spent_before)
        assert tenant.stats.epsilon_charged == pytest.approx(
            accountant.lifetime_spent(Layer.UPPER, 0)
            + accountant.lifetime_spent(Layer.UPPER, 1)
        )
        assert tenant.stats.vertices_paid == 2

    def test_failed_tick_after_partial_rejection_refunds_admitted_only(
        self, graph
    ):
        """Regression for the refund/admission position contract: a tick
        holding both a *rejected* query (tenant out of quota) and an
        *admitted* one (debited) fails in the engine after admission —
        the refund must credit exactly the admitted debit, keyed by the
        query's position in the original batch, and must not touch the
        rejected query's tenant."""
        registry = make_registry(0.5, 100.0)  # t0 cannot afford one miss
        poor, rich = registry.get("t0"), registry.get("t1")

        async def script(server):
            await server.query(0, 1, tenant="t1")  # t1 pays 2 eps, tick 1
            spent_mid = rich.budget.spent
            # One coalesced tick: t0 first (rejected at admission), then
            # t1 with a new overlapping pair the enforced allowance will
            # refuse inside the engine after t1 was already debited.
            results = await asyncio.gather(
                server.query(5, 6, tenant="t0"),
                server.query(0, 2, tenant="t1"),
                return_exceptions=True,
            )
            return spent_mid, results, server.stats.ticks

        spent_mid, results, ticks = serve(
            graph, registry, script,
            mode=ExecutionMode.SKETCH, epsilon_per_epoch=EPSILON,
        )
        assert all(isinstance(r, BudgetExceededError) for r in results)
        # The rejected query was never debited and never refunded.
        assert poor.budget.spent == 0.0
        assert poor.stats.rejected == 1
        assert poor.stats.epsilon_charged == 0.0
        assert poor.stats.vertices_paid == 0
        # The admitted query's debit was rolled back exactly.
        assert spent_mid == pytest.approx(2 * EPSILON)
        assert rich.budget.spent == pytest.approx(2 * EPSILON)
        assert rich.stats.epsilon_charged == pytest.approx(2 * EPSILON)
        assert rich.stats.vertices_paid == 2
        # Metering still equals the accountant's truth after the rollback.
        server_total = rich.stats.epsilon_charged + poor.stats.epsilon_charged
        assert server_total == pytest.approx(2 * EPSILON)

    def test_tenant_tag_validation(self, graph):
        registry = make_registry(10.0)

        async def unknown(server):
            await server.query(0, 1, tenant="nobody")

        async def missing(server):
            await server.query(0, 1)

        with pytest.raises(ProtocolError, match="unknown tenant"):
            serve(graph, registry, unknown)
        with pytest.raises(ProtocolError, match="multi-tenant"):
            serve(graph, registry, missing)

        async def unexpected():
            async with QueryServer(graph, Layer.UPPER, EPSILON, rng=1) as server:
                await server.query(0, 1, tenant="t0")

        with pytest.raises(ProtocolError, match="TenantRegistry"):
            asyncio.run(unexpected())


class TestRegistryAndBudgets:
    def test_register_rejects_duplicates_and_empty_names(self):
        registry = TenantRegistry()
        registry.register("alice", 5.0)
        with pytest.raises(ProtocolError):
            registry.register("alice", 5.0)
        with pytest.raises(ProtocolError):
            registry.register("", 5.0)
        assert "alice" in registry and len(registry) == 1

    def test_adopt_wraps_existing_manager(self):
        registry = TenantRegistry()
        manager = QueryBudgetManager(6.0, policy="metered")
        tenant = registry.adopt("bob", manager)
        assert tenant.budget is manager
        manager.debit(2.5)
        assert registry.get("bob").remaining == pytest.approx(3.5)

    def test_metered_policy_has_no_slices(self):
        manager = QueryBudgetManager(4.0, policy="metered")
        with pytest.raises(PrivacyError):
            manager.next_budget()
        assert manager.debit(0.0) == 0.0  # zero debit always allowed
        manager.debit(4.0)
        with pytest.raises(BudgetExceededError):
            manager.debit(0.1)
        with pytest.raises(PrivacyError):
            manager.debit(-1.0)

    def test_degree_releases_are_metered(self, graph):
        registry = make_registry(100.0, 100.0)

        async def script(server):
            await server.query(0, 1, tenant="t0")  # pays RR + degrees
            await server.query(0, 1, tenant="t1")  # full hit: free

        serve(graph, registry, script, degree_epsilon=0.5)
        assert registry.get("t0").budget.spent == pytest.approx(
            2 * EPSILON + 2 * 0.5
        )
        assert registry.get("t1").budget.spent == 0.0


def test_slice_by_tenant_partitions_plan(graph):
    pairs = [
        QueryPair(Layer.UPPER, 0, 1),
        QueryPair(Layer.UPPER, 1, 2),
        QueryPair(Layer.UPPER, 3, 4),
    ]
    plan = plan_workload(graph, Layer.UPPER, pairs, EPSILON)
    slices = slice_by_tenant(plan, ["a", "b", "a"])
    assert set(slices) == {"a", "b"}
    assert slices["a"].num_pairs == 2
    np.testing.assert_array_equal(slices["a"].indices, [0, 2])
    np.testing.assert_array_equal(slices["a"].vertices, [0, 1, 3, 4])
    np.testing.assert_array_equal(slices["b"].vertices, [1, 2])
    with pytest.raises(ProtocolError):
        slice_by_tenant(plan, ["a"])


class _TallyLedger(PrivacyLedger):
    """A ledger that also totals the vertex-epsilon it is charged."""

    def __init__(self):
        super().__init__()
        self.vertex_epsilon = 0.0

    def charge_parallel(
        self, group, epsilon, mechanism="unknown", round_label="", *, count=1
    ):
        super().charge_parallel(group, epsilon, mechanism, round_label, count=count)
        self.vertex_epsilon += count * epsilon


@pytest.mark.parametrize(
    "views",
    [
        {"mode": ExecutionMode.MATERIALIZE},
        {"mode": ExecutionMode.SKETCH_VIEW, "sketch_bits": 512},
    ],
    ids=["materialize", "sketch-view"],
)
def test_vertex_views_meter_per_vertex_not_per_pair(graph, views):
    """Overlapping pairs served one per tick: a vertex's view is paid for
    once, so tenant debits = accountant lifetime total = ledger
    vertex-epsilon in both vertex-view modes."""
    registry = make_registry(100.0)
    ledger = _TallyLedger()

    async def script(server):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            await server.query(a, b, tenant="t0")
        return server.accountant, server.stats.ticks

    accountant, ticks = serve(graph, registry, script, ledger=ledger, **views)
    assert ticks == 3
    total_charged = sum(
        accountant.lifetime_spent(Layer.UPPER, v) for v in range(60)
    )
    metered = registry.get("t0").stats.epsilon_charged
    assert total_charged == pytest.approx(3 * EPSILON)
    assert metered == pytest.approx(total_charged)
    assert ledger.vertex_epsilon == pytest.approx(total_charged)
