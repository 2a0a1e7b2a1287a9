"""Mask-based tenant admission keeps the per-query admission loop's answers.

``loop_admit`` is :meth:`TenantRegistry.admit` as it was when every query
asked the cache its charge-free questions one scalar call at a time,
kept verbatim (as a function of the registry) as the reference. The live
``admit`` reads one charge-free mask for the whole tick and walks the
arrival-order first-payer loop only over queries that touch something
not yet charge-free. Over hypothesis ticks — three tenants, budgets tight
enough to refuse and fall through, repeated vertices and pairs, degree
releases on and off, materialize and sketch modes, cache state carried
across ticks — both must return the same :class:`Admission` and leave
the same tenant stats and remaining budgets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair
from repro.protocol.session import ExecutionMode
from repro.serving.cache import NoisyViewCache
from repro.serving.tenants import Admission, TenantRegistry

N_UPPER = 10
N_LOWER = 16
EPSILON = 1.0
DEGREE_EPSILON = 0.5
TENANTS = ("alpha", "beta", "gamma")


def loop_admit(registry, queries, cache, *, degree_epsilon=None) -> Admission:
    """The per-query admission loop (verbatim body of the earlier ``admit``)."""
    self = registry
    epsilon = cache.epsilon
    covered_vertices: set[int] = set()
    covered_pairs: set[tuple[int, int]] = set()
    covered_degrees: set[int] = set()
    admitted: list[int] = []
    rejected: list[tuple[int, BudgetExceededError]] = []
    costs: list[float] = []
    vertex_counts: list[int] = []
    for i, (pair, name) in enumerate(queries):
        tenant = self.get(name)
        tenant.stats.queries += 1
        fresh_vertices: list[int] = []
        fresh_pair = None
        if cache.mode is not ExecutionMode.SKETCH:
            for v in (int(pair.a), int(pair.b)):
                if v in covered_vertices or cache.vertex_charge_free(v):
                    continue
                fresh_vertices.append(v)
        else:
            key = cache.pair_key(pair.a, pair.b)
            if key not in covered_pairs and not cache.pair_charge_free(
                pair.a, pair.b
            ):
                fresh_pair = key
                for v in key:
                    if v not in covered_vertices:
                        fresh_vertices.append(v)
        fresh_degrees: list[int] = []
        if degree_epsilon is not None:
            for v in (int(pair.a), int(pair.b)):
                if v in covered_degrees or cache.degree_charge_free(v):
                    continue
                fresh_degrees.append(v)
        cost = epsilon * len(fresh_vertices) + (degree_epsilon or 0.0) * len(
            fresh_degrees
        )
        try:
            tenant.budget.debit(cost, party=f"tenant:{tenant.name}")
        except BudgetExceededError as exc:
            tenant.stats.rejected += 1
            rejected.append((i, exc))
            costs.append(0.0)
            vertex_counts.append(0)
            continue
        covered_vertices.update(fresh_vertices)
        covered_degrees.update(fresh_degrees)
        if fresh_pair is not None:
            covered_pairs.add(fresh_pair)
        tenant.stats.epsilon_charged += cost
        tenant.stats.vertices_paid += len(fresh_vertices)
        admitted.append(i)
        costs.append(cost)
        vertex_counts.append(len(fresh_vertices))
    return Admission(
        admitted=tuple(admitted),
        rejected=tuple(rejected),
        cost_by_query=tuple(costs),
        vertices_by_query=tuple(vertex_counts),
    )


def _registry(quotas) -> TenantRegistry:
    registry = TenantRegistry()
    for name, quota in zip(TENANTS, quotas):
        registry.register(name, quota)
    return registry


def _serve(cache: NoisyViewCache, queries, admission, degrees: bool) -> None:
    """What the tick would draw for the admitted queries (cache state for
    the next tick); the accountant is not under test here."""
    pairs = [queries[i][0] for i in admission.admitted]
    if not pairs:
        return
    ends = np.array([(p.a, p.b) for p in pairs], dtype=np.int64)
    if cache.mode is ExecutionMode.SKETCH:
        keys = np.sort(ends, axis=1)
        cache.store_pair_counts(keys, np.zeros(len(keys)), np.ones(len(keys)))
    else:
        cache.materialize_fresh(np.unique(ends[~cache.vertex_cached_mask(ends)]))
    if degrees:
        fresh = np.unique(ends)
        cache.store_degrees(fresh, np.zeros(fresh.size))


_vertex = st.integers(0, N_UPPER - 1)
_query = st.tuples(
    st.tuples(_vertex, _vertex).filter(lambda p: p[0] != p[1]),
    st.sampled_from(TENANTS),
)
_tick = st.lists(_query, min_size=1, max_size=12)


@pytest.mark.parametrize("mode", [ExecutionMode.MATERIALIZE, ExecutionMode.SKETCH])
@given(
    ticks=st.lists(_tick, min_size=1, max_size=4),
    quotas=st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0, 9.0]), min_size=3, max_size=3),
    degrees=st.booleans(),
    rotate_after=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_mask_admission_matches_loop(mode, ticks, quotas, degrees, rotate_after):
    rng = np.random.default_rng(11)
    edges = np.column_stack([rng.integers(0, N_UPPER, 40), rng.integers(0, N_LOWER, 40)])
    cache = NoisyViewCache(
        BipartiteGraph(N_UPPER, N_LOWER, edges), Layer.UPPER, EPSILON,
        mode=mode, max_entries=6, rng=np.random.default_rng(5),
    )
    # `given_ends` receives the tick's endpoint block, as the server passes
    # it; `live` builds it from the queries.
    live, given_ends, ref = (_registry(quotas) for _ in range(3))
    degree_epsilon = DEGREE_EPSILON if degrees else None
    for t, tick in enumerate(ticks):
        queries = [(QueryPair(Layer.UPPER, a, b), name) for (a, b), name in tick]
        ends = np.array([(p.a, p.b) for p, _ in queries], dtype=np.int64)
        want = loop_admit(ref, queries, cache, degree_epsilon=degree_epsilon)
        for registry, kwargs in ((live, {}), (given_ends, {"endpoints": ends})):
            got = registry.admit(
                queries, cache, degree_epsilon=degree_epsilon, **kwargs
            )
            assert got.admitted == want.admitted
            assert got.cost_by_query == want.cost_by_query
            assert got.vertices_by_query == want.vertices_by_query
            assert [(i, str(e), e.party) for i, e in got.rejected] == [
                (i, str(e), e.party) for i, e in want.rejected
            ]
            for name in TENANTS:
                assert registry.get(name).stats == ref.get(name).stats
                assert registry.get(name).remaining == ref.get(name).remaining
        # Degrees released on every other tick only, so degree and view
        # charge-freeness diverge.
        _serve(cache, queries, got, degrees and t % 2 == 0)
        cache.evict_to_budget()  # evicted-but-drawn entries stay charge-free
        if t + 1 == rotate_after:
            cache.rotate()


def test_settle_counts_hits_and_misses_per_tenant():
    registry = _registry([1.0, 1.0, 1.0])
    queries = [(QueryPair(Layer.UPPER, 0, i + 1), TENANTS[i % 3]) for i in range(7)]
    hits = np.array([True, False, True, True, True, False, False])
    registry.settle(queries, hits)
    stats = {name: (registry.get(name).stats.hits, registry.get(name).stats.misses) for name in TENANTS}
    assert stats == {"alpha": (2, 1), "beta": (1, 1), "gamma": (1, 1)}
