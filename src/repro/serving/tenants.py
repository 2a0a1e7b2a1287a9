"""Multi-tenant serving: per-analyst budgets in front of one shared cache.

The epoch cache makes noisy views *shared-report* releases: once a
vertex's report exists, answering another analyst's query from it costs
no additional privacy (the report is already public to the curator side).
What is **not** shared is the analysts' query quota — each tenant brings
its own :class:`~repro.privacy.composition.QueryBudgetManager`, and the
serving contract is:

* **cache hits are free for every tenant** — replaying an existing view
  releases nothing, so nobody's quota moves;
* **misses draw from the requesting tenant's budget** — the tick's fresh
  vertices are attributed to the *first* query (arrival order) that
  needs them, and that query's tenant pays ``epsilon`` per fresh vertex
  (plus ``degree_epsilon`` per fresh degree release when the server
  serves degrees);
* the :class:`~repro.privacy.epoch.EpochAccountant` keeps tracking the
  *true per-vertex* spend regardless of which tenant paid — tenant
  budgets are an analyst-side quota, not the privacy ledger.

A query whose tenant cannot cover its marginal cost is refused with
:class:`~repro.errors.BudgetExceededError` before anything is drawn; the
rest of the tick proceeds, and a vertex the refused query would have
paid for falls to the next query that needs it. Warm pre-draws at epoch
rotation are server-funded: the vertices they materialize are cache hits
for every tenant afterwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.engine.planner import pair_endpoints
from repro.errors import BudgetExceededError, ProtocolError
from repro.graph.sampling import QueryPair
from repro.privacy.composition import QueryBudgetManager
from repro.protocol.session import ExecutionMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.cache import NoisyViewCache

__all__ = ["TenantStats", "Tenant", "TenantRegistry", "Admission"]


@dataclass
class TenantStats:
    """Lifetime serving counters for one tenant."""

    queries: int = 0
    hits: int = 0
    misses: int = 0
    rejected: int = 0
    epsilon_charged: float = 0.0
    vertices_paid: int = 0

    def hit_rate(self) -> float:
        """Fraction of this tenant's served queries answered from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class Tenant:
    """One registered analyst: a name, a budget, and its counters."""

    name: str
    budget: QueryBudgetManager
    stats: TenantStats = field(default_factory=TenantStats)

    @property
    def remaining(self) -> float:
        """Quota still available to this tenant."""
        return self.budget.remaining


@dataclass(frozen=True)
class Admission:
    """One tick's admission decision over tenant-tagged queries."""

    admitted: tuple[int, ...]  # positions admitted, arrival order
    rejected: tuple[tuple[int, BudgetExceededError], ...]
    cost_by_query: tuple[float, ...]  # marginal cost debited per position
    vertices_by_query: tuple[int, ...]  # fresh vertices paid per position


class TenantRegistry:
    """Per-analyst budgets fronting a shared :class:`NoisyViewCache`.

    Register tenants before (or while) serving; hand the registry to
    :class:`~repro.serving.QueryServer` and tag every query with its
    tenant name. The registry owns nothing but quotas and counters — all
    privacy accounting stays with the cache's
    :class:`~repro.privacy.epoch.EpochAccountant`.
    """

    def __init__(self):
        self._tenants: dict[str, Tenant] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        total_epsilon: float,
        *,
        policy: str = "metered",
        **policy_kwargs,
    ) -> Tenant:
        """Add a tenant with a fresh budget manager and return it.

        Parameters
        ----------
        name:
            Unique tenant label (the tag queries carry).
        total_epsilon:
            The tenant's overall quota across all of its cache misses.
        policy, **policy_kwargs:
            Forwarded to :class:`QueryBudgetManager`. The default
            ``metered`` policy is the serving-native one: costs are
            debited as misses materialize.

        Raises
        ------
        ProtocolError
            If the name is empty or already registered.
        PrivacyError
            Propagated from :class:`QueryBudgetManager` for an invalid
            budget or policy.
        """
        if not name:
            raise ProtocolError("tenant name must be non-empty")
        if name in self._tenants:
            raise ProtocolError(f"tenant {name!r} is already registered")
        tenant = Tenant(
            name=name,
            budget=QueryBudgetManager(total_epsilon, policy=policy, **policy_kwargs),
        )
        self._tenants[name] = tenant
        return tenant

    def adopt(self, name: str, budget: QueryBudgetManager) -> Tenant:
        """Register a tenant around an existing budget manager.

        Raises
        ------
        ProtocolError
            If the name is empty or already registered.
        """
        if not name:
            raise ProtocolError("tenant name must be non-empty")
        if name in self._tenants:
            raise ProtocolError(f"tenant {name!r} is already registered")
        tenant = Tenant(name=name, budget=budget)
        self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        """Look a tenant up by name.

        Raises
        ------
        ProtocolError
            If no tenant with that name is registered.
        """
        try:
            return self._tenants[name]
        except KeyError:
            known = ", ".join(self._tenants) or "<none>"
            raise ProtocolError(
                f"unknown tenant {name!r}; registered: {known}"
            ) from None

    def names(self) -> list[str]:
        """Registered tenant names in registration order."""
        return list(self._tenants)

    def tenants(self) -> Iterable[Tenant]:
        """Registered tenants in registration order."""
        return self._tenants.values()

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    # ------------------------------------------------------------------
    def admit(
        self,
        queries: Sequence[tuple[QueryPair, str]],
        cache: "NoisyViewCache",
        *,
        degree_epsilon: float | None = None,
        endpoints: np.ndarray | None = None,
    ) -> Admission:
        """Decide one tick: who is served, who pays for what, who is refused.

        ``queries`` is the tick's batch in arrival order, each entry a
        ``(pair, tenant_name)`` tag. The marginal cost of a query is the
        serving epsilon for every *fresh* vertex it is the first to need
        this tick — vertex-granular in materialize and sketch-view modes,
        pair-granular only in sketch mode — plus ``degree_epsilon``
        for every fresh degree release — exactly the set the engine will
        charge, so the per-tenant debits sum to the tick's true spend.
        Queries whose tenant cannot pay are rejected (their cost falls to
        the next query that needs the same vertices); everything else is
        debited immediately.

        The cache answers which queries are charge-free (every view —
        or, in sketch mode, the pair — and, with ``degree_epsilon``,
        every degree already drawn this epoch) in one vectorized read
        over the tick's ``(n, 2)`` ``endpoints`` block (built from
        ``queries`` when not given). Those queries cost 0, a debit that
        is free and never refused; the arrival-order first-payer walk
        runs only over the rest.

        Returns the :class:`Admission`; tenant ``stats`` are updated for
        queries and rejections (hit/miss counts land post-serve via
        :meth:`settle`).

        Raises
        ------
        ProtocolError
            If a query names an unregistered tenant.
        """
        epsilon = cache.epsilon
        if endpoints is None:
            endpoints = pair_endpoints(list(map(itemgetter(0), queries)))
        sketch = cache.mode is ExecutionMode.SKETCH
        # Charge-free flags per query (sketch: the pair) or per endpoint.
        view_free = (
            cache.pair_charge_free_mask(endpoints)
            if sketch
            else cache.vertex_charge_free_mask(endpoints)
        )
        free = view_free if sketch else view_free.all(axis=1)
        if degree_epsilon is not None:
            # Drawn, not resident: an evicted-but-drawn degree reconstructs
            # privacy-free, so no tenant pays for it (keeping tenant
            # debits == accountant charges).
            degree_free = cache.degree_charge_free_mask(endpoints)
            free = free & degree_free.all(axis=1)
            degree_free = degree_free.tolist()
        view_free = view_free.tolist()
        covered_vertices: set[int] = set()
        covered_pairs: set[tuple[int, int]] = set()
        covered_degrees: set[int] = set()
        admitted: list[int] = []
        rejected: list[tuple[int, BudgetExceededError]] = []
        costs: list[float] = []
        vertex_counts: list[int] = []
        for i, ((pair, name), is_free) in enumerate(zip(queries, free.tolist())):
            tenant = self.get(name)
            tenant.stats.queries += 1
            if is_free:
                admitted.append(i)
                costs.append(0.0)
                vertex_counts.append(0)
                continue
            a, b = pair[1], pair[2]
            fresh_vertices: list[int] = []
            fresh_pair = None
            if not sketch:
                for v, charge_free in zip((a, b), view_free[i]):
                    if v in covered_vertices or charge_free:
                        continue
                    fresh_vertices.append(v)
            else:
                key = (a, b) if a <= b else (b, a)
                if key not in covered_pairs and not view_free[i]:
                    fresh_pair = key
                    for v in key:
                        if v not in covered_vertices:
                            fresh_vertices.append(v)
            fresh_degrees: list[int] = []
            if degree_epsilon is not None:
                for v, charge_free in zip((a, b), degree_free[i]):
                    if v in covered_degrees or charge_free:
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

    def refund(
        self,
        queries: Sequence[tuple[QueryPair, str]],
        admission: Admission,
    ) -> None:
        """Roll back a tick's admitted debits after the tick failed.

        When the engine refuses the tick *after* admission (an enforced
        epoch allowance, a capped ledger), nothing was released and no
        caller got an answer — so the reservations are undone: budgets
        are credited and the metering counters reversed, keeping the
        "tenant debits sum to accountant charges" invariant intact.
        """
        for position in admission.admitted:
            cost = admission.cost_by_query[position]
            if cost == 0.0 and admission.vertices_by_query[position] == 0:
                continue
            tenant = self.get(queries[position][1])
            tenant.budget.credit(cost)
            tenant.stats.epsilon_charged -= cost
            tenant.stats.vertices_paid -= admission.vertices_by_query[position]

    def settle(
        self, queries: Sequence[tuple[QueryPair, str]], hits: Sequence[bool]
    ) -> None:
        """Record post-serve hit/miss outcomes for the served queries."""
        for (name, hit), count in Counter(
            zip(map(itemgetter(1), queries), hits)
        ).items():
            stats = self.get(name).stats
            if hit:
                stats.hits += count
            else:
                stats.misses += count

    # ------------------------------------------------------------------
    def report(self) -> str:
        """One line per tenant: quota, spend, traffic and hit rate."""
        if not self._tenants:
            return "no tenants registered"
        lines = []
        width = max(len(name) for name in self._tenants)
        for tenant in self._tenants.values():
            s = tenant.stats
            lines.append(
                f"{tenant.name:<{width}}  "
                f"charged {s.epsilon_charged:7.3f} / {tenant.budget.total_epsilon:g} eps  "
                f"({s.vertices_paid} vertices)  "
                f"queries {s.queries} "
                f"(hits {s.hits}, misses {s.misses}, rejected {s.rejected}, "
                f"hit rate {s.hit_rate():.0%})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TenantRegistry({', '.join(self._tenants) or 'empty'})"
