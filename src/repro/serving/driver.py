"""Simulated client workloads against a :class:`QueryServer`.

The CLI's ``serve`` subcommand and the serving benchmarks both need the
same thing: many concurrent clients issuing single-pair queries with
optional think time, against one server, with summary statistics at the
end. :func:`simulate_clients` provides that driver and
:func:`serving_report` renders the outcome (coalescing, cache hit rate,
eviction pressure, per-epoch budget spend, per-tenant metering) as text.

On a multi-tenant server, clients are assigned round-robin to the
registry's tenants and a client whose tenant runs out of quota simply
has that query refused — the refusal is counted, the client carries on,
exactly like an analyst whose API key hit its cap.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import (
    BudgetExceededError,
    QueryDeadlineError,
    ServerOverloadedError,
)
from repro.graph.sampling import QueryPair, sample_query_pairs
from repro.privacy.rng import RngLike, ensure_rng, spawn_rngs
from repro.serving.server import QueryServer, ServedEstimate

__all__ = [
    "SimulationResult",
    "sample_mutation_batch",
    "simulate_clients",
    "simulate_streaming",
    "serving_report",
]


@dataclass(frozen=True)
class SimulationResult:
    """Everything a driver run produced."""

    estimates: list[ServedEstimate]
    elapsed_seconds: float
    num_clients: int
    queries_per_client: int
    rejected: int = 0  # tenant-budget refusals absorbed by the clients
    shed: int = 0  # admission-queue refusals (ServerOverloadedError)
    expired: int = 0  # per-query deadline expiries (QueryDeadlineError)

    @property
    def throughput(self) -> float:
        """Served queries per second of wall-clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.estimates) / self.elapsed_seconds


def _pool_pairs(server: QueryServer, pool, count: int, rng) -> list[QueryPair]:
    """Uniform distinct-endpoint pairs drawn from a hot vertex pool."""
    pool = np.asarray(pool, dtype=np.int64)
    picks = [rng.choice(pool.size, size=2, replace=False) for _ in range(count)]
    return [QueryPair(server.layer, pool[a], pool[b]) for a, b in picks]


async def simulate_clients(
    server: QueryServer,
    num_clients: int,
    queries_per_client: int,
    *,
    rng: RngLike = None,
    think_time: float = 0.0,
    replays: int = 1,
    pool: Sequence[int] | None = None,
) -> SimulationResult:
    """Run ``num_clients`` concurrent clients against a started server.

    Each client draws its own query-pair workload (uniform same-layer
    pairs over active vertices), then issues it sequentially — so
    concurrency, and therefore coalescing, comes from clients racing each
    other, exactly like independent analysts would. ``replays > 1``
    repeats every client's workload within the current epoch, which
    exercises the cache-hit path (replays are budget-free by
    construction). ``think_time`` adds a uniform 0..think_time pause
    between a client's queries. ``pool`` restricts every client's pairs
    to a hot vertex subset — the skewed traffic shape where the epoch
    cache pays off even before any replay.

    When the server carries a :class:`~repro.serving.TenantRegistry`,
    clients are assigned round-robin to its tenants and tag every query;
    per-query :class:`~repro.errors.BudgetExceededError` refusals are
    swallowed and counted in ``SimulationResult.rejected``. Resilience
    refusals behave the same way: a query shed by the admission queue
    (:class:`~repro.errors.ServerOverloadedError`) or expired past its
    deadline (:class:`~repro.errors.QueryDeadlineError`) is counted in
    ``shed`` / ``expired`` and the client carries on — neither refusal
    charges anyone anything.
    """
    parent = ensure_rng(rng)
    workloads = [
        sample_query_pairs(server.graph, server.layer, queries_per_client, rng=child)
        if pool is None
        else _pool_pairs(server, pool, queries_per_client, child)
        for child in spawn_rngs(parent, num_clients)
    ]
    pause_rngs = spawn_rngs(parent, num_clients)
    tenant_names = server.tenants.names() if server.tenants is not None else None

    async def one_client(
        index: int,
    ) -> tuple[list[ServedEstimate], int, int, int]:
        tenant = (
            tenant_names[index % len(tenant_names)] if tenant_names else None
        )
        out: list[ServedEstimate] = []
        refused = shed = expired = 0
        for _ in range(max(1, replays)):
            for pair in workloads[index]:
                if think_time > 0:
                    await asyncio.sleep(think_time * pause_rngs[index].random())
                try:
                    out.append(await server.query_pair(pair, tenant=tenant))
                except BudgetExceededError:
                    refused += 1
                except ServerOverloadedError:
                    shed += 1
                except QueryDeadlineError:
                    expired += 1
        return out, refused, shed, expired

    start = time.perf_counter()
    per_client = await asyncio.gather(
        *(one_client(i) for i in range(num_clients))
    )
    elapsed = time.perf_counter() - start
    estimates = [estimate for client, _, _, _ in per_client for estimate in client]
    return SimulationResult(
        estimates=estimates,
        elapsed_seconds=elapsed,
        num_clients=num_clients,
        queries_per_client=queries_per_client,
        rejected=sum(refused for _, refused, _, _ in per_client),
        shed=sum(shed for _, _, shed, _ in per_client),
        expired=sum(expired for _, _, _, expired in per_client),
    )


def sample_mutation_batch(
    graph, rng: RngLike = None, ops: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """A random streaming burst: ~half edge deletes, ~half fresh inserts.

    Deletes are sampled uniformly from the graph's current edges; inserts
    are uniform absent pairs (rejection-sampled against membership), so
    the burst is always applicable to ``graph`` as-is. Returns
    ``(inserts, deletes)`` edge arrays, either possibly empty.
    """
    rng = ensure_rng(rng)
    ops = max(1, int(ops))
    n_del = min(ops // 2, graph.num_edges)
    deletes = (
        graph.edges[rng.choice(graph.num_edges, size=n_del, replace=False)]
        if n_del
        else np.empty((0, 2), dtype=np.int64)
    )
    n_ins = ops - n_del
    found: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    while len(found) < n_ins and attempts < 50 * ops:
        u = int(rng.integers(graph.num_upper))
        l = int(rng.integers(graph.num_lower))
        attempts += 1
        if (u, l) in seen or graph.has_edge(u, l):
            continue
        seen.add((u, l))
        found.append((u, l))
    inserts = (
        np.array(found, dtype=np.int64)
        if found
        else np.empty((0, 2), dtype=np.int64)
    )
    return inserts, deletes


async def simulate_streaming(
    server: QueryServer,
    num_clients: int,
    queries_per_client: int,
    *,
    rng: RngLike = None,
    replays: int = 1,
    bursts: int = 1,
    edges_per_burst: int = 8,
    pool: Sequence[int] | None = None,
) -> SimulationResult:
    """Client waves interleaved with streaming mutation bursts.

    Runs one :func:`simulate_clients` wave, then ``bursts`` times: record
    a random mutation batch (:func:`sample_mutation_batch`) against the
    server, rotate the epoch — incrementally, so only the dirty vertices
    redraw — and run another client wave over the mutated snapshot.
    Results aggregate across every wave; ``elapsed_seconds`` covers the
    whole run including rotations.
    """
    parent = ensure_rng(rng)
    start = time.perf_counter()
    waves = [
        await simulate_clients(
            server, num_clients, queries_per_client,
            rng=parent, replays=replays, pool=pool,
        )
    ]
    for _ in range(max(0, int(bursts))):
        inserts, deletes = sample_mutation_batch(
            server.graph, parent, edges_per_burst
        )
        server.mutate(inserts=inserts, deletes=deletes)
        server.rotate_epoch()
        waves.append(
            await simulate_clients(
                server, num_clients, queries_per_client,
                rng=parent, replays=replays, pool=pool,
            )
        )
    elapsed = time.perf_counter() - start
    return SimulationResult(
        estimates=[e for wave in waves for e in wave.estimates],
        elapsed_seconds=elapsed,
        num_clients=num_clients,
        queries_per_client=queries_per_client * len(waves),
        rejected=sum(w.rejected for w in waves),
        shed=sum(w.shed for w in waves),
        expired=sum(w.expired for w in waves),
    )


def serving_report(server: QueryServer, result: SimulationResult) -> str:
    """Human-readable summary of a driver run."""
    stats, cache = server.stats, server.cache
    accountant = server.accountant
    lines = [
        f"mode            : {server.mode.value} (epsilon={server.epsilon:g})",
        f"queries served  : {stats.queries_served} "
        f"({result.num_clients} clients x {result.queries_per_client} queries"
        + (f", {result.rejected} refused" if result.rejected else "")
        + ")",
        f"ticks           : {stats.ticks} "
        f"(mean {stats.mean_coalesced():.1f} queries/tick, "
        f"max {stats.max_coalesced})",
        f"throughput      : {result.throughput:,.0f} queries/s "
        f"({result.elapsed_seconds * 1e3:.1f} ms total)",
        f"cache           : {cache.stats.vertex_hits + cache.stats.pair_hits} hits / "
        f"{cache.stats.vertex_misses + cache.stats.pair_misses} misses "
        f"(hit rate {cache.stats.hit_rate():.1%})",
    ]
    if cache.bounded:
        budget = (
            f"{cache.max_bytes:,} B" if cache.max_bytes is not None
            else f"{cache.max_entries} entries"
        )
        lines.append(
            f"memory          : {cache.nbytes():,} B resident "
            f"({cache.entries()} entries, budget {budget}, "
            f"{cache.stats.evictions} evictions, "
            f"{cache.stats.recharges} recharges)"
        )
    lines += [
        f"epochs          : {cache.epoch + 1} "
        f"(rotations: {cache.stats.rotations}"
        + (f", timed: {stats.timed_rotations}" if stats.timed_rotations else "")
        + (f", warmed: {stats.warmed_vertices} views" if stats.warmed_vertices else "")
        + ")",
        f"budget (epoch)  : max per-vertex spend {accountant.max_epoch_spent():.4f}",
        f"budget (total)  : max per-vertex spend {accountant.max_lifetime_spent():.4f}",
        f"ledger          : max party spend {server.ledger.max_spent():.4f} "
        f"across {len(server.ledger.charges)} aggregated charges",
        f"upload          : {server.comm.total_bytes():,} bytes",
    ]
    if stats.mutations or cache.stats.incremental_rotations:
        last = (
            cache.last_rotation
            if cache.last_rotation.get("incremental")
            else {}
        )
        lines.append(
            f"streaming       : {stats.mutations} edge ops, "
            f"{cache.stats.incremental_rotations} incremental rotations"
            + (
                f" (last: {last['dirty']} dirty, "
                f"+{last['inserts']}/-{last['deletes']})"
                if last
                else ""
            )
            + (
                f", {stats.subscription_refreshes} subscription refreshes"
                if stats.subscription_refreshes
                else ""
            )
        )
    ingest = server.ingest_ledger()
    if ingest and (ingest["delta_pushes"] or ingest["graph_installs"]):
        lines.append(
            f"ingest          : {ingest['delta_pushes']} delta pushes "
            f"({ingest['delta_bytes']:,} B, saved "
            f"{ingest['delta_saved_bytes']:,} B vs graph re-ship), "
            f"{ingest['graph_installs']} full installs, "
            f"{ingest['diverged']} diverged"
        )
    # Degraded behavior must be visible from the demo: refusals the
    # clients absorbed, plus whatever the shard resilience layer did.
    if result.shed or result.expired or stats.stalled_ticks:
        lines.append(
            f"resilience      : {result.shed} shed, "
            f"{result.expired} expired, {stats.stalled_ticks} stalled ticks"
        )
    runner = server._shard_runner
    if runner is not None and any(runner.fault_totals.values()):
        totals = runner.fault_totals
        lines.append(
            f"shard faults    : {totals['retries']} retries "
            f"({totals['worker_deaths']} worker deaths, "
            f"{totals['timeouts']} timeouts, "
            f"{totals['payload_errors']} payload errors), "
            f"{totals['degraded_ranges']} degraded ranges"
        )
    if server.tenants is not None:
        lines.append("tenants         :")
        for line in server.tenants.report().splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)
