"""The four workloads: timed set-up, a closed-loop phase, and their gates.

A run is split into segments. Each segment builds the program again from
the input arrays (the timed set-up), drives it for its share of the run's
seconds, and tears it down untimed, so set-up time is sampled across the
whole run instead of once at process start. Every segment starts from the
same inputs and the same program seeds, so the first calls or ticks of a
segment (the *accounting window*) are identical whenever it runs.

Serving clients are coroutines on one asyncio loop and the server runs with
``tick_interval=0`` and no timers, deadlines, threads or worker processes,
so the seed alone decides which queries share each tick.
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.engine.core import BatchQueryEngine
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.graph.sampling import QueryPair
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.mechanisms import flip_probability
from repro.protocol.messages import CommunicationLog, Direction
from repro.protocol.session import ExecutionMode
from repro.serving.server import QueryServer
from repro.serving.tenants import TenantRegistry

from ldpbench.checks import (
    EdgeSet,
    independent_mask,
    repeat_gate,
    standardized_error_gate,
)
from ldpbench.inputs import EPSILON, Inputs, derive_seed

__all__ = ["WINDOW", "Segment", "TallyLedger", "Window", "run_segment", "time_setup"]

UPPER = Layer.UPPER
#: Accounting window: calls (engine_batch) or ticks (serving) after set-up.
WINDOW = {"engine_batch": 10, "serve_churn": 60, "serve_wide": 100}
#: serve_churn: a 32-edge mutation burst and a rotation every this many ticks.
CHURN_EVERY = 20
#: serve_churn tenants; their quotas are far beyond anything a run spends.
TENANTS = ("alpha", "beta", "gamma")
TENANT_QUOTA = 1e12
#: serve_wide rotates its epoch (and drops its pair store) this often.
WIDE_EPOCH_TICKS = 40


class TallyLedger(PrivacyLedger):
    """A privacy ledger that also totals the vertex-epsilon it is charged.

    ``charge_parallel`` records one entry for ``count`` disjoint vertices;
    ``vertex_epsilon`` adds ``count * epsilon`` for each, which is the total
    privacy spend the charge stands for.
    """

    def __init__(self, limit: float | None = None):
        super().__init__(limit=limit)
        self.vertex_epsilon = 0.0

    def charge_parallel(
        self, group, epsilon, mechanism="unknown", round_label="", *, count=1
    ):
        super().charge_parallel(group, epsilon, mechanism, round_label, count=count)
        if count > 0 and epsilon > 0:
            self.vertex_epsilon += count * epsilon


@dataclass
class Window:
    """Deterministic accounting over the set-up warm-up and the first calls/ticks."""

    attempted: int = 0
    answered: int = 0
    eps: float = 0.0  # vertex-epsilon charged
    upload_bytes: int = 0
    abs_error: float = 0.0  # summed |estimate - exact C2|
    # Cache counters over the window's phase ticks (serving only).
    hits: int = 0
    lookups: int = 0
    evictions: int = 0
    recharges: int = 0
    resident_bytes: int = 0
    span_range: tuple[int, int] = (0, 0)  # recorder indices (traced segments)


@dataclass
class Segment:
    """What one segment measured."""

    setup_started: float  # perf_counter() when set-up began
    setup_s: float
    phase_s: float
    attempted: int
    answered: int
    failed: int
    latency_s: np.ndarray  # per engine call, or per query() await
    tick: np.ndarray | None  # per query: the server tick that answered it
    issue_s: np.ndarray | None  # per query issue time (traced serving only)
    phase_window: tuple[float, float]  # perf_counter() bounds of the phase
    window: Window | None
    gates: list[tuple[bool, str]] = field(default_factory=list)


def _report_failure(exc: BaseException) -> None:
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def _pairs(a: np.ndarray, b: np.ndarray) -> list[QueryPair]:
    return [QueryPair(UPPER, x, y) for x, y in zip(a.tolist(), b.tolist())]


def _build_graph(inputs: Inputs) -> BipartiteGraph:
    g = inputs.graph
    return BipartiteGraph(g.n_upper, g.n_lower, g.edges)


# ----------------------------------------------------------------------
# engine_batch: back-to-back uncached engine calls
# ----------------------------------------------------------------------
def _engine_call(engine, graph, pairs, rng):
    ledger = TallyLedger(limit=EPSILON)
    comm = CommunicationLog()
    result = engine.estimate_pairs(
        graph, UPPER, pairs, EPSILON, rng=rng, ledger=ledger, comm=comm
    )
    return result, ledger, comm


def _engine_setup(inputs: Inputs):
    """The timed set-up: build the graph and the engine, make one warm call."""
    t0 = perf_counter()
    graph = _build_graph(inputs)
    engine = BatchQueryEngine()
    rng = np.random.default_rng(derive_seed(inputs.seed, 4))
    warm = _engine_call(engine, graph, _pairs(inputs.stream_a[0], inputs.stream_b[0]), rng)
    return t0, perf_counter() - t0, graph, engine, rng, warm


def _engine_segment(inputs: Inputs, seconds: float, record_window: bool, recorder) -> Segment:
    stream_a, stream_b = inputs.stream_a, inputs.stream_b
    rows = stream_a.shape[0]
    window_calls = WINDOW["engine_batch"]
    span_start = len(recorder) if recorder is not None else 0

    t0, setup_s, graph, engine, rng, warm_call = _engine_setup(inputs)
    warm, warm_ledger, warm_comm = warm_call

    window = Window() if record_window else None
    recorded: list[tuple[int, np.ndarray]] = []
    if window is not None:
        window.attempted = window.answered = warm.values.size
        window.eps = warm_ledger.vertex_epsilon
        window.upload_bytes = warm_comm.total_bytes(Direction.UPLOAD)
        recorded.append((0, warm.values))

    latencies = array("d")
    attempted = failed = answered = calls = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        row = 1 + calls % (rows - 1)
        pairs = _pairs(stream_a[row], stream_b[row])
        attempted += len(pairs)
        t = perf_counter()
        try:
            result, ledger, comm = _engine_call(engine, graph, pairs, rng)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            failed += len(pairs)
            _report_failure(exc)
            result = None
        done = perf_counter()
        calls += 1
        if result is not None:
            latencies.append(done - t)
            answered += result.values.size
        if window is not None and calls <= window_calls:
            window.attempted += len(pairs)
            if result is not None:
                window.answered += result.values.size
                window.eps += ledger.vertex_epsilon
                window.upload_bytes += comm.total_bytes(Direction.UPLOAD)
                recorded.append((row, result.values))
            if calls == window_calls and recorder is not None:
                window.span_range = (span_start, len(recorder))
        if done >= deadline and (window is None or calls >= window_calls):
            break
    end = perf_counter()

    gates: list[tuple[bool, str]] = []
    if window is not None:
        truth = EdgeSet.from_edges(inputs.graph.n_upper, inputs.graph.n_lower, inputs.graph.edges)
        a = np.concatenate([stream_a[row] for row, _ in recorded]).astype(np.int64)
        b = np.concatenate([stream_b[row] for row, _ in recorded]).astype(np.int64)
        values = np.concatenate([v for _, v in recorded])
        call = np.repeat(np.arange(len(recorded)), [v.size for _, v in recorded])
        exact = truth.common_neighbors(a, b)
        window.abs_error = float(np.abs(values - exact).sum())
        # Each call draws fresh rows, so a vertex's noise is shared only by
        # the pairs of one call that contain it.
        keep = independent_mask(
            ((c, x), (c, y)) for c, x, y in zip(call.tolist(), a.tolist(), b.tolist())
        )
        gates.append(
            standardized_error_gate(
                values[keep], exact[keep], truth.degrees[a[keep]],
                truth.degrees[b[keep]], inputs.graph.n_lower, EPSILON,
            )
        )
    return Segment(
        setup_started=t0,
        setup_s=setup_s,
        phase_s=end - start,
        attempted=attempted,
        answered=answered,
        failed=failed,
        latency_s=np.frombuffer(latencies, dtype=np.float64).copy(),
        tick=None,
        issue_s=None,
        phase_window=(start, end),
        window=window,
        gates=gates,
    )


# ----------------------------------------------------------------------
# Serving workloads: closed-loop clients against one QueryServer
# ----------------------------------------------------------------------
def _churn_cache_bytes(inputs: Inputs) -> int:
    """About a quarter of every active upper vertex's expected view bytes.

    A view is the noisy neighbour list (8-byte ids, expected size
    ``(1-p)*deg + p*(n_lower - deg)``) plus its packed bitset row.
    """
    g = inputs.graph
    p = flip_probability(EPSILON)
    deg = np.bincount(g.edges[:, 0], minlength=g.n_upper)[g.active].astype(np.float64)
    ids = (1.0 - p) * deg + p * (g.n_lower - deg)
    packed = (g.n_lower + 7) // 8
    return int(0.25 * float((8.0 * ids + packed).sum()))


def _make_server(inputs: Inputs, graph: BipartiteGraph):
    rng = np.random.default_rng(derive_seed(inputs.seed, 4))
    ledger = TallyLedger()
    if inputs.workload == "serve_churn":
        tenants = TenantRegistry()
        for name in TENANTS:
            tenants.register(name, TENANT_QUOTA)
        server = QueryServer(
            graph, UPPER, EPSILON,
            cache_bytes=_churn_cache_bytes(inputs),
            tenants=tenants, ledger=ledger, rng=rng,
        )
        return server, tenants
    if inputs.workload == "serve_wide":
        server = QueryServer(
            graph, UPPER, EPSILON,
            epoch_ticks=WIDE_EPOCH_TICKS, ledger=ledger, rng=rng,
        )
        return server, None
    raise ValueError(f"not a serving workload: {inputs.workload}")


def _cache_counters(server: QueryServer) -> tuple[int, int, int, int]:
    stats = server.cache.stats
    hits = stats.vertex_hits + stats.pair_hits
    return hits, hits + stats.vertex_misses + stats.pair_misses, stats.evictions, stats.recharges


async def _serving_setup(inputs: Inputs):
    """The timed set-up: build the graph and the server, start it, and send
    one warm-up burst of pairs that touches every active upper vertex."""
    churn = inputs.workload == "serve_churn"
    t0 = perf_counter()
    graph = _build_graph(inputs)
    server, tenants = _make_server(inputs, graph)
    await server.start()
    warm_tenants = [TENANTS[i % len(TENANTS)] if churn else None for i in range(inputs.warm_a.size)]
    warm = await asyncio.gather(
        *(
            server.query(a, b, tenant=t)
            for a, b, t in zip(inputs.warm_a.tolist(), inputs.warm_b.tolist(), warm_tenants)
        )
    )
    return t0, perf_counter() - t0, server, tenants, warm


async def _serving_segment(
    inputs: Inputs, seconds: float, record_window: bool, recorder
) -> Segment:
    workload = inputs.workload
    stream_a, stream_b = inputs.stream_a, inputs.stream_b
    rows, clients = stream_a.shape
    churn = workload == "serve_churn"
    window_last = 1 + WINDOW[workload]  # tick 1 is the set-up warm-up burst
    span_start = len(recorder) if recorder is not None else 0

    t0, setup_s, server, tenants, warm = await _serving_setup(inputs)

    setup_counters = _cache_counters(server)
    window = Window() if record_window else None
    answers = Answers()
    if window is not None:
        for e in warm:
            answers.add(e.pair.a, e.pair.b, e.value, e.epoch)
    del warm

    latencies = array("d")
    tick_ids = array("q")
    issued = array("d") if recorder is not None else None
    state = {"stop": False, "attempted": 0, "failed": 0, "window_failed": 0, "bursts": 0}
    snapshot: dict = {}

    async def client(i: int) -> None:
        tenant = TENANTS[i % len(TENANTS)] if churn else None
        j = 0
        while not state["stop"]:
            a = int(stream_a[j % rows, i])
            b = int(stream_b[j % rows, i])
            j += 1
            state["attempted"] += 1
            t = perf_counter()
            try:
                estimate = await server.query(a, b, tenant=tenant)
            except Exception as exc:  # noqa: BLE001 - counted, client continues
                state["failed"] += 1
                if window is not None and not snapshot:
                    state["window_failed"] += 1
                if state["failed"] == 1:
                    _report_failure(exc)
                continue
            latencies.append(perf_counter() - t)
            tick_ids.append(estimate.tick)
            if issued is not None:
                issued.append(t)
            if window is not None and estimate.tick <= window_last:
                answers.add(a, b, estimate.value, estimate.epoch)

    async def observer() -> None:
        """Close the accounting window and, on serve_churn, write bursts.

        Runs once per loop iteration; at least one iteration separates two
        ticks, so it sees every tick boundary before the next tick starts.
        """
        next_burst = CHURN_EVERY
        while True:
            await asyncio.sleep(0)
            if state["stop"]:
                return
            ticks = server.stats.ticks
            if window is not None and not snapshot and ticks >= window_last:
                snapshot["eps"] = server.ledger.vertex_epsilon
                snapshot["upload"] = server.comm.total_bytes(Direction.UPLOAD)
                snapshot["counters"] = _cache_counters(server)
                snapshot["resident"] = server.cache.nbytes()
                if recorder is not None:
                    snapshot["spans"] = len(recorder)
            if churn and ticks >= next_burst:
                inserts, deletes = inputs.mutations[state["bursts"]]
                server.mutate(inserts, deletes)
                server.rotate_epoch()
                state["bursts"] += 1
                next_burst += CHURN_EVERY

    start = perf_counter()
    tasks = [asyncio.create_task(client(i)) for i in range(clients)]
    watch = asyncio.create_task(observer())
    await asyncio.sleep(seconds)
    while window is not None and not snapshot:
        await asyncio.sleep(0.01)
    state["stop"] = True
    await asyncio.gather(*tasks)
    end = perf_counter()
    await watch
    await server.stop()

    gates = _segment_gates(inputs, server, tenants, state["bursts"])
    if window is not None:
        columns = answers.columns()
        a, b, values, epochs = columns
        exact, deg_a, deg_b = _exact_by_epoch(inputs, a, b, epochs)
        gates += _window_gates(inputs, server, columns, exact, deg_a, deg_b)
        window.answered = len(answers)
        window.attempted = window.answered + state["window_failed"]
        window.eps = snapshot["eps"]
        window.upload_bytes = snapshot["upload"]
        hits, lookups, evictions, recharges = (
            x - y for x, y in zip(snapshot["counters"], setup_counters)
        )
        window.hits, window.lookups = hits, lookups
        window.evictions, window.recharges = evictions, recharges
        window.resident_bytes = snapshot["resident"]
        window.abs_error = float(np.abs(values - exact).sum())
        if recorder is not None:
            window.span_range = (span_start, snapshot["spans"])

    return Segment(
        setup_started=t0,
        setup_s=setup_s,
        phase_s=end - start,
        attempted=state["attempted"],
        answered=len(latencies),
        failed=state["failed"],
        latency_s=np.frombuffer(latencies, dtype=np.float64).copy(),
        tick=np.frombuffer(tick_ids, dtype=np.int64).copy(),
        issue_s=None if issued is None else np.frombuffer(issued, dtype=np.float64).copy(),
        phase_window=(start, end),
        window=window,
        gates=gates,
    )


class Answers:
    """Window answers as flat columns, so recording them adds no Python
    objects for the collector to walk while the phase is timed."""

    def __init__(self) -> None:
        self._a, self._b = array("q"), array("q")
        self._value, self._epoch = array("d"), array("q")

    def add(self, a: int, b: int, value: float, epoch: int) -> None:
        self._a.append(a)
        self._b.append(b)
        self._value.append(value)
        self._epoch.append(epoch)

    def __len__(self) -> int:
        return len(self._a)

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(a, b, value, epoch)`` as numpy arrays."""
        return (
            np.array(self._a, dtype=np.int64),
            np.array(self._b, dtype=np.int64),
            np.array(self._value, dtype=np.float64),
            np.array(self._epoch, dtype=np.int64),
        )


def _snapshots(inputs: Inputs, epochs: int) -> list[EdgeSet]:
    """The graph of every epoch up to ``epochs``: the mutation script replayed.

    On serve_churn each rotation applies exactly one burst, so epoch ``e``
    serves the initial graph plus the first ``e`` bursts.
    """
    g = inputs.graph
    snaps = [EdgeSet.from_edges(g.n_upper, g.n_lower, g.edges)]
    for inserts, deletes in inputs.mutations[:epochs]:
        snaps.append(snaps[-1].apply(inserts, deletes))
    return snaps


def _exact_by_epoch(inputs, a, b, epochs):
    """Exact C2 and degrees of every answer on the graph of its epoch."""
    snaps = _snapshots(inputs, int(epochs.max()) if inputs.mutations else 0)
    exact = np.empty(a.size, dtype=np.int64)
    deg_a = np.empty(a.size, dtype=np.int64)
    deg_b = np.empty(a.size, dtype=np.int64)
    for e in np.unique(epochs):
        snap = snaps[int(e)] if inputs.mutations else snaps[0]
        sel = epochs == e
        exact[sel] = snap.common_neighbors(a[sel], b[sel])
        deg_a[sel] = snap.degrees[a[sel]]
        deg_b[sel] = snap.degrees[b[sel]]
    return exact, deg_a, deg_b


def _segment_gates(inputs, server, tenants, bursts):
    """Checks on the server's state at the end of every serving segment."""
    gates: list[tuple[bool, str]] = []
    if inputs.workload == "serve_churn":
        accountant = server.accountant
        accountant_total = sum(
            accountant.lifetime_spent(UPPER, v)
            for v in range(server.graph.layer_size(UPPER))
        )
        tenant_total = sum(t.stats.epsilon_charged for t in tenants.tenants())
        ledger_total = server.ledger.vertex_epsilon
        ok = abs(ledger_total - accountant_total) < 1e-6 and abs(
            accountant_total - tenant_total
        ) < 1e-6
        gates.append(
            (
                ok,
                f"budget conservation: ledger {ledger_total:.1f} = accountant "
                f"{accountant_total:.1f} = tenants {tenant_total:.1f}",
            )
        )
        allowance = accountant.epsilon_per_epoch
        worst = max(accountant.epoch_peaks() + [accountant.max_epoch_spent()])
        gates.append(
            (
                allowance is not None and worst <= allowance + 1e-9,
                f"worst per-vertex epoch spend {worst:g} within allowance {allowance}",
            )
        )
        replay = _snapshots(inputs, bursts)[-1]
        same = np.array_equal(np.asarray(server.graph.edges), replay.edges())
        gates.append((same, f"served graph equals the replay of {bursts} mutation bursts"))
    return gates


def _window_gates(inputs, server, columns, exact, deg_a, deg_b):
    """Checks on the answers of the accounting window."""
    a, b, values, epochs = columns
    gates: list[tuple[bool, str]] = []
    if inputs.workload == "serve_wide":
        gates.append(repeat_gate(a, b, values, epochs))
    if server.mode is ExecutionMode.SKETCH:
        # Each new pair draws its own counts; repeats replay them.
        sources = (
            ((min(x, y), max(x, y), e),)
            for x, y, e in zip(a.tolist(), b.tolist(), epochs.tolist())
        )
    else:
        # A vertex keeps one noisy row until a mutation dirties it (which
        # bumps its stream version); evicted rows are rebuilt bit-identically.
        versions = _versions_by_epoch(inputs, int(epochs.max()))
        sources = (
            ((x, versions[e].get(x, 0)), (y, versions[e].get(y, 0)))
            for x, y, e in zip(a.tolist(), b.tolist(), epochs.tolist())
        )
    keep = independent_mask(sources)
    gates.append(
        standardized_error_gate(
            values[keep], exact[keep], deg_a[keep], deg_b[keep],
            inputs.graph.n_lower, EPSILON,
        )
    )
    return gates


def _versions_by_epoch(inputs, epochs: int) -> list[dict[int, int]]:
    """Per epoch, how many bursts so far changed each upper vertex's edges."""
    versions: list[dict[int, int]] = [{}]
    for inserts, deletes in inputs.mutations[:epochs]:
        current = dict(versions[-1])
        for v in np.unique(np.concatenate([inserts[:, 0], deletes[:, 0]])).tolist():
            current[v] = current.get(v, 0) + 1
        versions.append(current)
    return versions


def time_setup(inputs: Inputs) -> float:
    """Seconds one more set-up of ``inputs.workload`` takes; it is then
    torn down untimed, so set-up can be sampled more often than the run
    has segments."""
    if inputs.workload == "engine_batch":
        return _engine_setup(inputs)[1]

    async def once() -> float:
        _, seconds, server, _, _ = await _serving_setup(inputs)
        await server.stop()
        return seconds

    return asyncio.run(once())


def run_segment(
    inputs: Inputs, seconds: float, record_window: bool, recorder=None
) -> Segment:
    """Set up, drive and tear down one segment of ``inputs.workload``.

    ``record_window`` keeps the accounting window and runs its gates;
    ``recorder`` (traced segments) is the span recorder the program is
    instrumented with, read for window span indices.
    """
    if inputs.workload == "engine_batch":
        return _engine_segment(inputs, seconds, record_window, recorder)
    return asyncio.run(_serving_segment(inputs, seconds, record_window, recorder))
