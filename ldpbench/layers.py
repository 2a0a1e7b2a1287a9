"""Per-layer metrics from the traced segments' spans.

Times are taken over the traced segments' measured phases and divided by
the phase's engine calls (one per serving tick). Counts are taken over the
first traced segment's accounting window (set-up warm-up plus the first
calls or ticks), so they repeat exactly for a fixed seed. A layer a
workload never enters reads 0.
"""

from __future__ import annotations

import numpy as np

from ldpbench.tracer import SpanArrays, covered_ns, self_times

__all__ = ["PER_LAYER", "layer_metrics"]

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("graph.build_ms", "ms"),
    ("graph.delta_apply_ms", "ms"),
    ("engine.planner.ms_per_call", "ms"),
    ("engine.planner.vertices_per_pair", "vertices/pair"),
    ("engine.bulkrr.shared_ms_per_call", "ms"),
    ("engine.bulkrr.keyed_ms_per_tick", "ms"),
    ("engine.bulkrr.ids_drawn", "count"),
    ("engine.bulkrr.ns_per_id", "ns"),
    ("engine.pairwise.ms_per_call", "ms"),
    ("engine.pairwise.pairs_counted", "count"),
    ("engine.sketch.ms_per_tick", "ms"),
    ("engine.sketch.pairs_drawn", "count"),
    ("engine.core.self_ms_per_call", "ms"),
    ("serving.server.self_ms_per_tick", "ms"),
    ("serving.server.pairs_per_tick", "pairs"),
    ("serving.server.queue_wait_ms_p50", "ms"),
    ("serving.cache.hit_ratio", "share"),
    ("serving.cache.gather_ms_per_tick", "ms"),
    ("serving.cache.fill_self_ms_per_tick", "ms"),
    ("serving.cache.evict_ms_per_tick", "ms"),
    ("serving.cache.evictions", "count"),
    ("serving.cache.recharges", "count"),
    ("serving.cache.rotate_ms", "ms"),
    ("serving.cache.resident_mb", "MB"),
    ("serving.tenants.admit_ms_per_tick", "ms"),
    ("privacy.charge_ms_per_tick", "ms"),
    ("privacy.eps_charged", "eps"),
    ("trace.overhead_share", "share"),
)

_MS = 1e-6  # ns -> ms


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


def _queue_waits(spans: SpanArrays, segments) -> np.ndarray:
    """Per traced query: from its issue to the start of its tick's engine call.

    A segment's k-th engine call is its server's tick k (tick 1 is the
    set-up warm-up burst), so the ``tick`` a query was answered in names
    the engine span it waited for.
    """
    engine = spans.of("engine.core")
    waits = []
    for seg in segments:
        if seg.issue_s is None:
            continue
        lo, hi = _ns(seg.setup_started), _ns(seg.phase_window[1])
        in_seg = engine & (spans.start >= lo) & (spans.start <= hi)
        tick_start = spans.start[in_seg]  # recorded in call order
        waits.append(tick_start[seg.tick - 1] * 1e-9 - seg.issue_s)
    return np.concatenate(waits) if waits else np.empty(0)


def layer_metrics(spans: SpanArrays, traced: list, untraced: list) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced and untraced segments.

    The first ``traced`` segment carries the accounting window and its
    span index range.
    """
    phase = np.zeros(spans.name.size, dtype=bool)
    wall_ns = 0
    top_covered = 0
    top = spans.parent < 0
    for seg in traced:
        lo, hi = _ns(seg.phase_window[0]), _ns(seg.phase_window[1])
        in_phase = (spans.start >= lo) & (spans.start < hi)
        phase |= in_phase
        wall_ns += hi - lo
        sel = np.flatnonzero(in_phase & top)
        top_covered += covered_ns(
            list(zip(spans.start[sel].tolist(), spans.end[sel].tolist())), lo, hi
        )
    calls = int(np.count_nonzero(phase & spans.of("engine.core")))
    per_call = 1.0 / calls if calls else 0.0
    duration = spans.duration
    selfs = self_times(spans.start, spans.end, spans.parent)

    def total_ms(*names: str) -> float:
        return float(duration[phase & spans.of(*names)].sum()) * _MS

    def mean_ms(name: str) -> float:
        sel = phase & spans.of(name)
        return float(duration[sel].mean()) * _MS if sel.any() else 0.0

    rr = phase & spans.of("engine.bulkrr.shared", "engine.bulkrr.keyed")
    ids = float(spans.count_a[rr].sum())
    accountant = spans.of("privacy.accountant")
    under_accountant = np.zeros_like(accountant)
    has_parent = spans.parent >= 0
    under_accountant[has_parent] = accountant[spans.parent[has_parent]]
    privacy_top = accountant | (spans.of("privacy.ledger") & ~under_accountant)

    first = traced[0]
    window = first.window
    lo, hi = window.span_range
    in_window = np.zeros(spans.name.size, dtype=bool)
    in_window[lo:hi] = True

    def window_count(*names: str, column: str = "count_a") -> float:
        return float(getattr(spans, column)[in_window & spans.of(*names)].sum())

    planned_pairs = window_count("engine.planner", column="count_b")
    waits = _queue_waits(spans, traced)
    builds = spans.of("graph.build")
    answered_traced = sum(s.answered for s in traced)
    pps_traced = answered_traced / sum(s.phase_s for s in traced)
    pps_untraced = sum(s.answered for s in untraced) / sum(s.phase_s for s in untraced)

    return {
        "graph.build_ms": float(duration[builds].mean()) * _MS if builds.any() else 0.0,
        "graph.delta_apply_ms": mean_ms("graph.delta_apply"),
        "engine.planner.ms_per_call": total_ms("engine.planner") * per_call,
        "engine.planner.vertices_per_pair": (
            window_count("engine.planner") / planned_pairs if planned_pairs else 0.0
        ),
        "engine.bulkrr.shared_ms_per_call": total_ms("engine.bulkrr.shared") * per_call,
        "engine.bulkrr.keyed_ms_per_tick": total_ms("engine.bulkrr.keyed") * per_call,
        "engine.bulkrr.ids_drawn": window_count("engine.bulkrr.shared", "engine.bulkrr.keyed"),
        "engine.bulkrr.ns_per_id": float(duration[rr].sum()) / ids if ids else 0.0,
        "engine.pairwise.ms_per_call": total_ms("engine.pairwise") * per_call,
        "engine.pairwise.pairs_counted": window_count("engine.pairwise"),
        "engine.sketch.ms_per_tick": total_ms("engine.sketch") * per_call,
        "engine.sketch.pairs_drawn": window_count("engine.sketch"),
        "engine.core.self_ms_per_call": (
            float(selfs[phase & spans.of("engine.core")].sum()) * _MS * per_call
        ),
        "serving.server.self_ms_per_tick": (wall_ns - top_covered) * _MS * per_call,
        "serving.server.pairs_per_tick": answered_traced * per_call,
        "serving.server.queue_wait_ms_p50": (
            float(np.median(waits)) * 1e3 if waits.size else 0.0
        ),
        "serving.cache.hit_ratio": (
            window.hits / window.lookups if window.lookups else 0.0
        ),
        "serving.cache.gather_ms_per_tick": total_ms("serving.cache.gather") * per_call,
        "serving.cache.fill_self_ms_per_tick": (
            float(selfs[phase & spans.of("serving.cache.fill")].sum()) * _MS * per_call
        ),
        "serving.cache.evict_ms_per_tick": total_ms("serving.cache.evict") * per_call,
        "serving.cache.evictions": float(window.evictions),
        "serving.cache.recharges": float(window.recharges),
        "serving.cache.rotate_ms": mean_ms("serving.cache.rotate"),
        "serving.cache.resident_mb": window.resident_bytes / 1e6,
        "serving.tenants.admit_ms_per_tick": total_ms("serving.tenants") * per_call,
        "privacy.charge_ms_per_tick": (
            float(duration[phase & privacy_top].sum()) * _MS * per_call
        ),
        "privacy.eps_charged": float(spans.count_a[in_window & privacy_top].sum()),
        "trace.overhead_share": 1.0 - pps_traced / pps_untraced,
    }
