#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 ldpbench/run.py --workload serve_churn --seed 1 --seconds 36 --trace 0

The run is split into segments; each segment times fresh set-ups of the
program (graph build, engine or server construction and start, warm-up) and
then drives the last one for its share of ``--seconds``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced segments
and prints the per-layer metrics, writing the spans to
``ldpbench/traces/``. Every run checks the program's answers; the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with status 2 before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("engine_batch", "serve_churn", "serve_wide")
#: Segments per run. A segment replays the same ticks from a fresh set-up,
#: so the pooled tail holds one copy of each rare slow tick (a rotation that
#: meets a full collection) per segment: few long segments put those ticks
#: far from a segment's end, so host speed rarely adds or drops a copy.
SEGMENTS = 4
#: Timed set-ups before each untraced segment, the segment's own included.
SETUPS_PER_SEGMENT = 3

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("eps_per_pair", "eps"),
    ("upload_bytes_per_pair", "B"),
    ("mae", "count"),
    ("peak_rss_mb", "MB"),
    ("answered_share", "share"),
)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> bool:
    """Put ``src/`` first on the path and check the program comes from it."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"ldpbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return False
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"ldpbench: repro imported from {origin}, not from {src}", file=sys.stderr)
        return False
    return True


def end_to_end(segments, setups: list[float], stats_lines: list[str]) -> dict[str, float]:
    """The end-to-end metrics of the untraced ``segments``.

    ``setups`` are every timed set-up of the run. Set-up time is their
    median; throughput and the median latency are taken per segment and
    reported as the median over segments, so a stretch of the run slowed by
    the host moves them less than it would a pooled figure. The tail pools
    every segment's samples, since it needs their count.
    """
    from ldpbench.measure import median, per_tick_max, tail

    window = segments[0].window
    latencies = [s.latency_s for s in segments]
    if segments[0].tick is None:
        tail_samples = latencies
        what = "engine calls"
    else:
        tail_samples = [per_tick_max(s.tick, s.latency_s) for s in segments]
        what = "ticks (each its slowest query)"
    tail_value = tail(np.concatenate(tail_samples))
    rates = [s.answered / s.phase_s for s in segments]
    p50s = [median(x) for x in latencies]
    stats_lines.append(
        f"latency_p50_ms over {sum(x.size for x in latencies)} samples; "
        "latency_tail_ms = " + tail_value.describe(what)
    )
    for label, values, scale in (
        ("setup_s samples", setups, 1.0),
        ("pairs_per_s per segment", rates, 1.0),
        ("latency_p50_ms per segment", p50s, 1e3),
    ):
        stats_lines.append(f"{label}: " + ", ".join(f"{x * scale:.4g}" for x in values))
    stats_lines.append(
        f"accounting window: {window.answered} answered of {window.attempted}"
    )
    return {
        "setup_s": median(setups),
        "pairs_per_s": median(rates),
        "latency_p50_ms": median(p50s) * 1e3,
        "latency_tail_ms": tail_value.value * 1e3,
        "eps_per_pair": window.eps / window.answered,
        "upload_bytes_per_pair": window.upload_bytes / window.answered,
        "mae": window.abs_error / window.answered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answered_share": window.answered / window.attempted,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2

    from ldpbench.inputs import build_inputs
    from ldpbench.layers import PER_LAYER, layer_metrics
    from ldpbench.tracer import SpanRecorder, instrument
    from ldpbench.workloads import run_segment, time_setup

    inputs = build_inputs(args.workload, args.seed)
    recorder = SpanRecorder() if args.trace else None
    untraced, traced, setups = [], [], []
    per_segment = args.seconds / SEGMENTS
    for index in range(SEGMENTS):
        is_traced = bool(args.trace) and index % 2 == 1
        if not is_traced:
            for _ in range(SETUPS_PER_SEGMENT - 1):
                gc.collect()
                setups.append(time_setup(inputs))
        gc.collect()
        record_window = index == 0 or (is_traced and not traced)
        scope = instrument(recorder) if is_traced else contextlib.nullcontext()
        with scope:
            segment = run_segment(
                inputs, per_segment, record_window, recorder if is_traced else None
            )
        (traced if is_traced else untraced).append(segment)
        if not is_traced:
            setups.append(segment.setup_s)

    segments = untraced + traced
    gates = [gate for s in segments for gate in s.gates]
    lines = [f"workload {args.workload} seed {args.seed}: {SEGMENTS} segments"]
    repeats: dict[tuple[bool, str], int] = {}
    for gate in gates:
        repeats[gate] = repeats.get(gate, 0) + 1
    lines += [
        ("ok   " if ok else "FAIL ") + message + (f" (x{n})" if n > 1 else "")
        for (ok, message), n in repeats.items()
    ]
    if args.trace:
        values = layer_metrics(recorder.arrays(), traced, untraced)
        units = dict(PER_LAYER)
        traces = ROOT / "ldpbench" / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        recorder.dump(path)
        lines.append(f"{len(recorder)} spans written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(untraced, setups, lines)
        units = dict(END_TO_END)
    for line in lines:
        print(line)
    result = {
        "correct": all(ok for ok, _ in gates) and bool(gates),
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
