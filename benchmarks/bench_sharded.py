"""Sharded bulk RR: fanned keyed draws vs. the single-process pass.

The keyed Philox contract makes the bulk-RR miss burst embarrassingly
partitionable over vertex ranges (bit-identical output per vertex
whatever the shard boundaries), so a burst whose noisy output exceeds
one worker's memory can fan out across forked processes. This benchmark
pins the two claims the sharding layer makes:

* **wall-clock speedup** — a 2-worker draw of a large miss burst must be
  >= 1.6x the single-process keyed pass (and a 4-worker draw must keep
  scaling when the machine has the cores). Fragments come back through
  the pool's result pipe, CRC32-checked; the fragment-shipping row of
  ``bench_transport.py`` times that return against inline and socket.
* **bounded per-worker memory** — with a ``mem_bytes`` shard budget,
  every worker's tracemalloc peak during its draw stays within the
  budget times the kernel's scratch factor (measured ~6.1x: counters,
  uniforms and gap buffers over the noisy payload), far below the
  unsharded pass's peak.

Both runs are asserted bit-identical to the serial keyed pass while
benchmarking. Speedup assertions are skipped when the host has a single
CPU (process parallelism cannot help there); the memory bound and
bit-identity are asserted always, quick mode included.

Run directly (``python benchmarks/bench_sharded.py``) or via pytest
(``pytest benchmarks/bench_sharded.py -s``). ``REPRO_BENCH_QUICK=1``
shrinks the workload to a seconds-long smoke run that still asserts the
speedup — the quick burst is sized so the draw dominates the fan-out
overhead.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine.bulkrr import keyed_bulk_randomized_response
from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner, fork_available
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
if QUICK:
    N_UPPER, N_LOWER, N_EDGES, BURST, REPEATS = 12_000, 1_200, 120_000, 10_000, 3
else:
    N_UPPER, N_LOWER, N_EDGES, BURST, REPEATS = 24_000, 1_500, 240_000, 20_000, 3
EPSILON = 2.0
ENTROPY = 99
# Worker peak over the planner's per-shard byte estimate: the keyed
# kernel's scratch (Philox counters, uniforms, gap buffers) measures
# ~6.1x the noisy payload; 8x is the guarded ceiling.
SCRATCH_FACTOR = 8.0
CPUS = os.cpu_count() or 1


def _best(fn, repeats=REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def run_sharded_bench() -> tuple[str, dict]:
    graph = random_bipartite(N_UPPER, N_LOWER, N_EDGES, rng=20260727)
    vertices = np.arange(BURST, dtype=np.int64)

    t_serial, reference = _best(
        lambda: keyed_bulk_randomized_response(
            graph, Layer.UPPER, vertices, EPSILON, entropy=ENTROPY, epoch=0
        )
    )

    rows: dict = {"serial": t_serial, "cpus": CPUS, "fork": fork_available()}
    lines = [
        f"{BURST}-vertex miss burst on {N_UPPER} x {N_LOWER} "
        f"({N_EDGES} edges), epsilon={EPSILON}, {CPUS} cpus"
        + (" [QUICK]" if QUICK else ""),
        "",
        f"{'draw path':<28} {'seconds':>9} {'speedup':>9}",
        f"{'serial keyed pass':<28} {t_serial:>9.3f} {1.0:>8.1f}x",
    ]

    worker_counts = [2] if QUICK else [2, 4]
    for workers in worker_counts:
        plan = plan_shards(
            graph, Layer.UPPER, vertices, EPSILON, shards=workers
        )
        with ShardedRunner(graph, Layer.UPPER, max_workers=workers) as runner:
            runner.draw(plan, EPSILON, entropy=ENTROPY, epoch=0)  # warm pool
            t_sharded, draw = _best(
                lambda: runner.draw(plan, EPSILON, entropy=ENTROPY, epoch=0)
            )
        # Bit-identity while benchmarking: shard boundaries are invisible.
        np.testing.assert_array_equal(draw.indptr, reference[0])
        np.testing.assert_array_equal(draw.columns, reference[1])
        speedup = t_serial / t_sharded
        rows[f"sharded_{workers}w"] = t_sharded
        rows[f"speedup_{workers}w"] = speedup
        lines.append(
            f"{f'sharded, {workers} workers':<28} {t_sharded:>9.3f} "
            f"{speedup:>8.1f}x"
        )

    # Per-worker memory bound: a mem-budget plan (about a quarter of the
    # burst per shard) must keep every worker's draw peak within the
    # scratch-factor envelope of the budget.
    budget = max(1, int(sum(plan.est_bytes)) // 4)
    mem_plan = plan_shards(
        graph, Layer.UPPER, vertices, EPSILON, mem_bytes=budget
    )
    with ShardedRunner(graph, Layer.UPPER, max_workers=2) as runner:
        probe = runner.draw(
            mem_plan, EPSILON, entropy=ENTROPY, epoch=0, measure_memory=True
        )
    np.testing.assert_array_equal(probe.columns, reference[1])
    peaks = [s["peak_bytes"] for s in probe.shards]
    rows["mem_budget"] = budget
    rows["worker_peak"] = max(peaks)
    rows["peak_over_budget"] = max(peaks) / budget
    lines += [
        "",
        f"memory probe: {mem_plan.num_shards} shards under a "
        f"{budget / 1e6:.1f} MB budget",
        f"worker peak {max(peaks) / 1e6:.1f} MB = "
        f"{rows['peak_over_budget']:.1f}x budget "
        f"(scratch ceiling {SCRATCH_FACTOR:.0f}x)",
    ]
    return "\n".join(lines), rows


def test_sharded_bench(emit):
    text, rows = run_sharded_bench()
    emit("sharded", text)
    # Bit-identity was asserted inside the run; the memory envelope holds
    # at every scale, quick mode included.
    assert rows["peak_over_budget"] <= SCRATCH_FACTOR, (
        f"worker peak is {rows['peak_over_budget']:.1f}x the shard budget"
    )
    if not rows["fork"] or CPUS < 2:
        return  # a single-cpu host cannot show process-parallel speedup
    assert rows["speedup_2w"] >= 1.6, (
        f"2-worker draw only {rows['speedup_2w']:.2f}x the serial pass"
    )
    if not QUICK and CPUS >= 4:
        assert rows["speedup_4w"] >= 2.2, (
            f"4-worker draw only {rows['speedup_4w']:.2f}x the serial pass"
        )


if __name__ == "__main__":
    text, _ = run_sharded_bench()
    print(text)
