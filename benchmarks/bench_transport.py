"""Transport substrates: fork vs socket overhead, in-worker reduction win.

The pluggable :class:`~repro.engine.transport.ShardTransport` layer
claims three things this benchmark pins or reports:

* **substrate overhead** — the same keyed workload through the inline,
  fork and socket-loopback substrates returns byte-identical output,
  and the wall-clock cost of each substrate is reported side by side
  (fork pays pool forking + the result pipe; socket pays TCP framing +
  a one-time GRAPH install per worker).
* **fragment shipping** — the same :meth:`ShardedRunner.draw` of the
  burst, where every range returns its whole noisy CSR fragment to the
  parent, timed through each substrate. This is the case that moves the
  most bytes per answer; the row reports times and asserts byte
  identity, with no floor.
* **in-worker diagonal reduction** — on a pair-dense workload whose
  pairs all live inside their shard, workers reduce ``N1`` locally and
  return scalars instead of noisy CSR fragments. The bytes that actually
  cross to the parent must shrink by at least
  :data:`REDUCTION_FLOOR` (1.5x) against shipping the fragments — the
  acceptance bound for the traffic win that makes remote workers pay.

Byte-identity across substrates is asserted throughout; a transport
benchmark is only meaningful if every substrate serves the same bits.

Run directly (``python benchmarks/bench_transport.py``) or via pytest
(``pytest benchmarks/bench_transport.py -s``). ``REPRO_BENCH_QUICK=1``
shrinks the workload to a seconds-long smoke run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine.planner import plan_shards
from repro.engine.sharded import ShardedRunner
from repro.engine.transport import (
    ForkTransport,
    InlineTransport,
    SocketTransport,
    fork_available,
)
from repro.graph.bipartite import Layer
from repro.graph.generators import random_bipartite

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
if QUICK:
    N_UPPER, N_LOWER, N_EDGES, BURST, REPEATS = 4_000, 600, 40_000, 3_000, 2
else:
    N_UPPER, N_LOWER, N_EDGES, BURST, REPEATS = 12_000, 900, 120_000, 8_000, 3
EPSILON = 2.0
ENTROPY = 20260808
SHARDS = 4
WORKERS = 2
# The acceptance floor: in-worker reduction must cut parent-bound bytes
# by at least this factor on an all-diagonal (pair-dense) workload.
REDUCTION_FLOOR = 1.5
SRC = Path(__file__).resolve().parents[1] / "src"


def _best(fn, repeats=REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def launch_worker():
    """Start one loopback worker; return (process, "host:port")."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.engine.worker",
            "--listen",
            "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise RuntimeError(f"worker never announced itself: {line!r}")
    return proc, line.split(" ", 1)[1]


def diagonal_pairs(plan) -> tuple[np.ndarray, np.ndarray]:
    """A pair-dense workload: every pair inside its own shard range."""
    ia, ib = [], []
    for s in range(plan.num_shards):
        lo, hi = int(plan.offsets[s]), int(plan.offsets[s + 1])
        for a in range(lo, hi - 1, 2):
            ia.append(a)
            ib.append(a + 1)
    return (
        np.array(ia, dtype=np.int64),
        np.array(ib, dtype=np.int64),
    )


def run_transport_bench() -> tuple[str, dict]:
    graph = random_bipartite(N_UPPER, N_LOWER, N_EDGES, rng=20260808)
    vertices = np.arange(BURST, dtype=np.int64)
    plan = plan_shards(graph, Layer.UPPER, vertices, EPSILON, shards=SHARDS)
    ia, ib = diagonal_pairs(plan)
    kwargs = dict(
        entropy=ENTROPY, epoch=0, ia=ia, ib=ib, domain=graph.num_lower
    )

    def draw_all(runner):
        return runner.draw(plan, EPSILON, entropy=ENTROPY, epoch=0)

    rows: dict = {"pairs": int(ia.size), "cpus": os.cpu_count() or 1}
    lines = [
        f"{BURST}-vertex burst, {ia.size} diagonal pairs over {SHARDS} "
        f"ranges on {N_UPPER} x {N_LOWER} ({N_EDGES} edges), "
        f"epsilon={EPSILON}" + (" [QUICK]" if QUICK else ""),
        "",
        f"{'substrate':<28} {'seconds':>9} {'to-parent bytes':>16}",
    ]

    # Inline reference: the substrate every other one must match.
    with ShardedRunner(
        graph, Layer.UPPER, transport=InlineTransport()
    ) as runner:
        t_inline, ref = _best(
            lambda: runner.run_workload(plan, EPSILON, **kwargs)
        )
        frag_times = {"inline": _best(lambda: draw_all(runner))}
    rows["inline_s"] = t_inline
    lines.append(f"{'inline (no processes)':<28} {t_inline:>9.3f} {'-':>16}")

    draws = {}
    if fork_available():
        with ShardedRunner(
            graph, Layer.UPPER, transport=ForkTransport(max_workers=WORKERS)
        ) as runner:
            runner.run_workload(plan, EPSILON, **kwargs)  # warm the pool
            t_fork, fork_draw = _best(
                lambda: runner.run_workload(plan, EPSILON, **kwargs)
            )
            frag_times["fork"] = _best(lambda: draw_all(runner))
        draws["fork"] = fork_draw
        rows["fork_s"] = t_fork
        rows["fork_bytes_to_parent"] = fork_draw.transport["bytes_to_parent"]
        lines.append(
            f"{'fork (2 workers, pipe)':<28} {t_fork:>9.3f} "
            f"{fork_draw.transport['bytes_to_parent']:>16,}"
        )

    procs = [launch_worker() for _ in range(WORKERS)]
    try:
        transport = SocketTransport([addr for _, addr in procs])
        with ShardedRunner(
            graph, Layer.UPPER, transport=transport
        ) as runner:
            runner.run_workload(plan, EPSILON, **kwargs)  # install graphs
            t_socket, socket_draw = _best(
                lambda: runner.run_workload(plan, EPSILON, **kwargs)
            )
            frag_times["socket"] = _best(lambda: draw_all(runner))
    finally:
        for proc, _ in procs:
            proc.terminate()
        for proc, _ in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
    draws["socket"] = socket_draw
    rows["socket_s"] = t_socket
    detail = socket_draw.transport
    rows["socket_bytes_to_parent"] = detail["bytes_to_parent"]
    rows["socket_bytes_saved"] = detail["bytes_saved"]
    lines.append(
        f"{'socket (2 loopback workers)':<28} {t_socket:>9.3f} "
        f"{detail['bytes_to_parent']:>16,}"
    )

    # Byte-identity across every substrate that ran.
    for name, draw in draws.items():
        np.testing.assert_array_equal(ref.n1, draw.n1, err_msg=name)
        np.testing.assert_array_equal(ref.sizes, draw.sizes, err_msg=name)

    # Fragment shipping: every range's noisy CSR crosses to the parent.
    _, frag_ref = frag_times["inline"]
    frag_mb = (frag_ref.columns.nbytes + frag_ref.indptr.nbytes) / 1e6
    lines += [
        "",
        f"fragment shipping: draw() of the same burst, every fragment "
        f"to the parent ({frag_mb:.1f} MB)",
        f"{'substrate':<28} {'seconds':>9}",
    ]
    labels = {
        "inline": "inline (no processes)",
        "fork": "fork (2 workers, pipe)",
        "socket": "socket (2 loopback workers)",
    }
    for name, (seconds, frag_draw) in frag_times.items():
        np.testing.assert_array_equal(
            frag_ref.indptr, frag_draw.indptr, err_msg=name
        )
        np.testing.assert_array_equal(
            frag_ref.columns, frag_draw.columns, err_msg=name
        )
        rows[f"draw_{name}_s"] = seconds
        lines.append(f"{labels[name]:<28} {seconds:>9.3f}")

    # The reduction win: what the fragments would have cost vs what the
    # reduced scalars actually cost across the wire.
    shipped = detail["bytes_to_parent"]
    would_have = shipped + detail["bytes_saved"]
    reduction = would_have / max(1, shipped)
    rows["reduction_factor"] = reduction
    rows["reduced_shards"] = detail["reduced_shards"]
    lines += [
        "",
        f"in-worker diagonal reduction: {detail['reduced_shards']}/{SHARDS} "
        f"shards reduced locally, {detail['reduced_pairs']} pairs",
        f"parent-bound traffic: {shipped:,} bytes vs {would_have:,} "
        f"shipping fragments — {reduction:.1f}x smaller "
        f"(floor {REDUCTION_FLOOR}x)",
    ]
    return "\n".join(lines), rows


def test_transport_bench(emit):
    text, rows = run_transport_bench()
    emit("transport", text)
    # Byte-identity across substrates (fragment shipping included) was
    # asserted inside the run; the contract pinned here is the traffic
    # win of in-worker reduction.
    assert rows["reduced_shards"] == SHARDS, (
        "an all-diagonal workload must reduce every shard in-worker"
    )
    assert rows["reduction_factor"] >= REDUCTION_FLOOR, (
        f"in-worker reduction only cut parent-bound bytes by "
        f"{rows['reduction_factor']:.2f}x (floor {REDUCTION_FLOOR}x)"
    )


if __name__ == "__main__":
    text, _ = run_transport_bench()
    print(text)
