"""Span recorder for the traced run, attached to the program from outside.

:func:`instrument` replaces the program's public functions with timing
wrappers at every place their callers look them up (module globals for
functions imported by name, class attributes for methods) and puts the
originals back on exit. The program itself is never edited. Each span
records its name, start and end (``perf_counter_ns``), its parent span and
up to two counts taken at the same boundary (rows drawn, pairs counted,
vertex-epsilon charged, ...). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

__all__ = [
    "SpanArrays",
    "SpanRecorder",
    "covered_ns",
    "instrument",
    "self_times",
]

CountFn = Callable[[tuple, dict, object], tuple[float, float]]


class SpanRecorder:
    """Collects nested spans from the wrappers :func:`instrument` installs.

    Wrapped calls are synchronous and the benchmark runs one thread, so a
    plain stack of open spans gives every span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name_id, start_ns, end_ns, parent, count_a, count_b]
        self.records: list[list] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        """``fn`` timed as a span called ``name``; ``count`` reads its counts."""
        nid = self.name_id(name)
        records = self.records
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, 0, 0, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(records))
            records.append(record)
            record[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                record[4], record[5] = count(args, kwargs, out)
            return out

        return traced

    def __len__(self) -> int:
        return len(self.records)

    def arrays(self) -> "SpanArrays":
        columns = list(zip(*self.records)) or [()] * 6
        name, start, end, parent = (np.array(c, dtype=np.int64) for c in columns[:4])
        return SpanArrays(
            names=list(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            count_a=np.array(columns[4], dtype=np.float64),
            count_b=np.array(columns[5], dtype=np.float64),
        )

    def dump(self, path) -> None:
        """Write every span as one JSON document (columns, times in ns)."""
        spans = self.arrays()
        origin = int(spans.start.min()) if spans.start.size else 0
        doc = {
            "names": spans.names,
            "name": spans.name.tolist(),
            "start_ns": (spans.start - origin).tolist(),
            "end_ns": (spans.end - origin).tolist(),
            "parent": spans.parent.tolist(),
            "count_a": spans.count_a.tolist(),
            "count_b": spans.count_b.tolist(),
        }
        with open(path, "w") as out:
            json.dump(doc, out, separators=(",", ":"))


@dataclass(frozen=True)
class SpanArrays:
    """The recorded spans as parallel columns."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    count_a: np.ndarray
    count_b: np.ndarray

    def of(self, *names: str) -> np.ndarray:
        """Boolean mask of spans whose name is one of ``names``."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[i]), []).append((int(start[i]), int(end[i])))
    out = (end - start).astype(np.int64)
    for p, kids in children.items():
        out[p] -= covered_ns(kids, int(start[p]), int(end[p]))
    return out


# ----------------------------------------------------------------------
# What is wrapped, where it is looked up, and what each span counts
# ----------------------------------------------------------------------
def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_plan(args, kwargs, plan):
    return float(plan.num_vertices), float(plan.num_pairs)


def _count_rows(args, kwargs, out):
    return float(np.asarray(out[1]).size), 0.0


def _count_pairwise(args, kwargs, out):
    return float(np.asarray(_arg(args, kwargs, 2, "ia")).size), 0.0


def _count_sketch(args, kwargs, out):
    return float(np.asarray(_arg(args, kwargs, 3, "ia")).size), 0.0


def _count_batch(args, kwargs, out):
    return float(len(_arg(args, kwargs, 3, "pairs"))), 0.0


def _count_returned(args, kwargs, out):
    return float(out), 0.0


def _count_sketch_fresh(args, kwargs, out):
    return float(len(_arg(args, kwargs, 1, "keys"))), float(out[2])


def _count_charge_vertices(args, kwargs, party):
    if party is None:  # nothing charged (no vertices, or zero epsilon)
        return 0.0, 0.0
    vertices = np.atleast_1d(_arg(args, kwargs, 2, "vertices"))
    return float(vertices.size) * float(_arg(args, kwargs, 3, "epsilon")), 0.0


def _count_charge_parallel(args, kwargs, out):
    count = int(kwargs.get("count", 1))
    epsilon = float(_arg(args, kwargs, 2, "epsilon"))
    return (float(count) * epsilon if count > 0 else 0.0), 0.0


def _sites() -> list[tuple[object, str, str, CountFn | None]]:
    """(owner, attribute, span name, counter) for every lookup site.

    Functions are wrapped in each engine and serving module that imports
    them by name; the applications layer is on no workload's path.
    """
    import repro.engine.core as core
    import repro.engine.sharded as sharded
    import repro.engine.sketch as sketch
    import repro.engine.transport as transport
    import repro.serving.cache as cache
    from repro.engine.core import BatchQueryEngine
    from repro.graph.bipartite import BipartiteGraph
    from repro.privacy.accountant import PrivacyLedger
    from repro.privacy.epoch import EpochAccountant
    from repro.serving.cache import NoisyViewCache
    from repro.serving.tenants import TenantRegistry

    return [
        (core, "plan_workload", "engine.planner", _count_plan),
        (core, "bulk_randomized_response", "engine.bulkrr.shared", _count_rows),
        (cache, "bulk_randomized_response", "engine.bulkrr.shared", _count_rows),
        (cache, "keyed_bulk_randomized_response", "engine.bulkrr.keyed", _count_rows),
        (transport, "keyed_bulk_randomized_response", "engine.bulkrr.keyed", _count_rows),
        (core, "pairwise_intersections", "engine.pairwise", _count_pairwise),
        (sketch, "pairwise_intersections", "engine.pairwise", _count_pairwise),
        (sharded, "pairwise_intersections", "engine.pairwise", _count_pairwise),
        (transport, "pairwise_intersections", "engine.pairwise", _count_pairwise),
        (core, "sketch_pair_counts", "engine.sketch", _count_sketch),
        (cache, "sketch_pair_counts", "engine.sketch", _count_sketch),
        (BatchQueryEngine, "estimate_pairs", "engine.core", _count_batch),
        (NoisyViewCache, "materialize_fresh", "serving.cache.fill", _count_returned),
        (NoisyViewCache, "sketch_fresh", "serving.cache.fill", _count_sketch_fresh),
        (NoisyViewCache, "gather_views", "serving.cache.gather", None),
        (NoisyViewCache, "packed_matrix", "serving.cache.gather", None),
        (NoisyViewCache, "evict_to_budget", "serving.cache.evict", _count_returned),
        (NoisyViewCache, "rotate", "serving.cache.rotate", None),
        (TenantRegistry, "admit", "serving.tenants", None),
        (TenantRegistry, "settle", "serving.tenants", None),
        (EpochAccountant, "charge_vertices", "privacy.accountant", _count_charge_vertices),
        (PrivacyLedger, "charge_parallel", "privacy.ledger", _count_charge_parallel),
        (BipartiteGraph, "__init__", "graph.build", None),
        (BipartiteGraph, "apply_edge_delta", "graph.delta_apply", None),
    ]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every site for the duration of the ``with`` block."""
    saved = []
    try:
        for owner, attr, name, count in _sites():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
