"""Timing summaries: the median, the tail rule, and per-tick grouping."""

from __future__ import annotations

import numpy as np

__all__ = ["TAIL_BEYOND", "Tail", "median", "per_tick_max", "tail"]

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


class Tail:
    """A tail latency with the percentile it sits at and its sample count."""

    __slots__ = ("value", "percentile", "samples")

    def __init__(self, value: float, percentile: float, samples: int):
        self.value = value
        self.percentile = percentile
        self.samples = samples

    def describe(self, what: str) -> str:
        """The tail in ms (values are seconds), its percentile and sample."""
        return (
            f"p{self.percentile:.2f} = {self.value * 1e3:.3f} ms "
            f"over {self.samples} {what} ({TAIL_BEYOND} beyond it)"
        )


def median(samples) -> float:
    """Median of a non-empty sample."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(samples))


def tail(samples) -> Tail:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Sorted ascending, that is the value at index ``n - TAIL_BEYOND - 1``:
    exactly ``TAIL_BEYOND`` samples lie above it, and it sits at
    percentile ``100 * (n - TAIL_BEYOND) / n``.

    Raises
    ------
    ValueError
        If there are not more than ``TAIL_BEYOND`` samples.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = ordered.size
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    k = n - TAIL_BEYOND - 1
    return Tail(float(ordered[k]), 100.0 * (k + 1) / n, n)


def per_tick_max(ticks, latencies) -> np.ndarray:
    """The longest latency of each tick, one value per distinct tick id.

    Every query of a serving tick is answered by the same engine call, so
    the queries of one tick are one sample of the server's latency, not
    many: the tail is taken over ticks, each represented by the caller
    that waited longest in it.
    """
    ticks = np.asarray(ticks)
    latencies = np.asarray(latencies, dtype=np.float64)
    if ticks.size == 0:
        return np.empty(0, dtype=np.float64)
    order = np.argsort(ticks, kind="stable")
    sorted_ticks = ticks[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_ticks[1:] != sorted_ticks[:-1]])
    )
    return np.maximum.reduceat(latencies[order], starts)
