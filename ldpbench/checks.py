"""Ground truth and correctness gates, computed from the benchmark's own arrays.

The exact common-neighbour counts come from the benchmark's copy of the
edge list (and its own replay of the mutation script), never from the
program's graph object, so a program bug cannot hide in its own reference.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.analysis.loss import oner_variance

__all__ = [
    "EdgeSet",
    "independent_mask",
    "repeat_gate",
    "standardized_error_gate",
]


class EdgeSet:
    """An edge set as sorted ``upper * n_lower + lower`` codes.

    Answers exact ``C2`` queries on the upper layer and applies mutation
    bursts out of place, so every graph snapshot a server passes through
    can be rebuilt independently of the program.
    """

    def __init__(self, n_upper: int, n_lower: int, codes: np.ndarray):
        self.n_upper = int(n_upper)
        self.n_lower = int(n_lower)
        self.codes = np.asarray(codes, dtype=np.int64)
        upper = self.codes // self.n_lower
        counts = np.bincount(upper, minlength=self.n_upper)
        self.indptr = np.zeros(self.n_upper + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices = self.codes % self.n_lower
        self.degrees = counts.astype(np.int64)

    @classmethod
    def from_edges(cls, n_upper: int, n_lower: int, edges: np.ndarray) -> "EdgeSet":
        edges = np.asarray(edges, dtype=np.int64)
        return cls(n_upper, n_lower, np.unique(edges[:, 0] * n_lower + edges[:, 1]))

    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` edge array in lexicographic order."""
        return np.column_stack([self.codes // self.n_lower, self.indices])

    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> "EdgeSet":
        """The edge set after one burst: deletes dropped, inserts added."""
        ins = inserts[:, 0] * self.n_lower + inserts[:, 1]
        dels = deletes[:, 0] * self.n_lower + deletes[:, 1]
        kept = np.setdiff1d(self.codes, dels, assume_unique=True)
        return EdgeSet(self.n_upper, self.n_lower, np.union1d(kept, ins))

    def common_neighbors(self, a, b) -> np.ndarray:
        """Exact ``C2(a[i], b[i])`` for every pair, as int64."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # Walk the smaller neighbourhood of each pair and look its
        # neighbours up in the other endpoint's rows of the sorted codes.
        swap = self.degrees[a] > self.degrees[b]
        small = np.where(swap, b, a)
        large = np.where(swap, a, b)
        lengths = self.degrees[small]
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(a.size, dtype=np.int64)
        pair = np.repeat(np.arange(a.size), lengths)
        starts = np.cumsum(lengths) - lengths
        offsets = (
            np.arange(total)
            - np.repeat(starts, lengths)
            + np.repeat(self.indptr[small], lengths)
        )
        wanted = large[pair] * self.n_lower + self.indices[offsets]
        slots = np.searchsorted(self.codes, wanted).clip(max=self.codes.size - 1)
        found = self.codes[slots] == wanted
        return np.bincount(pair, weights=found, minlength=a.size).astype(np.int64)


def independent_mask(sources: Iterable[Sequence[Hashable]]) -> np.ndarray:
    """Keep an answer only if none of its noise sources fed a kept answer.

    ``sources`` yields, per answer, the keys of the random draws it was
    computed from (a vertex's noisy row in one draw, or a pair's own
    draw). Answers sharing a draw are correlated, so a mean over them is
    not a mean of independent errors; the greedy pass keeps a set of
    answers with pairwise-disjoint draws, in arrival order.
    """
    used: set = set()
    keep = []
    for keys in sources:
        if any(k in used for k in keys):
            keep.append(False)
            continue
        used.update(keys)
        keep.append(True)
    return np.asarray(keep, dtype=bool)


def standardized_error_gate(
    estimates: np.ndarray,
    exact: np.ndarray,
    deg_a: np.ndarray,
    deg_b: np.ndarray,
    n_opposite: int,
    epsilon: float,
) -> tuple[bool, str]:
    """OneR unbiasedness: mean standardized error within ``4/sqrt(n)`` of 0.

    Each error is divided by the exact OneR standard deviation
    (``repro.analysis.loss.oner_variance``) at the pair's true degrees.
    The answers must come from pairwise-independent draws (see
    :func:`independent_mask`), so the mean of ``n`` of them has standard
    deviation ``1/sqrt(n)`` and a correct estimator fails the gate with
    probability about 6e-5.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    n = int(estimates.size)
    if n == 0:
        return False, "standardized error: no independent answers"
    var = oner_variance(
        epsilon,
        n_opposite,
        np.asarray(deg_a, dtype=np.float64),
        np.asarray(deg_b, dtype=np.float64),
    )
    z = (estimates - np.asarray(exact, dtype=np.float64)) / np.sqrt(var)
    mean = float(z.mean())
    bound = 4.0 / math.sqrt(n)
    ok = abs(mean) <= bound
    return ok, (
        f"standardized error: mean {mean:+.4f} over {n} independent answers, "
        f"bound {bound:.4f} ({'pass' if ok else 'FAIL'})"
    )


def repeat_gate(
    a: np.ndarray, b: np.ndarray, values: np.ndarray, epochs: np.ndarray
) -> tuple[bool, str]:
    """Every pair answered more than once in one epoch got one bit pattern.

    Within an epoch a served estimate is a pure function of cached draws,
    so a repeated pair must return exactly the same float. The gate also
    fails when the window holds no repeat at all, since then it checked
    nothing.
    """
    seen: dict[tuple[int, int, int], float] = {}
    repeats = mismatches = 0
    for x, y, value, epoch in zip(a.tolist(), b.tolist(), values.tolist(), epochs.tolist()):
        key = (min(x, y), max(x, y), epoch)
        if key in seen:
            repeats += 1
            mismatches += seen[key] != value
        else:
            seen[key] = value
    ok = repeats > 0 and mismatches == 0
    return ok, (
        f"in-epoch repeats: {repeats}, {mismatches} not bit-identical "
        f"({'pass' if ok else 'FAIL'})"
    )
