"""Sparse pairwise intersection counting and the vectorized OneR de-bias.

Once the workload's noisy lists sit in one CSR block, every queried pair's
noisy intersection size ``N1`` is an entry of the Gram matrix ``A Aᵀ``.
Three interchangeable backends compute exactly the same counts:

* ``bitset`` — rows packed into bit arrays, pairs answered by
  ``popcount(row_a & row_b)`` (:func:`numpy.bitwise_count`); fastest when
  ``rows × domain`` bits fit comfortably in memory.
* ``sparse`` — one SciPy CSR product ``A Aᵀ`` gathered at the query
  pairs; wins when the workload is dense in its distinct vertices (many
  pairs per row), e.g. all-pairs projections.
* ``merge`` — a ``searchsorted``-based sorted-merge per pair; the
  dependency-free fallback and the safe choice for huge sparse workloads.
"""

from __future__ import annotations

import numpy as np

from repro.privacy.debias import debias_intersection_counts
from repro.privacy.mechanisms import flip_probability

try:  # SciPy is optional: the other backends cover its absence.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised via backend="merge"
    _sparse = None

__all__ = [
    "HAVE_SCIPY",
    "PRODUCT_MAX_ROWS",
    "BITSET_MAX_CELLS",
    "choose_backend",
    "pack_bitset_rows",
    "pairwise_intersections",
    "debias_pair_counts",
]

HAVE_SCIPY = _sparse is not None
# numpy.bitwise_count arrived in NumPy 2.0; older builds fall back to the
# sparse/merge backends.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
# A @ A.T allocates an output over the workload's distinct-vertex square;
# beyond this many rows the Gram product is never attempted.
PRODUCT_MAX_ROWS = 32_768
# The bitset backend scatters a rows x domain boolean scratch (1 byte per
# cell) before packing; cap it at ~200 MB.
BITSET_MAX_CELLS = 200_000_000
# Pair blocks processed at once by the bitset backend (bounds the gathered
# packed-row working set).
_BITSET_PAIR_BLOCK = 16_384


def choose_backend(rows: int, num_pairs: int, domain: int) -> str:
    """Pick the counting backend for a workload shape.

    The thresholds are static memory guards: ``bitset`` while the dense
    ``rows x domain`` scratch stays under :data:`BITSET_MAX_CELLS`,
    ``sparse`` while the Gram output square stays under
    :data:`PRODUCT_MAX_ROWS` rows *and* the workload is pair-dense, else
    the dependency-free ``merge``. Because they are per-*shape*, a
    sharded workload must call this per shard block, not once for the
    whole workload: a 100k-row workload as a whole overflows the bitset
    scratch, while each of its 10k-row shard blocks fits comfortably —
    the shard runner therefore re-chooses per block
    (:meth:`repro.engine.sharded.ShardedRunner.pairwise`) and logs every
    choice in ``details["shards"]``.

    Parameters
    ----------
    rows:
        Distinct noisy rows the backend must hold (the workload's — or
        shard block's — vertex count).
    num_pairs:
        Query pairs to answer over those rows.
    domain:
        Opposite-layer size (columns of every row).

    Returns
    -------
    str
        ``"bitset"``, ``"sparse"`` or ``"merge"`` — all three return
        identical counts; only speed and scratch memory differ.

    Example
    -------
    >>> choose_backend(100, 1000, 1000) in {"bitset", "sparse", "merge"}
    True
    """
    if HAVE_BITWISE_COUNT and rows * max(domain, 1) <= BITSET_MAX_CELLS:
        return "bitset"
    if HAVE_SCIPY and rows <= PRODUCT_MAX_ROWS and num_pairs > rows:
        return "sparse"
    return "merge"


def pack_bitset_rows(
    indptr: np.ndarray, columns: np.ndarray, domain: int
) -> np.ndarray:
    """A CSR block of sorted neighbor lists as packed bit rows.

    Row ``i`` becomes ``ceil(domain / 8)`` bytes in :func:`numpy.packbits`
    order (bit ``c`` set iff column ``c`` is listed), the bitset
    backend's row format. The epoch cache holds every materialize view in
    this form, so serving ticks hand the bitset backend its ``packed``
    block without re-scattering. Scratch is one ``rows x domain`` boolean
    block set by one flat scatter at ``row * domain + column`` (callers
    bound it by packing in row chunks), so a column outside ``[0,
    domain)`` raises ``IndexError`` rather than set another row's bit.
    """
    rows = indptr.size - 1
    width = max(int(domain), 1)
    columns = np.asarray(columns, dtype=np.int64)
    # Negative ids wrap to huge unsigned values: one max checks both ends.
    if columns.size and columns.view(np.uint64).max() >= domain:
        raise IndexError(f"bit-row column out of range [0, {domain})")
    flat = np.repeat(np.arange(rows, dtype=np.int64) * width, np.diff(indptr))
    flat += columns
    dense = np.zeros(rows * width, dtype=bool)
    dense[flat] = True
    return np.packbits(dense.reshape(rows, width), axis=1)


def pairwise_intersections(
    indptr: np.ndarray | None,
    columns: np.ndarray | None,
    ia: np.ndarray,
    ib: np.ndarray,
    domain: int,
    *,
    backend: str | None = None,
    packed: np.ndarray | None = None,
) -> np.ndarray:
    """``|row(ia[j]) ∩ row(ib[j])|`` for every query pair ``j``.

    Rows are the (sorted) CSR neighbor lists; ``ia``/``ib`` hold row
    indices; all backends return identical counts. ``packed`` optionally
    supplies the bitset backend's packed row matrix (:func:`pack_bitset_rows`
    of the CSR block) so callers holding packed rows skip the packing
    pass; the CSR block may then be omitted (``indptr = columns = None``),
    and ``backend=None`` counts on it. Otherwise ``backend=None`` picks
    via :func:`choose_backend`; ``"sparse"`` and ``"merge"`` without the
    CSR block raise ``ValueError``.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    if backend is None:
        backend = "bitset" if packed is not None else choose_backend(
            indptr.size - 1, ia.size, domain
        )
    if backend in ("sparse", "merge") and (indptr is None or columns is None):
        raise ValueError(f"the {backend} backend needs the CSR block (indptr, columns)")
    if backend == "bitset":
        if not HAVE_BITWISE_COUNT:
            raise RuntimeError("the bitset backend needs numpy.bitwise_count (NumPy >= 2.0)")
        return _bitset_intersections(indptr, columns, ia, ib, domain, packed=packed)
    if backend == "sparse":
        if not HAVE_SCIPY:
            raise RuntimeError("the sparse backend needs SciPy")
        return _gram_intersections(indptr, columns, ia, ib, domain)
    if backend == "merge":
        return _merge_intersections(indptr, columns, ia, ib)
    raise ValueError(f"unknown backend {backend!r}")


def _bitset_intersections(indptr, columns, ia, ib, domain, packed=None) -> np.ndarray:
    if packed is None:
        packed = pack_bitset_rows(indptr, columns, domain)
    elif indptr is not None and packed.shape[0] != indptr.size - 1:
        raise ValueError(
            f"precomputed mask has {packed.shape[0]} rows, workload has "
            f"{indptr.size - 1}"
        )
    out = np.empty(ia.size, dtype=np.int64)
    for start in range(0, ia.size, _BITSET_PAIR_BLOCK):
        stop = min(start + _BITSET_PAIR_BLOCK, ia.size)
        both = packed[ia[start:stop]]
        np.bitwise_and(both, packed[ib[start:stop]], out=both)
        np.bitwise_count(both, out=both)
        out[start:stop] = both.sum(axis=1, dtype=np.uint32)
    return out


def _gram_intersections(indptr, columns, ia, ib, domain) -> np.ndarray:
    rows = indptr.size - 1
    matrix = _sparse.csr_matrix(
        (np.ones(columns.size, dtype=np.int64), columns, indptr),
        shape=(rows, max(int(domain), 1)),
    )
    gram = (matrix @ matrix.T).tocsr()
    return np.asarray(gram[ia, ib]).ravel().astype(np.int64)


def _merge_intersections(indptr, columns, ia, ib) -> np.ndarray:
    out = np.empty(ia.size, dtype=np.int64)
    for j in range(ia.size):
        a0, a1 = indptr[ia[j]], indptr[ia[j] + 1]
        b0, b1 = indptr[ib[j]], indptr[ib[j] + 1]
        if a1 - a0 > b1 - b0:
            a0, a1, b0, b1 = b0, b1, a0, a1
        short = columns[a0:a1]
        longer = columns[b0:b1]
        if short.size == 0 or longer.size == 0:
            out[j] = 0
            continue
        at = np.searchsorted(longer, short)
        at[at == longer.size] = longer.size - 1
        out[j] = int(np.count_nonzero(longer[at] == short))
    return out


def debias_pair_counts(
    n1: np.ndarray, n2: np.ndarray, domain: int, epsilon: float
) -> np.ndarray:
    """OneR's unbiased C2 estimate for every pair in one expression.

    ``f̃2 = [N1 (1-p)² - (N2 - N1) p(1-p) + (domain - N2) p²] / (1-2p)²``
    applied element-wise over the whole workload (paper Theorem 3); the
    algebra lives in :func:`repro.privacy.debias.debias_intersection_counts`.
    """
    return debias_intersection_counts(n1, n2, domain, flip_probability(epsilon))
