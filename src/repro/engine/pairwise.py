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
* ``merge`` — one vectorized sorted merge over every pair: each pair's
  two sorted rows become keys ``pair * domain + column``, one
  ``searchsorted`` finds the shared keys and one ``bincount`` tallies
  them per pair. It touches only the ids the pairs list (~16 bytes each),
  so it wins on sparse rows over a wide domain — the exact-C2 step of
  sketch mode — and is the dependency-free fallback.

:func:`choose_backend` compares the bytes each backend would touch.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.privacy.debias import debias_intersection_counts
from repro.privacy.mechanisms import flip_probability

__all__ = [
    "HAVE_SCIPY",
    "PRODUCT_MAX_ROWS",
    "BITSET_MAX_CELLS",
    "MERGE_BYTES_PER_ID",
    "choose_backend",
    "pair_id_total",
    "pack_bitset_rows",
    "pairwise_intersections",
    "debias_pair_counts",
]

# SciPy is optional (the other backends cover its absence) and imported
# only when the sparse backend runs: importing it costs ~14 MB of resident
# memory that no other path needs.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None
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
# Bytes the merge touches per listed id: its int64 key plus the int64
# gather index or search position that accompanies it.
MERGE_BYTES_PER_ID = 16
# Ids (both rows of every pair) keyed at once by the merge: bounds its
# scratch at a few tens of MB however many pairs a call counts.
_MERGE_BLOCK_IDS = 1 << 20


def choose_backend(rows: int, num_pairs: int, domain: int, pair_ids: int) -> str:
    """Pick the counting backend for a block by the bytes it would touch.

    ``merge`` touches ~:data:`MERGE_BYTES_PER_ID` bytes per id of both
    rows of every pair (``16 * pair_ids``); ``bitset`` touches one byte
    per cell of its ``rows x domain`` scratch. When the merge touches
    fewer bytes it is picked — sparse rows over a wide domain, such as
    sketch mode's true rows. Otherwise the memory guards apply:
    ``bitset`` while its scratch stays under :data:`BITSET_MAX_CELLS`,
    ``sparse`` while the Gram output square stays under
    :data:`PRODUCT_MAX_ROWS` rows *and* the workload is pair-dense, else
    ``merge``. Because the choice is per *block*, a sharded workload
    calls this per shard block, not once for the whole workload: a
    100k-row workload as a whole overflows the bitset scratch, while
    each of its 10k-row shard blocks fits comfortably — the shard runner
    therefore re-chooses per block
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
    pair_ids:
        Ids listed by both rows of every pair, summed over the pairs
        (:func:`pair_id_total` of the block).

    Returns
    -------
    str
        ``"bitset"``, ``"sparse"`` or ``"merge"`` — all three return
        identical counts; only speed and scratch memory differ.

    Example
    -------
    >>> choose_backend(496, 248, 22_000, 2_300)  # sparse rows, wide domain
    'merge'
    >>> choose_backend(1_200, 4_000, 8_100, 8_000_000)  # dense noisy rows
    'bitset'
    """
    cells = rows * max(domain, 1)
    if MERGE_BYTES_PER_ID * pair_ids < cells:
        return "merge"
    if HAVE_BITWISE_COUNT and cells <= BITSET_MAX_CELLS:
        return "bitset"
    if HAVE_SCIPY and rows <= PRODUCT_MAX_ROWS and num_pairs > rows:
        return "sparse"
    return "merge"


def pair_id_total(indptr: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> int:
    """Ids listed by both rows of every pair: ``|row(ia[j])| + |row(ib[j])|``
    summed over ``j`` — the merge's work, as :func:`choose_backend` reads it."""
    sizes = np.diff(indptr)
    return int(sizes[ia].sum() + sizes[ib].sum())


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
            indptr.size - 1, ia.size, domain, pair_id_total(indptr, ia, ib)
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
        return _merge_intersections(indptr, columns, ia, ib, domain)
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
    from scipy import sparse

    rows = indptr.size - 1
    matrix = sparse.csr_matrix(
        (np.ones(columns.size, dtype=np.int64), columns, indptr),
        shape=(rows, max(int(domain), 1)),
    )
    gram = (matrix @ matrix.T).tocsr()
    return np.asarray(gram[ia, ib]).ravel().astype(np.int64)


def _merge_intersections(indptr, columns, ia, ib, domain) -> np.ndarray:
    # Row lists are sorted, so keying pair j's ids as j * span + column
    # lays every pair's row out in one globally sorted array per side; a
    # shared key is a shared column of one pair. Blocks of pairs keep the
    # key scratch near _MERGE_BLOCK_IDS ids.
    out = np.zeros(ia.size, dtype=np.int64)
    if ia.size == 0:
        return out
    columns = np.asarray(columns, dtype=np.int64)  # keys need 64 bits
    sizes = np.diff(indptr)
    la, lb = sizes[ia], sizes[ib]
    span = max(int(domain), 1)
    cum = np.cumsum(la + lb)
    cuts = np.searchsorted(
        cum, np.arange(_MERGE_BLOCK_IDS, int(cum[-1]), _MERGE_BLOCK_IDS)
    ) + 1
    bounds = np.concatenate(([0], cuts, [ia.size]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if start >= stop:
            continue
        keys_a = _pair_keys(indptr, columns, ia[start:stop], la[start:stop], span)
        keys_b = _pair_keys(indptr, columns, ib[start:stop], lb[start:stop], span)
        if keys_a.size > keys_b.size:  # search the shorter side
            keys_a, keys_b = keys_b, keys_a
        if keys_a.size == 0:
            continue
        at = np.searchsorted(keys_b, keys_a)
        np.minimum(at, keys_b.size - 1, out=at)
        shared = keys_a[keys_b[at] == keys_a]
        out[start:stop] = np.bincount(shared // span, minlength=stop - start)
    return out


def _pair_keys(indptr, columns, rows, lengths, span) -> np.ndarray:
    """``j * span + column`` for every column of ``rows[j]``, in order."""
    starts = np.cumsum(lengths) - lengths
    keys = columns[
        np.arange(int(starts[-1] + lengths[-1]), dtype=np.int64)
        + np.repeat(indptr[rows] - starts, lengths)
    ]
    keys += np.repeat(np.arange(rows.size, dtype=np.int64) * span, lengths)
    return keys


def debias_pair_counts(
    n1: np.ndarray, n2: np.ndarray, domain: int, epsilon: float
) -> np.ndarray:
    """OneR's unbiased C2 estimate for every pair in one expression.

    ``f̃2 = [N1 (1-p)² - (N2 - N1) p(1-p) + (domain - N2) p²] / (1-2p)²``
    applied element-wise over the whole workload (paper Theorem 3); the
    algebra lives in :func:`repro.privacy.debias.debias_intersection_counts`.
    """
    return debias_intersection_counts(n1, n2, domain, flip_probability(epsilon))
