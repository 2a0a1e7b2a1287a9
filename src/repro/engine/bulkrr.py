"""Vectorized bulk randomized response for whole workloads.

The per-pair protocol perturbs one neighbor list at a time; a batch of
queries over ``k`` distinct vertices would call
:meth:`~repro.privacy.mechanisms.RandomizedResponse.perturb_neighbor_list`
``k`` times from Python. This module performs the identical perturbation
for *all* workload vertices in one array-level pass:

1. **Stacked kept-mask** — every true edge of every workload vertex gets
   its Bernoulli(1-p) keep decision from a single ``rng.random`` draw over
   the concatenated CSR rows.
2. **Single complement pass** — the flipped zeros of *all* vertices are
   one Bernoulli(p) point process over the block's complement cells read
   row-major as one tape, generated by exact geometric gaps (inverse
   transform). No rejection, no dedup: the gap representation yields
   distinct, sorted tape indices by construction, in work proportional
   to the output.
3. **Tape to cells** — with the block's true edges at the sorted flat
   cells ``c_j = row_j * domain + col_j``, tape index ``h`` is flat cell
   ``h + #{j : c_j - j <= h}``; :func:`_assemble_noisy_rows` evaluates
   that count for every hit at once (each of the few keys ``c_j - j``
   finds its slot among the many sorted hits) and merges the flips with
   the kept true cells into sorted CSR rows.

The output is distribution-identical to the per-vertex loop: per vertex,
each true edge survives independently with probability ``1 - p``, each
non-neighbor is reported independently with probability ``p`` (so the
flip count is the same ``Binomial(domain - d, p)`` and the flipped set a
uniform subset), and vertices are independent.

Keyed streams (bounded-cache determinism contract)
--------------------------------------------------
:func:`bulk_randomized_response` draws from one shared ``rng`` stream, so
a vertex's bits depend on every vertex drawn before it in the batch. A
*bounded* :class:`~repro.serving.cache.NoisyViewCache` needs the opposite
property — RAPPOR-style memoized reports whose bits depend only on
``(entropy, epoch, vertex)`` so an evicted view can be reconstructed
bit-identically, alone or inside any batch. The keyed entry points below
provide that via a counter-based generator, ``np.random.Philox`` with a
fixed counter layout:

* key   = ``[entropy, domain_tag]`` — ``entropy`` is the cache's secret,
  the tag separates row / pair / degree streams;
* counter = ``[block, stage, index, version << 32 | epoch]`` — ``block``
  counts 4-word Philox blocks within a stage, ``stage`` separates the
  kept-mask pass from the complement-gap pass, ``index`` is the vertex
  id (for pair streams the counter is ``[block, b, a, version << 32 |
  epoch]``). The last word packs the serving epoch into its low 32 bits
  and a per-vertex *version* into its high 32 bits: version 0 leaves the
  word equal to the bare epoch (so static graphs are bit-identical to
  the pre-versioned layout), and bumping a vertex's version re-keys only
  that vertex's tape — the streaming layer's incremental rotation, where
  mutated vertices redraw while untouched vertices keep their stream;
* word -> uniform: the kept-mask stage maps one word to one double the
  way numpy does (``(word >> 11) * 2**-53``, so it equals
  ``Generator(Philox(...)).random(d)``); the complement-gap stage reads
  each word as two 32-bit uniforms (high half first), halving the
  generator work per geometric gap.

Each vertex therefore owns a private 2^64-block random tape per stage,
and :func:`keyed_bulk_randomized_response` evaluates all tapes of a whole
vertex block through one vectorized Philox pass — batched and solo
redraws of the same vertex are bit-identical by construction.
:func:`philox4x64` is validated bit-for-bit against
``np.random.Philox.random_raw`` (note numpy increments its counter before
emitting the first block, so our block ``c`` equals numpy's output at
construction counter ``c - 1``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.privacy.mechanisms import RandomizedResponse
from repro.privacy.rng import RngLike, ensure_rng

__all__ = [
    "bulk_randomized_response",
    "bernoulli_hits",
    "gather_rows",
    "lengths_to_indptr",
    "philox4x64",
    "keyed_bulk_randomized_response",
    "shard_bulk_randomized_response",
    "merge_csr_fragments",
    "keyed_laplace_noise",
    "keyed_pair_generator",
    "keyed_sketch_uniforms",
    "pack_version_epoch",
    "KEYED_TAG_ROWS",
    "KEYED_TAG_PAIRS",
    "KEYED_TAG_DEGREES",
    "KEYED_TAG_SKETCH",
    "KEYED_STAGE_KEEP",
    "KEYED_STAGE_FLIP",
    "KEYED_STAGE_SKETCH_BLOOM",
    "KEYED_STAGE_SKETCH_VOC",
    "KEYED_STAGE_SKETCH_HLL",
]


def lengths_to_indptr(lengths: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` from per-segment lengths."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR rows into a compact ``(sub_indptr, sub_indices)`` pair.

    One fancy-indexing pass instead of ``len(rows)`` row slices; row order
    follows ``rows``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lengths = indptr[rows + 1] - indptr[rows]
    sub_indptr = lengths_to_indptr(lengths)
    total = int(sub_indptr[-1])
    if total == 0:
        return sub_indptr, np.empty(0, dtype=np.int64)
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(sub_indptr[:-1], lengths)
        + np.repeat(indptr[rows], lengths)
    )
    return sub_indptr, indices[flat]


def bernoulli_hits(
    total_cells: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Sorted positions of iid Bernoulli(p) hits over ``total_cells`` cells.

    Exact and output-sized: gaps between successive hits are iid
    Geometric(p), drawn by inverse transform (``1 + floor(log(1-U) /
    log(1-p))``), so ``total_cells`` uniforms never have to be
    materialized and no duplicate ever needs rejecting.
    """
    if total_cells <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    log1mp = math.log1p(-p)
    parts: list[np.ndarray] = []
    position = -1  # index of the last hit so far
    while position < total_cells:
        expect = (total_cells - position) * p
        size = int(expect + 6.0 * math.sqrt(expect) + 16.0)
        raw = rng.random(size)
        np.negative(raw, out=raw)
        np.log1p(raw, out=raw)
        raw /= log1mp
        np.floor(raw, out=raw)
        # A gap beyond the remaining tape ends the process regardless of
        # its exact value; clipping keeps the float -> int64 cast safe for
        # minuscule p (huge geometric draws).
        np.minimum(raw, float(total_cells), out=raw)
        hits = raw.astype(np.int64)
        hits += 1
        np.cumsum(hits, out=hits)
        hits += position
        if hits[-1] < total_cells:  # margin exhausted: keep all, draw again
            parts.append(hits)
            position = int(hits[-1])
        else:
            parts.append(hits[: np.searchsorted(hits, total_cells)])
            break
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _assemble_noisy_rows(
    domain: int,
    seg_indptr: np.ndarray,
    true_cols: np.ndarray,
    keep: np.ndarray,
    tape: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted CSR rows of a block's kept true edges plus its flipped cells.

    Cell ``r * domain + c`` of the ``k x domain`` block is column ``c`` of
    row ``r``; the true edges sit at the sorted flat cells ``c_j``, and
    ``tape`` holds the sorted indices of the flips along the block's
    complement cells read row-major (``k * domain - nnz`` of them). Tape
    index ``h`` is flat cell ``h + #{j : c_j - j <= h}`` — the identity of
    :func:`repro.privacy.mechanisms.complement_positions_to_indices`, true
    block-wide because row ``r``'s keys ``c_j - j`` all fall inside row
    ``r``'s stretch of the tape. The keys are few and the tape hits many,
    so each key finds its slot among the hits and the per-hit counts are
    one run-length ``repeat``. The same slot counts the flips sorting
    before true cell ``j``, which places every kept cell in the merged
    stream; the flips fill the remaining slots in order, the row bounds
    take ``k + 1`` searches and a column is its cell mod ``domain``.
    """
    starts = np.arange(seg_indptr.size, dtype=np.int64) * domain
    true_cells = np.repeat(starts[:-1], np.diff(seg_indptr))
    true_cells += true_cols
    keys = true_cells - np.arange(true_cells.size, dtype=np.int64)
    before = np.searchsorted(tape, keys)  # flips sorting before c_j
    flips = np.repeat(
        np.arange(keys.size + 1, dtype=np.int64),
        np.diff(before, prepend=0, append=tape.size),
    )
    flips += tape
    kept_at = before[keep]
    kept_at += np.arange(kept_at.size)
    cells = np.empty(kept_at.size + flips.size, dtype=np.int64)
    is_flip = np.ones(cells.size, dtype=bool)
    is_flip[kept_at] = False
    cells[kept_at] = true_cells[keep]
    cells[is_flip] = flips
    indptr = np.searchsorted(cells, starts)
    np.remainder(cells, domain, out=cells)
    return indptr, cells


def _workload_rows(
    graph: BipartiteGraph, layer: Layer, vertices: np.ndarray
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a vertex block and gather its true CSR rows."""
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.size
    n_layer = graph.layer_size(layer)
    if k and (vertices.min() < 0 or vertices.max() >= n_layer):
        raise GraphError(f"workload vertex out of range for {layer} layer")
    domain = graph.layer_size(layer.opposite())
    seg_indptr, true_cols = gather_rows(*graph.adjacency_csr(layer), vertices)
    return k, domain, seg_indptr, true_cols, np.diff(seg_indptr)


def bulk_randomized_response(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb every listed vertex's neighbor list in one vectorized draw.

    Returns ``(indptr, columns)``: row ``i`` holds the sorted noisy
    neighbor list of ``vertices[i]`` over the opposite layer, with the same
    per-vertex distribution as
    :meth:`~repro.privacy.mechanisms.RandomizedResponse.perturb_neighbor_list`.
    """
    rng = ensure_rng(rng)
    rr = RandomizedResponse(epsilon)
    p = rr.flip_probability
    k, domain, seg_indptr, true_cols, _ = _workload_rows(graph, layer, vertices)
    if k == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    if domain == 0:
        return np.zeros(k + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    # (1) stacked kept-mask: one Bernoulli draw over every true edge
    keep = rng.random(true_cols.size) >= p

    # (2) single complement pass: one Bernoulli(p) point process over the
    # block's non-neighbor cells, read row-major as one tape
    tape = bernoulli_hits(k * domain - true_cols.size, p, rng)
    return _assemble_noisy_rows(domain, seg_indptr, true_cols, keep, tape)


# ----------------------------------------------------------------------
# Philox-4x64-10: the keyed-stream bit generator, vectorized over blocks
# ----------------------------------------------------------------------
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_U53 = 1.0 / 9007199254740992.0  # 2**-53: numpy's uint64 -> double map
_U32 = 1.0 / 4294967296.0  # 2**-32: the flip stage's 32-bit uniform map
_FLIP_PER_BLOCK = 8  # flip-stage uniforms per Philox block (2 per word)
_FLIP_CHUNK = 1 << 14  # flip-stage blocks per processing group
# Chunk size for the in-place Philox pass: small enough that the ~10 live
# uint64 scratch arrays stay inside L2, which is worth ~2x over one
# whole-array pass (the kernel is memory-bound).
_PHILOX_CHUNK = 1 << 14

# Domain tags (second key word): independent stream families per payload.
KEYED_TAG_ROWS = 0x524F5753  # "ROWS"
KEYED_TAG_PAIRS = 0x50414952  # "PAIR"
KEYED_TAG_DEGREES = 0x44454752  # "DEGR"
KEYED_TAG_SKETCH = 0x534B4348  # "SKCH"
# Stage word (counter[1]) of the row streams.
KEYED_STAGE_KEEP = 0
KEYED_STAGE_FLIP = 1
# Stage word (counter[1]) of the sketch streams — one per sketch family,
# so a vertex's Bloom blips, vector-of-counts Laplace draws and HLL
# register reports never share uniforms even under one entropy/epoch.
KEYED_STAGE_SKETCH_BLOOM = 0
KEYED_STAGE_SKETCH_VOC = 1
KEYED_STAGE_SKETCH_HLL = 2


def pack_version_epoch(epoch: int, versions: np.ndarray) -> np.ndarray:
    """Counter word 3 per id: version in the high 32 bits, epoch in the low.

    ``versions`` is a per-id integer array (masked to 32 bits); version 0
    packs to exactly ``epoch``, which is what keeps a static graph's
    streams bit-identical to the pre-versioned counter layout. The epoch
    is masked to 32 bits as well — serving epochs are rotation counts,
    far below that bound.
    """
    v = np.asarray(versions).astype(np.uint64, copy=False) & _MASK32
    return (v << _SH32) + np.uint64(int(epoch) & 0xFFFFFFFF)


def _pair_version_word(epoch: int, version: int) -> int:
    """The scalar pair-stream analogue of :func:`pack_version_epoch`."""
    if not version:
        return int(epoch)
    return ((int(version) & 0xFFFFFFFF) << 32) + (int(epoch) & 0xFFFFFFFF)


def _mulhilo(ah: np.uint64, al: np.uint64, b, scratch, out_hi, out_lo) -> None:
    """128-bit product of the constant ``(ah << 32) | al`` with array ``b``.

    Schoolbook on 32-bit halves, entirely in preallocated uint64 scratch:
    ``lo`` wraps mod 2^64 for free, ``hi`` needs the three cross terms and
    their carry.
    """
    bh, bl, t = scratch
    np.right_shift(b, _SH32, out=bh)
    np.bitwise_and(b, _MASK32, out=bl)
    np.multiply((ah << _SH32) | al, b, out=out_lo)
    np.multiply(al, bl, out=t)  # al*bl: only its carry survives
    np.right_shift(t, _SH32, out=t)
    np.multiply(ah, bl, out=bl)  # bl := ah*bl (original bl consumed)
    np.multiply(al, bh, out=out_hi)  # out_hi := al*bh (bh still live)
    # carry of the low 64 bits: (al*bl >> 32) + lo32(ah*bl) + lo32(al*bh)
    t += np.bitwise_and(bl, _MASK32)
    t += np.bitwise_and(out_hi, _MASK32)
    np.right_shift(t, _SH32, out=t)
    np.right_shift(bl, _SH32, out=bl)
    np.right_shift(out_hi, _SH32, out=out_hi)
    out_hi += bl
    np.multiply(ah, bh, out=bh)
    out_hi += bh
    out_hi += t


def philox4x64(counters: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """The 4 output words of Philox-4x64-10 at every counter block.

    ``counters`` is ``(n, 4)`` (words ``[c0, c1, c2, c3]``, ``c0`` the
    fast-incrementing word); the return is ``(n, 4)`` uint64 in numpy's
    emission order. Bit-identical to
    ``np.random.Philox(counter=[c0 - 1, c1, c2, c3], key=key).random_raw(4)``
    — numpy increments its counter *before* generating, so its first
    emitted block corresponds to counter ``c0`` here (no carry as long as
    ``c0 >= 1``, which every keyed stream guarantees by starting at 1).
    """
    counters = np.ascontiguousarray(counters, dtype=np.uint64)
    n = counters.shape[0]
    out = np.empty((n, 4), dtype=np.uint64)
    if n == 0:
        return out
    # Per-round keys (python ints so the wrap-around add never warns).
    k0, k1 = int(key[0]) & _MASK64, int(key[1]) & _MASK64
    round_keys = [
        (
            np.uint64((k0 + r * _PHILOX_W0) & _MASK64),
            np.uint64((k1 + r * _PHILOX_W1) & _MASK64),
        )
        for r in range(10)
    ]
    m0h, m0l = _PHILOX_M0 >> _SH32, _PHILOX_M0 & _MASK32
    m1h, m1l = _PHILOX_M1 >> _SH32, _PHILOX_M1 & _MASK32
    buf = [np.empty(min(n, _PHILOX_CHUNK), dtype=np.uint64) for _ in range(7)]
    for start in range(0, n, _PHILOX_CHUNK):
        end = min(start + _PHILOX_CHUNK, n)
        m = end - start
        hi0, lo0, hi1, lo1 = (b[:m] for b in buf[:4])
        scratch = [b[:m] for b in buf[4:]]
        x0 = counters[start:end, 0].copy()
        x1 = counters[start:end, 1].copy()
        x2 = counters[start:end, 2].copy()
        x3 = counters[start:end, 3].copy()
        for rk0, rk1 in round_keys:
            _mulhilo(m0h, m0l, x0, scratch, hi0, lo0)
            _mulhilo(m1h, m1l, x2, scratch, hi1, lo1)
            np.bitwise_xor(hi1, x1, out=hi1)
            np.bitwise_xor(hi1, rk0, out=hi1)
            np.bitwise_xor(hi0, x3, out=hi0)
            np.bitwise_xor(hi0, rk1, out=hi0)
            # New state (hi1, lo1, hi0, lo0); retired state becomes the
            # next round's output scratch.
            x0, x1, x2, x3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, x0, x1, x2, x3
        out[start:end, 0] = x0
        out[start:end, 1] = x1
        out[start:end, 2] = x2
        out[start:end, 3] = x3
    return out


def _keyed_uniforms_ragged(
    key: tuple[int, int],
    stage: int,
    ids: np.ndarray,
    epoch: int,
    counts: np.ndarray,
    versions: np.ndarray | None = None,
) -> np.ndarray:
    """``counts[i]`` doubles from the head of each id's keyed stage stream.

    Stream ``i`` consumes its first ``ceil(counts[i] / 4)`` blocks
    (counters ``[1 + b, stage, ids[i], epoch]``); each block's 4 words map
    to doubles exactly like numpy (``(word >> 11) * 2**-53``), so the
    result per id equals ``Generator(Philox(counter=[0, stage, id, epoch],
    key=key)).random(counts[i])``. ``versions`` (aligned with ``ids``)
    packs each id's version into the high half of counter word 3; absent
    or zero versions leave the word equal to the bare epoch.
    """
    counts = np.asarray(counts, dtype=np.int64)
    blocks = (counts + 3) // 4
    total = int(blocks.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64)
    block_indptr = lengths_to_indptr(blocks)
    counters = np.empty((total, 4), dtype=np.uint64)
    counters[:, 0] = (
        np.arange(total, dtype=np.int64)
        - np.repeat(block_indptr[:-1], blocks)
        + 1
    ).astype(np.uint64)
    counters[:, 1] = np.uint64(stage)
    counters[:, 2] = np.repeat(ids.astype(np.uint64), blocks)
    if versions is None:
        counters[:, 3] = np.uint64(epoch)
    else:
        counters[:, 3] = np.repeat(pack_version_epoch(epoch, versions), blocks)
    words = philox4x64(counters, key).reshape(-1)
    u = (words >> _SH11) * _U53
    word_lengths = blocks * 4
    word_indptr = lengths_to_indptr(word_lengths)
    local = np.arange(word_indptr[-1], dtype=np.int64) - np.repeat(
        word_indptr[:-1], word_lengths
    )
    return u[local < np.repeat(counts, word_lengths)]


def _keyed_complement_hits(
    key: tuple[int, int],
    ids: np.ndarray,
    epoch: int,
    tape: np.ndarray,
    p: float,
    versions: np.ndarray | None = None,
) -> np.ndarray:
    """Bernoulli(p) hits on a block tape, each id's from its keyed flip stream.

    The keyed analogue of :func:`bernoulli_hits` run over every id at
    once: id ``i`` walks its private stretch of ``tape[i]`` complement
    cells by geometric gaps whose uniforms come from its own counter
    blocks (``[1 + b, KEYED_STAGE_FLIP, ids[i], epoch]``); the flip stage
    reads each block's 4 words as 8 *32-bit* uniforms (high half first),
    which halves the Philox work per gap. Gap rounds use the same ``6
    sigma + 16`` margin as the shared path, so almost every id finishes
    in its first round; ids whose margin ran out draw further blocks in
    later rounds. Per id, the draw schedule depends only on its own
    stream and ``(tape[i], p)`` — a solo call replays the batched
    consumption exactly. Batches are processed in cache-sized id groups
    (grouping cannot change any id's stream, only the iteration order).

    Returns the sorted *block* tape indices of every hit: the stretches
    lie end to end, id ``i``'s starting at ``tape[:i].sum()``.
    """
    k = ids.size
    out: list[np.ndarray] = []
    if k == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    log1mp = math.log1p(-p)
    tape = np.asarray(tape, dtype=np.int64)
    end = np.cumsum(tape)  # each id's stretch is [end - tape, end)
    position = end - tape - 1  # block tape index of the id's last hit
    next_block = np.ones(k, dtype=np.int64)  # counter word 0 starts at 1
    active = np.flatnonzero(tape > 0)
    ids64 = ids.astype(np.uint64)
    word3 = None if versions is None else pack_version_epoch(epoch, versions)
    rounds = 0
    while active.size:
        e_act = end[active]
        expect = (e_act - position[active]) * p
        blocks = (
            (expect + 6.0 * np.sqrt(expect) + 16.0).astype(np.int64)
            + (_FLIP_PER_BLOCK - 1)
        ) // _FLIP_PER_BLOCK
        # Cache-sized groups: every intermediate below stays ~1 MiB, which
        # this kernel needs — it is allocation/bandwidth bound.
        cum = np.cumsum(blocks)
        cuts = (
            np.searchsorted(
                cum,
                np.arange(_FLIP_CHUNK, int(cum[-1]), _FLIP_CHUNK),
                side="left",
            )
            + 1
        )
        unfinished = np.zeros(active.size, dtype=bool)
        for g0, g1 in zip(
            np.concatenate(([0], cuts)), np.concatenate((cuts, [active.size]))
        ):
            if g0 >= g1:
                continue
            act = active[g0:g1]
            gb = blocks[g0:g1]
            total = int(gb.sum())
            block_indptr = lengths_to_indptr(gb)
            counters = np.empty((total, 4), dtype=np.uint64)
            counters[:, 0] = (
                np.arange(total, dtype=np.int64)
                - np.repeat(block_indptr[:-1], gb)
                + np.repeat(next_block[act], gb)
            ).astype(np.uint64)
            counters[:, 1] = np.uint64(KEYED_STAGE_FLIP)
            counters[:, 2] = ids64[act].repeat(gb)
            if word3 is None:
                counters[:, 3] = np.uint64(epoch)
            else:
                counters[:, 3] = word3[act].repeat(gb)
            words = philox4x64(counters, key).reshape(-1)
            u = np.empty(words.size * 2, dtype=np.float64)
            u[0::2] = (words >> _SH32) * _U32
            u[1::2] = (words & _MASK32) * _U32

            # Geometric gaps, kept in float64. Clipping each gap at the
            # group's longest stretch guards the minuscule-p log blowups
            # without changing output — a gap that long overshoots its
            # own stretch either way, and so does every later hit of the
            # id. It also keeps every running sum an exact float64
            # integer (group totals stay ~words * tape and block tape
            # indices ~rows * domain, far below 2^53 for any graph that
            # fits in memory).
            lengths = gb * _FLIP_PER_BLOCK
            gaps = np.log1p(-u, out=u)
            gaps /= log1mp
            np.floor(gaps, out=gaps)
            np.minimum(gaps, float(tape[act].max()), out=gaps)
            gaps += 1.0
            running = np.cumsum(gaps)
            indptr = lengths_to_indptr(lengths)
            offset = (
                running[indptr[:-1]] - gaps[indptr[:-1]] - position[act]
            )
            hits = running
            hits -= np.repeat(offset, lengths)
            valid = hits < np.repeat(end[act].astype(np.float64), lengths)
            out.append(hits[valid].astype(np.int64))

            last = hits[indptr[1:] - 1]
            open_ = last < e_act[g0:g1]
            position[act[open_]] = last[open_].astype(np.int64)
            unfinished[g0:g1] = open_
        next_block[active] += blocks
        active = active[unfinished]
        rounds += 1
    hits = np.concatenate(out) if out else np.empty(0, np.int64)
    if rounds > 1:  # a later round's hits follow every earlier round's
        hits.sort()
    return hits


def keyed_bulk_randomized_response(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    *,
    entropy: int,
    epoch: int,
    versions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic bulk RR: every vertex drawn from its own keyed stream.

    Same output contract as :func:`bulk_randomized_response`, but the bits
    of row ``i`` are a pure function of ``(entropy, epoch, vertices[i],
    versions[i], epsilon)`` — independent of the rest of the batch — so a bounded
    cache can redraw any evicted vertex, alone or inside a later block,
    and reproduce the original report bit for bit. The same property
    makes the pass embarrassingly partitionable: any split of
    ``vertices`` into sub-blocks draws byte-identical rows (see
    :func:`shard_bulk_randomized_response`). The whole block still runs
    through the vectorized kept-mask + geometric-gap pipeline; only the
    uniforms come from the per-vertex Philox tapes instead of one shared
    generator.

    Parameters
    ----------
    graph, layer:
        The serving context; rows range over ``layer.opposite()``.
    vertices:
        The vertex ids to perturb (need not be sorted or distinct; a
        repeated vertex yields the identical row twice).
    epsilon:
        The RR budget (fixes the keep/flip probabilities).
    entropy:
        The cache's secret stream key (one integer).
    epoch:
        The serving epoch baked into every counter — rotation moves it,
        which is exactly what re-randomizes the next epoch's draws.
    versions:
        Optional per-vertex version numbers aligned with ``vertices``
        (32-bit; defaults to all-zero). Packed into the high half of the
        epoch counter word: a vertex with version 0 draws the identical
        stream as under the pre-versioned layout, while bumping a
        vertex's version re-keys only its own tape. This is what lets an
        incremental epoch rotation redraw mutated vertices without
        disturbing a single bit of any untouched vertex's stream.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(indptr, columns)``: row ``i`` is the sorted noisy neighbor
        list of ``vertices[i]``.

    Raises
    ------
    GraphError
        If a vertex id is out of range for ``layer``.
    PrivacyError
        Propagated from :class:`RandomizedResponse` when ``epsilon`` is
        not a positive finite number.

    Example
    -------
    >>> from repro.graph.generators import random_bipartite
    >>> from repro.graph.bipartite import Layer
    >>> g = random_bipartite(6, 5, 12, rng=0)
    >>> block = np.arange(6)
    >>> full = keyed_bulk_randomized_response(
    ...     g, Layer.UPPER, block, 2.0, entropy=7, epoch=0)
    >>> solo = keyed_bulk_randomized_response(
    ...     g, Layer.UPPER, block[2:3], 2.0, entropy=7, epoch=0)
    >>> np.array_equal(solo[1], full[1][full[0][2]:full[0][3]])
    True
    """
    rr = RandomizedResponse(epsilon)
    p = rr.flip_probability
    k, domain, seg_indptr, true_cols, deg = _workload_rows(graph, layer, vertices)
    if k == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    if domain == 0:
        return np.zeros(k + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    vertices = np.asarray(vertices, dtype=np.int64)
    if versions is not None:
        versions = np.asarray(versions)
        if versions.shape != vertices.shape:
            raise GraphError(
                f"versions must align with vertices: "
                f"{versions.shape} vs {vertices.shape}"
            )
    key = (int(entropy), KEYED_TAG_ROWS)

    keep = (
        _keyed_uniforms_ragged(
            key, KEYED_STAGE_KEEP, vertices, epoch, deg, versions
        )
        >= p
    )
    tape = _keyed_complement_hits(key, vertices, epoch, domain - deg, p, versions)
    return _assemble_noisy_rows(domain, seg_indptr, true_cols, keep, tape)


def shard_bulk_randomized_response(
    graph: BipartiteGraph,
    layer: Layer,
    vertices: np.ndarray,
    epsilon: float,
    *,
    entropy: int,
    epoch: int,
    ranges: "list[tuple[int, int]] | None" = None,
    versions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The keyed bulk-RR pass, executed one contiguous vertex range at a time.

    The sharded twin of :func:`keyed_bulk_randomized_response`: each
    ``(lo, hi)`` index range of ``vertices`` is drawn as its own keyed
    block and the per-range CSR fragments are concatenated in range
    order. Because every vertex's bits come from its private counter
    stream, the result is **byte-identical** to the unsharded call for
    *any* ranges covering the block — shard boundaries are invisible in
    the output. This is the serial reference the process-parallel runner
    (:class:`repro.engine.sharded.ShardedRunner`) is asserted against;
    it also bounds peak scratch memory by the largest range instead of
    the whole block.

    Parameters
    ----------
    graph, layer, vertices, epsilon, entropy, epoch:
        Exactly as for :func:`keyed_bulk_randomized_response`.
    ranges:
        Contiguous ``(lo, hi)`` index ranges into ``vertices``, in
        order, jointly covering ``[0, len(vertices))``. Empty ranges are
        allowed (and contribute nothing). ``None`` means one range —
        the unsharded call.
    versions:
        Optional per-vertex version words aligned with ``vertices``;
        sliced per range, so the version packing survives any range
        partitioning byte-identically.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(indptr, columns)`` — byte-identical to
        ``keyed_bulk_randomized_response(graph, layer, vertices, ...)``.

    Raises
    ------
    GraphError
        If the ranges do not tile ``[0, len(vertices))`` contiguously,
        or a vertex id is out of range for ``layer``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if versions is not None:
        versions = np.asarray(versions)
        if versions.shape != vertices.shape:
            raise GraphError(
                f"versions must align with vertices: "
                f"{versions.shape} vs {vertices.shape}"
            )
    if ranges is None:
        ranges = [(0, int(vertices.size))]
    cursor = 0
    for lo, hi in ranges:
        if lo != cursor or hi < lo:
            raise GraphError(
                f"shard ranges must tile the vertex block contiguously; "
                f"got ({lo}, {hi}) at offset {cursor}"
            )
        cursor = hi
    if cursor != vertices.size:
        raise GraphError(
            f"shard ranges cover {cursor} of {vertices.size} vertices"
        )
    fragments = [
        keyed_bulk_randomized_response(
            graph, layer, vertices[lo:hi], epsilon,
            entropy=entropy, epoch=epoch,
            versions=None if versions is None else versions[lo:hi],
        )
        for lo, hi in ranges
    ]
    return merge_csr_fragments(fragments)


def merge_csr_fragments(
    fragments: "list[tuple[np.ndarray, np.ndarray]]",
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(indptr, columns)`` fragments in shard order.

    Row order follows fragment order, so fragments drawn from a
    :class:`~repro.engine.planner.ShardPlan`'s ranges reassemble the
    unsharded CSR exactly.
    """
    if not fragments:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    lengths = np.concatenate([np.diff(ip) for ip, _ in fragments])
    columns = np.concatenate([cols for _, cols in fragments])
    return lengths_to_indptr(lengths), columns


def keyed_laplace_noise(
    entropy: int,
    epoch: int,
    vertices: np.ndarray,
    scale: float,
    versions: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic per-``(entropy, epoch, vertex)`` Laplace(0, scale) noise.

    One Philox block per vertex (counter ``[1, 0, vertex, epoch]``, key
    ``[entropy, KEYED_TAG_DEGREES]``); the block's first word becomes a
    double and passes through the Laplace inverse CDF. Backs the bounded
    cache's evictable noisy degrees: a redraw of an evicted degree
    replays the identical release. ``versions`` re-keys mutated vertices
    the same way as :func:`keyed_bulk_randomized_response`.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.empty(0, dtype=np.float64)
    key = (int(entropy), KEYED_TAG_DEGREES)
    u = _keyed_uniforms_ragged(
        key, 0, vertices, epoch,
        np.ones(vertices.size, dtype=np.int64), versions,
    )
    centered = u - 0.5
    # Clamp the (probability ~2^-53) u == 0 endpoint away from log(0).
    inner = np.maximum(1.0 - 2.0 * np.abs(centered), _U53)
    return -float(scale) * np.sign(centered) * np.log(inner)


def keyed_sketch_uniforms(
    entropy: int,
    epoch: int,
    vertices: np.ndarray,
    stage: int,
    per_vertex: int,
    versions: np.ndarray | None = None,
) -> np.ndarray:
    """``(len(vertices), per_vertex)`` doubles from the keyed sketch streams.

    Vertex ``v`` reads the head of its private counter tape ``[1 + b,
    stage, v, epoch]`` under key ``[entropy, KEYED_TAG_SKETCH]`` — the
    sketch-mode extension of the row-stream counter layout, with the
    stage word naming the sketch family instead of the keep/flip pass.
    Every sketch-view noise draw (Bloom blips, vector-of-counts Laplace,
    HLL register replacement) routes through here, so a bounded cache's
    redraw of an evicted sketch view is bit-identical to the original
    release, alone or inside any batch, exactly like noisy rows.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    per_vertex = int(per_vertex)
    if vertices.size == 0 or per_vertex <= 0:
        return np.empty((vertices.size, max(per_vertex, 0)), dtype=np.float64)
    counts = np.full(vertices.size, per_vertex, dtype=np.int64)
    u = _keyed_uniforms_ragged(
        (int(entropy), KEYED_TAG_SKETCH), stage, vertices, epoch, counts,
        versions,
    )
    return u.reshape(vertices.size, per_vertex)


def keyed_pair_generator(
    entropy: int, epoch: int, a: int, b: int, version: int = 0
) -> np.random.Generator:
    """The keyed stream of one sketch-mode pair, as a numpy Generator.

    Sketch draws are multinomial/binomial (no vectorized keyed kernel),
    so pair ``(a, b)`` gets a real ``np.random.Generator`` over the same
    Philox contract: key ``[entropy, KEYED_TAG_PAIRS]``, counter
    ``[0, b, a, version << 32 | epoch]``. Callers pass the
    order-normalized pair key so ``(a, b)`` and ``(b, a)`` share one
    stream; ``version`` is the pair's combined endpoint version (0 —
    the default — leaves the counter word equal to the bare epoch).
    """
    return np.random.Generator(
        np.random.Philox(
            counter=[0, int(b), int(a), _pair_version_word(epoch, version)],
            key=[int(entropy) & _MASK64, KEYED_TAG_PAIRS],
        )
    )
