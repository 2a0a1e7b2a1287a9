"""Bulk RR keeps its bits: the drawn rows are pinned to a frozen reference.

The reference below is the earlier bulk-RR pipeline, kept verbatim: a
per-segment rank search (``_positions_to_columns``), a merge keyed by
segment (``_assemble_noisy_rows``), the keyed flip kernel that returns
per-id ``(slot, position)`` hits (``_keyed_complement_hits``), the shared
and keyed draws built on them, and the 2-D fancy-indexing bit-row packer.
The engine now maps the complement tape straight to flat cells, its
keyed kernel emits block tape indices, and it packs by one flat scatter;
all must reproduce the reference byte for byte, on any block — empty and
full rows, repeated vertices, empty blocks — at any budget, from the
same RNG consumption.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import bulkrr, pairwise
from repro.engine.bulkrr import (
    _FLIP_CHUNK,
    _FLIP_PER_BLOCK,
    _MASK32,
    _SH32,
    _U32,
    KEYED_STAGE_FLIP,
    KEYED_STAGE_KEEP,
    KEYED_TAG_ROWS,
    _keyed_uniforms_ragged,
    _workload_rows,
    lengths_to_indptr,
    pack_version_epoch,
    philox4x64,
)
from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.privacy.mechanisms import RandomizedResponse
from repro.privacy.rng import ensure_rng

# ----------------------------------------------------------------------
# The reference pipeline (verbatim apart from the draw functions' names)
# ----------------------------------------------------------------------


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
        raw = np.floor(np.log1p(-rng.random(size)) / log1mp)
        # A gap beyond the remaining tape ends the process regardless of
        # its exact value; clipping keeps the float -> int64 cast safe for
        # minuscule p (huge geometric draws).
        gaps = np.minimum(raw, float(total_cells)).astype(np.int64) + 1
        hits = position + np.cumsum(gaps)
        if hits[-1] < total_cells:  # margin exhausted: keep all, draw again
            parts.append(hits)
            position = int(hits[-1])
        else:
            parts.append(hits[hits < total_cells])
            break
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _positions_to_columns(
    exclude_cols: np.ndarray,
    exclude_indptr: np.ndarray,
    positions: np.ndarray,
    seg_of_position: np.ndarray,
    domain: int,
) -> np.ndarray:
    """Map per-segment complement ranks to column ids, all segments at once.

    Per segment the ``x``-th non-excluded column is ``x + #{j : e[j] - j <= x}``
    (see :func:`repro.privacy.mechanisms.complement_positions_to_indices`);
    offsetting both sides by ``segment * (domain + 1)`` turns the per-segment
    rank lookup into one global pass on already-sorted keys. ``positions``
    must be per-segment sorted with ``seg_of_position`` nondecreasing (both
    callers produce them that way): instead of one binary search per
    position into the excluded keys, each *excluded* key binary-searches
    its slot among the (far more numerous, sorted) positions and the
    per-position "how many excluded ≤ me" falls out of one bincount+cumsum.
    """
    if positions.size == 0:
        return positions
    k = exclude_indptr.size - 1
    d = np.diff(exclude_indptr)
    local = np.arange(exclude_cols.size, dtype=np.int64) - np.repeat(
        exclude_indptr[:-1], d
    )
    shifted = exclude_cols - local
    stride = domain + 1
    seg_e = np.repeat(np.arange(k, dtype=np.int64), d)
    queries = seg_of_position * stride + positions
    ins = np.searchsorted(queries, seg_e * stride + shifted, side="left")
    # "#excluded keys <= me" per query is a step function jumping +1 at
    # every insertion slot: one repeat over the run lengths.
    runs = np.diff(np.concatenate(([0], ins, [queries.size])))
    below = np.repeat(np.arange(ins.size + 1, dtype=np.int64), runs)
    return positions + (below - exclude_indptr[seg_of_position])


def _assemble_noisy_rows(
    k: int,
    domain: int,
    deg: np.ndarray,
    true_cols: np.ndarray,
    keep: np.ndarray,
    flip_seg: np.ndarray,
    flip_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge kept true edges and flipped zeros into sorted CSR rows.

    The two streams are per-segment sorted with disjoint keys, so each
    kept element's final slot is its own rank plus the count of flips
    sorting before it; the flips then fill every remaining slot in order
    (one boolean scatter instead of a second global ``searchsorted``).
    """
    seg_ids = np.repeat(np.arange(k, dtype=np.int64), deg)
    kept_seg = seg_ids[keep]
    kept_cols = true_cols[keep]
    total = kept_cols.size + flip_cols.size
    columns = np.empty(total, dtype=np.int64)
    if kept_cols.size == 0:
        columns[:] = flip_cols
    else:
        kept_keys = kept_seg * domain + kept_cols
        flip_keys = flip_seg * domain + flip_cols
        at_kept = np.arange(kept_keys.size) + np.searchsorted(flip_keys, kept_keys)
        remaining = np.ones(total, dtype=bool)
        remaining[at_kept] = False
        columns[at_kept] = kept_cols
        columns[remaining] = flip_cols
    row_counts = np.bincount(kept_seg, minlength=k) + np.bincount(
        flip_seg, minlength=k
    )
    return lengths_to_indptr(row_counts), columns


def _keyed_complement_hits(
    key: tuple[int, int],
    ids: np.ndarray,
    epoch: int,
    tape: np.ndarray,
    p: float,
    versions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-id Bernoulli(p) hit positions from each id's keyed flip stream.

    The keyed analogue of :func:`bernoulli_hits` run over every id at
    once: id ``i`` walks its private tape of ``tape[i]`` complement cells
    by geometric gaps whose uniforms come from its own counter blocks
    (``[1 + b, KEYED_STAGE_FLIP, ids[i], epoch]``); the flip stage reads
    each block's 4 words as 8 *32-bit* uniforms (high half first), which
    halves the Philox work per gap. Gap rounds use the same ``6 sigma +
    16`` margin as the shared path, so almost every id finishes in its
    first round; ids whose margin ran out draw further blocks in later
    rounds. Per id, the draw schedule depends only on its own stream and
    ``(tape[i], p)`` — a solo call replays the batched consumption
    exactly. Batches are processed in cache-sized id groups (grouping
    cannot change any id's stream, only the iteration order).

    Returns ``(slots, positions)`` sorted by ``(slot, position)`` where
    ``slots`` indexes into ``ids``.
    """
    k = ids.size
    out_slots: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    if k == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    log1mp = math.log1p(-p)
    tape = np.asarray(tape, dtype=np.int64)
    position = np.full(k, -1, dtype=np.int64)
    next_block = np.ones(k, dtype=np.int64)  # counter word 0 starts at 1
    active = np.flatnonzero(tape > 0)
    ids64 = ids.astype(np.uint64)
    word3 = None if versions is None else pack_version_epoch(epoch, versions)
    rounds = 0
    while active.size:
        t_act = tape[active]
        expect = (t_act - position[active]) * p
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

            # Geometric gaps, kept in float64. Clipping each gap at its
            # own tape (as bernoulli_hits does) guards the minuscule-p
            # log blowups without changing output — a clipped gap still
            # overshoots its tape — and is batch-independent, since the
            # bound is the id's own tape. It also keeps every running sum
            # an exact float64 integer (group totals stay ~words * tape,
            # far below 2^53 for any graph that fits in memory).
            lengths = gb * _FLIP_PER_BLOCK
            t_rep = np.repeat(t_act[g0:g1].astype(np.float64), lengths)
            gaps = np.log1p(-u, out=u)
            gaps /= log1mp
            np.floor(gaps, out=gaps)
            np.minimum(gaps, t_rep, out=gaps)
            gaps += 1.0
            running = np.cumsum(gaps)
            indptr = lengths_to_indptr(lengths)
            offset = (
                running[indptr[:-1]] - gaps[indptr[:-1]] - position[act]
            )
            hits = running
            hits -= np.repeat(offset, lengths)
            valid = hits < t_rep
            out_slots.append(act.repeat(lengths)[valid])
            out_pos.append(hits[valid].astype(np.int64))

            last = hits[indptr[1:] - 1]
            open_ = last < t_act[g0:g1]
            position[act[open_]] = last[open_].astype(np.int64)
            unfinished[g0:g1] = open_
        next_block[active] += blocks
        active = active[unfinished]
        rounds += 1
    slots = np.concatenate(out_slots) if out_slots else np.empty(0, np.int64)
    pos = np.concatenate(out_pos) if out_pos else np.empty(0, np.int64)
    if rounds > 1 and slots.size:
        order = np.lexsort((pos, slots))
        slots, pos = slots[order], pos[order]
    return slots, pos


def reference_bulk_randomized_response(graph, layer, vertices, epsilon, rng=None):
    rng = ensure_rng(rng)
    rr = RandomizedResponse(epsilon)
    p = rr.flip_probability
    k, domain, seg_indptr, true_cols, deg = _workload_rows(graph, layer, vertices)
    if k == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    if domain == 0:
        return np.zeros(k + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    # (1) stacked kept-mask: one Bernoulli draw over every true edge
    keep = rng.random(true_cols.size) >= p

    # (2) single complement pass: one Bernoulli(p) point process over the
    # concatenated non-neighbor cells of all vertices
    cell_indptr = lengths_to_indptr(domain - deg)
    hits = bernoulli_hits(int(cell_indptr[-1]), p, rng)
    flip_seg = np.searchsorted(cell_indptr, hits, side="right") - 1
    flip_cols = _positions_to_columns(
        true_cols, seg_indptr, hits - cell_indptr[flip_seg], flip_seg, domain
    )
    return _assemble_noisy_rows(k, domain, deg, true_cols, keep, flip_seg, flip_cols)


def reference_keyed_bulk_randomized_response(
    graph, layer, vertices, epsilon, *, entropy, epoch, versions=None
):
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
    flip_slot, flip_pos = _keyed_complement_hits(
        key, vertices, epoch, domain - deg, p, versions
    )
    flip_cols = _positions_to_columns(
        true_cols, seg_indptr, flip_pos, flip_slot, domain
    )
    return _assemble_noisy_rows(
        k, domain, deg, true_cols, keep, flip_slot, flip_cols
    )


def pack_bitset_rows(
    indptr: np.ndarray, columns: np.ndarray, domain: int
) -> np.ndarray:
    """A CSR block of sorted neighbor lists as packed bit rows.

    Row ``i`` becomes ``ceil(domain / 8)`` bytes in :func:`numpy.packbits`
    order (bit ``c`` set iff column ``c`` is listed), the bitset
    backend's row format. The epoch cache holds every materialize view in
    this form, so serving ticks hand the bitset backend its ``packed``
    block without re-scattering. Scratch is one ``rows x domain`` boolean
    matrix; callers bound it by packing in row chunks.
    """
    rows = indptr.size - 1
    dense = np.zeros((rows, max(int(domain), 1)), dtype=bool)
    dense[np.repeat(np.arange(rows), np.diff(indptr)), columns] = True
    return np.packbits(dense, axis=1)


# ----------------------------------------------------------------------
# Blocks: small graphs with empty and full rows, repeated vertices
# ----------------------------------------------------------------------


@st.composite
def blocks(draw):
    """``(graph, vertices, epsilon)``: a random upper-layer vertex block."""
    n_upper = draw(st.integers(1, 7))
    n_lower = draw(st.integers(0, 23))
    edges = []
    for u in range(n_upper):
        kind = draw(st.sampled_from(("empty", "full", "some")))
        if kind == "full":
            cols = range(n_lower)
        elif kind == "some" and n_lower:
            cols = draw(st.sets(st.integers(0, n_lower - 1), max_size=n_lower))
        else:
            cols = ()
        edges.extend((u, c) for c in cols)
    graph = BipartiteGraph(
        n_upper, n_lower, np.array(edges, dtype=np.int64).reshape(-1, 2)
    )
    vertices = np.array(
        draw(st.lists(st.integers(0, n_upper - 1), max_size=9)), dtype=np.int64
    )
    epsilon = draw(st.floats(0.05, 40.0))
    return graph, vertices, epsilon


def assert_same_rows(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype == np.int64
        assert g.tobytes() == e.tobytes()


class ZeroUniforms:
    """A duck-typed rng whose uniforms are all 0: every geometric gap is 1,
    so each round's margin runs out before the tape does."""

    def random(self, size):
        return np.zeros(size)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=150)
@given(block=blocks(), seed=st.integers(0, 2**32 - 1))
def test_shared_rows_and_packed_rows_match_reference(block, seed):
    graph, vertices, epsilon = block
    got = bulkrr.bulk_randomized_response(
        graph, Layer.UPPER, vertices, epsilon, np.random.default_rng(seed)
    )
    expected = reference_bulk_randomized_response(
        graph, Layer.UPPER, vertices, epsilon, np.random.default_rng(seed)
    )
    assert_same_rows(got, expected)
    domain = graph.layer_size(Layer.LOWER)
    packed = pairwise.pack_bitset_rows(*got, domain)
    assert packed.tobytes() == pack_bitset_rows(*expected, domain).tobytes()
    assert packed.shape == (vertices.size, max(math.ceil(domain / 8), 1))


@settings(max_examples=100)
@given(
    block=blocks(),
    entropy=st.integers(0, 2**63 - 1),
    epoch=st.integers(0, 5),
    versioned=st.booleans(),
    data=st.data(),
)
def test_keyed_rows_match_reference(block, entropy, epoch, versioned, data):
    graph, vertices, epsilon = block
    versions = None
    if versioned:
        versions = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 2**32 - 1),
                    min_size=vertices.size,
                    max_size=vertices.size,
                )
            ),
            dtype=np.int64,
        )
    kwargs = dict(entropy=entropy, epoch=epoch, versions=versions)
    got = bulkrr.keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, epsilon, **kwargs
    )
    expected = reference_keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, epsilon, **kwargs
    )
    assert_same_rows(got, expected)


@given(
    total=st.integers(0, 5000),
    p=st.floats(1e-6, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_hits_match_reference(total, p, seed):
    got = bulkrr.bernoulli_hits(total, p, np.random.default_rng(seed))
    expected = bernoulli_hits(total, p, np.random.default_rng(seed))
    assert got.tobytes() == expected.tobytes()
    # All-zero uniforms exhaust every round's margin: the multi-round loop
    # that no seeded draw reaches.
    got = bulkrr.bernoulli_hits(total, p, ZeroUniforms())
    assert got.tobytes() == bernoulli_hits(total, p, ZeroUniforms()).tobytes()
    if total:
        assert got.tolist() == list(range(total))


def test_workload_sized_block_matches_reference():
    """One block of realistic size (hundreds of rows, thousands of columns)."""
    rng = np.random.default_rng(4)
    n_upper, n_lower = 300, 2_000
    edges = np.column_stack(
        (rng.integers(0, n_upper, 9_000), rng.integers(0, n_lower, 9_000))
    )
    edges = np.vstack((edges, [(7, c) for c in range(n_lower)]))  # a full row
    graph = BipartiteGraph(n_upper, n_lower, edges)
    vertices = rng.permutation(n_upper)[:250]
    for epsilon in (0.3, 2.0, 8.0):
        expected = reference_bulk_randomized_response(
            graph, Layer.UPPER, vertices, epsilon, np.random.default_rng(9)
        )
        got = bulkrr.bulk_randomized_response(
            graph, Layer.UPPER, vertices, epsilon, np.random.default_rng(9)
        )
        assert_same_rows(got, expected)
        assert (
            pairwise.pack_bitset_rows(*got, n_lower).tobytes()
            == pack_bitset_rows(*expected, n_lower).tobytes()
        )
        # Low budgets put hundreds of shared bits in a pair: the popcount
        # accumulator must hold them.
        ia, ib = np.arange(0, 250, 2), np.arange(1, 250, 2)
        n1 = pairwise.pairwise_intersections(*got, ia, ib, n_lower, backend="bitset")
        merged = pairwise.pairwise_intersections(*got, ia, ib, n_lower, backend="merge")
        assert n1.tolist() == merged.tolist()
        kwargs = dict(entropy=11, epoch=2, versions=vertices % 3)
        assert_same_rows(
            bulkrr.keyed_bulk_randomized_response(
                graph, Layer.UPPER, vertices, epsilon, **kwargs
            ),
            reference_keyed_bulk_randomized_response(
                graph, Layer.UPPER, vertices, epsilon, **kwargs
            ),
        )


def test_keyed_multi_round_draw_matches_reference(monkeypatch):
    """All-zero Philox words make every gap 1, so each id's margin runs out
    many rounds before its tape does: the later-round merge that no
    seeded draw reaches must still order the hits like the reference."""

    def zero_words(counters, key):
        return np.zeros(counters.shape, dtype=np.uint64)

    monkeypatch.setattr(bulkrr, "philox4x64", zero_words)
    monkeypatch.setitem(globals(), "philox4x64", zero_words)  # the reference's
    rng = np.random.default_rng(3)
    n_upper, n_lower = 6, 700
    edges = np.column_stack(
        (rng.integers(0, n_upper, 900), rng.integers(0, n_lower, 900))
    )
    graph = BipartiteGraph(n_upper, n_lower, edges)
    vertices = np.array([4, 0, 5, 0, 2], dtype=np.int64)
    kwargs = dict(entropy=5, epoch=1, versions=None)
    got = bulkrr.keyed_bulk_randomized_response(
        graph, Layer.UPPER, vertices, 5.0, **kwargs
    )
    assert_same_rows(
        got,
        reference_keyed_bulk_randomized_response(
            graph, Layer.UPPER, vertices, 5.0, **kwargs
        ),
    )
    # Zero uniforms drop every true edge and flip every other cell.
    indptr, columns = got
    for i, v in enumerate(vertices):
        complement = np.setdiff1d(np.arange(n_lower), graph.neighbors(Layer.UPPER, v))
        assert columns[indptr[i] : indptr[i + 1]].tolist() == complement.tolist()
