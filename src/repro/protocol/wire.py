"""Wire format: byte-level encoding of the protocol's messages.

The communication figures (Fig. 10) count 8 bytes per id/scalar; this
module is the encoding those counts describe, so the accounting is backed
by real serialization rather than arithmetic alone. The original three
message kinds are the client↔collector protocol:

* ``noisy-edges`` — a sorted ``uint64`` id array (a vertex's RR output);
* ``noisy-degree`` — one ``float64`` Laplace degree report;
* ``estimate`` — one ``float64`` released estimator value.

The distributed shard transport (``docs/distributed-guide.md``) extends
the same frame idiom with the parent↔worker message kinds:

* ``hello`` — protocol version, capability bits and the graph digest a
  peer holds (the worker advertises what it can do; the parent
  advertises what it is about to serve);
* ``ping`` / ``pong`` — liveness heartbeats carrying an echoed nonce;
* ``graph`` — a full graph install (layer sizes + edge list) keyed by
  its digest, so a worker serves draws for exactly the snapshot the
  parent planned against;
* ``shard-spec`` — one DRAW_SHARD work order: the keyed-draw arguments
  ``(vertices, epsilon, entropy, epoch, versions)`` plus the optional
  in-worker pairwise reduction request (local pair slots + domain);
* ``fragment`` — a shard's CSR noisy rows, integrity-tagged with a
  CRC32 over their int64 column bytes (:func:`columns_checksum`, the
  helper fork answers are tagged with too);
* ``reduced`` — a shard's row sizes plus locally reduced pairwise
  ``N1`` scalars (the frames that replace fragments on pair-dense
  workloads), under the same checksum word;
* ``worker-error`` — a worker-side failure message;
* ``mutate`` — an edge-delta push (net inserts + net deletes against a
  base snapshot the worker already holds, tagged with the base and
  target digests plus a CRC32 over the op bytes), the frame that lets a
  long-running worker track a mutating graph without re-receiving it;
* ``delta-ack`` — the worker's verdict on a mutate: applied (and the
  digest now installed), unknown base (the parent must fall back to a
  full ``graph`` install), or digest mismatch (the applied result did
  not hash to the promised target).

Every frame is ``[kind: 1 byte][length: 4 bytes LE][payload]``; payloads
round-trip exactly (tests in ``tests/test_protocol_wire.py``), frames
with a declared length beyond :data:`MAX_FRAME_PAYLOAD` are rejected
before any allocation, and fragment/reduced payloads are checksum-
verified at decode time — a flipped byte surfaces as
:class:`~repro.errors.PayloadIntegrityError`, never as silently wrong
counts.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import PayloadIntegrityError, ProtocolError

__all__ = [
    "KIND_NOISY_EDGES",
    "KIND_NOISY_DEGREE",
    "KIND_ESTIMATE",
    "KIND_HELLO",
    "KIND_PING",
    "KIND_PONG",
    "KIND_GRAPH",
    "KIND_SHARD_SPEC",
    "KIND_FRAGMENT",
    "KIND_REDUCED",
    "KIND_WORKER_ERROR",
    "KIND_MUTATE",
    "KIND_DELTA_ACK",
    "WIRE_VERSION",
    "CAP_REDUCE",
    "CAP_VERSIONS",
    "CAP_MUTATE",
    "DELTA_OK",
    "DELTA_UNKNOWN_BASE",
    "DELTA_DIGEST_MISMATCH",
    "MAX_FRAME_PAYLOAD",
    "encode_noisy_edges",
    "encode_scalar",
    "encode_hello",
    "encode_ping",
    "encode_pong",
    "encode_graph",
    "encode_shard_spec",
    "encode_fragment",
    "encode_reduced",
    "encode_worker_error",
    "encode_mutate",
    "encode_delta_ack",
    "decode_frame",
    "payload_bytes",
    "frame_overhead",
    "graph_digest",
    "delta_checksum",
]

KIND_NOISY_EDGES = 1
KIND_NOISY_DEGREE = 2
KIND_ESTIMATE = 3
KIND_HELLO = 4
KIND_PING = 5
KIND_PONG = 6
KIND_GRAPH = 7
KIND_SHARD_SPEC = 8
KIND_FRAGMENT = 9
KIND_REDUCED = 10
KIND_WORKER_ERROR = 11
KIND_MUTATE = 12
KIND_DELTA_ACK = 13

# Shard-transport protocol version, carried in every HELLO. Bumped on any
# incompatible frame-layout change; peers refuse mismatched versions.
WIRE_VERSION = 1

# HELLO capability bits.
CAP_REDUCE = 1  # the worker can reduce pairwise N1 blocks locally
CAP_VERSIONS = 2  # the worker understands per-vertex stream versions
CAP_MUTATE = 4  # the worker can apply MUTATE deltas to its installed graph

# DELTA_ACK statuses.
DELTA_OK = 0  # delta applied; ack digest is the freshly installed target
DELTA_UNKNOWN_BASE = 1  # worker does not hold the base snapshot
DELTA_DIGEST_MISMATCH = 2  # applied result did not hash to the target

# Largest payload a frame may declare. The header's length field is
# unsigned 32-bit; without this cap a single malicious (or corrupt)
# header could demand a 4 GiB allocation before any payload byte is
# read. Decoders and socket readers reject oversized declarations first.
MAX_FRAME_PAYLOAD = 1 << 31

_HEADER = struct.Struct("<BI")  # kind, payload length in bytes
_SCALAR_KINDS = (KIND_NOISY_DEGREE, KIND_ESTIMATE)
_HELLO = struct.Struct("<IIQ")  # version, capability bits, graph digest
_NONCE = struct.Struct("<I")
_GRAPH_HEAD = struct.Struct("<QII")  # digest, n_upper, n_lower
# shard, attempt, epoch, entropy, epsilon, domain, layer, flags,
# n_vertices, n_pairs
_SPEC_HEAD = struct.Struct("<iiQQdQBBII")
_FRAG_HEAD = struct.Struct("<iiII")  # shard, attempt, checksum, n_rows
# shard, attempt, checksum, n_rows, n_pairs, peak_bytes
_REDUCED_HEAD = struct.Struct("<iiIIIQ")
# base digest, target digest, op checksum, n_inserts, n_deletes
_MUTATE_HEAD = struct.Struct("<QQIII")
_DELTA_ACK = struct.Struct("<BQ")  # status, installed digest
_DELTA_STATUSES = (DELTA_OK, DELTA_UNKNOWN_BASE, DELTA_DIGEST_MISMATCH)

_SPEC_HAS_VERSIONS = 1
_SPEC_WANT_FRAGMENT = 2
_SPEC_MEASURE = 4


def frame_overhead() -> int:
    """Header bytes added to every frame (kind + length)."""
    return _HEADER.size


def _frame(kind: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte wire limit"
        )
    return _HEADER.pack(kind, len(payload)) + payload


def encode_noisy_edges(neighbors: np.ndarray) -> bytes:
    """Encode a noisy neighbor list as a frame of little-endian uint64 ids."""
    arr = np.asarray(neighbors, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ProtocolError("vertex ids must be non-negative")
    payload = arr.astype("<u8").tobytes()
    return _frame(KIND_NOISY_EDGES, payload)


def encode_scalar(value: float, kind: int) -> bytes:
    """Encode one float64 report (degree or estimate)."""
    if kind not in _SCALAR_KINDS:
        raise ProtocolError(f"kind {kind} is not a scalar message kind")
    payload = struct.pack("<d", float(value))
    return _frame(kind, payload)


# ----------------------------------------------------------------------
# Shard-transport frames
# ----------------------------------------------------------------------
def graph_digest(n_upper: int, n_lower: int, edges: np.ndarray) -> int:
    """Content digest of a graph snapshot (layer sizes + sorted edges).

    The tag workers key their installed-graph cache by: the parent
    re-installs only when the digest it is about to serve differs from
    the one the worker's HELLO advertised (e.g. after an incremental
    rotation swapped the snapshot).
    """
    edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    crc = zlib.crc32(struct.pack("<QQ", int(n_upper), int(n_lower)))
    crc = zlib.crc32(edges.astype("<i8").tobytes(), crc)
    return int(crc)


def encode_hello(version: int, caps: int, digest: int) -> bytes:
    """Encode a HELLO: protocol version, capability bits, graph digest."""
    return _frame(KIND_HELLO, _HELLO.pack(int(version), int(caps), int(digest)))


def encode_ping(nonce: int) -> bytes:
    """Encode a heartbeat PING carrying a nonce the PONG must echo."""
    return _frame(KIND_PING, _NONCE.pack(int(nonce) & 0xFFFFFFFF))


def encode_pong(nonce: int) -> bytes:
    """Encode the PONG echoing a PING's nonce."""
    return _frame(KIND_PONG, _NONCE.pack(int(nonce) & 0xFFFFFFFF))


def encode_graph(n_upper: int, n_lower: int, edges: np.ndarray) -> bytes:
    """Encode a graph install: digest, layer sizes, and the edge list."""
    edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    if edges.size and edges.min() < 0:
        raise ProtocolError("edge endpoints must be non-negative")
    digest = graph_digest(n_upper, n_lower, edges)
    payload = (
        _GRAPH_HEAD.pack(digest, int(n_upper), int(n_lower))
        + edges.astype("<u8").tobytes()
    )
    return _frame(KIND_GRAPH, payload)


def encode_shard_spec(
    *,
    shard: int,
    attempt: int,
    epoch: int,
    entropy: int,
    epsilon: float,
    domain: int,
    layer: int,
    vertices: np.ndarray,
    versions: np.ndarray | None = None,
    ia: np.ndarray | None = None,
    ib: np.ndarray | None = None,
    want_fragment: bool = True,
    measure: bool = False,
) -> bytes:
    """Encode one DRAW_SHARD work order.

    ``vertices`` are the shard's global vertex ids; ``versions`` (when
    given) must align with them. ``ia``/``ib`` are *local* pair slots
    into ``vertices`` — the pairs the worker should reduce to ``N1``
    scalars itself; both or neither must be given. ``layer`` is the
    serving layer's wire tag (0 = upper, 1 = lower); ``domain`` the
    opposite-layer size the reduction ranges over.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=np.int64))
    if (ia is None) != (ib is None):
        raise ProtocolError("ia and ib must be given together")
    flags = 0
    if versions is not None:
        versions = np.ascontiguousarray(np.asarray(versions, dtype=np.uint64))
        if versions.shape != vertices.shape:
            raise ProtocolError(
                "versions must align with the spec's vertices: "
                f"got {versions.shape} for {vertices.shape}"
            )
        flags |= _SPEC_HAS_VERSIONS
    if want_fragment:
        flags |= _SPEC_WANT_FRAGMENT
    if measure:
        flags |= _SPEC_MEASURE
    n_pairs = 0
    pair_bytes = b""
    if ia is not None:
        ia = np.ascontiguousarray(np.asarray(ia, dtype=np.int64))
        ib = np.ascontiguousarray(np.asarray(ib, dtype=np.int64))
        if ia.shape != ib.shape:
            raise ProtocolError("ia and ib must have the same shape")
        n_pairs = int(ia.size)
        pair_bytes = (
            ia.astype("<u4").tobytes() + ib.astype("<u4").tobytes()
        )
    payload = (
        _SPEC_HEAD.pack(
            int(shard),
            int(attempt),
            int(epoch),
            int(entropy),
            float(epsilon),
            int(domain),
            int(layer),
            flags,
            int(vertices.size),
            n_pairs,
        )
        + vertices.astype("<i8").tobytes()
        + (versions.astype("<u8").tobytes() if versions is not None else b"")
        + pair_bytes
    )
    return _frame(KIND_SHARD_SPEC, payload)


def columns_checksum(columns: np.ndarray) -> int:
    """CRC32 of a fragment's column bytes — the transport integrity tag.

    It covers the bytes as they cross: socket FRAGMENT frames carry it
    over their int64 ids, fork answers over the narrow ids they pipe.
    The CRC reads the contiguous buffer in place, without a bytes copy.
    """
    return int(zlib.crc32(np.ascontiguousarray(columns)))


def reduced_checksum(sizes: np.ndarray, n1: np.ndarray) -> int:
    """CRC32 over a reduced frame's sizes + N1 payload bytes."""
    crc = zlib.crc32(
        np.ascontiguousarray(sizes, dtype=np.int64).tobytes()
    )
    crc = zlib.crc32(
        np.ascontiguousarray(n1, dtype=np.int64).tobytes(), crc
    )
    return int(crc)


def encode_fragment(
    shard: int,
    attempt: int,
    indptr: np.ndarray,
    columns: np.ndarray,
    *,
    checksum: int | None = None,
) -> bytes:
    """Encode a shard's CSR noisy rows with the CRC32 checksum word.

    ``checksum`` defaults to the true CRC of ``columns``; passing an
    explicit value exists so chaos tests (and the poison fault) can
    construct frames whose payload contradicts their tag.
    """
    indptr = np.ascontiguousarray(np.asarray(indptr, dtype=np.int64))
    columns = np.ascontiguousarray(np.asarray(columns, dtype=np.int64))
    if indptr.size == 0 or int(indptr[0]) != 0:
        raise ProtocolError("fragment indptr must start at 0")
    if int(indptr[-1]) != columns.size:
        raise ProtocolError("fragment indptr does not cover its columns")
    if checksum is None:
        checksum = columns_checksum(columns)
    payload = (
        _FRAG_HEAD.pack(
            int(shard), int(attempt), int(checksum) & 0xFFFFFFFF,
            int(indptr.size - 1),
        )
        + indptr.astype("<i8").tobytes()
        + columns.astype("<i8").tobytes()
    )
    return _frame(KIND_FRAGMENT, payload)


def encode_reduced(
    shard: int,
    attempt: int,
    sizes: np.ndarray,
    n1: np.ndarray,
    *,
    peak_bytes: int = 0,
    checksum: int | None = None,
) -> bytes:
    """Encode a shard's row sizes + locally reduced pairwise N1 scalars.

    The frame that replaces a fragment when the worker holds both
    endpoints of every pair it was asked about: ``sizes`` always travel
    (they are what ``N2`` and the upload accounting need), while the
    noisy columns stay on the worker.
    """
    sizes = np.ascontiguousarray(np.asarray(sizes, dtype=np.int64))
    n1 = np.ascontiguousarray(np.asarray(n1, dtype=np.int64))
    if checksum is None:
        checksum = reduced_checksum(sizes, n1)
    payload = (
        _REDUCED_HEAD.pack(
            int(shard), int(attempt), int(checksum) & 0xFFFFFFFF,
            int(sizes.size), int(n1.size), int(peak_bytes),
        )
        + sizes.astype("<i8").tobytes()
        + n1.astype("<i8").tobytes()
    )
    return _frame(KIND_REDUCED, payload)


def encode_worker_error(message: str) -> bytes:
    """Encode a worker-side failure report (UTF-8 message)."""
    return _frame(KIND_WORKER_ERROR, str(message).encode("utf-8"))


def delta_checksum(inserts: np.ndarray, deletes: np.ndarray) -> int:
    """CRC32 over a mutate frame's insert + delete edge bytes.

    The integrity word a MUTATE carries alongside its digests: a flipped
    op byte surfaces as :class:`~repro.errors.PayloadIntegrityError` at
    decode, before the worker touches its installed graph.
    """
    crc = zlib.crc32(
        np.ascontiguousarray(inserts, dtype=np.int64).tobytes()
    )
    crc = zlib.crc32(
        np.ascontiguousarray(deletes, dtype=np.int64).tobytes(), crc
    )
    return int(crc)


def encode_mutate(
    base_digest: int,
    target_digest: int,
    inserts: np.ndarray,
    deletes: np.ndarray,
    *,
    checksum: int | None = None,
) -> bytes:
    """Encode an edge-delta push against an installed base snapshot.

    ``inserts``/``deletes`` are ``(k, 2)`` net edge arrays (the
    :meth:`DeltaLog.net_inserts` / ``net_deletes`` shape); the worker
    applies them to the graph it holds under ``base_digest`` and must
    end up with a graph whose content digest equals ``target_digest``.
    ``checksum`` defaults to the true CRC of the op bytes; an explicit
    value exists for chaos tests that need contradictory frames.
    """
    inserts = np.ascontiguousarray(
        np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
    )
    deletes = np.ascontiguousarray(
        np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
    )
    if (inserts.size and inserts.min() < 0) or (
        deletes.size and deletes.min() < 0
    ):
        raise ProtocolError("edge endpoints must be non-negative")
    if checksum is None:
        checksum = delta_checksum(inserts, deletes)
    payload = (
        _MUTATE_HEAD.pack(
            int(base_digest),
            int(target_digest),
            int(checksum) & 0xFFFFFFFF,
            int(inserts.shape[0]),
            int(deletes.shape[0]),
        )
        + inserts.astype("<i8").tobytes()
        + deletes.astype("<i8").tobytes()
    )
    return _frame(KIND_MUTATE, payload)


def encode_delta_ack(status: int, digest: int) -> bytes:
    """Encode the worker's verdict on a MUTATE: status + installed digest.

    On :data:`DELTA_OK` the digest is the freshly installed target; on
    :data:`DELTA_UNKNOWN_BASE` / :data:`DELTA_DIGEST_MISMATCH` it is the
    digest the worker still holds, so the parent knows what to re-ship.
    """
    if int(status) not in _DELTA_STATUSES:
        raise ProtocolError(f"unknown delta-ack status {status}")
    return _frame(KIND_DELTA_ACK, _DELTA_ACK.pack(int(status), int(digest)))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode_shard_spec(body: bytes) -> dict:
    if len(body) < _SPEC_HEAD.size:
        raise ProtocolError("truncated shard-spec payload")
    (
        shard, attempt, epoch, entropy, epsilon, domain, layer, flags,
        n_vertices, n_pairs,
    ) = _SPEC_HEAD.unpack_from(body)
    offset = _SPEC_HEAD.size
    expected = n_vertices * 8
    if flags & _SPEC_HAS_VERSIONS:
        expected += n_vertices * 8
    expected += n_pairs * 8
    if len(body) - offset != expected:
        raise ProtocolError("shard-spec payload does not match its header")
    vertices = np.frombuffer(body, dtype="<i8", count=n_vertices, offset=offset)
    offset += n_vertices * 8
    versions = None
    if flags & _SPEC_HAS_VERSIONS:
        versions = np.frombuffer(
            body, dtype="<u8", count=n_vertices, offset=offset
        )
        offset += n_vertices * 8
    ia = ib = None
    if n_pairs:
        ia = np.frombuffer(body, dtype="<u4", count=n_pairs, offset=offset)
        offset += n_pairs * 4
        ib = np.frombuffer(body, dtype="<u4", count=n_pairs, offset=offset)
        ia = ia.astype(np.int64)
        ib = ib.astype(np.int64)
    return {
        "shard": shard,
        "attempt": attempt,
        "epoch": epoch,
        "entropy": entropy,
        "epsilon": epsilon,
        "domain": domain,
        "layer": layer,
        "vertices": vertices.astype(np.int64),
        "versions": None if versions is None else versions.astype(np.uint64),
        "ia": ia,
        "ib": ib,
        "want_fragment": bool(flags & _SPEC_WANT_FRAGMENT),
        "measure": bool(flags & _SPEC_MEASURE),
    }


def _decode_fragment(body: bytes) -> dict:
    if len(body) < _FRAG_HEAD.size:
        raise ProtocolError("truncated fragment payload")
    shard, attempt, checksum, n_rows = _FRAG_HEAD.unpack_from(body)
    offset = _FRAG_HEAD.size
    if len(body) < offset + (n_rows + 1) * 8:
        raise ProtocolError("fragment payload does not cover its indptr")
    indptr = np.frombuffer(
        body, dtype="<i8", count=n_rows + 1, offset=offset
    ).astype(np.int64)
    offset += (n_rows + 1) * 8
    if indptr.size == 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ProtocolError("fragment indptr is not a valid CSR offset array")
    n_cols = int(indptr[-1])
    if len(body) - offset != n_cols * 8:
        raise ProtocolError("fragment payload does not match its indptr")
    columns = np.frombuffer(
        body, dtype="<i8", count=n_cols, offset=offset
    ).astype(np.int64)
    if columns_checksum(columns) != checksum:
        raise PayloadIntegrityError(
            f"fragment for shard {shard} failed checksum verification "
            f"({n_cols} ids)"
        )
    return {
        "shard": shard,
        "attempt": attempt,
        "checksum": checksum,
        "indptr": indptr,
        "columns": columns,
    }


def _decode_reduced(body: bytes) -> dict:
    if len(body) < _REDUCED_HEAD.size:
        raise ProtocolError("truncated reduced payload")
    shard, attempt, checksum, n_rows, n_pairs, peak = _REDUCED_HEAD.unpack_from(
        body
    )
    offset = _REDUCED_HEAD.size
    if len(body) - offset != (n_rows + n_pairs) * 8:
        raise ProtocolError("reduced payload does not match its header")
    sizes = np.frombuffer(body, dtype="<i8", count=n_rows, offset=offset).astype(
        np.int64
    )
    offset += n_rows * 8
    n1 = np.frombuffer(body, dtype="<i8", count=n_pairs, offset=offset).astype(
        np.int64
    )
    if reduced_checksum(sizes, n1) != checksum:
        raise PayloadIntegrityError(
            f"reduced block for shard {shard} failed checksum verification "
            f"({n_pairs} pairs)"
        )
    return {
        "shard": shard,
        "attempt": attempt,
        "checksum": checksum,
        "sizes": sizes,
        "n1": n1,
        "peak_bytes": int(peak),
    }


def _decode_graph(body: bytes) -> dict:
    if len(body) < _GRAPH_HEAD.size:
        raise ProtocolError("truncated graph payload")
    digest, n_upper, n_lower = _GRAPH_HEAD.unpack_from(body)
    rest = len(body) - _GRAPH_HEAD.size
    if rest % 16:
        raise ProtocolError("graph edge payload must be uint64 pairs")
    edges = (
        np.frombuffer(body, dtype="<u8", offset=_GRAPH_HEAD.size)
        .astype(np.int64)
        .reshape(-1, 2)
    )
    if graph_digest(n_upper, n_lower, edges) != digest:
        raise PayloadIntegrityError("graph payload does not match its digest")
    return {
        "digest": digest,
        "n_upper": n_upper,
        "n_lower": n_lower,
        "edges": edges,
    }


def _decode_mutate(body: bytes) -> dict:
    if len(body) < _MUTATE_HEAD.size:
        raise ProtocolError("truncated mutate payload")
    base, target, checksum, n_ins, n_del = _MUTATE_HEAD.unpack_from(body)
    offset = _MUTATE_HEAD.size
    if len(body) - offset != (n_ins + n_del) * 16:
        raise ProtocolError("mutate payload does not match its header")
    inserts = (
        np.frombuffer(body, dtype="<i8", count=n_ins * 2, offset=offset)
        .astype(np.int64)
        .reshape(-1, 2)
    )
    offset += n_ins * 16
    deletes = (
        np.frombuffer(body, dtype="<i8", count=n_del * 2, offset=offset)
        .astype(np.int64)
        .reshape(-1, 2)
    )
    if (inserts.size and inserts.min() < 0) or (
        deletes.size and deletes.min() < 0
    ):
        raise ProtocolError("mutate edge endpoints must be non-negative")
    if delta_checksum(inserts, deletes) != checksum:
        raise PayloadIntegrityError(
            f"mutate delta against base {base:#x} failed checksum "
            f"verification ({n_ins} inserts, {n_del} deletes)"
        )
    return {
        "base_digest": base,
        "target_digest": target,
        "checksum": checksum,
        "inserts": inserts,
        "deletes": deletes,
    }


def decode_frame(data: bytes) -> tuple[int, object, bytes]:
    """Decode one frame; returns ``(kind, payload, remaining_bytes)``.

    ``payload`` is an id array for noisy-edges frames, a float for the
    scalar kinds, and a dict of decoded fields for the shard-transport
    kinds (hello/ping/pong/graph/shard-spec/fragment/reduced/error).
    Raises :class:`ProtocolError` on truncated or malformed input, on a
    declared payload length beyond :data:`MAX_FRAME_PAYLOAD` (rejected
    before any allocation), and :class:`PayloadIntegrityError` when a
    fragment/reduced/graph payload contradicts its checksum word.
    """
    if len(data) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    kind, length = _HEADER.unpack_from(data)
    if length > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"frame declares a {length}-byte payload beyond the "
            f"{MAX_FRAME_PAYLOAD}-byte wire limit"
        )
    body = data[_HEADER.size : _HEADER.size + length]
    if len(body) != length:
        raise ProtocolError("truncated frame payload")
    rest = data[_HEADER.size + length :]
    if kind == KIND_NOISY_EDGES:
        if length % 8:
            raise ProtocolError("noisy-edges payload must be a uint64 array")
        ids = np.frombuffer(body, dtype="<u8").astype(np.int64)
        return kind, ids, rest
    if kind in _SCALAR_KINDS:
        if length != 8:
            raise ProtocolError("scalar payload must be exactly 8 bytes")
        return kind, struct.unpack("<d", body)[0], rest
    if kind == KIND_HELLO:
        if length != _HELLO.size:
            raise ProtocolError("hello payload must be version+caps+digest")
        version, caps, digest = _HELLO.unpack(body)
        return kind, {"version": version, "caps": caps, "digest": digest}, rest
    if kind in (KIND_PING, KIND_PONG):
        if length != _NONCE.size:
            raise ProtocolError("ping/pong payload must be a 4-byte nonce")
        return kind, {"nonce": _NONCE.unpack(body)[0]}, rest
    if kind == KIND_GRAPH:
        return kind, _decode_graph(body), rest
    if kind == KIND_SHARD_SPEC:
        return kind, _decode_shard_spec(body), rest
    if kind == KIND_FRAGMENT:
        return kind, _decode_fragment(body), rest
    if kind == KIND_REDUCED:
        return kind, _decode_reduced(body), rest
    if kind == KIND_WORKER_ERROR:
        return kind, {"message": body.decode("utf-8", "replace")}, rest
    if kind == KIND_MUTATE:
        return kind, _decode_mutate(body), rest
    if kind == KIND_DELTA_ACK:
        if length != _DELTA_ACK.size:
            raise ProtocolError("delta-ack payload must be status+digest")
        status, digest = _DELTA_ACK.unpack(body)
        if status not in _DELTA_STATUSES:
            raise ProtocolError(f"unknown delta-ack status {status}")
        return kind, {"status": status, "digest": digest}, rest
    raise ProtocolError(f"unknown frame kind {kind}")


def payload_bytes(frame: bytes) -> int:
    """Payload size of an encoded frame — the quantity Fig. 10 counts."""
    if len(frame) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    _, length = _HEADER.unpack_from(frame)
    return length
