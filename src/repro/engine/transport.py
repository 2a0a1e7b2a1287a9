"""Pluggable shard transports: *how* a shard plan's ranges execute.

A shard task is a pure function of ``(graph, range, epsilon, entropy,
epoch, versions)`` with a byte-identity guarantee, so *where* it runs
is a deployment decision, not a correctness one. This module carves
that decision into three layers:

* :class:`ShardSpec` / :class:`ShardResult` / :func:`execute_spec` —
  the work order, its answer, and the one pure compute routine every
  substrate shares (keyed draw, row sizes, optional in-worker pairwise
  ``N1`` reduction). Inline execution, fork workers, socket workers and
  the terminal degradation path all call the same function, which is
  what makes the byte-identity contract a single place to audit.
* :class:`ShardTransport` — the substrate contract
  (``submit(spec) -> future``, ``finalize``, ``recycle``, ``close``,
  capability flags) with three implementations:
  :class:`InlineTransport` (no processes),
  :class:`ForkTransport` (a fork pool whose workers inherit the graph
  copy-on-write and answer through the pool's result pipe), and
  :class:`SocketTransport` (remote workers over TCP speaking the
  length-prefixed frames of :mod:`repro.protocol.wire`, with a
  :class:`WorkerRegistry` tracking liveness and re-dispatching ranges
  away from dead workers). Fork answers and socket frames are tagged by
  the same CRC32 helpers: :func:`repro.protocol.wire.reduced_checksum`
  over every answer's sizes + ``N1``, and
  :func:`repro.protocol.wire.columns_checksum` over the column bytes a
  fragment crosses in (int64 in a socket frame, the narrowest id dtype
  through the fork pipe).
* :func:`drive` — the transport-agnostic retry driver: wave-scaled
  deadlines, keyed-Philox backoff, fault classification, CRC32
  verification and terminal inline degradation, so every transport —
  including ones that don't exist yet — inherits the whole resilience
  envelope unchanged.

Determinism note: re-dispatch is safe on *every* transport because a
retry replays the identical keyed stream, so a range that bounces
between a dead socket worker, a live one, and finally the parent's
inline fallback still returns the same bytes.
``docs/distributed-guide.md`` is the contract document.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
import tracemalloc
import weakref
from collections import Counter, OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine.bulkrr import (
    keyed_bulk_randomized_response,
    lengths_to_indptr,
)
from repro.engine.faults import FAULT_EXIT_CODE, FaultPlan, poison_payload
from repro.engine.pairwise import (
    choose_backend,
    pair_id_total,
    pairwise_intersections,
)
from repro.errors import PayloadIntegrityError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer
from repro.protocol import wire

__all__ = [
    "ShardSpec",
    "ShardResult",
    "ShardTransport",
    "InlineTransport",
    "ForkTransport",
    "SocketTransport",
    "WorkerHandle",
    "WorkerRegistry",
    "RetryPolicy",
    "execute_spec",
    "drive",
    "make_transport",
    "fork_available",
]

# Worker-side context registry. Entries are registered in the parent
# *before* its pool forks, so every worker inherits them copy-on-write;
# tasks then reference their context by token instead of pickling the
# graph per range. (Socket workers have no shared memory with the parent
# and install the graph once over the wire instead — see
# :meth:`SocketTransport._install`.)
_WORKER_CONTEXTS: dict[int, tuple[BipartiteGraph, Layer]] = {}
_NEXT_TOKEN = 0

# Keyed-stream domain tag for retry-backoff jitter ("BACK"): the jitter
# that decorrelates retry stampedes must itself be deterministic per
# (entropy, epoch, attempt), or reruns of the same failure schedule
# would not be reproducible.
_BACKOFF_TAG = 0x4241434B

# Exceptions that classify as *worker faults* — transient, re-dispatchable
# failures of the execution substrate rather than of the draw itself.
# Anything else (a PrivacyError from bad epsilon, a GraphError) is a real
# bug and propagates immediately. The tuple is transport-agnostic: a dead
# fork pool, an expired deadline, a corrupt answer and a refused TCP
# connection all land in it.
_WORKER_FAULTS = (
    BrokenProcessPool,
    FutureTimeoutError,
    TimeoutError,
    PayloadIntegrityError,
    OSError,
)

# Bounded grace for joining worker pools at close/release time. A worker
# that never exits is exactly the stall ``timeout_s`` defends against,
# so teardown escalates to terminate (then kill) instead of inheriting
# the hang — close() and interpreter shutdown must stay bounded.
_JOIN_GRACE_S = 5.0

_LAYER_TAGS = {Layer.UPPER: 0, Layer.LOWER: 1}
_TAG_LAYERS = {0: Layer.UPPER, 1: Layer.LOWER}


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _fault_kind(exc: BaseException) -> str:
    """Map a caught worker fault to its ``faults`` counter key.

    The deadline check precedes the transport bucket because
    ``TimeoutError`` is an ``OSError`` subclass.
    """
    if isinstance(exc, (FutureTimeoutError, TimeoutError)):
        return "timeouts"
    if isinstance(exc, PayloadIntegrityError):
        return "payload_errors"
    return "worker_deaths"


def empty_faults() -> dict:
    return {
        "retries": 0,  # task re-dispatches after a fault round
        "timeouts": 0,  # per-task deadline expiries
        "worker_deaths": 0,  # dead pools / dead sockets / dead workers
        "payload_errors": 0,  # checksum mismatches on a worker's answer
        "backoff_s": [],  # keyed-jitter waits before each retry round
        "degraded_ranges": [],  # ranges that fell back to inline execution
    }


# ----------------------------------------------------------------------
# The work order, its answer, and the one shared compute routine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's work order: everything its keyed draw is a function of.

    ``vertices`` are the range's global vertex ids; ``lo``/``hi`` locate
    the range inside its plan (provenance only — the draw never reads
    them). ``ia``/``ib``, when given, are *local* row slots into
    ``vertices``: the diagonal pairs the executor should reduce to
    ``N1`` scalars itself instead of shipping rows. ``want_fragment``
    controls whether the noisy CSR fragment travels back at all — a
    shard whose every pair reduces locally returns sizes + scalars only,
    which is the whole traffic win of in-worker reduction.
    """

    shard: int
    lo: int
    hi: int
    vertices: np.ndarray
    epsilon: float
    entropy: int
    epoch: int
    attempt: int = 0
    versions: np.ndarray | None = None
    domain: int = 0
    ia: np.ndarray | None = None
    ib: np.ndarray | None = None
    want_fragment: bool = True
    measure: bool = False


@dataclass
class ShardResult:
    """One executed spec's answer plus its transport accounting.

    ``sizes`` (per-row noisy id counts) always come back — they are what
    ``N2`` and the upload accounting need. ``indptr``/``columns`` are
    present iff the spec asked for the fragment; ``n1`` iff it carried
    local pairs. ``payload_bytes`` counts what actually crossed the
    transport to the parent (0 for inline execution), which is the
    quantity ``details["shards"]["transport"]`` and the transport
    benchmark report.
    """

    shard: int
    attempt: int
    sizes: np.ndarray
    indptr: np.ndarray | None = None
    columns: np.ndarray | None = None
    n1: np.ndarray | None = None
    backend: str | None = None
    peak_bytes: int = 0
    payload_bytes: int = 0


def execute_spec(
    graph: BipartiteGraph, layer: Layer, spec: ShardSpec
) -> ShardResult:
    """Execute one spec: keyed draw, row sizes, optional local pairwise.

    The single pure compute routine behind every transport *and* the
    terminal inline degradation — a spec executed here, in a forked
    worker, or on a remote socket worker produces identical bytes,
    because the draw is keyed by ``(entropy, epoch, vertex, version)``
    and the pairwise reduction is exact integer counting under every
    backend. ``spec.attempt`` deliberately does not participate.
    """
    if spec.measure:
        tracemalloc.start()
    indptr, columns = keyed_bulk_randomized_response(
        graph,
        layer,
        spec.vertices,
        spec.epsilon,
        entropy=spec.entropy,
        epoch=spec.epoch,
        versions=spec.versions,
    )
    peak = 0
    if spec.measure:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    sizes = np.diff(indptr)
    n1 = None
    backend = None
    if spec.ia is not None and spec.ia.size:
        backend = choose_backend(
            int(spec.vertices.size), int(spec.ia.size), spec.domain,
            pair_id_total(indptr, spec.ia, spec.ib),
        )
        n1 = pairwise_intersections(
            indptr, columns, spec.ia, spec.ib, spec.domain, backend=backend
        )
    return ShardResult(
        shard=spec.shard,
        attempt=spec.attempt,
        sizes=sizes,
        indptr=indptr if spec.want_fragment else None,
        columns=columns if spec.want_fragment else None,
        n1=n1,
        backend=backend,
        peak_bytes=int(peak),
    )


# ----------------------------------------------------------------------
# The transport contract
# ----------------------------------------------------------------------
class ShardTransport:
    """Substrate contract the retry driver runs shard specs against.

    A transport answers *how work runs*: it turns a :class:`ShardSpec`
    into a future (``submit``), turns the future's raw value into a
    verified :class:`ShardResult` (``finalize``), recovers from a fault
    round (``recycle``) and shuts down (``close`` — idempotent, and safe
    on a transport that never started). ``parallel`` is the capability
    flag the driver consults before fanning out at all; ``can_reduce``
    advertises in-worker pairwise reduction.
    """

    name = "abstract"
    can_reduce = True

    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        """Point the transport at the serving context (idempotent).

        ``delta``, when given, is the :class:`~repro.graph.delta.DeltaLog`
        that carries the *previous* bound graph to ``graph`` — a hint
        transports with remote state (the socket cluster) use to push an
        edge delta instead of re-shipping the snapshot. Transports whose
        workers see the parent's memory directly ignore it.
        """
        raise NotImplementedError

    @property
    def parallel(self) -> bool:
        """True when submit() actually fans out to workers."""
        return False

    @property
    def workers(self) -> int:
        """Concurrent execution slots — the driver's wave divisor."""
        return 1

    def submit(self, spec: ShardSpec) -> Future:
        raise NotImplementedError

    def finalize(self, spec: ShardSpec, raw) -> ShardResult:
        """Turn a future's raw value into a verified :class:`ShardResult`."""
        return raw

    def recycle(self) -> None:
        """Recover the substrate after a fault round.

        The fork pool retires and rebuilds; the socket transport drops
        suspect connections and refreshes liveness.
        """

    def close(self) -> None:
        """Release everything. Idempotent; safe if never started."""

    def describe(self) -> dict:
        """Static identity for ``details["shards"]["transport"]``."""
        return {"name": self.name, "workers": int(self.workers)}

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InlineTransport(ShardTransport):
    """No processes, no sockets: every spec executes in the caller.

    The degenerate transport — and the terminal degradation target every
    other transport falls back to. ``parallel`` is False, so the driver
    never even builds a retry loop; specs run serially via
    :func:`execute_spec` with ``attempt = -1``.
    """

    name = "inline"

    def __init__(self):
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None

    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        self._graph, self._layer = graph, layer

    def submit(self, spec: ShardSpec) -> Future:
        future: Future = Future()
        try:
            future.set_result(execute_spec(self._graph, self._layer, spec))
        except BaseException as exc:  # pragma: no cover - surfaced by driver
            future.set_exception(exc)
        return future


# ----------------------------------------------------------------------
# Fork transport: copy-on-write workers answering through the pool pipe
# ----------------------------------------------------------------------
def _fork_run_spec(token: int, spec: ShardSpec) -> tuple:
    """Execute a spec in a forked worker; answer through the result pipe.

    The answer is ``(sizes, n1, backend, peak, checksum, columns,
    columns_checksum)``, tagged like the socket worker's frames:
    ``checksum`` is the CRC32 over ``sizes + n1`` on every answer; a
    spec that wants its fragment also gets the noisy columns and their
    CRC32 (``None`` for both otherwise). The columns cross in the
    narrowest unsigned dtype that holds an opposite-layer id (``uint16``
    below 65,536 vertices: a quarter of the int64 bytes to pickle, pipe
    and checksum). The parent rebuilds ``indptr`` from the checked
    sizes, so nothing reaches it unverified.

    The chaos hook keys on ``(spec.shard, spec.attempt)``: kill and
    delay fire before the draw, poison corrupts the sent payload (the
    columns when a fragment rides along, else ``sizes + n1``) *after*
    its checksum was taken from the good draw, so parent verification
    must catch it, and kill_after_write dies after the draw, before the
    worker answers.
    """
    graph, layer = _WORKER_CONTEXTS[token]
    plan = FaultPlan.from_env()
    action = plan.action_for(spec.shard, spec.attempt) if plan else None
    kind = action.kind if action is not None else None
    if kind == "kill":
        os._exit(FAULT_EXIT_CODE)
    if kind == "delay":
        time.sleep(action.delay_s)
    result = execute_spec(graph, layer, spec)
    sizes = result.sizes
    n1 = result.n1 if result.n1 is not None else np.empty(0, np.int64)
    checksum = wire.reduced_checksum(sizes, n1)
    columns = columns_checksum = None
    if spec.want_fragment:
        id_dtype = np.min_scalar_type(
            max(0, graph.layer_size(layer.opposite()) - 1)
        )
        columns = result.columns.astype(id_dtype)
        columns_checksum = wire.columns_checksum(columns)
    if kind == "poison":
        if columns is not None:
            (columns,), columns_checksum = poison_payload(
                [columns], columns_checksum
            )
        else:
            (n1, sizes), checksum = poison_payload([n1, sizes], checksum)
    if kind == "kill_after_write":
        os._exit(FAULT_EXIT_CODE)
    return (
        sizes, n1, result.backend, result.peak_bytes, checksum,
        columns, columns_checksum,
    )


def _retire_pool(pool: ProcessPoolExecutor) -> list:
    """Shut a pool down without waiting; return its worker processes.

    The list is taken first because ``shutdown()`` drops the executor's
    process map while the workers may still be running a task.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may object
        pass
    return procs


def _join_processes(procs: list, grace_s: float | None = None) -> None:
    """Join workers under a bounded grace, then force the rest.

    Healthy workers drain and exit within the grace; a permanently
    wedged one — the stall ``timeout_s`` exists to defend against — is
    terminated (and, failing that, killed) so close() and interpreter
    shutdown never inherit the hang.
    """
    if grace_s is None:
        grace_s = _JOIN_GRACE_S
    deadline = time.monotonic() + grace_s
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
            proc.kill()
            proc.join(timeout=1.0)


def _release_fork(token: int, pool_box: list, retired: list) -> None:
    """Free a fork transport's pools and context registration.

    Shared by :meth:`ForkTransport.close` and the transport's GC
    finalizer, so a transport dropped without ``close()`` can neither
    pin its graph in ``_WORKER_CONTEXTS`` nor leave worker processes
    behind for the interpreter's lifetime. Retired pools (torn down with
    ``wait=False`` after a fault) are joined here under
    :data:`_JOIN_GRACE_S`, with stragglers terminated, so teardown stays
    bounded even with a wedged worker.
    """
    pool = pool_box[0]
    if pool is not None:
        _join_processes(_retire_pool(pool))
        pool_box[0] = None
    for procs in retired:
        _join_processes(procs)
    retired.clear()
    _WORKER_CONTEXTS.pop(token, None)


class ForkTransport(ShardTransport):
    """Forked workers that inherit the graph and answer through a pipe.

    Workers inherit the graph copy-on-write at fork time through the
    module context registry, and every answer returns through the
    ``ProcessPoolExecutor`` result pipe tagged with CRC32 words the
    parent verifies (fragment ids cross in their narrowest dtype; see
    :func:`_fork_run_spec`). A suspect pool retires without blocking and
    is held as its worker list until those workers exit; ``close()``
    joins every pool under a bounded grace.
    """

    name = "fork"

    def __init__(self, *, max_workers: int | None = None):
        global _NEXT_TOKEN
        if max_workers is not None and max_workers <= 0:
            raise ProtocolError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None
        self._token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
        # The pool lives in a one-slot box so the GC finalizer can free
        # it without holding a reference to the transport itself; pools
        # torn down after a fault are parked in `_retired` as their
        # worker processes, dropped once every one has exited, and
        # force-joined (bounded) at close time.
        self._pool_box: list = [None]
        self._retired: list[list] = []
        self._finalizer = weakref.finalize(
            self, _release_fork, self._token, self._pool_box, self._retired
        )

    # -- context ------------------------------------------------------
    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        """Register (or re-register) the copy-on-write worker context.

        A live pool holds the previous graph through fork-time
        inheritance and cannot see a swap, so rebinding to a different
        snapshot joins and drops the current pool; the next submit forks
        fresh workers that inherit the new context. A no-op when already
        bound to the same ``(graph, layer)``. ``delta`` is ignored:
        forked workers inherit the new snapshot for free.
        """
        prev = _WORKER_CONTEXTS.get(self._token)
        if prev is not None and prev[0] is graph and prev[1] is layer:
            return
        if prev is not None:
            pool = self._pool_box[0]
            if pool is not None:
                _join_processes(_retire_pool(pool))
                self._pool_box[0] = None
        _WORKER_CONTEXTS[self._token] = (graph, layer)
        self._graph, self._layer = graph, layer

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1 and fork_available()

    @property
    def workers(self) -> int:
        return self.max_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool_box[0] is None:
            # Sized by the worker cap alone — workers fork lazily on
            # demand, and sizing by one draw's range count would
            # permanently under-parallelize every later, larger draw.
            self._pool_box[0] = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool_box[0]

    # -- the contract --------------------------------------------------
    def submit(self, spec: ShardSpec) -> Future:
        # A retired pool whose workers have all exited has nothing left
        # to join, so recurring faults cannot grow `_retired` unbounded.
        self._retired[:] = [
            procs
            for procs in self._retired
            if any(proc.is_alive() for proc in procs)
        ]
        return self._ensure_pool().submit(_fork_run_spec, self._token, spec)

    def finalize(self, spec: ShardSpec, raw) -> ShardResult:
        sizes, n1, backend, peak, checksum, columns, columns_checksum = raw
        intact = wire.reduced_checksum(sizes, n1) == checksum
        payload_bytes = sizes.nbytes + n1.nbytes
        indptr = None
        if columns is not None:
            intact &= wire.columns_checksum(columns) == columns_checksum
            payload_bytes += columns.nbytes
            indptr = lengths_to_indptr(sizes)
            columns = columns.astype(np.int64)
        if not intact:
            raise PayloadIntegrityError(
                f"answer for shard {spec.shard} failed checksum verification"
            )
        return ShardResult(
            shard=spec.shard,
            attempt=spec.attempt,
            sizes=sizes,
            indptr=indptr,
            columns=columns,
            n1=n1 if spec.ia is not None else None,
            backend=backend,
            peak_bytes=int(peak),
            payload_bytes=int(payload_bytes),
        )

    def recycle(self) -> None:
        """Retire the suspect pool; the next submit forks a fresh one.

        The pool is torn down without waiting (a stuck worker must not
        block the retry path) and parked as its worker list until those
        workers exit.
        """
        pool = self._pool_box[0]
        if pool is not None:
            self._pool_box[0] = None
            self._retired.append(_retire_pool(pool))

    def close(self) -> None:
        _release_fork(self._token, self._pool_box, self._retired)


# ----------------------------------------------------------------------
# Socket transport: remote workers speaking protocol/wire.py frames
# ----------------------------------------------------------------------
def read_frame(sock: socket.socket) -> tuple[int, object]:
    """Read and decode exactly one wire frame from a socket.

    The 5-byte header is read first and its declared length checked
    against :data:`~repro.protocol.wire.MAX_FRAME_PAYLOAD` *before* the
    payload is buffered, so a corrupt header cannot demand a giant
    allocation. Raises ``ConnectionError`` (an ``OSError``, hence a
    worker fault) on EOF mid-frame.
    """
    header = _read_exact(sock, wire.frame_overhead())
    _, length = wire._HEADER.unpack(header)
    if length > wire.MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"peer declared a {length}-byte frame beyond the wire limit"
        )
    body = _read_exact(sock, length)
    kind, payload, _ = wire.decode_frame(header + body)
    return kind, payload


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("worker closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class WorkerHandle:
    """One remote worker: its address, connection, and liveness state."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self.sock: socket.socket | None = None
        self.lock = threading.Lock()  # serializes request/response pairs
        self.alive = True
        self.digest: int | None = None  # graph the worker currently holds
        self.caps = 0
        self.last_seen = 0.0
        self.dispatched = 0
        self.delta_pushes = 0  # MUTATE frames this worker absorbed
        self.diverged = 0  # delta pushes refused → full re-install

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def drop(self) -> None:
        """Close the connection (keeps the handle; reconnects lazily)."""
        sock, self.sock, self.digest = self.sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"WorkerHandle({self.address}, {state})"


class WorkerRegistry:
    """Tracks a socket cluster's workers and their liveness.

    The registry is what makes re-dispatch *deterministic in effect*:
    a dead worker leaves the live list, the retry driver re-submits its
    ranges, and placement over the survivors changes — but the keyed
    draw makes the bytes identical wherever the range lands, so the
    failover is invisible in the output.
    """

    def __init__(self, addresses):
        handles = []
        for entry in addresses:
            if isinstance(entry, WorkerHandle):
                handles.append(entry)
                continue
            if isinstance(entry, str):
                host, _, port = entry.rpartition(":")
                if not host or not port.isdigit():
                    raise ProtocolError(
                        f"worker address {entry!r} is not host:port"
                    )
                handles.append(WorkerHandle(host, int(port)))
            else:
                host, port = entry
                handles.append(WorkerHandle(host, int(port)))
        if not handles:
            raise ProtocolError("a socket transport needs at least one worker")
        self.handles = handles

    def live(self) -> list[WorkerHandle]:
        return [h for h in self.handles if h.alive]

    def mark_dead(self, handle: WorkerHandle) -> None:
        handle.alive = False
        handle.drop()

    def describe(self) -> list[dict]:
        return [
            {
                "address": h.address,
                "alive": h.alive,
                "dispatched": h.dispatched,
                "digest": h.digest,
                "delta_pushes": h.delta_pushes,
                "diverged": h.diverged,
            }
            for h in self.handles
        ]


class SocketTransport(ShardTransport):
    """Shard execution on remote workers over length-prefixed TCP frames.

    Speaks the :mod:`repro.protocol.wire` shard-transport frames to
    ``python -m repro.engine.worker`` processes: HELLO exchanges
    capabilities and the graph digest each side holds, GRAPH installs
    the snapshot once per worker (re-sent only when the digest moves,
    e.g. after an incremental rotation), SHARD_SPEC carries one work
    order, and the answer is one REDUCED frame (sizes + locally reduced
    ``N1`` scalars) followed by a FRAGMENT frame iff the spec asked for
    rows — both integrity-tagged with the same CRC32 words fork answers
    carry, verified at decode time.

    Each worker connection is serialized by its handle lock; concurrent
    specs fan out over a thread pool and round-robin across *live*
    workers, so a worker that dies mid-draw (detected as a connection
    fault, or by a heartbeat PING during :meth:`recycle`) simply stops
    receiving ranges while the retry driver re-dispatches its pending
    ones to the survivors — byte-identically.

    **Streaming ingest.** A ``bind(..., delta=log)`` records the edge
    delta that carried the previous snapshot to the new one in a bounded
    per-snapshot chain; a worker whose installed digest is on the chain
    absorbs the rotation as one MUTATE frame (net inserts + deletes)
    instead of a full GRAPH re-ship, verified end-to-end by the target
    content digest in its DELTA_ACK. A worker off the chain — it died
    and rejoined mid-stream, or fell behind the chain cap — diverges and
    falls back to the full install. The ``ingest`` traffic ledger in
    :meth:`describe` counts both paths and the bytes the deltas saved.
    """

    name = "socket"

    # Historical snapshots a delta chain reaches back to. Matches the
    # worker's GRAPH_CACHE_LIMIT: a base older than the worker could
    # still hold is a guaranteed UNKNOWN_BASE round trip.
    CHAIN_LIMIT = 8

    def __init__(
        self,
        workers,
        *,
        connect_timeout_s: float = 10.0,
        request_timeout_s: float | None = None,
    ):
        self.registry = (
            workers
            if isinstance(workers, WorkerRegistry)
            else WorkerRegistry(workers)
        )
        self.connect_timeout_s = float(connect_timeout_s)
        self.request_timeout_s = request_timeout_s
        self._graph: BipartiteGraph | None = None
        self._layer: Layer | None = None
        self._digest: int | None = None
        self._graph_frame: bytes | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._seq = 0
        # base content digest -> {edge: final-membership} ops reaching
        # the *current* graph; oldest bases evicted at CHAIN_LIMIT.
        self._chain: OrderedDict[int, dict] = OrderedDict()
        self._mutate_frames: dict[int, bytes] = {}
        self._ingest = {
            "delta_pushes": 0,  # rotations absorbed as MUTATE frames
            "delta_bytes": 0,  # what the MUTATE frames cost
            "delta_saved_bytes": 0,  # graph re-ships those frames avoided
            "graph_installs": 0,  # full GRAPH frames shipped
            "graph_bytes": 0,  # what the full installs cost
            "diverged": 0,  # delta pushes refused by the worker
        }

    # -- context ------------------------------------------------------
    def bind(self, graph: BipartiteGraph, layer: Layer, *, delta=None) -> None:
        if self._graph is graph and self._layer is layer:
            return
        ops = None
        if (
            delta is not None
            and self._graph is not None
            and delta.base is self._graph
            and self._layer is layer
        ):
            ops = delta.net_ops()
        if ops:
            # Extend every historical chain entry (last-op-wins overlay,
            # the same composition DeltaLog.compose performs) so workers
            # several snapshots behind still resync with one push, then
            # record the new hop under the outgoing snapshot's digest.
            prev_digest = self._ensure_digest()
            for base, chained in self._chain.items():
                self._chain[base] = {**chained, **ops}
            self._chain[prev_digest] = dict(ops)
            while len(self._chain) > self.CHAIN_LIMIT:
                self._chain.popitem(last=False)
        else:
            # Not an incremental hop (fresh bind, or a delta recorded
            # against some other snapshot): no chain can be trusted.
            self._chain.clear()
        self._mutate_frames.clear()
        self._graph, self._layer = graph, layer
        # Lazily recomputed: workers re-install on digest mismatch at
        # their next submit, which is how a rebind propagates.
        self._digest = None
        self._graph_frame = None

    @property
    def parallel(self) -> bool:
        return bool(self.registry.live())

    @property
    def workers(self) -> int:
        return max(1, len(self.registry.live()))

    def _ensure_digest(self) -> int:
        if self._digest is None:
            graph = self._graph
            self._graph_frame = wire.encode_graph(
                graph.num_upper, graph.num_lower, graph.edges
            )
            self._digest = wire.graph_digest(
                graph.num_upper, graph.num_lower, graph.edges
            )
        return self._digest

    def _pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=max(2, 2 * len(self.registry.handles)),
                thread_name_prefix="shard-tx",
            )
        return self._threads

    # -- connection management ----------------------------------------
    def _connect(self, handle: WorkerHandle) -> socket.socket:
        sock = socket.create_connection(
            (handle.host, handle.port), timeout=self.connect_timeout_s
        )
        sock.settimeout(self.request_timeout_s)
        digest = self._ensure_digest()
        sock.sendall(
            wire.encode_hello(
                wire.WIRE_VERSION,
                wire.CAP_REDUCE | wire.CAP_VERSIONS,
                digest,
            )
        )
        kind, payload = read_frame(sock)
        if kind != wire.KIND_HELLO:
            raise ProtocolError(
                f"worker {handle.address} answered HELLO with kind {kind}"
            )
        if payload["version"] != wire.WIRE_VERSION:
            raise ProtocolError(
                f"worker {handle.address} speaks wire version "
                f"{payload['version']}, parent speaks {wire.WIRE_VERSION}"
            )
        handle.caps = payload["caps"]
        handle.digest = payload["digest"]
        handle.last_seen = time.monotonic()
        return sock

    def _mutate_frame(self, base: int) -> bytes:
        """The (memoized) MUTATE frame carrying ``base`` to the bound graph."""
        frame = self._mutate_frames.get(base)
        if frame is None:
            ops = self._chain[base]
            inserts = sorted(e for e, op in ops.items() if op)
            deletes = sorted(e for e, op in ops.items() if not op)
            frame = wire.encode_mutate(
                base,
                self._ensure_digest(),
                np.array(inserts, dtype=np.int64).reshape(-1, 2),
                np.array(deletes, dtype=np.int64).reshape(-1, 2),
            )
            self._mutate_frames[base] = frame
        return frame

    def _push_delta(
        self, handle: WorkerHandle, sock: socket.socket, digest: int
    ) -> bool:
        """Try to carry a worker to ``digest`` with one MUTATE frame.

        True on an OK ack for the target digest; False (after counting
        the divergence) when the worker refused — unknown base, digest
        mismatch — in which case the stream is still frame-aligned and
        the caller falls back to the full GRAPH install.
        """
        frame = self._mutate_frame(handle.digest)
        sock.sendall(frame)
        kind, payload = read_frame(sock)
        if kind != wire.KIND_DELTA_ACK:
            raise ProtocolError(
                f"worker {handle.address} answered a delta push with "
                f"kind {kind}"
            )
        if payload["status"] == wire.DELTA_OK and payload["digest"] == digest:
            handle.digest = digest
            handle.last_seen = time.monotonic()
            handle.delta_pushes += 1
            self._ingest["delta_pushes"] += 1
            self._ingest["delta_bytes"] += len(frame)
            self._ingest["delta_saved_bytes"] += max(
                0, len(self._graph_frame) - len(frame)
            )
            return True
        handle.diverged += 1
        self._ingest["diverged"] += 1
        return False

    def _install(self, handle: WorkerHandle, sock: socket.socket) -> None:
        """Carry a worker holding a different snapshot to the bound one.

        A worker whose digest sits on the delta chain gets the rotation
        as one MUTATE push; everyone else — including a pushed worker
        that refused its delta — gets the full GRAPH frame.
        """
        digest = self._ensure_digest()
        if handle.digest == digest:
            return
        if (
            handle.digest in self._chain
            and handle.caps & wire.CAP_MUTATE
            and self._push_delta(handle, sock, digest)
        ):
            return
        sock.sendall(self._graph_frame)
        kind, payload = read_frame(sock)
        if kind != wire.KIND_HELLO or payload["digest"] != digest:
            raise ProtocolError(
                f"worker {handle.address} failed to install graph "
                f"{digest:#x}"
            )
        handle.digest = digest
        handle.last_seen = time.monotonic()
        self._ingest["graph_installs"] += 1
        self._ingest["graph_bytes"] += len(self._graph_frame)

    def _request(self, handle: WorkerHandle, spec: ShardSpec) -> dict:
        """One request/response exchange: SHARD_SPEC → REDUCED [+FRAGMENT]."""
        try:
            with handle.lock:
                if handle.sock is None:
                    handle.sock = self._connect(handle)
                sock = handle.sock
                self._install(handle, sock)
                sock.sendall(
                    wire.encode_shard_spec(
                        shard=spec.shard,
                        attempt=spec.attempt,
                        epoch=spec.epoch,
                        entropy=spec.entropy,
                        epsilon=spec.epsilon,
                        domain=spec.domain,
                        layer=_LAYER_TAGS[self._layer],
                        vertices=spec.vertices,
                        versions=spec.versions,
                        ia=spec.ia,
                        ib=spec.ib,
                        want_fragment=spec.want_fragment,
                        measure=spec.measure,
                    )
                )
                received = 0
                kind, payload = read_frame(sock)
                if kind == wire.KIND_WORKER_ERROR:
                    # A deterministic worker-side bug, not a substrate
                    # fault: re-dispatching it would reproduce it.
                    raise ProtocolError(
                        f"worker {handle.address}: {payload['message']}"
                    )
                if kind != wire.KIND_REDUCED:
                    raise ProtocolError(
                        f"worker {handle.address} answered a spec with "
                        f"kind {kind}"
                    )
                reduced = payload
                received += (
                    wire.frame_overhead()
                    + reduced["sizes"].nbytes
                    + reduced["n1"].nbytes
                    + 24
                )
                fragment = None
                if spec.want_fragment:
                    kind, fragment = read_frame(sock)
                    if kind != wire.KIND_FRAGMENT:
                        raise ProtocolError(
                            f"worker {handle.address} sent kind {kind} "
                            "instead of the requested fragment"
                        )
                    received += (
                        wire.frame_overhead()
                        + fragment["indptr"].nbytes
                        + fragment["columns"].nbytes
                        + 12
                    )
                handle.last_seen = time.monotonic()
                handle.dispatched += 1
                return {
                    "reduced": reduced,
                    "fragment": fragment,
                    "payload_bytes": received,
                }
        except socket.timeout as exc:
            # A deadline inside the socket layer is the remote analogue
            # of a fork task outliving timeout_s.
            handle.drop()
            raise TimeoutError(
                f"worker {handle.address} exceeded the request deadline"
            ) from exc
        except OSError:
            handle.drop()
            raise
        except PayloadIntegrityError:
            # The frame arrived but its bytes contradict the checksum
            # word: drop the stream (it can no longer be trusted to be
            # frame-aligned) and let the driver re-dispatch.
            handle.drop()
            raise

    # -- the contract --------------------------------------------------
    def submit(self, spec: ShardSpec) -> Future:
        live = self.registry.live()
        if not live:
            raise ConnectionError("no live socket workers remain")
        handle = live[(spec.shard + spec.attempt) % len(live)]
        return self._pool().submit(self._request, handle, spec)

    def finalize(self, spec: ShardSpec, raw) -> ShardResult:
        # Checksums were verified at frame decode time (wire.decode_frame
        # raises PayloadIntegrityError on mismatch).
        reduced = raw["reduced"]
        fragment = raw["fragment"]
        n1 = reduced["n1"]
        return ShardResult(
            shard=spec.shard,
            attempt=spec.attempt,
            sizes=reduced["sizes"],
            indptr=None if fragment is None else fragment["indptr"],
            columns=None if fragment is None else fragment["columns"],
            n1=n1 if (spec.ia is not None and n1.size) else None,
            backend="remote",
            peak_bytes=reduced["peak_bytes"],
            payload_bytes=int(raw["payload_bytes"]),
        )

    def recycle(self) -> None:
        """Drop every suspect connection and heartbeat the cluster.

        Connections already faulted were dropped in ``_request``; the
        remaining handles get a PING, and ones that cannot answer are
        marked dead so the next round's round-robin skips them — the
        deterministic re-dispatch of a dead worker's ranges.
        """
        self.ping()

    def ping(self) -> int:
        """Heartbeat every handle; mark unresponsive workers dead.

        Dead handles are *probed* rather than skipped: a replacement
        worker listening on the same address (or the original, restarted
        mid-stream) answers the probe's HELLO and revives its handle —
        the rejoin path of the streaming cluster. A rejoined worker's
        digest comes from its HELLO, so its next dispatch resyncs it
        through :meth:`_install` (delta push when its digest is still on
        the chain, full install otherwise). Returns the number of live
        workers after the sweep.
        """
        for handle in self.registry.handles:
            self._seq += 1
            nonce = self._seq & 0xFFFFFFFF
            try:
                with handle.lock:
                    if handle.sock is None:
                        handle.sock = self._connect(handle)
                    handle.sock.sendall(wire.encode_ping(nonce))
                    kind, payload = read_frame(handle.sock)
                    if kind != wire.KIND_PONG or payload["nonce"] != nonce:
                        raise ConnectionError("bad heartbeat answer")
                handle.last_seen = time.monotonic()
                handle.alive = True
            except (OSError, ProtocolError):
                self.registry.mark_dead(handle)
        return len(self.registry.live())

    def close(self) -> None:
        """Drop every connection and the request thread pool. Idempotent.

        A closed transport stays usable: the next submit reconnects.
        """
        if self._threads is not None:
            self._threads.shutdown(wait=True, cancel_futures=True)
            self._threads = None
        for handle in self.registry.handles:
            handle.drop()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "workers": int(self.workers),
            "cluster": self.registry.describe(),
            "ingest": dict(self._ingest),
        }


# ----------------------------------------------------------------------
# The transport-agnostic retry driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """The resilience envelope's knobs, independent of any substrate.

    ``timeout_s`` bounds a task's *execution*: a retry round waits one
    deadline per execution wave (``ceil(tasks / transport.workers)``),
    so a task queued behind other shards is never charged for queue time
    and the round's total wall wait stays bounded by
    ``waves * timeout_s``. ``max_retries`` rounds re-dispatch against a
    recycled substrate under capped exponential backoff whose jitter
    comes from the keyed Philox stream (deterministic per
    ``(entropy, epoch, attempt)``, never wall-clock randomness); after
    the budget is exhausted the remaining ranges degrade to inline
    execution in the caller — the terminal fallback that cannot fail
    the way a worker can.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ProtocolError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ProtocolError("backoff parameters must be >= 0")

    def backoff_wait(self, entropy: int, epoch: int, attempt: int) -> float:
        """Capped exponential backoff, jittered from the keyed stream."""
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** max(0, attempt - 1)),
        )
        if base <= 0:
            return 0.0
        bitgen = np.random.Philox(
            counter=[int(attempt), int(epoch), 0, 0],
            key=[int(entropy) ^ _BACKOFF_TAG, _BACKOFF_TAG],
        )
        jitter = 0.5 + 0.5 * float(np.random.Generator(bitgen).random())
        return base * jitter


def drive(
    transport: ShardTransport,
    graph: BipartiteGraph,
    layer: Layer,
    specs: list[ShardSpec],
    policy: RetryPolicy,
    *,
    entropy: int,
    epoch: int,
    faults: dict,
    dispatches: Counter,
) -> dict[int, ShardResult]:
    """Run every spec to completion under the resilience envelope.

    The loop PR 6 built for the fork pool, expressed against the
    transport contract: submit the pending round, wait one wave-scaled
    deadline for all of it, classify what failed (deadline expiry,
    substrate death, payload corruption), recycle the substrate, back
    off on the keyed-jitter schedule, and re-dispatch — up to
    ``policy.max_retries`` rounds, after which the survivors degrade to
    inline :func:`execute_spec` with ``attempt = -1``. Non-fault
    exceptions (a PrivacyError from bad epsilon, a GraphError) are *not*
    retried: they propagate, because re-dispatching a deterministic bug
    reproduces it.

    Mutates ``faults`` (an :func:`empty_faults` dict) and ``dispatches``
    (per-shard submission counts) in place; returns shard → result.
    """
    results: dict[int, ShardResult] = {}
    pending: dict[int, ShardSpec] = {spec.shard: spec for spec in specs}

    if transport.parallel and len(specs) > 1:
        attempt = 0
        while pending and attempt <= policy.max_retries:
            if attempt:
                wait = policy.backoff_wait(entropy, epoch, attempt)
                faults["backoff_s"].append(round(wait, 6))
                faults["retries"] += len(pending)
                if wait > 0:
                    time.sleep(wait)
            submitted: dict[int, tuple[ShardSpec, Future]] = {}
            failed: dict[int, ShardSpec] = {}
            for s, spec in pending.items():
                spec_a = replace(spec, attempt=attempt)
                try:
                    future = transport.submit(spec_a)
                except _WORKER_FAULTS as exc:
                    faults[_fault_kind(exc)] += 1
                    failed[s] = spec
                    continue
                dispatches[s] += 1
                submitted[s] = (spec_a, future)
            # One wait for the whole round. The deadline bounds a task's
            # *execution*, not its queue position: with more ranges than
            # workers a queued task is healthy, so the round gets one
            # timeout per execution wave the transport needs — which
            # also caps the total wall wait at waves * timeout_s instead
            # of tasks * timeout_s.
            expired: set = set()
            if submitted:
                futures = [f for _, f in submitted.values()]
                if policy.timeout_s is None:
                    _wait_futures(futures)
                else:
                    waves = -(-len(submitted) // max(1, transport.workers))
                    _, expired = _wait_futures(
                        futures, timeout=policy.timeout_s * waves
                    )
            for s, (spec_a, future) in submitted.items():
                if future in expired:
                    faults["timeouts"] += 1
                    failed[s] = pending[s]
                    continue
                try:
                    results[s] = transport.finalize(spec_a, future.result())
                except _WORKER_FAULTS as exc:
                    faults[_fault_kind(exc)] += 1
                    failed[s] = pending[s]
            if failed:
                transport.recycle()
            pending = failed
            attempt += 1
        for s, spec in sorted(pending.items()):
            faults["degraded_ranges"].append((int(spec.lo), int(spec.hi)))
    # Terminal fallback — and the whole path for serial transports or
    # single-spec draws: execute inline in the caller. attempt = -1
    # keeps a chaos plan keyed on pool attempts from firing here (inline
    # execution has no worker to kill and no payload to poison, which is
    # exactly why it is the terminal fallback).
    for s, spec in sorted(pending.items()):
        result = execute_spec(graph, layer, replace(spec, attempt=-1))
        dispatches[s] += 1
        results[s] = result
    return results


# ----------------------------------------------------------------------
def make_transport(
    kind: str,
    *,
    max_workers: int | None = None,
    workers=None,
) -> ShardTransport:
    """Build a transport by name: ``inline``, ``fork`` or ``socket``.

    ``max_workers`` sizes the fork pool; ``workers`` is the socket
    cluster's address list (``["host:port", ...]``). The CLI's
    ``serve --transport`` flag resolves through here.
    """
    if kind == "inline":
        return InlineTransport()
    if kind == "fork":
        return ForkTransport(max_workers=max_workers)
    if kind == "socket":
        if not workers:
            raise ProtocolError(
                "a socket transport needs --workers host:port[,host:port...]"
            )
        return SocketTransport(workers)
    raise ProtocolError(
        f"unknown transport {kind!r} (expected inline, fork or socket)"
    )
