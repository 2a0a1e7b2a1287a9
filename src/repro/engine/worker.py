"""The remote shard worker: ``python -m repro.engine.worker --listen``.

One worker process serves keyed shard draws to any number of parent
:class:`~repro.engine.transport.SocketTransport` connections over the
length-prefixed frames of :mod:`repro.protocol.wire`. The lifecycle
(``docs/distributed-guide.md``):

1. **Listen.** ``--listen HOST:PORT`` binds (port ``0`` picks a free
   one) and prints ``LISTENING host:port`` on stdout — the line test
   harnesses and launch scripts parse to learn the bound address.
2. **Hello.** Each connection opens with a HELLO exchange: the parent
   sends its protocol version, capability bits and the digest of the
   graph it is about to serve; the worker answers with its own version,
   capabilities (reduce + versions) and the digest it currently holds
   (0 when it holds none). Version mismatches are refused.
3. **Install.** When the digests disagree the parent ships one GRAPH
   frame; the worker rebuilds the :class:`BipartiteGraph` from it,
   verifies the digest, and acknowledges with a fresh HELLO. Installed
   graphs are kept in a per-process cache keyed by digest, so many
   connections (and repeated reconnects) install once.
4. **Serve.** SHARD_SPEC frames execute through the same
   :func:`~repro.engine.transport.execute_spec` every other transport
   uses — the keyed draw is a pure function of the spec, so the bytes
   match fork and inline execution exactly. The answer is one REDUCED
   frame (row sizes + locally reduced pairwise ``N1`` scalars), then a
   FRAGMENT frame iff the spec asked for rows; both carry the CRC32
   checksum word. Heartbeat PINGs answer with PONGs at any point.
5. **Ingest.** MUTATE frames push an edge delta against a base snapshot
   the worker already holds: the worker applies the net inserts/deletes
   through :meth:`BipartiteGraph.apply_edge_delta`, verifies the result
   hashes to the frame's target digest, caches it (the install cache is
   bounded — oldest snapshots evicted at :data:`GRAPH_CACHE_LIMIT`), and
   answers DELTA_ACK. A worker that does not hold the base (it died and
   rejoined mid-stream, or fell off the parent's compacted chain)
   answers ``DELTA_UNKNOWN_BASE`` and the parent falls back to a full
   GRAPH install — the digest-divergence path the chaos suite exercises.

A deterministic chaos plan (``REPRO_FAULT_PLAN`` in the worker's
environment, keyed on ``(shard, attempt)`` exactly like the fork pool's)
can kill the worker mid-draw, delay it, corrupt its payload after the
checksum was taken, or kill it after the write — the loopback
integration suite uses this to prove a parent survives a worker dying
mid-draw with byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time

import numpy as np

from repro.engine.faults import FAULT_EXIT_CODE, FaultPlan, poison_payload
from repro.engine.transport import (
    _TAG_LAYERS,
    ShardSpec,
    execute_spec,
    read_frame,
)
from repro.errors import ReproError
from repro.graph.bipartite import BipartiteGraph
from repro.protocol import wire

__all__ = ["WorkerState", "serve", "main"]

WORKER_CAPS = wire.CAP_REDUCE | wire.CAP_VERSIONS | wire.CAP_MUTATE

# Installed snapshots kept per process. A long-running ingest stream
# retires snapshots every rotation; without a bound the worker would pin
# every historical graph it ever served. Oldest-installed is evicted
# first — the parent's delta chain is capped the same way, so a base old
# enough to be evicted here is one the parent would full-install anyway.
GRAPH_CACHE_LIMIT = 8

# Chaos sentinel: fault-plan entries with this shard id key on mutation
# pushes instead of shard draws; ``attempt`` counts the worker's MUTATE
# frames (0-based, across all connections).
MUTATE_FAULT_SHARD = -2


class WorkerState:
    """Per-process worker state: the installed graphs, keyed by digest."""

    def __init__(self):
        self.graphs: dict[int, BipartiteGraph] = {}
        self.lock = threading.Lock()
        self.served = 0
        self.mutations = 0

    def _put(self, digest: int, graph: BipartiteGraph) -> None:
        self.graphs.pop(digest, None)
        self.graphs[digest] = graph  # newest last; latest_digest relies on it
        while len(self.graphs) > GRAPH_CACHE_LIMIT:
            self.graphs.pop(next(iter(self.graphs)))

    def install(self, payload: dict) -> int:
        """Install a decoded GRAPH frame; returns its digest."""
        digest = int(payload["digest"])
        with self.lock:
            if digest in self.graphs:
                self.graphs[digest] = self.graphs.pop(digest)
            else:
                self._put(
                    digest,
                    BipartiteGraph(
                        payload["n_upper"], payload["n_lower"], payload["edges"]
                    ),
                )
        return digest

    def install_graph(self, digest: int, graph: BipartiteGraph) -> None:
        """Cache a delta-applied snapshot under its verified digest."""
        with self.lock:
            self._put(int(digest), graph)

    def next_mutation(self) -> int:
        """The 0-based sequence number of the next MUTATE push."""
        with self.lock:
            seq = self.mutations
            self.mutations += 1
            return seq

    def latest_digest(self) -> int:
        with self.lock:
            return next(reversed(self.graphs)) if self.graphs else 0

    def graph_for(self, digest: int) -> BipartiteGraph | None:
        with self.lock:
            return self.graphs.get(digest)


def _apply_prelude_chaos(action) -> None:
    """Chaos kinds that fire before the draw (kill / delay)."""
    if action.kind == "kill":
        os._exit(FAULT_EXIT_CODE)
    if action.kind == "delay":
        time.sleep(action.delay_s)


def _handle_spec(
    conn: socket.socket, state: WorkerState, payload: dict, digest: int
) -> None:
    """Execute one SHARD_SPEC and stream its REDUCED (+FRAGMENT) answer."""
    graph = state.graph_for(digest)
    if graph is None:
        conn.sendall(
            wire.encode_worker_error(
                f"no graph installed for digest {digest:#x}; send GRAPH first"
            )
        )
        return
    plan = FaultPlan.from_env()
    action = (
        plan.action_for(payload["shard"], payload["attempt"]) if plan else None
    )
    if action is not None:
        _apply_prelude_chaos(action)
    spec = ShardSpec(
        shard=payload["shard"],
        lo=0,
        hi=int(payload["vertices"].size),
        vertices=payload["vertices"],
        epsilon=payload["epsilon"],
        entropy=payload["entropy"],
        epoch=payload["epoch"],
        attempt=payload["attempt"],
        versions=payload["versions"],
        domain=payload["domain"],
        ia=payload["ia"],
        ib=payload["ib"],
        want_fragment=payload["want_fragment"],
        measure=payload["measure"],
    )
    layer = _TAG_LAYERS[payload["layer"]]
    result = execute_spec(graph, layer, spec)
    sizes = result.sizes
    n1 = result.n1 if result.n1 is not None else np.empty(0, np.int64)
    poison = action is not None and action.kind == "poison"
    # Poison corrupts the *transported* payload after the checksum was
    # taken from the good draw, so parent-side verification must catch
    # it — the same helper and contract as the fork worker's poison.
    reduced_checksum = wire.reduced_checksum(sizes, n1)
    if poison:
        (n1, sizes), reduced_checksum = poison_payload(
            [n1, sizes], reduced_checksum
        )
    conn.sendall(
        wire.encode_reduced(
            spec.shard,
            spec.attempt,
            sizes,
            n1,
            peak_bytes=result.peak_bytes,
            checksum=reduced_checksum,
        )
    )
    if spec.want_fragment:
        columns = result.columns
        frag_checksum = wire.columns_checksum(columns)
        if poison:
            (columns,), frag_checksum = poison_payload([columns], frag_checksum)
        conn.sendall(
            wire.encode_fragment(
                spec.shard,
                spec.attempt,
                result.indptr,
                columns,
                checksum=frag_checksum,
            )
        )
    state.served += 1
    if action is not None and action.kind == "kill_after_write":
        os._exit(FAULT_EXIT_CODE)


def _handle_mutate(
    conn: socket.socket, state: WorkerState, payload: dict, digest: int
) -> int:
    """Apply one MUTATE push; returns the digest this connection serves.

    The delta only lands if the worker holds the base snapshot *and* the
    applied result hashes to the frame's target digest — anything else
    leaves the installed state untouched and tells the parent exactly
    which digest the worker still holds, so the fallback is always a
    clean full install rather than serving silently wrong bits.
    """
    base = int(payload["base_digest"])
    target = int(payload["target_digest"])
    graph = state.graph_for(base)
    if graph is None:
        conn.sendall(
            wire.encode_delta_ack(wire.DELTA_UNKNOWN_BASE, state.latest_digest())
        )
        return digest
    seq = state.next_mutation()
    plan = FaultPlan.from_env()
    action = plan.action_for(MUTATE_FAULT_SHARD, seq) if plan else None
    if action is not None:
        _apply_prelude_chaos(action)
    try:
        mutated = graph.apply_edge_delta(payload["inserts"], payload["deletes"])
    except ReproError:
        conn.sendall(wire.encode_delta_ack(wire.DELTA_DIGEST_MISMATCH, base))
        return digest
    actual = wire.graph_digest(
        mutated.num_upper, mutated.num_lower, mutated.edges
    )
    if actual != target:
        conn.sendall(wire.encode_delta_ack(wire.DELTA_DIGEST_MISMATCH, base))
        return digest
    state.install_graph(actual, mutated)
    conn.sendall(wire.encode_delta_ack(wire.DELTA_OK, actual))
    if action is not None and action.kind == "kill_after_write":
        os._exit(FAULT_EXIT_CODE)
    return actual


def _serve_connection(conn: socket.socket, state: WorkerState) -> None:
    """One parent connection's frame loop (runs on its own thread)."""
    # The digest this connection serves: set by HELLO, updated by GRAPH.
    digest = 0
    try:
        with conn:
            while True:
                try:
                    kind, payload = read_frame(conn)
                except (ConnectionError, OSError):
                    return  # parent went away; nothing to clean up
                if kind == wire.KIND_HELLO:
                    if payload["version"] != wire.WIRE_VERSION:
                        conn.sendall(
                            wire.encode_worker_error(
                                f"wire version {payload['version']} "
                                f"unsupported (worker speaks "
                                f"{wire.WIRE_VERSION})"
                            )
                        )
                        return
                    # Advertise the parent's expected digest if we hold
                    # it, else whatever we have (0 when nothing).
                    wanted = int(payload["digest"])
                    held = (
                        wanted
                        if state.graph_for(wanted) is not None
                        else state.latest_digest()
                    )
                    digest = held
                    conn.sendall(
                        wire.encode_hello(
                            wire.WIRE_VERSION, WORKER_CAPS, held
                        )
                    )
                elif kind == wire.KIND_PING:
                    conn.sendall(wire.encode_pong(payload["nonce"]))
                elif kind == wire.KIND_GRAPH:
                    digest = state.install(payload)
                    conn.sendall(
                        wire.encode_hello(
                            wire.WIRE_VERSION, WORKER_CAPS, digest
                        )
                    )
                elif kind == wire.KIND_MUTATE:
                    digest = _handle_mutate(conn, state, payload, digest)
                elif kind == wire.KIND_SHARD_SPEC:
                    try:
                        _handle_spec(conn, state, payload, digest)
                    except ReproError as exc:
                        # A deterministic library error (bad epsilon, bad
                        # vertex) — report it; re-dispatch would only
                        # reproduce it, and the parent knows that.
                        conn.sendall(wire.encode_worker_error(str(exc)))
                else:
                    conn.sendall(
                        wire.encode_worker_error(
                            f"unexpected frame kind {kind}"
                        )
                    )
    except OSError:  # pragma: no cover - peer vanished mid-send
        return


def serve(
    host: str,
    port: int,
    *,
    state: WorkerState | None = None,
    ready_file=None,
    max_connections: int = 64,
) -> None:
    """Bind, announce ``LISTENING host:port``, and serve until killed.

    ``port=0`` binds a free port; the announcement line (written to
    ``ready_file``, default stdout, and flushed) is the contract launch
    harnesses parse. Each accepted connection gets a daemon thread, so
    a hung parent cannot wedge the accept loop.
    """
    state = state if state is not None else WorkerState()
    out = ready_file if ready_file is not None else sys.stdout
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(max_connections)
        bound_host, bound_port = listener.getsockname()
        print(f"LISTENING {bound_host}:{bound_port}", file=out, flush=True)
        while True:
            conn, _addr = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=_serve_connection,
                args=(conn, state),
                daemon=True,
            ).start()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.worker",
        description=(
            "Serve keyed shard draws to SocketTransport parents over the "
            "repro wire protocol."
        ),
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; default %(default)s)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--listen expects HOST:PORT, got {args.listen!r}")
    try:
        serve(host, int(port))
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
