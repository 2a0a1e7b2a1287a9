"""Sharded execution of the keyed bulk-RR + pairwise stages.

The one-round bulk RR pass produces noisy output linear in
``n_vertices x domain`` expected bits, which caps the graph one worker
can serve long before the estimator math does. PR 4's keyed Philox
streams make the pass embarrassingly partitionable: every vertex's bits
are a pure function of ``(entropy, epoch, vertex, version)``, so any
split of the vertex block into contiguous ranges draws byte-identical
rows. This module exploits that:

* :class:`ShardedRunner` fans a :class:`~repro.engine.planner.ShardPlan`'s
  ranges out over a pluggable :class:`~repro.engine.transport.ShardTransport`
  — inline, forked worker processes (the default), or remote socket
  workers — streams each shard's CSR fragment back as it completes, and
  reassembles them in shard order; the result is asserted byte-identical
  to the serial keyed pass *whatever the transport*.
* The pairwise N1 stage reduces over shard *blocks*: pairs are grouped
  by the ``(shard(a), shard(b))`` block they span, each block stacks only
  its two fragments and re-chooses the counting backend for its own
  shape, and the partial counts scatter into the global answer.
  :meth:`ShardedRunner.run_workload` pushes *diagonal* blocks — pairs
  whose endpoints live in one shard — into the workers themselves:
  a shard touched only by diagonal pairs returns row sizes and reduced
  ``N1`` scalars instead of its noisy fragment, which is the traffic
  halving that makes remote workers pay on pair-dense workloads.

Fault tolerance (see ``docs/resilience-guide.md``)
--------------------------------------------------
Because a shard task is a pure function of its arguments, a failed or
slow task can be re-dispatched anywhere, any number of times, with zero
privacy cost and zero result drift — retries replay the identical keyed
draw instead of collecting fresh noise. Every draw runs under the
transport-agnostic retry driver (:func:`~repro.engine.transport.drive`):
wave-scaled deadlines, keyed-Philox backoff jitter, CRC32 payload
verification, fault classification, substrate recycling, and terminal
inline degradation in the parent. Everything the envelope did is
reported in :attr:`ShardDraw.faults` (and surfaced by the engine as
``details["shards"]["faults"]``); lifetime counters — including
per-transport ``"<name>:<kind>"`` breakdowns — accumulate in
:attr:`ShardedRunner.fault_totals`. A deterministic chaos harness for
all of it lives in :mod:`repro.engine.faults`.

The fork transport's workers inherit the graph at fork time and answer
through the pool's result pipe; socket workers install it once over the
wire, keyed by digest. Platforms without ``fork`` (and single-worker
runners) execute the same code path inline, so the runner is always
safe to use.

See ``docs/sharding-guide.md`` for the determinism contract and
``docs/distributed-guide.md`` for the transport contract.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine.bulkrr import merge_csr_fragments
from repro.engine.pairwise import (
    choose_backend,
    pair_id_total,
    pairwise_intersections,
)
from repro.engine.planner import ShardPlan
from repro.engine.transport import (
    _WORKER_CONTEXTS,  # noqa: F401  (re-exported: tests and tools patch here)
    ForkTransport,
    InlineTransport,
    RetryPolicy,
    ShardSpec,
    ShardTransport,
    SocketTransport,
    drive,
    empty_faults as _empty_faults,
    fork_available,
    make_transport,
)
from repro.errors import GraphError, ProtocolError
from repro.graph.bipartite import BipartiteGraph, Layer

__all__ = [
    "ShardDraw",
    "WorkloadDraw",
    "ShardedRunner",
    "fork_available",
    "make_transport",
]


@dataclass
class ShardDraw:
    """One sharded draw's reassembled output plus per-shard provenance."""

    indptr: np.ndarray
    columns: np.ndarray
    shards: list[dict] = field(default_factory=list)
    faults: dict = field(default_factory=_empty_faults)


@dataclass
class WorkloadDraw:
    """One transport-aware workload execution: sizes, pair counts, traffic.

    The in-worker-reduction counterpart of :class:`ShardDraw`: instead
    of one reassembled CSR, it carries exactly what the engine's pair
    pipeline needs — per-row noisy ``sizes`` (for ``N2`` and upload
    accounting) and per-pair ``n1`` — plus the transport accounting
    (``transport["bytes_to_parent"]`` et al.) that
    ``details["shards"]["transport"]`` surfaces. ``indptr``/``columns``
    are populated only when the caller asked to keep fragments.
    """

    sizes: np.ndarray
    n1: np.ndarray
    shards: list[dict] = field(default_factory=list)
    faults: dict = field(default_factory=_empty_faults)
    blocks: list[dict] = field(default_factory=list)
    transport: dict = field(default_factory=dict)
    indptr: np.ndarray | None = None
    columns: np.ndarray | None = None


class ShardedRunner:
    """Fan a shard plan's vertex ranges out over a shard transport.

    Parameters
    ----------
    graph, layer:
        The serving context the runner is bound to. The transport is
        bound to it before any work dispatches (fork: copy-on-write
        registration pre-fork; socket: digest-keyed install on first
        contact); a runner never serves a different graph.
    max_workers:
        Worker cap for the default fork transport. Defaults to
        ``os.cpu_count()``; a cap of 1 (or a platform without ``fork``)
        runs every range inline in the parent — same output, no
        processes. Ignored when an explicit ``transport`` is given.
    timeout_s, max_retries, backoff_base_s, backoff_cap_s:
        The resilience envelope's knobs — see
        :class:`~repro.engine.transport.RetryPolicy`. They apply to
        every transport identically.
    transport:
        An explicit :class:`~repro.engine.transport.ShardTransport`
        (e.g. a :class:`~repro.engine.transport.SocketTransport` over a
        remote cluster). The runner owns it from here: ``close()``
        closes it, ``rebind()`` re-binds it.

    Raises
    ------
    ProtocolError
        If ``max_workers`` is not positive, ``timeout_s`` is not
        positive when given, ``max_retries`` is negative, or a backoff
        parameter is negative.

    Example
    -------
    >>> from repro.graph.generators import random_bipartite
    >>> from repro.graph.bipartite import Layer
    >>> from repro.engine.planner import plan_shards
    >>> import numpy as np
    >>> g = random_bipartite(20, 10, 60, rng=0)
    >>> plan = plan_shards(g, Layer.UPPER, np.arange(20), 2.0, shards=2)
    >>> with ShardedRunner(g, Layer.UPPER, max_workers=1) as runner:
    ...     draw = runner.draw(plan, 2.0, entropy=7, epoch=0)
    >>> len(draw.shards)
    2
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        layer: Layer,
        *,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        transport: ShardTransport | None = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise ProtocolError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.graph = graph
        self.layer = layer
        self.policy = RetryPolicy(
            timeout_s=timeout_s,
            max_retries=int(max_retries),
            backoff_base_s=float(backoff_base_s),
            backoff_cap_s=float(backoff_cap_s),
        )
        if transport is None:
            transport = ForkTransport(max_workers=max_workers)
        self.transport = transport
        self.max_workers = (
            max_workers if max_workers is not None else transport.workers
        )
        transport.bind(graph, layer)
        # Lifetime fault counters across every draw (the serving report
        # reads these to make degraded behavior visible from the CLI);
        # alongside the plain keys, each count also accumulates under a
        # "<transport>:<kind>" key so mixed-transport servers can see
        # which substrate faulted.
        self.fault_totals: Counter = Counter()

    # -- resilience-knob views (kept as mutable attributes of record) --
    @property
    def timeout_s(self) -> float | None:
        return self.policy.timeout_s

    @timeout_s.setter
    def timeout_s(self, value: float | None) -> None:
        self.policy = replace(self.policy, timeout_s=value)

    @property
    def max_retries(self) -> int:
        return self.policy.max_retries

    @max_retries.setter
    def max_retries(self, value: int) -> None:
        self.policy = replace(self.policy, max_retries=int(value))

    @property
    def backoff_base_s(self) -> float:
        return self.policy.backoff_base_s

    @backoff_base_s.setter
    def backoff_base_s(self, value: float) -> None:
        self.policy = replace(self.policy, backoff_base_s=float(value))

    @property
    def backoff_cap_s(self) -> float:
        return self.policy.backoff_cap_s

    @backoff_cap_s.setter
    def backoff_cap_s(self, value: float) -> None:
        self.policy = replace(self.policy, backoff_cap_s=float(value))

    # -- transport delegations ----------------------------------------
    @property
    def parallel(self) -> bool:
        """True when draws actually fan out to workers."""
        return self.transport.parallel

    def close(self) -> None:
        """Shut the transport down.

        Idempotent, and safe on a transport that never started (a
        serve-mode runner whose first tick never arrived). A closed
        runner may be used again: the next :meth:`draw` re-binds the
        transport — re-registering the fork context / reconnecting
        sockets — so a restarted server reuses its runner safely. A
        runner dropped *without* ``close()`` is released by the fork
        transport's GC finalizer.
        """
        self.transport.close()

    def rebind(self, graph: BipartiteGraph, *, delta=None) -> None:
        """Point the runner at a new graph snapshot (post-mutation).

        Delegates to the transport: the fork pool drains and re-forks so
        copy-on-write workers cannot serve the stale snapshot; socket
        workers resync lazily on digest mismatch — as one MUTATE delta
        push when ``delta`` (the :class:`~repro.graph.delta.DeltaLog`
        that carried the old snapshot to ``graph``) is given and the
        worker's digest is still on the transport's chain, else a full
        GRAPH re-install. A no-op when ``graph`` is already the bound
        snapshot.
        """
        if graph is self.graph:
            return
        self.graph = graph
        self.transport.bind(graph, self.layer, delta=delta)

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_versions(
        self, plan: ShardPlan, versions: np.ndarray | None
    ) -> np.ndarray | None:
        if versions is None:
            return None
        versions = np.ascontiguousarray(versions, dtype=np.uint64)
        if versions.shape != plan.vertices.shape:
            raise GraphError(
                "versions must align with the shard plan's vertices: "
                f"got {versions.shape} for {plan.vertices.shape}"
            )
        return versions

    def _build_specs(
        self,
        plan: ShardPlan,
        epsilon: float,
        entropy: int,
        epoch: int,
        versions: np.ndarray | None,
        measure: bool,
    ) -> list[ShardSpec]:
        return [
            ShardSpec(
                shard=s,
                lo=int(lo),
                hi=int(hi),
                vertices=plan.vertices[lo:hi],
                epsilon=float(epsilon),
                entropy=int(entropy),
                epoch=int(epoch),
                versions=None if versions is None else versions[lo:hi],
                measure=measure,
            )
            for s, (lo, hi) in enumerate(plan.ranges())
        ]

    def _record_faults(self, faults: dict, *, degraded: bool = True) -> None:
        ints = {k: v for k, v in faults.items() if isinstance(v, int)}
        self.fault_totals.update(ints)
        name = self.transport.name
        self.fault_totals.update({f"{name}:{k}": v for k, v in ints.items()})
        if degraded:
            n = len(faults["degraded_ranges"])
            self.fault_totals["degraded_ranges"] += n
            self.fault_totals[f"{name}:degraded_ranges"] += n

    def _drive(
        self,
        specs: list[ShardSpec],
        entropy: int,
        epoch: int,
        faults: dict,
        dispatches: Counter,
    ) -> dict:
        self.transport.bind(self.graph, self.layer)
        try:
            return drive(
                self.transport,
                self.graph,
                self.layer,
                specs,
                self.policy,
                entropy=int(entropy),
                epoch=int(epoch),
                faults=faults,
                dispatches=dispatches,
            )
        except BaseException:
            # A deterministic bug escaped the envelope: record what the
            # envelope did before it died, then propagate.
            self._record_faults(faults, degraded=False)
            raise

    def _shard_records(
        self,
        plan: ShardPlan,
        results: dict,
        dispatches: Counter,
        faults: dict,
    ) -> list[dict]:
        degraded = {
            (int(lo), int(hi)) for lo, hi in faults["degraded_ranges"]
        }
        return [
            {
                "range": (int(lo), int(hi)),
                "vertices": int(hi - lo),
                "noisy_ids": int(results[s].sizes.sum()),
                "est_bytes": int(plan.est_bytes[s]),
                "peak_bytes": int(results[s].peak_bytes),
                "attempts": int(dispatches[s]),
                "degraded": (int(lo), int(hi)) in degraded,
                "reduced": results[s].columns is None,
            }
            for s, (lo, hi) in enumerate(plan.ranges())
        ]

    # ------------------------------------------------------------------
    def draw(
        self,
        plan: ShardPlan,
        epsilon: float,
        *,
        entropy: int,
        epoch: int,
        versions: np.ndarray | None = None,
        measure_memory: bool = False,
    ) -> ShardDraw:
        """Draw every shard's keyed rows and reassemble them in shard order.

        Ranges are submitted to the transport together and their CSR
        fragments stream back as each worker finishes; the reassembled
        ``(indptr, columns)`` is byte-identical to the unsharded keyed
        pass whatever the plan's boundaries (every vertex owns a private
        counter stream) — **and whatever faults occur**: a range whose
        worker dies, stalls past ``timeout_s``, or returns a corrupt
        fragment is re-dispatched (capped keyed-jitter backoff, up to
        ``max_retries`` rounds) and finally drawn inline, replaying the
        identical keyed stream each time. Per-shard provenance lands in
        :attr:`ShardDraw.shards`; everything the resilience envelope did
        lands in :attr:`ShardDraw.faults`.

        Raises
        ------
        ReproError
            Non-fault worker exceptions (a :class:`PrivacyError` from a
            bad epsilon, a :class:`GraphError`) are *not* retried: they
            propagate, because re-dispatching a deterministic bug
            reproduces it.
        """
        versions = self._check_versions(plan, versions)
        specs = self._build_specs(
            plan, epsilon, entropy, epoch, versions, measure_memory
        )
        faults = _empty_faults()
        dispatches: Counter = Counter()
        results = self._drive(specs, entropy, epoch, faults, dispatches)
        indptr, columns = merge_csr_fragments(
            [(results[s].indptr, results[s].columns) for s in sorted(results)]
        )
        shards = self._shard_records(plan, results, dispatches, faults)
        self._record_faults(faults)
        return ShardDraw(
            indptr=indptr, columns=columns, shards=shards, faults=faults
        )

    # ------------------------------------------------------------------
    def run_workload(
        self,
        plan: ShardPlan,
        epsilon: float,
        *,
        entropy: int,
        epoch: int,
        ia: np.ndarray,
        ib: np.ndarray,
        domain: int,
        versions: np.ndarray | None = None,
        measure_memory: bool = False,
        keep_fragments: bool = False,
    ) -> WorkloadDraw:
        """Draw + pairwise in one transport-aware pass with in-worker blocks.

        The workload-shaped sibling of :meth:`draw` + :meth:`pairwise`:
        pairs whose endpoints both live in shard ``s`` (the *diagonal*
        block) can be reduced by whoever draws shard ``s`` — and when
        every pair touching ``s`` is diagonal, the shard's noisy
        fragment never needs to reach the parent at all. Each such shard
        is dispatched with its local pair slots and
        ``want_fragment=False``; it answers with row sizes plus reduced
        ``N1`` scalars (a few hundred bytes) instead of its noisy CSR
        (megabytes at scale). Shards touched by any cross-shard pair
        still return fragments, and the parent reduces the remaining
        blocks exactly as :meth:`pairwise` does. The split is exact —
        every backend counts true integer intersections — so the
        returned ``n1`` is byte-identical to the ship-everything path,
        on every transport, faults or not.

        ``keep_fragments=True`` forces every fragment back (and fills
        :attr:`WorkloadDraw.indptr`/``columns``) for callers that also
        need the rows. The per-transport traffic ledger — bytes that
        actually crossed to the parent, pairs reduced in-worker, bytes
        the reduction saved — lands in :attr:`WorkloadDraw.transport`,
        which the engine surfaces as ``details["shards"]["transport"]``.
        """
        versions = self._check_versions(plan, versions)
        ia = np.asarray(ia, dtype=np.int64)
        ib = np.asarray(ib, dtype=np.int64)
        if ia.shape != ib.shape:
            raise ProtocolError("ia and ib must have the same shape")
        specs = self._build_specs(
            plan, epsilon, entropy, epoch, versions, measure_memory
        )
        num_shards = plan.num_shards
        offsets = plan.offsets
        if ia.size:
            sa = plan.shard_of_rows(ia)
            sb = plan.shard_of_rows(ib)
            diag = sa == sb
        else:
            sa = sb = np.empty(0, dtype=np.int64)
            diag = np.empty(0, dtype=bool)
        # A shard ships its fragment iff the parent still needs its rows:
        # a cross-shard pair touches it, or the caller wants the CSR.
        need_fragment = np.zeros(num_shards, dtype=bool)
        if keep_fragments or not self.transport.can_reduce:
            need_fragment[:] = True
        elif ia.size:
            off = ~diag
            need_fragment[sa[off]] = True
            need_fragment[sb[off]] = True
        local_pairs: dict[int, np.ndarray] = {}
        if ia.size:
            local_mask = diag & ~need_fragment[sa]
            for s in np.unique(sa[local_mask]):
                sel = np.flatnonzero(local_mask & (sa == s))
                lo = int(offsets[s])
                specs[s] = replace(
                    specs[s],
                    domain=int(domain),
                    ia=ia[sel] - lo,
                    ib=ib[sel] - lo,
                    want_fragment=False,
                )
                local_pairs[int(s)] = sel
        for s in range(num_shards):
            if s not in local_pairs and not need_fragment[s]:
                # No pairs touch this shard at all: sizes are still
                # needed (N2, upload accounting), the rows are not.
                specs[s] = replace(specs[s], want_fragment=False)

        faults = _empty_faults()
        dispatches: Counter = Counter()
        results = self._drive(specs, entropy, epoch, faults, dispatches)

        # -- reassemble sizes, local N1, and the parent-side blocks ----
        n = int(plan.vertices.size)
        sizes = np.empty(n, dtype=np.int64)
        for s, (lo, hi) in enumerate(plan.ranges()):
            sizes[lo:hi] = results[s].sizes
        n1 = np.zeros(ia.size, dtype=np.int64)
        blocks: list[dict] = []
        reduced_pairs = 0
        for s, sel in sorted(local_pairs.items()):
            res = results[s]
            n1[sel] = res.n1
            reduced_pairs += int(sel.size)
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            blocks.append(
                {
                    "block": (s, s),
                    "rows": hi - lo,
                    "pairs": int(sel.size),
                    "backend": res.backend or "worker",
                    "where": "worker",
                }
            )
        # Parent-side blocks over the fragments that did ship. Shards
        # that reduced in-worker hold empty rows in this CSR; no
        # remaining pair indexes them, by construction.
        lengths = np.zeros(n, dtype=np.int64)
        chunks: list[np.ndarray] = []
        for s, (lo, hi) in enumerate(plan.ranges()):
            res = results[s]
            if res.columns is not None:
                lengths[lo:hi] = res.sizes
                chunks.append(res.columns)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        columns = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        if ia.size:
            reduced_mask = np.zeros(ia.size, dtype=bool)
            for sel in local_pairs.values():
                reduced_mask[sel] = True
            rest = np.flatnonzero(~reduced_mask)
            if rest.size:
                rest_n1, parent_blocks = self.pairwise(
                    plan, indptr, columns, ia[rest], ib[rest], domain
                )
                n1[rest] = rest_n1
                for rec in parent_blocks:
                    rec["where"] = "parent"
                blocks.extend(parent_blocks)

        # -- traffic ledger --------------------------------------------
        bytes_to_parent = sum(int(r.payload_bytes) for r in results.values())
        fragment_bytes = 0
        saved_bytes = 0
        for s, (lo, hi) in enumerate(plan.ranges()):
            res = results[s]
            full_cost = int(res.sizes.sum()) * 8 + (hi - lo + 1) * 8
            if res.columns is None:
                saved_bytes += max(0, full_cost - int(res.payload_bytes))
            else:
                fragment_bytes += int(res.payload_bytes)
        transport_detail = {
            **self.transport.describe(),
            "bytes_to_parent": int(bytes_to_parent),
            "fragment_bytes": int(fragment_bytes),
            "bytes_saved": int(saved_bytes),
            "reduced_pairs": int(reduced_pairs),
            "reduced_shards": int(
                sum(1 for r in results.values() if r.columns is None)
            ),
            "fragment_shards": int(
                sum(1 for r in results.values() if r.columns is not None)
            ),
        }
        shards = self._shard_records(plan, results, dispatches, faults)
        self._record_faults(faults)
        return WorkloadDraw(
            sizes=sizes,
            n1=n1,
            shards=shards,
            faults=faults,
            blocks=blocks,
            transport=transport_detail,
            indptr=indptr if keep_fragments else None,
            columns=columns if keep_fragments else None,
        )

    # ------------------------------------------------------------------
    def pairwise(
        self,
        plan: ShardPlan,
        indptr: np.ndarray,
        columns: np.ndarray,
        ia: np.ndarray,
        ib: np.ndarray,
        domain: int,
    ) -> tuple[np.ndarray, list[dict]]:
        """Reduce pairwise N1 over shard blocks, re-choosing backends.

        Pairs are grouped by the (order-normalized) shard block their
        endpoints span. Each block stacks only its one or two fragments
        and calls :func:`~repro.engine.pairwise.choose_backend` on its
        *own* rows and pairs — the whole-workload choice systematically
        mispicks per shard, e.g. a workload too big for one bitset scratch whose
        individual blocks fit it comfortably. Block partials scatter
        into the global ``n1`` (bitset/merge) or come from the block's
        sparse Gram product; either way the reduction over blocks is
        exact, and every block's choice is returned for
        ``details["shards"]``.

        Returns
        -------
        tuple[numpy.ndarray, list[dict]]
            ``(n1, blocks)``: the per-pair intersection counts, and one
            ``{"block", "rows", "pairs", "backend"}`` record per shard
            block that held pairs.
        """
        ia = np.asarray(ia, dtype=np.int64)
        ib = np.asarray(ib, dtype=np.int64)
        n1 = np.zeros(ia.size, dtype=np.int64)
        if ia.size == 0:
            return n1, []
        sa = plan.shard_of_rows(ia)
        sb = plan.shard_of_rows(ib)
        lo_blk = np.minimum(sa, sb)
        hi_blk = np.maximum(sa, sb)
        order = np.lexsort((hi_blk, lo_blk))
        keys = lo_blk[order] * plan.num_shards + hi_blk[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(keys)) + 1, [keys.size])
        )
        blocks: list[dict] = []
        for b0, b1 in zip(starts[:-1], starts[1:]):
            members = order[b0:b1]
            s, t = int(lo_blk[members[0]]), int(hi_blk[members[0]])
            slo, shi = int(plan.offsets[s]), int(plan.offsets[s + 1])
            tlo, thi = int(plan.offsets[t]), int(plan.offsets[t + 1])
            # Stack the block's fragment(s) into one local CSR.
            if s == t:
                sub_indptr = indptr[slo : shi + 1] - indptr[slo]
                sub_columns = columns[indptr[slo] : indptr[shi]]
                rows = shi - slo

                def local(r: np.ndarray) -> np.ndarray:
                    return r - slo

            else:
                lengths = np.concatenate(
                    (
                        np.diff(indptr[slo : shi + 1]),
                        np.diff(indptr[tlo : thi + 1]),
                    )
                )
                sub_columns = np.concatenate(
                    (
                        columns[indptr[slo] : indptr[shi]],
                        columns[indptr[tlo] : indptr[thi]],
                    )
                )
                sub_indptr = np.zeros(lengths.size + 1, dtype=np.int64)
                np.cumsum(lengths, out=sub_indptr[1:])
                rows = (shi - slo) + (thi - tlo)
                s_rows = shi - slo

                def local(r: np.ndarray) -> np.ndarray:
                    return np.where(r < shi, r - slo, s_rows + (r - tlo))

            la, lb = local(ia[members]), local(ib[members])
            backend = choose_backend(
                rows, members.size, domain, pair_id_total(sub_indptr, la, lb)
            )
            n1[members] = pairwise_intersections(
                sub_indptr, sub_columns, la, lb, domain, backend=backend
            )
            blocks.append(
                {
                    "block": (s, t),
                    "rows": int(rows),
                    "pairs": int(members.size),
                    "backend": backend,
                }
            )
        return n1, blocks
