"""Deterministic chaos injection for sharded execution.

The resilience layer in :mod:`repro.engine.sharded` claims that *any*
schedule of worker failures — deaths, stalls, corrupted answers — is
invisible in the served bits, because every shard task is a pure
function of ``(graph, range, epsilon, entropy, epoch)`` under the keyed
Philox contract. That claim is only worth anything if failures can be
produced on demand, reproducibly, inside tests and benchmarks. This
module provides that: a :class:`FaultPlan` names exactly which shard
tasks fail, how, and on which dispatch attempt.

The plan crosses the process boundary through an environment variable
(:data:`FAULT_PLAN_ENV`): the parent installs the JSON-encoded plan
before the worker pool forks, every forked worker inherits it, and the
worker-side hooks (``transport._fork_run_spec`` for fork workers, the
spec handler of :mod:`repro.engine.worker` for socket workers started
with the variable set) consult it per task. Because the hook keys on
``(shard_index, attempt)`` — both carried in the work order by the
parent — a fault schedule is deterministic: "kill shard 0 on its first
dispatch" fails exactly once and the re-dispatch succeeds, no
wall-clock or PID randomness involved.

Faults apply only to *worker* tasks. The runner's terminal inline
fallback (and a 1-worker runner, which never forks) executes the same
keyed draw in the parent, where no answer crosses a process boundary,
so there is no worker to kill and no payload to poison — which is also
what guarantees that a "kill everything on every attempt" schedule
still terminates with correct output.

Supported fault kinds:

``kill``
    The worker calls ``os._exit`` before drawing anything — the parent
    sees a dead worker (``BrokenProcessPool`` on the fork pool).
``kill_after_write``
    The worker draws its range, then dies before answering (a socket
    worker dies right after sending its answer frames, and a MUTATE
    push after acknowledging it).
``delay``
    The worker sleeps ``delay_s`` before drawing, tripping the parent's
    per-task deadline; the worker then completes as a zombie whose
    answer nobody reads.
``poison``
    The worker corrupts its answer after computing the checksum of the
    good draw (:func:`poison_payload`), so the parent's integrity
    verification fails and the range is re-dispatched.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ProtocolError

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_KINDS",
    "FaultAction",
    "FaultPlan",
    "poison_payload",
]

# The env var carrying the JSON plan across the fork boundary.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

FAULT_KINDS = ("kill", "kill_after_write", "delay", "poison")

# Worker exit code for injected kills (distinguishable from crashes in
# process listings; the parent only ever sees BrokenProcessPool).
FAULT_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultAction:
    """One injected failure: *which* task, *when*, and *how* it fails.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    shard:
        Shard index the fault targets; ``None`` targets every shard.
    attempts:
        Dispatch attempts (0 = first dispatch) on which the fault fires;
        ``None`` fires on every attempt — with ``kill`` that exhausts
        the retry budget and forces the inline fallback.
    delay_s:
        Sleep length for ``delay`` faults.
    """

    kind: str
    shard: int | None = None
    attempts: tuple[int, ...] | None = (0,)
    delay_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ProtocolError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.delay_s < 0:
            raise ProtocolError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.attempts is not None:
            object.__setattr__(
                self, "attempts", tuple(int(a) for a in self.attempts)
            )

    def matches(self, shard: int, attempt: int) -> bool:
        """Does this action fire for the given ``(shard, attempt)`` task?"""
        if self.shard is not None and self.shard != shard:
            return False
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic failure schedule over one runner's shard tasks.

    Install it (or use :meth:`active`) before the runner's first draw so
    the pool's forked workers inherit the plan through the environment.

    Example
    -------
    >>> plan = FaultPlan.kill_shards([0])
    >>> plan.action_for(0, 0).kind
    'kill'
    >>> plan.action_for(0, 1) is None  # the re-dispatch succeeds
    True
    >>> plan.action_for(1, 0) is None  # other shards untouched
    True
    """

    actions: tuple[FaultAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    # -- construction helpers -----------------------------------------
    @classmethod
    def kill_shards(
        cls,
        shards: list[int] | None,
        *,
        attempts: tuple[int, ...] | None = (0,),
        after_write: bool = False,
    ) -> "FaultPlan":
        """Kill the listed shards' workers (``None``: every shard)."""
        kind = "kill_after_write" if after_write else "kill"
        targets = [None] if shards is None else shards
        return cls(
            tuple(
                FaultAction(kind=kind, shard=s, attempts=attempts)
                for s in targets
            )
        )

    @classmethod
    def delay_shards(
        cls,
        shards: list[int] | None,
        delay_s: float,
        *,
        attempts: tuple[int, ...] | None = (0,),
    ) -> "FaultPlan":
        """Stall the listed shards' workers past the parent deadline."""
        targets = [None] if shards is None else shards
        return cls(
            tuple(
                FaultAction(
                    kind="delay", shard=s, attempts=attempts, delay_s=delay_s
                )
                for s in targets
            )
        )

    @classmethod
    def poison_shards(
        cls,
        shards: list[int] | None,
        *,
        attempts: tuple[int, ...] | None = (0,),
    ) -> "FaultPlan":
        """Corrupt the listed shards' answers after their checksums."""
        targets = [None] if shards is None else shards
        return cls(
            tuple(
                FaultAction(kind="poison", shard=s, attempts=attempts)
                for s in targets
            )
        )

    # -- worker-side lookup -------------------------------------------
    def action_for(self, shard: int, attempt: int) -> FaultAction | None:
        """The first action firing for this task, or ``None``."""
        for action in self.actions:
            if action.matches(int(shard), int(attempt)):
                return action
        return None

    # -- env transport -------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "kind": a.kind,
                    "shard": a.shard,
                    "attempts": None if a.attempts is None else list(a.attempts),
                    "delay_s": a.delay_s,
                }
                for a in self.actions
            ]
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        return cls(
            tuple(
                FaultAction(
                    kind=entry["kind"],
                    shard=entry["shard"],
                    attempts=(
                        None
                        if entry["attempts"] is None
                        else tuple(entry["attempts"])
                    ),
                    delay_s=entry.get("delay_s", 0.0),
                )
                for entry in json.loads(payload)
            )
        )

    def install(self) -> None:
        """Publish the plan for workers forked from this process."""
        os.environ[FAULT_PLAN_ENV] = self.to_json()

    @staticmethod
    def uninstall() -> None:
        """Remove any installed plan (idempotent)."""
        os.environ.pop(FAULT_PLAN_ENV, None)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The installed plan, or ``None`` — the worker-side entry point."""
        payload = os.environ.get(FAULT_PLAN_ENV)
        if not payload:
            return None
        return cls.from_json(payload)

    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Install the plan for the block's duration, then remove it."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def poison_payload(arrays: list, checksum: int) -> tuple[list, int]:
    """Corrupt an answer after its checksum was taken: the ``poison`` kind.

    Flips every bit of the first word of the first non-empty array (in a
    copy), or the checksum's low bit when every array is empty, so the
    receiver's verification must fail. Fork and socket workers share it.
    """
    arrays = list(arrays)
    for i, array in enumerate(arrays):
        if array.size:
            arrays[i] = array.copy()
            arrays[i][0] = ~arrays[i][0]
            return arrays, checksum
    return arrays, checksum ^ 1
