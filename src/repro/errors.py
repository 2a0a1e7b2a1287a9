"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Specific subclasses signal the broad failure category:
graph construction problems, privacy-budget violations, and protocol misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Invalid graph construction or graph query (bad vertex, bad edge)."""


class DatasetError(ReproError):
    """Unknown dataset name or invalid dataset specification."""


class PrivacyError(ReproError):
    """Invalid privacy parameters (non-positive epsilon, bad split)."""


class BudgetExceededError(PrivacyError):
    """A party attempted to spend more privacy budget than it was granted."""

    def __init__(self, party: str, requested: float, available: float):
        self.party = party
        self.requested = requested
        self.available = available
        super().__init__(
            f"party {party!r} requested eps={requested:.6g} "
            f"but only eps={available:.6g} remains"
        )


class ProtocolError(ReproError):
    """Protocol misuse (wrong round order, wrong layer, unknown vertex)."""


class OptimizationError(ReproError):
    """The budget-allocation optimizer failed to produce a feasible point."""


class ShardExecutionError(ReproError):
    """A shard task failed in a way the resilience layer could not mask."""


class PayloadIntegrityError(ShardExecutionError):
    """A worker's answer did not match the checksum it was sent with.

    Raised parent-side when a fork worker's piped answer or a socket
    worker's frame fails CRC32 verification (a torn transfer, a
    corrupted buffer, or an injected poison fault). The runner treats it
    like any other worker fault: the range is re-dispatched — the keyed
    draw makes the retry byte-identical — so this error only escapes if
    corruption outlives every retry *and* the inline fallback, which
    never computes a checksum because nothing crosses a process
    boundary.
    """


class ServerOverloadedError(ReproError):
    """The serving admission queue is full; this query was shed unserved.

    Load shedding happens *before* tenant admission, so a shed query
    never debits any tenant's budget.
    """


class QueryDeadlineError(ReproError):
    """A query's deadline expired before its tick ran; nothing was charged."""


class ServerStalledError(ReproError):
    """The tick watchdog abandoned a stuck tick; this query was failed."""
