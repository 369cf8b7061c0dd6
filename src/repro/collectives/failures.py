"""Typed registry of collective failure reasons.

Every failure surfaced by a NIC engine or host-side protocol carries a
``reason`` string.  Historically these were raw literals scattered across
the engines; the chaos runner and tests match on them, so a typo was
silently never-matched.  This module is the single source of truth:

* :class:`FailureReason` — a ``str``-subclassing enum, so existing code
  comparing ``failure.reason == "peer-declared-dead"`` keeps working
  unchanged while new code can match on the enum member.
* :data:`DYNAMIC_REASON_PREFIXES` — reasons that carry diagnostic detail
  after a fixed prefix (the allreduce op-mismatch family).
* :func:`classify_reason` — maps any reason string (static or dynamic)
  back to its registry entry, raising on unknown reasons so drift is
  loud.

The registry is deliberately flat: engines import members from here and
never mint literals of their own.  ``tests/collectives/test_failures.py``
greps the source tree and asserts exhaustiveness in both directions.
"""
from __future__ import annotations

import enum

from repro.collectives.messages import BarrierFailure

__all__ = [
    "FailureReason",
    "DYNAMIC_REASON_PREFIXES",
    "classify_reason",
    "is_revocation",
    "Revoked",
    "ScheduleVerificationError",
]


class FailureReason(str, enum.Enum):
    """Canonical failure-reason strings carried by typed failures."""

    # Barrier engines (Myrinet NIC-direct / NIC-collective).
    BARRIER_DEADLINE = "barrier-deadline-exceeded"
    PEER_DEAD = "peer-declared-dead"
    NIC_RESTART = "nic-restart"
    NACK_BUDGET = "nack-retry-budget-exhausted"
    # Data-collective engine (allgather/allreduce/reduce/alltoall).
    DATACOLL_BUDGET = "datacoll-retry-budget-exhausted"
    # NIC broadcast engine.
    BCAST_BUDGET = "bcast-retry-budget-exhausted"
    # Quadrics hardware barrier (Elite flag tree, fallback disabled).
    HW_BUDGET = "hw-barrier-retry-budget-exhausted"
    # Epoch-based group repair: sequence aborted because its epoch died.
    GROUP_REVOKED = "group-revoked"

    def __str__(self) -> str:  # keep "%s" formatting on the raw string
        return self.value


#: Reasons that embed diagnostic detail after a fixed prefix; matching is
#: by prefix, not equality.  Maps prefix -> short registry name.
DYNAMIC_REASON_PREFIXES: dict[str, str] = {
    "allreduce op mismatch: ": "allreduce-op-mismatch",
    "allreduce overlapping partials: ": "allreduce-overlapping-partials",
}


def classify_reason(reason: str) -> str:
    """Return the registry name for ``reason``.

    Static reasons map to their :class:`FailureReason` member name (e.g.
    ``"PEER_DEAD"``); dynamic reasons map to the prefix's short name.
    Unknown reasons raise ``ValueError`` — callers that want lenient
    behaviour should catch it, but tests must not.
    """
    try:
        return FailureReason(reason).name
    except ValueError:
        pass
    for prefix, name in DYNAMIC_REASON_PREFIXES.items():
        if reason.startswith(prefix):
            return name
    raise ValueError(f"unregistered failure reason: {reason!r}")


def is_revocation(reason: str) -> bool:
    """True when ``reason`` means "your epoch died", not "the wire failed"."""
    return reason == FailureReason.GROUP_REVOKED.value


class Revoked(BarrierFailure):
    """A collective was aborted because its process-group epoch died.

    Raised by the one host-side interpreter (``interpret_collective``,
    behind every NIC collective's request on both networks) whenever a
    sequence resolves with
    :attr:`FailureReason.GROUP_REVOKED`, so callers can distinguish
    "your epoch died, repair and resume" from a wire-level failure with
    a single ``except Revoked`` while generic ``except BarrierFailure``
    handlers keep working.
    """

    def __init__(self, group_id: int, seq: int, node: int = -1,
                 failed_at: float = 0.0) -> None:
        super().__init__(group_id, seq, FailureReason.GROUP_REVOKED.value,
                         node=node)
        self.failed_at = failed_at


class ScheduleVerificationError(RuntimeError):
    """Survivor-schedule recompilation produced IR-verifier findings.

    Repair refuses to ship an unverified schedule; the findings ride
    along for diagnostics.
    """

    def __init__(self, message: str, findings: list) -> None:
        super().__init__(message)
        self.findings = findings
