"""Wire messages and host notifications of the NIC collectives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar


@dataclass(frozen=True)
class BarrierMsg:
    """One barrier message.

    The paper: "all the information a barrier message needs to carry
    along is an integer" — here split into its semantic parts (group,
    barrier sequence number, sender rank, phase index) for clarity; on
    the wire it is priced as the 4-byte pad of the static packet.
    """

    group_id: int
    seq: int
    sender: int  # rank within the group
    phase: int
    #: A barrier hop carries no data (not a field: never on the wire).
    payload: ClassVar[Any] = None


@dataclass(frozen=True)
class BarrierNack:
    """Receiver-driven retransmission request (§6.3).

    Sent by a receiver whose expected message has not arrived within
    the timeout; asks ``missing_sender`` to retransmit the message it
    sent at *its* phase ``phase`` of sequence ``seq``.
    """

    group_id: int
    seq: int
    phase: int
    missing_sender: int  # rank whose message went missing
    requester: int  # rank asking for the retransmission


@dataclass(frozen=True)
class BarrierDone:
    """Completion notification the NIC DMAs to the host."""

    group_id: int
    seq: int
    completed_at: float
    payload: Any = None


@dataclass(frozen=True)
class BarrierFailed:
    """Failure notification the NIC DMAs to the host (every NIC
    collective uses it).

    Raised to the host as :class:`CollectiveFailure` — the typed
    escalation surface for retry-budget exhaustion, peer death, NIC
    restarts and protocol violations.  A NIC that posts this has
    already torn down the sequence's volatile state (record, timers,
    pool units), so the failure never leaks resources.
    """

    group_id: int
    seq: int
    reason: str
    failed_at: float


@dataclass(frozen=True)
class DataCollMsg:
    """One hop of a data collective.  ``phase`` is the *sender's* phase
    index — receivers match it against their op's ``peer_phase``."""

    group_id: int
    seq: int
    sender: int
    phase: int
    payload: Any
    nbytes: int


@dataclass(frozen=True)
class DataCollDone:
    """Host notification carrying a data collective's result."""

    group_id: int
    seq: int
    result: Any


@dataclass(frozen=True)
class BcastMsg:
    """A broadcast payload hop (NIC → NIC)."""

    group_id: int
    seq: int
    root: int  # rank
    size_bytes: int
    payload: Any = None


@dataclass(frozen=True)
class BcastNack:
    """Receiver-driven retransmission request for a broadcast."""

    group_id: int
    seq: int
    requester: int  # rank missing the payload


@dataclass(frozen=True)
class BcastDone:
    """Host notification: the payload reached this node's memory."""

    group_id: int
    seq: int
    size_bytes: int
    payload: Any = None


#: The data collectives' name for the shared failure record.
DataCollFailed = BarrierFailed


class BarrierFailure(RuntimeError):
    """A barrier operation gave up instead of hanging.

    Carried out of the host-side barrier call when the NIC (or the
    Elite hardware-barrier path with fallback disabled) exhausted its
    retry budget.
    """

    def __init__(self, group_id: int, seq: int, reason: str, node: int = -1):
        super().__init__(
            f"barrier seq={seq} group={group_id} failed at node {node}: {reason}"
        )
        self.group_id = group_id
        self.seq = seq
        self.reason = reason
        self.node = node


class CollectiveFailure(BarrierFailure):
    """A NIC collective gave up instead of hanging — same typed
    escalation surface as :class:`BarrierFailure`, so existing handlers
    catch both."""
