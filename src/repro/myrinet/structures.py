"""GM bookkeeping structures: tokens and send records."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim import SimEvent

_token_ids = itertools.count()


@dataclass
class SendToken:
    """The NIC-side form of a send request.

    Host send events are translated into send tokens; NIC-initiated
    sends (the direct barrier scheme) create tokens directly.
    ``notify_host`` selects whether the completed token is passed back
    to the host (a PCI crossing) — true for host sends, false for
    NIC-originated barrier traffic.
    """

    dst: int
    size_bytes: int
    payload: Any = None
    kind: str = "data"
    notify_host: bool = True
    completion: Optional[SimEvent] = None
    token_id: int = field(default_factory=lambda: next(_token_ids))
    enqueued_at: Optional[float] = None
    # Per-packet reliability progress, maintained by the MCP send path.
    packets_outstanding: int = 0
    all_packets_sent: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes}")


@dataclass
class SendRecord:
    """Per-packet reliability state (p2p path).

    One record per transmitted packet: sequence number, creation
    timestamp, and the pending retransmission timer.  The collective
    protocol replaces *all* of these for a barrier with a single record
    holding a bit vector (see
    :class:`repro.collectives.engine.SequenceState`).
    """

    dst: int
    seq: int
    size_bytes: int
    payload: Any
    kind: str
    token: SendToken
    created_at: float
    buffer: int = -1  # the send packet buffer, back to the pool when retired
    timer: Any = None  # ScheduledCall handle
    retransmits: int = 0
    acked: bool = False
    # Set when the record is torn down without an ACK (retry budget
    # exhausted, NIC restart): in-flight timeout/retransmit work must
    # drop it instead of resurrecting it and double-releasing its
    # packet buffer.
    abandoned: bool = False

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
