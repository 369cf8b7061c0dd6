"""Packet representation shared by both interconnect models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class PacketKind:
    """Wire-level packet kinds.

    ``DATA``/``ACK``/``NACK`` belong to GM's point-to-point protocol;
    ``BARRIER`` is the collective protocol's padded control packet;
    ``RDMA``/``EVENT``/``BCAST`` belong to the Quadrics model.
    ``HEARTBEAT`` is the failure detector's probe on both networks.
    ``XTRAFFIC`` is workload-layer cross-traffic: it competes for link
    bandwidth and arbitration like any other packet but terminates at a
    fabric-level sink instead of the NIC protocol stack.
    """

    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    BARRIER = "barrier"
    RDMA = "rdma"
    EVENT = "event"
    BCAST = "bcast"
    HEARTBEAT = "heartbeat"
    XTRAFFIC = "xtraffic"

    ALL = (DATA, ACK, NACK, BARRIER, RDMA, EVENT, BCAST, HEARTBEAT, XTRAFFIC)



@dataclass(slots=True)
class Packet:
    """One network packet.

    ``size_bytes`` includes headers (set by the protocol layer).
    ``payload`` is protocol-defined (e.g. the barrier sequence integer —
    the paper notes "all the information a barrier message needs to
    carry along is an integer").  ``wire_id`` is numbered by the
    :class:`~repro.network.fabric.Fabric` that transmits the packet
    (``-1`` until then), so each fabric's ids start from zero.
    Slotted: every packet is built, read and numbered on the hot path.
    """

    src: int
    dst: int
    kind: str
    size_bytes: int
    payload: Any = None
    seq: Optional[int] = None
    wire_id: int = -1
    sent_at: Optional[float] = None
    delivered_at: Optional[float] = None
    # Fault injection: a corrupted packet is delivered, but its CRC
    # check fails at the receiving NIC, which must discard it.
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.kind not in PacketKind.ALL:
            raise ValueError(f"unknown packet kind {self.kind!r}")
        if self.size_bytes < 0:
            raise ValueError(f"negative packet size {self.size_bytes}")

    def clone(self) -> "Packet":
        """A wire-level copy sharing every protocol coordinate — how the
        fabric models duplicate delivery (and gives the copy its own
        ``wire_id``).  The two copies are interchangeable under
        :func:`canonical_packet_key`."""
        dup = Packet(
            self.src,
            self.dst,
            self.kind,
            self.size_bytes,
            payload=self.payload,
            seq=self.seq,
        )
        dup.sent_at = self.sent_at
        dup.corrupted = self.corrupted
        return dup

    @property
    def latency(self) -> Optional[float]:
        """Wire latency, available once delivered."""
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.wire_id} {self.kind} {self.src}->{self.dst}"
            f" {self.size_bytes}B seq={self.seq}>"
        )


def _payload_id(payload: Any, attr: str) -> int:
    value = getattr(payload, attr, -1)
    return value if isinstance(value, int) else -1


def canonical_packet_key(packet: Packet) -> tuple:
    """A total order over packets by protocol coordinates, not identity.

    Used wherever same-instant packets must be sequenced deterministically
    (link arbitration, NIC receive arbitration): two packets tied on the
    simulation clock are ordered by port and protocol identifiers, never
    by scheduler tie-breaking or ``id()``.  Packets equal under this key
    are interchangeable on the wire.
    """
    payload = packet.payload
    return (
        packet.src,
        packet.dst,
        packet.kind,
        packet.seq if packet.seq is not None else -1,
        _payload_id(payload, "seq"),
        _payload_id(payload, "phase"),
        _payload_id(payload, "requester"),
    )
