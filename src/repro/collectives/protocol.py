"""Collective-protocol bookkeeping: the bit-vector send record (§6.3).

The paper replaces GM's per-packet bookkeeping with, per barrier
operation:

- **one** send record carrying a *bit vector* over the barrier's
  messages and a single timestamp (instead of one record + timer per
  packet), and
- a receiver-side arrival bit vector driving the NACK-based
  receiver-driven retransmission.

Both structures are pure state (no simulator dependency) so they are
unit-testable in isolation; the NIC engines pay the processing costs.
"""

from __future__ import annotations

from typing import Optional

from repro.collectives.algorithms import Phase


class CollectiveScheduleLayout:
    """The immutable bit-map derivation of one rank's phase schedule.

    Everything in here — the sender→bit map, the (phase, dst)→send-slot
    map, and the per-phase expected-arrival masks — is a pure function
    of the phase tuple, identical for every barrier sequence a rank
    runs.  Computing it once per engine and sharing it across sequences
    turns the per-iteration state setup into two integer assignments,
    and turns the per-arrival "is this phase's receive set complete?"
    scan into a single mask test.
    """

    __slots__ = ("phases", "bit_of", "slot_of", "recv_masks", "all_sent_mask")

    def __init__(self, phases: tuple[Phase, ...]):
        self.phases = phases
        expected: list[int] = []
        for phase in phases:
            expected.extend(phase.recvs)
        if len(set(expected)) != len(expected):
            raise ValueError("schedule has a duplicate (sender, receiver) pair")
        self.bit_of = {sender: i for i, sender in enumerate(expected)}
        slot_of: dict[tuple[int, int], int] = {}
        for phase_idx, phase in enumerate(phases):
            for dst in phase.sends:
                slot_of[(phase_idx, dst)] = len(slot_of)
        self.slot_of = slot_of
        self.all_sent_mask = (1 << len(slot_of)) - 1
        # recv bits are unique per sender, so sum == bitwise-or.
        self.recv_masks = tuple(
            sum(1 << self.bit_of[s] for s in phase.recvs) for phase in phases
        )


class CollectiveSendRecord:
    """The single send record for one barrier operation at one rank.

    Bit *i* of ``sent_bits`` is set once send slot *i* (a (phase, dst)
    pair in schedule order) has been transmitted.
    """

    def __init__(
        self,
        seq: int,
        phases: tuple[Phase, ...],
        created_at: float,
        layout: Optional[CollectiveScheduleLayout] = None,
    ):
        if layout is None:
            layout = CollectiveScheduleLayout(phases)
        self.seq = seq
        self.created_at = created_at
        self._slot_of = layout.slot_of
        self._all_sent_mask = layout.all_sent_mask
        self.sent_bits = 0

    @property
    def total_slots(self) -> int:
        return len(self._slot_of)

    def mark_sent(self, phase: int, dst: int) -> None:
        self.sent_bits |= 1 << self._slot_of[(phase, dst)]

    def was_sent(self, phase: int, dst: int) -> bool:
        slot = self._slot_of.get((phase, dst))
        if slot is None:
            return False
        return bool(self.sent_bits >> slot & 1)

    @property
    def all_sent(self) -> bool:
        return self.sent_bits == self._all_sent_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CollectiveSendRecord seq={self.seq}"
            f" sent={self.sent_bits:b}/{self.total_slots} bits>"
        )


class CollectiveGroupState:
    """Per-(rank, barrier-sequence) progress state on the NIC.

    ``arrived_bits`` is the receive-side bit vector: bit per expected
    sender rank.  ``phase`` is the next schedule phase to complete.
    """

    def __init__(
        self,
        seq: int,
        phases: tuple[Phase, ...],
        created_at: float,
        layout: Optional[CollectiveScheduleLayout] = None,
    ):
        if layout is None:
            layout = CollectiveScheduleLayout(phases)
        self.seq = seq
        self.phases = phases
        self.created_at = created_at
        self._layout = layout
        self._bit_of = layout.bit_of
        self.arrived_bits = 0
        self.phase = 0
        self.started = False
        self.complete = False
        self.in_progress = False
        self.sent_current_phase = False
        self.start_time: Optional[float] = None
        self.send_record = CollectiveSendRecord(seq, phases, created_at, layout)
        self.nack_timer = None  # ScheduledCall handle
        self.nack_rounds = 0

    # ------------------------------------------------------------------
    def mark_arrived(self, sender: int) -> bool:
        """Record an arrival; returns True only for a new one.

        False means the packet carries no news: an unexpected sender, or
        an expected one whose bit is already set (a duplicate).  Either
        is counted and discarded by the caller, never fatal.
        """
        bit = self._bit_of.get(sender)
        if bit is None:
            return False
        mask = 1 << bit
        if self.arrived_bits & mask:
            return False
        self.arrived_bits |= mask
        return True

    def has_arrived(self, sender: int) -> bool:
        bit = self._bit_of.get(sender)
        if bit is None:
            raise KeyError(f"rank {sender} is not an expected sender")
        return bool(self.arrived_bits >> bit & 1)

    def phase_recvs_complete(self, phase_idx: int) -> bool:
        mask = self._layout.recv_masks[phase_idx]
        return self.arrived_bits & mask == mask

    def missing_senders(self) -> list[tuple[int, int]]:
        """(phase, sender) pairs still outstanding up to the current
        phase — the targets of receiver-driven NACKs."""
        missing = []
        for phase_idx in range(min(self.phase + 1, len(self.phases))):
            for sender in self.phases[phase_idx].recvs:
                if not self.has_arrived(sender):
                    missing.append((phase_idx, sender))
        return missing

    def cancel_nack_timer(self) -> None:
        if self.nack_timer is not None:
            self.nack_timer.cancel()
            self.nack_timer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CollectiveGroupState seq={self.seq} phase={self.phase}"
            f"/{len(self.phases)} arrived={self.arrived_bits:b}>"
        )
