"""NIC-based broadcast over the collective protocol (§9 future work).

The paper closes by planning to combine this barrier with "the
NIC-based broadcast [18]" (Yu, Buntinas & Panda, ICPP'03: reliable
NIC-based multicast over Myrinet/GM-2).  This module implements that
companion collective on top of the same protocol machinery:

- the root's host DMAs the payload into NIC SRAM once and posts a
  single start command;
- NICs forward along a binomial tree *entirely at NIC level* (no host
  crossing at interior nodes until local delivery);
- reliability is receiver-driven, exactly like the barrier: children
  that miss the payload NACK their parent, which re-injects from SRAM.

Forwarding uses the collective fast path (dedicated queue semantics),
so a hop costs ``t_coll_trigger`` + injection + wire — not the p2p
token/packet/record path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.collectives.data_engine import CollectiveFailure, DataCollFailed
from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.network import Packet

#: Typed failure reason when a child exhausts its NACK retry budget
#: (back-compat alias into the registry).
BCAST_RETRY_BUDGET_EXHAUSTED = FailureReason.BCAST_BUDGET.value

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort
    from repro.myrinet.nic import LanaiNic


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


def binomial_children(rank: int, size: int) -> list[int]:
    """Children of ``rank`` in a binomial broadcast tree rooted at 0.

    Round ``m``: every rank below ``2**m`` forwards to ``rank + 2**m``.
    """
    children = []
    gap = 1
    while gap < size:
        if rank < gap and rank + gap < size:
            children.append(rank + gap)
        gap <<= 1
    return children


def binomial_parent(rank: int, size: int) -> Optional[int]:
    if rank == 0:
        return None
    # The parent cleared the highest set bit of the rank.
    return rank - (1 << (rank.bit_length() - 1))


class _BcastState:
    __slots__ = (
        "seq", "have_payload", "message", "joined", "delivered",
        "nack_timer", "nack_rounds",
    )

    def __init__(self, seq: int):
        self.seq = seq
        self.have_payload = False
        self.message: Optional[BcastMsg] = None
        self.joined = False
        self.delivered = False
        self.nack_timer = None
        self.nack_rounds = 0

    def cancel_timer(self) -> None:
        if self.nack_timer is not None:
            self.nack_timer.cancel()
            self.nack_timer = None


class NicBroadcastEngine:
    """Per-(NIC, group) broadcast engine, rooted at rank 0.

    Registered under the group id like a barrier engine; a group object
    is dedicated to one collective (create one group per collective, as
    GM dedicates ports).
    """

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        if group.node_of(rank) != nic.node_id:
            raise ValueError(
                f"rank {rank} of group {group.group_id} is not on {nic.name}"
            )
        self.nic = nic
        self.group = group
        self.rank = rank
        self.children = binomial_children(rank, group.size)
        self.parent = binomial_parent(rank, group.size)
        self.states: dict[int, _BcastState] = {}
        self.closed = False
        self.broadcasts_completed = 0
        # Per-seq retirement, aligned with the bounded SRAM archive:
        # non-blocking broadcasts can complete out of order (a
        # NACK-recovered seq finishing after a younger one), so a
        # single high-watermark would drop live low-seq payloads.
        self.done_floor = -1
        # Delivered payloads stay resendable (SRAM buffer pool, as in
        # the multicast paper); pruned FIFO.  A failed seq archives
        # ``None`` — retired, but nothing to resend.
        self.archive: dict[int, Optional[BcastMsg]] = {}
        nic.register_engine(group.group_id, self)

    # ------------------------------------------------------------------
    def _retired(self, seq: int) -> bool:
        return seq <= self.done_floor or seq in self.archive

    def _retire(self, state: _BcastState) -> None:
        state.cancel_timer()
        del self.states[state.seq]
        self.archive[state.seq] = state.message
        while len(self.archive) > self.nic.params.coll_archive_depth:
            pruned = min(self.archive)
            self.archive.pop(pruned)
            self.done_floor = max(self.done_floor, pruned)

    def _state(self, seq: int) -> _BcastState:
        state = self.states.get(seq)
        if state is None:
            state = _BcastState(seq)
            self.states[seq] = state
        return state

    # ------------------------------------------------------------------
    # MCP dispatch targets
    # ------------------------------------------------------------------
    def on_command(self, command: tuple):
        kind = command[0]
        if kind == "bcast_root":
            # Root host has DMAed the payload to SRAM already.
            yield from self._on_root_start(command[1])
        elif kind == "join":
            yield from self._on_join(command[1])
        elif kind == "timeout":
            yield from self._on_nack_timeout(command[1])
        elif kind == "epoch":
            yield from self.on_epoch_change()
        else:
            raise ValueError(f"unknown broadcast command {command!r}")

    def on_epoch_change(self):
        """Epoch died: joined, undelivered sequences fail up to the host
        with ``group-revoked``; passive states drop; the engine closes."""
        nic = self.nic
        self.closed = True
        for seq in sorted(self.states):
            state = self.states[seq]
            if state.joined and not state.delivered:
                yield from self._fail(state, FailureReason.GROUP_REVOKED.value)
            else:
                state.cancel_timer()
                del self.states[seq]
                nic.tracer.count("bcast.epoch_state_dropped")

    def _on_root_start(self, message: BcastMsg):
        if self.rank != message.root:
            raise ValueError("bcast_root command at a non-root rank")
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start)
        state = self._state(message.seq)
        state.have_payload = True
        state.message = message
        yield from self._forward(state)
        # The root's host already owns the data: complete immediately.
        yield from self._deliver(state, dma_payload=False)

    def _on_join(self, seq: int):
        """A non-root host posted a receive for broadcast ``seq``."""
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start)
        if self.closed:
            nic.tracer.count("bcast.start_after_revoke")
            yield from nic.notify_host(
                DataCollFailed(
                    self.group.group_id, seq,
                    FailureReason.GROUP_REVOKED.value, nic.sim.now,
                )
            )
            return
        state = self._state(seq)
        state.joined = True
        if state.have_payload:
            yield from self._deliver(state, dma_payload=True)
        else:
            self._arm_nack_timer(state)

    def on_barrier_packet(self, packet: Packet):  # pragma: no cover - guard
        raise TypeError("broadcast engine received a barrier packet")

    def on_bcast_packet(self, packet: Packet):
        message: BcastMsg = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger)
        if self.closed:
            nic.tracer.count("bcast.rx_after_revoke")
            return
        if self._retired(message.seq):
            nic.tracer.count("bcast.rx_duplicate")
            return
        state = self._state(message.seq)
        if state.have_payload:
            nic.tracer.count("bcast.rx_duplicate")
            return
        state.have_payload = True
        state.message = message
        state.cancel_timer()
        yield from self._forward(state)
        if state.joined:
            yield from self._deliver(state, dma_payload=True)

    # ------------------------------------------------------------------
    def _forward(self, state: _BcastState):
        nic = self.nic
        message = state.message
        for child in self.children:
            yield from nic.coll_inject(
                self.group.node_of(child), message, message.size_bytes
            )
            nic.tracer.count("bcast.forwarded")

    def _deliver(self, state: _BcastState, dma_payload: bool):
        if state.delivered:
            # The join command and the payload arrival raced across the
            # MCP's two loops; deliver exactly once.
            return
        state.delivered = True
        nic = self.nic
        message = state.message
        if dma_payload and message.size_bytes > 0:
            from repro.pci import DmaDirection

            yield from nic.pci.dma(message.size_bytes, DmaDirection.NIC_TO_HOST)
        yield from nic.cpu_task(nic.params.t_coll_complete)
        self.broadcasts_completed += 1
        nic.tracer.count("bcast.delivered")
        self._retire(state)
        yield from nic.notify_host(
            BcastDone(
                self.group.group_id,
                message.seq,
                message.size_bytes,
                message.payload,
            )
        )

    def _fail(self, state: _BcastState, reason: str):
        nic = self.nic
        nic.tracer.count("bcast.failed")
        self._retire(state)
        yield from nic.notify_host(
            DataCollFailed(self.group.group_id, state.seq, reason, nic.sim.now)
        )

    # ------------------------------------------------------------------
    # Receiver-driven reliability
    # ------------------------------------------------------------------
    def _arm_nack_timer(self, state: _BcastState) -> None:
        nic = self.nic
        state.nack_timer = nic.sim.schedule(
            nic.params.nack_timeout_us, self._nack_timer_fired, state.seq
        )

    def _nack_timer_fired(self, seq: int) -> None:
        state = self.states.get(seq)
        if state is not None and not state.have_payload:
            self.nic.post_engine_command((self.group.group_id, "timeout", seq))

    def _on_nack_timeout(self, seq: int):
        state = self.states.get(seq)
        if state is None or state.have_payload or self.parent is None:
            return
        state.nack_rounds += 1
        if state.nack_rounds > self.nic.params.max_retries:
            # Declare the parent dead: tear the sequence down with a
            # typed failure so the joined host unblocks instead of
            # waiting in recv_matching forever.
            self.nic.tracer.count("bcast.gave_up")
            yield from self._fail(state, BCAST_RETRY_BUDGET_EXHAUSTED)
            return
        self.nic.tracer.count("bcast.nack_timeout")
        yield from self.nic.send_nack(
            self.group.node_of(self.parent),
            BcastNack(self.group.group_id, seq, self.rank),
        )
        self._arm_nack_timer(state)

    def on_nack(self, packet: Packet):
        nack: BcastNack = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process)
        if self.closed:
            nic.tracer.count("bcast.nack_after_revoke")
            return
        state = self.states.get(nack.seq)
        if state is not None and state.have_payload:
            message = state.message
            nic.tracer.count("bcast.nack_retransmit")
        elif state is None:
            # Already delivered and pruned: serve from the SRAM buffer
            # pool (the multicast paper's retained payloads).
            message = self.archive.get(nack.seq)
            if message is None:
                nic.tracer.count("bcast.nack_unrecoverable")
                return
            nic.tracer.count("bcast.nack_stale_resend")
        else:
            nic.tracer.count("bcast.nack_premature")
            return
        yield from nic.coll_inject(
            self.group.node_of(nack.requester), message, message.size_bytes
        )


# ----------------------------------------------------------------------
# Host-side entry points
# ----------------------------------------------------------------------
def broadcast_matcher(group: ProcessGroup, seq: int):
    """Event matcher for one broadcast's local delivery or failure."""
    return (
        lambda ev: isinstance(ev, (BcastDone, DataCollFailed))
        and ev.group_id == group.group_id
        and ev.seq == seq
    )


def interpret_broadcast(done, group: ProcessGroup, node_id: int):
    if isinstance(done, DataCollFailed):
        if done.reason == FailureReason.GROUP_REVOKED.value:
            raise Revoked(group.group_id, done.seq, node=node_id,
                          failed_at=done.failed_at)
        raise CollectiveFailure(group.group_id, done.seq, done.reason, node=node_id)
    return done


def post_broadcast_root(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int, payload: Any = None
):
    """Root side, non-blocking: push the payload to the NIC and start
    the broadcast without waiting for delivery."""
    from repro.pci import DmaDirection

    rank = group.rank_of(port.node_id)
    yield from port.cpu.compute(port.cpu.params.send_overhead_us)
    yield from port.pci.pio_write()
    if size_bytes > 0:
        yield from port.pci.dma(size_bytes, DmaDirection.HOST_TO_NIC)
    port.nic.post_engine_command(
        (
            group.group_id,
            "bcast_root",
            BcastMsg(group.group_id, seq, rank, size_bytes, payload),
        )
    )


def post_broadcast_recv(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-root side, non-blocking: join the broadcast."""
    yield from port.cpu.compute(port.cpu.params.recv_overhead_us)
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "join", seq))


def wait_broadcast(port: "GmPort", group: ProcessGroup, seq: int):
    """Block until broadcast ``seq`` delivers locally (or fails typed)."""
    done = yield from port.recv_matching(broadcast_matcher(group, seq))
    return interpret_broadcast(done, group, port.node_id)


def nic_broadcast_root(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int, payload: Any = None
):
    """Root side: push the payload to the NIC and start the broadcast."""
    yield from post_broadcast_root(port, group, seq, size_bytes, payload)
    done = yield from wait_broadcast(port, group, seq)
    return done


def nic_broadcast_recv(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-root side: join the broadcast and wait for local delivery."""
    yield from post_broadcast_recv(port, group, seq)
    done = yield from wait_broadcast(port, group, seq)
    return done
