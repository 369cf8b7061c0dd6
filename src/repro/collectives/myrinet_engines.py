"""NIC-resident barrier engines for Myrinet.

Two engines share the same schedule-execution state machine and differ
exactly where the paper says they differ:

- :class:`NicDirectBarrierEngine` — the *direct scheme* of the prior
  work (Buntinas et al.): the NIC detects arrivals and triggers the next
  barrier messages, but every message travels the full point-to-point
  send path (token queue, round-robin scheduling, packet allocation,
  per-packet send record, ACK + timeout retransmission).
- :class:`NicCollectiveBarrierEngine` — this paper's scheme: the
  group's dedicated queue means a trigger goes straight to injection of
  the padded static packet; bookkeeping is one bit-vector send record;
  reliability is receiver-driven NACK retransmission with *no ACKs*,
  halving the packet count.

Both engines are driven by the MCP's receive loop (arrivals) and engine
command loop (host start commands + NACK timeouts), so all their
processing contends for the LANai processor like any other MCP task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierFailure,
    BarrierMsg,
    BarrierNack,
)
from repro.collectives.protocol import CollectiveGroupState, CollectiveScheduleLayout
from repro.myrinet.structures import SendToken
from repro.network import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort
    from repro.myrinet.nic import LanaiNic


class _NicBarrierEngineBase:
    """Schedule execution shared by both NIC-based schemes."""

    #: subclasses set this: does the engine use receiver-driven NACKs?
    uses_nack_reliability = False

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        if group.node_of(rank) != nic.node_id:
            raise ValueError(
                f"rank {rank} of group {group.group_id} lives on node "
                f"{group.node_of(rank)}, not on {nic.name}"
            )
        self.nic = nic
        self.group = group
        self.rank = rank
        self.phases = group.schedule.phases(rank)
        # The schedule's bit maps are identical for every barrier this
        # rank runs: derive them once and share across sequences.
        self._layout = CollectiveScheduleLayout(self.phases)
        self.states: dict[int, CollectiveGroupState] = {}
        self.barriers_completed = 0
        # Per-seq retirement: non-blocking barriers can complete out of
        # order (a NACK-recovered seq finishing after a younger one), so
        # duplicate suppression tracks recently-retired sequences in a
        # bounded set (aligned with coll_archive_depth) plus the floor
        # the set has pruned past — not a single high-watermark.
        self.retired_recent: dict[int, None] = {}
        self.done_floor = -1
        # Escalation state: failed barriers (seq -> reason), armed
        # receiver-side watchdogs (direct scheme), and the latch an
        # epoch revocation sets.
        self.failed: dict[int, str] = {}
        self._deadlines: dict[int, Any] = {}
        self.closed = False
        nic.register_engine(group.group_id, self)

    # ------------------------------------------------------------------
    def _retired(self, seq: int) -> bool:
        return (
            seq <= self.done_floor
            or seq in self.retired_recent
            or seq in self.failed
        )

    def _retire_seq(self, seq: int) -> None:
        self.retired_recent[seq] = None
        while len(self.retired_recent) > self.nic.params.coll_archive_depth:
            pruned = min(self.retired_recent)
            del self.retired_recent[pruned]
            self.done_floor = max(self.done_floor, pruned)

    def _state(self, seq: int) -> CollectiveGroupState:
        state = self.states.get(seq)
        if state is None:
            state = CollectiveGroupState(
                seq, self.phases, self.nic.sim.now, self._layout
            )
            self.states[seq] = state
        return state

    # ------------------------------------------------------------------
    # MCP dispatch targets
    # ------------------------------------------------------------------
    def on_command(self, command: tuple):
        kind = command[0]
        if kind == "start":
            yield from self._on_start(command[1])
        elif kind == "timeout":
            yield from self._on_nack_timeout(command[1])
        elif kind in ("deadline", "peer-dead"):
            yield from self._on_failure_signal(command[1], kind)
        elif kind == "epoch":
            yield from self.on_epoch_change()
        else:
            raise ValueError(f"unknown engine command {command!r}")

    def _on_start(self, seq: int):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start, "coll_start")
        if self.closed:
            # The group's epoch died while this start crossed the bus:
            # resolve the host immediately instead of parking it on a
            # sequence no engine will ever run.
            nic.tracer.count("coll.start_after_revoke")
            self.failed[seq] = FailureReason.GROUP_REVOKED.value
            yield from nic.notify_host(
                BarrierFailed(
                    self.group.group_id,
                    seq,
                    FailureReason.GROUP_REVOKED.value,
                    failed_at=nic.sim.now,
                )
            )
            return
        state = self._state(seq)
        state.started = True
        state.start_time = nic.sim.now
        if self.uses_nack_reliability:
            self._arm_nack_timer(state)
        self._arm_deadline(state)
        yield from self._progress(seq)

    def on_barrier_packet(self, packet: Packet):
        msg: BarrierMsg = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger, "coll_trigger")
        if self.closed:
            nic.tracer.count("coll.rx_after_teardown")
            return
        if msg.seq in self.failed:
            # The barrier failed here; stray retransmissions from peers
            # still fighting their own budgets are expected.
            nic.tracer.count("coll.rx_after_failure")
            return
        if self._retired(msg.seq):
            # Late duplicate (a retransmission that raced the original):
            # the barrier already completed here.
            nic.tracer.count("coll.rx_duplicate")
            return
        state = self._state(msg.seq)
        if not state.mark_arrived(msg.sender):
            if msg.sender in self._layout.bit_of:
                # A known sender whose bit is already set: a retransmit
                # (e.g. a NACK answered twice across a healed link)
                # raced the original.  Exactly-once delivery holds — the
                # duplicate is counted and discarded.
                nic.tracer.count("coll.rx_duplicate")
            else:
                nic.tracer.count("coll.rx_unexpected_sender")
            return
        if state.started and not state.complete:
            yield from self._progress(msg.seq)

    # ------------------------------------------------------------------
    # The schedule state machine
    # ------------------------------------------------------------------
    def _progress(self, seq: int):
        state = self._state(seq)
        if state.in_progress:
            # Another MCP loop is already driving this barrier; it will
            # re-check arrivals after its pending sends.
            return
        state.in_progress = True
        try:
            while state.phase < len(self.phases):
                phase = self.phases[state.phase]
                if phase.send_first and not state.sent_current_phase:
                    state.sent_current_phase = True
                    for dst in phase.sends:
                        yield from self._send_message(state, state.phase, dst)
                if not state.phase_recvs_complete(state.phase):
                    return
                if not phase.send_first and not state.sent_current_phase:
                    state.sent_current_phase = True
                    for dst in phase.sends:
                        yield from self._send_message(state, state.phase, dst)
                state.phase += 1
                state.sent_current_phase = False
            if not state.complete:
                state.complete = True
                yield from self._complete(state)
        finally:
            state.in_progress = False

    def _complete(self, state: CollectiveGroupState):
        nic = self.nic
        state.cancel_nack_timer()
        self._cancel_deadline(state.seq)
        yield from nic.cpu_task(nic.params.t_coll_complete, "coll_complete")
        self.barriers_completed += 1
        nic.tracer.count("coll.barrier_complete")
        del self.states[state.seq]
        self._retire_seq(state.seq)
        yield from nic.notify_host(
            BarrierDone(self.group.group_id, state.seq, completed_at=nic.sim.now)
        )

    # ------------------------------------------------------------------
    # Escalation: fail instead of hang
    # ------------------------------------------------------------------
    def _fail(self, seq: int, reason: str):
        """Tear down one barrier's state and surface the failure.

        Extends the retry-exhaustion leak fix: the engine state, its
        NACK timer, and any armed deadline are released *before* the
        host hears about the failure, so a failed barrier leaves the
        NIC quiescent.
        """
        nic = self.nic
        state = self.states.pop(seq)
        state.cancel_nack_timer()
        self._cancel_deadline(seq)
        self.failed[seq] = reason
        nic.tracer.count("coll.barrier_failed")
        yield from nic.notify_host(
            BarrierFailed(self.group.group_id, seq, reason, failed_at=nic.sim.now)
        )

    def _on_failure_signal(self, seq: int, origin: str):
        state = self.states.get(seq)
        if state is None or state.complete or not state.started:
            # Completed / already failed / not entered before the
            # signal landed: nothing to escalate.
            self.nic.tracer.count("coll.stale_failure_signal")
            return
        if origin == "deadline":
            self.nic.tracer.count("coll.deadline_exceeded")
            reason = FailureReason.BARRIER_DEADLINE.value
        else:
            self.nic.tracer.count("coll.peer_dead_escalation")
            reason = FailureReason.PEER_DEAD.value
        yield from self._fail(seq, reason)

    def on_epoch_change(self):
        """The group's epoch died (a peer was declared dead and the
        survivors repaired onto a new group): deterministically abort
        every in-flight sequence.

        Started, incomplete sequences fail up to the host with the
        typed ``group-revoked`` reason through the same ``_fail``
        machinery retry exhaustion uses, so waiting hosts (blocking or
        non-blocking) resolve instead of hanging; passive early-arrival
        states are dropped silently.  The engine then closes — late
        traffic and late starts for the dead epoch are discarded or
        refused with ``group-revoked``.
        """
        nic = self.nic
        self.closed = True
        for seq in sorted(self.states):
            state = self.states[seq]
            if state.started and not state.complete:
                yield from self._fail(seq, FailureReason.GROUP_REVOKED.value)
            else:
                state.cancel_nack_timer()
                del self.states[seq]
                nic.tracer.count("coll.epoch_state_dropped")
        for seq in sorted(self._deadlines):
            self._deadlines.pop(seq).cancel()

    def on_nic_restart(self):
        """The LANai restarted: engine SRAM state is gone.  Started,
        incomplete barriers fail up to the host (the driver sees the
        restart); passive early-arrival states are silently lost —
        peers recover them through their own reliability machinery."""
        nic = self.nic
        for seq in sorted(self.states):
            state = self.states[seq]
            if state.started and not state.complete:
                yield from self._fail(seq, FailureReason.NIC_RESTART.value)
            else:
                state.cancel_nack_timer()
                del self.states[seq]
                nic.tracer.count("coll.crash_state_dropped")

    # -- deadline plumbing (armed only by the direct scheme) -----------
    def _arm_deadline(self, state: CollectiveGroupState) -> None:
        pass

    def _cancel_deadline(self, seq: int) -> None:
        deadline = self._deadlines.pop(seq, None)
        if deadline is not None:
            deadline.cancel()

    # -- subclass hooks ----------------------------------------------------
    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        raise NotImplementedError

    def _arm_nack_timer(self, state: CollectiveGroupState) -> None:
        raise NotImplementedError

    def _on_nack_timeout(self, seq: int):
        raise NotImplementedError

    def on_nack(self, packet: Packet):
        raise NotImplementedError


class NicDirectBarrierEngine(_NicBarrierEngineBase):
    """Prior work: NIC-triggered barrier over the p2p protocol.

    Each barrier message is a regular GM send: the engine builds a send
    token (``t_sdma_event``), queues it to the destination's send queue,
    and the MCP send scheduler does the rest — packet allocation, a
    per-packet send record, injection, and ACK/timeout reliability.
    """

    uses_nack_reliability = False

    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        nic = self.nic
        state.send_record.mark_sent(phase, dst)
        yield from nic.cpu_task(nic.params.t_sdma_event, "build_token")
        token = SendToken(
            dst=self.group.node_of(dst),
            size_bytes=nic.params.barrier_payload_bytes,
            payload=BarrierMsg(self.group.group_id, state.seq, self.rank, phase),
            kind=PacketKind.BARRIER,
            notify_host=False,
        )
        nic.enqueue_send_token(token)

    def _arm_deadline(self, state: CollectiveGroupState) -> None:
        # The ACK-based scheme's receivers have no reliability of their
        # own: if an expected sender dies, nothing here would ever time
        # out.  A per-barrier watchdog sized from the sender-side
        # exhaustion horizon (so it cannot fire before a live peer's
        # retries are spent) converts that hang into a typed failure.
        nic = self.nic
        self._deadlines[state.seq] = nic.sim.schedule(
            nic.params.direct_barrier_deadline_us, self._deadline_fired, state.seq
        )

    def _deadline_fired(self, seq: int) -> None:
        self._deadlines.pop(seq, None)
        if seq in self.states:
            self.nic.post_engine_command((self.group.group_id, "deadline", seq))

    def on_nack(self, packet: Packet):
        # The direct scheme has no receiver-driven reliability; a NACK
        # arriving here indicates a misconfigured experiment.
        self.nic.tracer.count("coll.direct_unexpected_nack")
        return
        yield  # pragma: no cover - makes this a generator


class NicCollectiveBarrierEngine(_NicBarrierEngineBase):
    """This paper's scheme: the separate collective protocol (§3, §6).

    Sends bypass the p2p machinery entirely: the group's send token is
    permanently at the front of its dedicated queue and the message
    rides the padded static ACK packet, so a trigger costs only
    ``t_coll_trigger`` + injection.  Reliability is receiver-driven:
    no ACKs; a receiver missing a message after ``nack_timeout_us``
    NACKs the sender, which re-injects from its bit-vector record.
    """

    uses_nack_reliability = True

    def _send_message(self, state: CollectiveGroupState, phase: int, dst: int):
        nic = self.nic
        state.send_record.mark_sent(phase, dst)
        yield from nic.fast_inject(
            self.group.node_of(dst),
            BarrierMsg(self.group.group_id, state.seq, self.rank, phase),
        )

    # -- receiver-driven retransmission ---------------------------------
    def _arm_nack_timer(self, state: CollectiveGroupState) -> None:
        # The interval backs off with the round count: a straggler is
        # probed at the base cadence, a dead peer ever more cheaply.
        nic = self.nic
        state.nack_timer = nic.sim.schedule(
            nic.params.nack_backoff_us(state.nack_rounds),
            self._nack_timer_fired,
            state.seq,
        )

    def _nack_timer_fired(self, seq: int) -> None:
        if seq in self.states:
            self.nic.post_engine_command((self.group.group_id, "timeout", seq))

    def _on_nack_timeout(self, seq: int):
        state = self.states.get(seq)
        if state is None or state.complete or not state.started:
            return
        nic = self.nic
        state.nack_rounds += 1
        if state.nack_rounds > nic.params.nack_max_rounds:
            # Budget exhausted: the missing peers are dead.  Escalate a
            # typed failure instead of silently abandoning the barrier
            # (which left the host waiting forever).
            nic.tracer.count("coll.gave_up")
            yield from self._fail(seq, FailureReason.NACK_BUDGET.value)
            return
        for phase_idx, sender in state.missing_senders():
            nic.tracer.count("coll.nack_timeout")
            yield from nic.send_nack(
                self.group.node_of(sender),
                BarrierNack(
                    self.group.group_id, seq, phase_idx, sender, self.rank
                ),
            )
        self._arm_nack_timer(state)

    def on_nack(self, packet: Packet):
        """A peer is missing one of our messages: retransmit it."""
        nack: BarrierNack = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process, "nack_process")
        if self.closed or nack.seq in self.failed:
            # This barrier failed here; the requester is about to fail
            # (or already has) through its own budget.
            nic.tracer.count("coll.nack_after_failure")
            return
        state = self.states.get(nack.seq)
        if state is None:
            if not self._retired(nack.seq):
                # We have not entered this barrier at all yet: nothing
                # has been sent, so there is nothing to resend — the
                # message goes out through normal progress once the
                # host starts the barrier here.  (Conflating this with
                # "completed here" used to phantom-resend a message for
                # a barrier this rank never entered.)
                nic.tracer.count("coll.nack_premature")
                return
        elif not state.send_record.was_sent(nack.phase, nack.requester):
            # We genuinely have not sent it yet (we are behind, not the
            # wire); it will go out through normal progress.
            nic.tracer.count("coll.nack_premature")
            return
        # Either recorded as sent, or the barrier already completed here
        # (state pruned) — both mean the original left this NIC: resend.
        nic.tracer.count("coll.nack_retransmit")
        yield from nic.fast_inject(
            self.group.node_of(nack.requester),
            BarrierMsg(self.group.group_id, nack.seq, self.rank, nack.phase),
        )


# ----------------------------------------------------------------------
# Host-side entry points
# ----------------------------------------------------------------------
def barrier_matcher(group: ProcessGroup, seq: int):
    """Event matcher for one barrier's completion or failure."""
    return (
        lambda ev: isinstance(ev, (BarrierDone, BarrierFailed))
        and ev.group_id == group.group_id
        and ev.seq == seq
    )


def interpret_barrier(done, node_id: int):
    """Turn a barrier completion event into a result, raising typed
    failures (:class:`Revoked` when the epoch died, plain
    :class:`BarrierFailure` otherwise)."""
    if isinstance(done, BarrierFailed):
        if done.reason == FailureReason.GROUP_REVOKED.value:
            raise Revoked(done.group_id, done.seq, node=node_id,
                          failed_at=done.failed_at)
        raise BarrierFailure(done.group_id, done.seq, done.reason, node=node_id)
    return done


def post_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-blocking half: one PIO starts the NIC engine; the host is
    free until it waits on the completion event."""
    yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
    yield from port.pci.pio_write()
    port.nic.post_engine_command((group.group_id, "start", seq))


def wait_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Blocking wait for a previously-posted barrier."""
    done = yield from port.recv_matching(barrier_matcher(group, seq))
    return interpret_barrier(done, port.nic.node_id)


def nic_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Host side of a NIC-based barrier (either engine).

    One PIO to start, then the host is completely uninvolved until the
    completion (or failure) event appears in its receive-event queue —
    the entire point of NIC offload.  A failure event is raised as
    :class:`BarrierFailure`.
    """
    yield from post_barrier(port, group, seq)
    done = yield from wait_barrier(port, group, seq)
    return done
