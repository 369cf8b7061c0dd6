"""The NIC sequence engine: every Myrinet NIC collective, one op replay.

Every collective the LANai runs — the barrier (both schemes), the
binomial broadcast and the data collectives — is a compiled
:class:`~repro.collectives.schedule_ir.CollectiveSchedule` replayed by
one engine (the libnbc idea: a dissemination ``ibarrier`` is just a
send/recv schedule run by one interpreter).  A barrier is the
zero-payload ``"barrier"`` schedule of the group's algorithm, a
broadcast the ``"bcast"`` binomial tree, and a data collective its own
schedule plus four state hooks:

- ``_init_data``      — seed per-sequence state from the host command;
- ``_phase_payload``  — build phase *m*'s outgoing payload (+ wire bytes);
- ``_merge``          — fold an arrived payload into the state;
- ``_finish``         — produce the host-visible result (+ DMA bytes).

The engine owns the whole sequence lifecycle, identical for every
collective: one :class:`SequenceState` per sequence (the paper's single
send record with a bit vector, plus the receive bit vector), one
bounded retirement archive and floor, one ``_complete``/``_fail``
teardown (also used by epoch revocation and NIC restart) and one NACK
timer path.  Every lifecycle decision dispatches through
:data:`SEQUENCE_AUTOMATON`, the table the schedule-IR verifier's model
checker (simlint SL207/SL208) explores.

What the paper measures survives as class constants of the public
engines, chiefly the ``reliability`` scheme:

- ``"ack"`` (:class:`NicDirectBarrierEngine`, the prior work): every
  message is a GM send token with per-packet ACK/timeout; a receiver
  watchdog plus the MCP's peer-dead escalation fail a barrier whose
  sender died;
- ``"static"`` (:class:`NicCollectiveBarrierEngine`, this paper): the
  padded static packet, bit-vector receipt, and backed-off NACKs for
  every missing sender of the current phase; a failed record is freed;
- ``"archive"`` (broadcast and data collectives): payload-carrying
  packets, fixed-interval NACKs for the stalled receive, and retired
  payloads kept so even post-completion NACKs are answerable.

Sequences are independent: several can be in flight per group and they
may complete out of order, so retirement is tracked per sequence — a
message is a duplicate iff its sequence sits in the archive or at/below
the floor the archive has pruned past.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.collectives.failures import FailureReason
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import (
    BarrierDone,
    BarrierFailed,
    BarrierMsg,
    BarrierNack,
    BcastDone,
    BcastMsg,
    BcastNack,
    CollectiveRequest,
    DataCollDone,
    DataCollMsg,
)
from repro.collectives.schedule_ir import ScheduleOp
from repro.myrinet.structures import SendToken
from repro.network import Packet, PacketKind
from repro.pci import DmaDirection

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort
    from repro.myrinet.nic import LanaiNic

#: Typed failure reason when a data collective exhausts its NACK budget
#: (back-compat alias into the registry).
RETRY_BUDGET_EXHAUSTED = FailureReason.DATACOLL_BUDGET.value

#: The per-sequence lifecycle automaton, exported as *data*: the engine
#: dispatches every lifecycle decision through it and simlint's bounded
#: model checker (SL207/SL208) explores the same table.
#: ``(state, event) -> action``:
#:
#: - states: ``idle`` (no started state), ``running`` (live sequence),
#:   ``retired`` (completed or failed — archived or below the floor),
#:   ``closed`` (the group's epoch was revoked);
#: - events: ``start`` (host command), ``arrival`` (new matched
#:   message), ``stale_arrival`` (sender already arrived), ``timeout``
#:   (NACK timer, budget remaining), ``timeout_exhausted`` (NACK timer,
#:   budget spent), ``invalid`` (``_validate`` rejection), ``ops_done``
#:   (op list replayed to the final dma), ``deadline`` / ``peer_dead``
#:   (the direct scheme's watchdog and the MCP's escalation),
#:   ``revoke`` (epoch change), ``restart`` (NIC restart), ``nack``
#:   (peer NACK for a retired sequence);
#: - actions: ``run`` (replay ops), ``drop``, ``nack_rearm`` (send
#:   NACKs, re-arm the timer), ``fail`` (typed teardown via ``_fail``),
#:   ``complete`` (teardown via ``_complete``), ``resend_archive``
#:   (answer from the retained record).
#:
#: Anything but ``fail`` for ``timeout_exhausted`` is the PR 7 silent
#: ``return``: the sequence parks with a dead timer and no recovery
#: transition (an SL207 absorbing state); anything but ``drop`` for
#: ``("retired", "arrival")`` resurrects a finished sequence (the
#: SL208 exactly-once violation).
SEQUENCE_AUTOMATON: dict[tuple[str, str], str] = {
    ("idle", "start"): "run",
    ("idle", "revoke"): "drop",
    ("idle", "restart"): "drop",
    ("running", "arrival"): "run",
    ("running", "stale_arrival"): "drop",
    ("running", "timeout"): "nack_rearm",
    ("running", "timeout_exhausted"): "fail",
    ("running", "invalid"): "fail",
    ("running", "ops_done"): "complete",
    ("running", "deadline"): "fail",
    ("running", "peer_dead"): "fail",
    ("running", "revoke"): "fail",
    ("running", "restart"): "fail",
    ("retired", "arrival"): "drop",
    ("retired", "nack"): "resend_archive",
    ("closed", "start"): "fail",
    ("closed", "arrival"): "drop",
}


class SequenceLayout:
    """The bit maps of one rank's op list, shared by every sequence.

    Receive bit *i* belongs to the *i*-th ``recv`` op, send slot *i* to
    the *i*-th ``send`` op; both are keyed by the peer, since a
    (sender, receiver) pair occurs at most once per schedule.  Deriving
    them once per engine turns per-sequence setup into a few
    assignments.
    """

    __slots__ = ("bit_of", "peer_phase", "recvs", "slot_of", "dst_phase",
                 "all_sent_mask")

    def __init__(self, ops: tuple[ScheduleOp, ...]):
        self.bit_of: dict[int, int] = {}
        self.peer_phase: dict[int, int] = {}
        self.slot_of: dict[int, int] = {}
        self.dst_phase: dict[int, int] = {}
        recvs = []
        for op in ops:
            if op.kind == "recv":
                if op.peer in self.bit_of:
                    raise ValueError(
                        "schedule has a duplicate (sender, receiver) pair"
                    )
                self.bit_of[op.peer] = 1 << len(recvs)
                self.peer_phase[op.peer] = op.peer_phase
                recvs.append(op)
            elif op.kind == "send":
                self.slot_of[op.peer] = 1 << len(self.slot_of)
                self.dst_phase[op.peer] = op.phase
        self.recvs: tuple[ScheduleOp, ...] = tuple(recvs)
        self.all_sent_mask = (1 << len(self.slot_of)) - 1


class SequenceState:
    """One rank's record of one sequence (§6.3's single send record).

    ``sent_bits`` has a bit per send op, ``arrived_bits`` a bit per
    expected sender; ``phase`` is the schedule phase being executed
    (or stalled in), ``op_index`` the next op to replay.
    """

    __slots__ = (
        "seq", "_layout", "sent_bits", "arrived_bits", "phase", "op_index",
        "started", "complete", "in_progress", "data", "received",
        "payload_phase", "payload_value", "payload_nbytes", "sent_messages",
        "pending", "nack_timer", "nack_rounds", "deadline",
    )

    def __init__(self, seq: int, layout: SequenceLayout):
        self.seq = seq
        self._layout = layout
        self.sent_bits = 0
        self.arrived_bits = 0
        self.phase = 0
        self.op_index = 0
        self.started = False
        self.complete = False
        self.in_progress = False
        self.data: Any = None
        self.received: Any = None
        self.payload_phase = -1
        self.payload_value: Any = None
        self.payload_nbytes = 0
        self.sent_messages: dict[int, Any] = {}  # phase -> message
        self.pending: dict[int, Any] = {}  # sender -> arrived message
        self.nack_timer = None
        self.nack_rounds = 0
        self.deadline = None

    # -- send record ---------------------------------------------------
    def mark_sent(self, phase: int, dst: int) -> None:
        self.sent_bits |= self._layout.slot_of[dst]

    def was_sent(self, phase: int, dst: int) -> bool:
        layout = self._layout
        return layout.dst_phase.get(dst) == phase and bool(
            self.sent_bits & layout.slot_of[dst]
        )

    @property
    def all_sent(self) -> bool:
        return self.sent_bits == self._layout.all_sent_mask

    @property
    def total_slots(self) -> int:
        return len(self._layout.slot_of)

    # -- receive bit vector ----------------------------------------------
    def mark_arrived(self, sender: int) -> bool:
        """Record an arrival; True only for a new one (False: an
        unexpected sender, or a duplicate of one already arrived)."""
        bit = self._layout.bit_of.get(sender, 0)
        if not bit or self.arrived_bits & bit:
            return False
        self.arrived_bits |= bit
        return True

    def has_arrived(self, sender: int) -> bool:
        bit = self._layout.bit_of.get(sender)
        if bit is None:
            raise KeyError(f"rank {sender} is not an expected sender")
        return bool(self.arrived_bits & bit)

    def phase_recvs_complete(self, phase: int) -> bool:
        return all(
            self.has_arrived(op.peer)
            for op in self._layout.recvs if op.phase == phase
        )

    def missing_senders(self) -> list[tuple[int, int]]:
        """(phase, sender) pairs still outstanding up to the current
        phase — the static scheme's NACK targets."""
        missing = []
        for op in self._layout.recvs:
            if op.phase > self.phase:
                break
            if not self.has_arrived(op.peer):
                missing.append((op.phase, op.peer))
        return missing

    def cancel_timers(self) -> None:
        if self.nack_timer is not None:
            self.nack_timer.cancel()
            self.nack_timer = None
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SequenceState seq={self.seq} op={self.op_index}"
            f" sent={self.sent_bits:b} arrived={self.arrived_bits:b}>"
        )


_COUNTER_EVENTS = (
    "start_after_revoke", "rx_after_revoke", "rx_duplicate", "rx_unexpected",
    "sent", "complete", "failed", "epoch_state_dropped", "crash_state_dropped",
    "stale_failure_signal", "deadline_exceeded", "peer_dead_escalation",
    "gave_up", "nack_timeout", "nack_after_revoke", "nack_after_failure",
    "nack_retransmit", "nack_stale_resend", "nack_premature",
)


@lru_cache(maxsize=None)
def _counter_names(cls: type) -> dict[str, str]:
    aliases = cls.counter_aliases
    return {
        event: f"{cls.counter_prefix}.{aliases.get(event, event)}"
        for event in _COUNTER_EVENTS
    }


class NicSequenceEngine:
    """Per-(NIC, group) engine replaying one collective's compiled ops.

    Registered under the group id; a group object is dedicated to one
    collective (create one group per collective, as GM dedicates ports).
    The defaults are the data collectives' ``"archive"`` scheme.
    """

    #: Tracer counter namespace; ``counter_aliases`` keeps historical
    #: names of individual counters (event -> suffix).
    counter_prefix = "datacoll"
    counter_aliases: dict[str, str] = {}
    #: Name under which the group's compiled schedule is looked up.
    collective_name = "allgather"
    #: Pin a message pattern regardless of group/tuner choice; ``None``
    #: follows the group.
    forced_algorithm: Optional[str] = None
    #: Default wire bytes of one contributed value.
    bytes_per_value = 4
    root = 0
    #: Packet kind the collective's hops travel as.
    packet_kind = PacketKind.BCAST
    #: ``"ack"`` | ``"static"`` | ``"archive"`` (see the module doc).
    reliability = "archive"
    #: Broadcast semantics: ranks forward before their host joins (the
    #: join gates only the final dma), the NACK timer runs only while
    #: the joined rank waits for its payload, and the payload crosses
    #: the bus before ``t_coll_complete``.
    late_join = False
    #: Typed failure reason when the NACK budget runs out.
    budget_reason = FailureReason.DATACOLL_BUDGET.value
    #: Per-sequence record class (Allreduce adds its operator fields).
    state_cls = SequenceState

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        if group.node_of(rank) != nic.node_id:
            raise ValueError(
                f"rank {rank} of group {group.group_id} lives on node "
                f"{group.node_of(rank)}, not on {nic.name}"
            )
        self.nic = nic
        self.group = group
        self.rank = rank
        self.schedule = group.collective_schedule(
            self.collective_name,
            payload_bytes=self.bytes_per_value,
            algorithm=self.forced_algorithm,
            root=self.root,
        )
        self.ops: tuple[ScheduleOp, ...] = self.schedule.ops(rank)
        self._layout = SequenceLayout(self.ops)
        self.states: dict[int, SequenceState] = {}
        self.closed = False
        self.completed = 0
        # Per-seq retirement, aligned with the bounded archive: it holds
        # the recently-retired sequences (completed or failed, in any
        # order) — their sent messages by phase, or None when nothing
        # may be resent; ``done_floor`` rises only as the archive prunes.
        self.archive: dict[int, Optional[dict[int, Any]]] = {}
        self.done_floor = -1
        self._counters = _counter_names(type(self))
        nic.register_engine(group.group_id, self)

    # -- collective hooks (a barrier moves no data) ----------------------
    def _init_data(self, state: SequenceState, args: tuple) -> None:
        pass

    def _phase_payload(self, state: SequenceState, phase: int) -> tuple[Any, int]:
        return None, 0

    def _merge(self, state: SequenceState, payload: Any, phase: int) -> None:
        pass

    def _finish(self, state: SequenceState) -> tuple[Any, int]:
        return None, 0

    def _validate(self, state: SequenceState, message: Any) -> Optional[str]:
        """Check an arrived message against this rank's collective
        arguments before merging.  A non-``None`` reason fails the
        sequence with a typed failure instead of silently merging
        inconsistent contributions."""
        return None

    # -- wire hooks --------------------------------------------------------
    def _hop(self, message: Any) -> tuple[int, int, int]:
        """(seq, sender rank, sender phase) of an arrived message."""
        return message.seq, message.sender, message.phase

    def _message(self, state: SequenceState, phase: int, payload: Any,
                 nbytes: int) -> Any:
        return DataCollMsg(
            self.group.group_id, state.seq, self.rank, phase, payload, nbytes
        )

    def _transmit(self, dst: int, message: Any):
        return self.nic.coll_inject(self.group.node_of(dst), message, message.nbytes)

    def _nack_message(self, seq: int, sender: int) -> Any:
        return BarrierNack(
            self.group.group_id, seq, self._layout.peer_phase[sender], sender,
            self.rank,
        )

    def _nack_target(self, nack: Any) -> tuple[Optional[int], int]:
        """(sender-side phase, requester rank) a NACK asks about."""
        return nack.phase, nack.requester

    def _resend_message(self, sent: dict[int, Any], seq: int, phase: Any) -> Any:
        """The retained message a NACK for ``phase`` is answered with."""
        return sent.get(phase)

    def _done_event(self, state: SequenceState, result: Any) -> Any:
        return DataCollDone(self.group.group_id, state.seq, result)

    # -- plumbing ------------------------------------------------------------
    def _count(self, event: str) -> None:
        self.nic.tracer.count(self._counters[event])

    def _state(self, seq: int) -> SequenceState:
        state = self.states.get(seq)
        if state is None:
            state = self.states[seq] = self.state_cls(seq, self._layout)
        return state

    def _retired(self, seq: int) -> bool:
        return seq <= self.done_floor or seq in self.archive

    # -- MCP dispatch targets ----------------------------------------------
    def on_command(self, command: tuple):
        kind = command[0]
        if kind == "start":
            yield from self._on_start(command[1], command[2:])
        elif kind == "timeout":
            yield from self._on_nack_timeout(command[1])
        elif kind in ("deadline", "peer-dead"):
            yield from self._on_failure_signal(command[1], kind)
        elif kind == "epoch":
            yield from self.on_epoch_change()
        else:
            raise ValueError(
                f"unknown engine command {command!r} for {self.counter_prefix}"
            )

    def _on_start(self, seq: int, args: tuple):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start, "coll_start")
        if self.closed:
            # The epoch died while the start crossed the bus: resolve the
            # host with a typed revocation instead of parking it.
            if SEQUENCE_AUTOMATON.get(("closed", "start")) == "fail":
                self._count("start_after_revoke")
                yield from nic.notify_host(BarrierFailed(
                    self.group.group_id, seq,
                    FailureReason.GROUP_REVOKED.value, nic.sim.now,
                ))
            return
        state = self._state(seq)
        if SEQUENCE_AUTOMATON.get(("idle", "start")) != "run":
            return
        self._init_data(state, args)
        state.started = True
        if self.reliability == "ack":
            # The ACK-based scheme's receivers have no reliability of
            # their own: a watchdog sized from the sender-side
            # exhaustion horizon turns a dead sender into a typed
            # failure instead of a hang.
            state.deadline = nic.sim.schedule(
                nic.params.direct_barrier_deadline_us, self._deadline_fired, seq
            )
        elif not self.late_join:
            self._arm_nack_timer(state)
        if self.late_join and state.in_progress:
            # The receive loop is forwarding the payload: the join gates
            # only the delivery, which does not wait for the forward.
            yield from self._ops_done(state)
        else:
            yield from self._progress(state)
        if self.late_join and not state.complete:
            self._arm_nack_timer(state)

    def on_packet(self, packet: Packet):
        """A collective hop arrived (after the p2p ACK for the direct
        scheme's barrier messages)."""
        if packet.kind != self.packet_kind:
            raise TypeError(
                f"{self.counter_prefix} engine received a {packet.kind} packet"
            )
        message = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger, "coll_trigger")
        seq, sender, phase = self._hop(message)
        if self.closed:
            # Revoked epoch: stray traffic from peers that had not yet
            # heard must never resurrect a sequence.
            if SEQUENCE_AUTOMATON.get(("closed", "arrival")) == "drop":
                self._count("rx_after_revoke")
                return
        if self._retired(seq) and (
            SEQUENCE_AUTOMATON.get(("retired", "arrival")) == "drop"
        ):
            # Late duplicate (a retransmission that raced the original).
            # Any other action resurrects a finished sequence — the
            # exactly-once violation SL208 proves absent.
            self._count("rx_duplicate")
            return
        state = self._state(seq)
        if self._layout.peer_phase.get(sender, -1) != phase:
            # No recv op ever consumes this (sender, phase) here.
            self._count("rx_unexpected")
            return
        if not state.mark_arrived(sender):
            # A retransmit (e.g. a NACK answered twice across a healed
            # link) raced the original: exactly-once delivery holds.
            if SEQUENCE_AUTOMATON.get(("running", "stale_arrival")) == "drop":
                self._count("rx_duplicate")
                return
        state.pending[sender] = message
        if self.late_join:
            state.cancel_timers()
        if (state.started or self.late_join) and not state.complete:
            if SEQUENCE_AUTOMATON.get(("running", "arrival")) == "run":
                yield from self._progress(state)

    # -- schedule replay -------------------------------------------------------
    def _progress(self, state: SequenceState):
        """Replay the op list from where this sequence stands.

        Stalls (returns) at a ``recv`` whose message has not arrived —
        and, before the host starts the sequence, at the final ``dma``;
        the next arrival, retransmission or start resumes it.
        """
        if state.in_progress:
            # Another MCP loop is driving this sequence; it re-checks
            # arrivals after its pending sends.
            return
        state.in_progress = True
        try:
            ops = self.ops
            n_ops = len(ops)
            pending = state.pending
            while state.op_index < n_ops:
                op = ops[state.op_index]
                kind = op.kind
                if kind == "send":
                    state.phase = phase = op.phase
                    if state.payload_phase != phase:
                        # Built once per phase, even when the phase sends
                        # to several peers (Alltoall's hook is destructive).
                        state.payload_value, state.payload_nbytes = (
                            self._phase_payload(state, phase)
                        )
                        state.payload_phase = phase
                    state.op_index += 1
                    message = self._message(
                        state, phase, state.payload_value, state.payload_nbytes
                    )
                    state.mark_sent(phase, op.peer)
                    if self.reliability == "archive":
                        # Retained for NACKs, even past completion.
                        state.sent_messages[phase] = message
                        self._count("sent")
                    yield from self._transmit(op.peer, message)
                elif kind == "recv":
                    message = pending.pop(op.peer, None)
                    if message is None:
                        state.phase = op.phase
                        return
                    reason = self._validate(state, message)
                    if reason is not None:
                        if SEQUENCE_AUTOMATON.get(("running", "invalid")) == "fail":
                            yield from self._fail(state, reason)
                        return
                    state.received = message
                    state.op_index += 1
                elif kind == "reduce":
                    self._merge(state, state.received.payload, op.phase)
                    state.op_index += 1
                else:  # dma: deliver the result
                    if not state.started:
                        return
                    state.op_index += 1
                    yield from self._ops_done(state)
                    return
        finally:
            state.in_progress = False

    def _ops_done(self, state: SequenceState):
        done = SEQUENCE_AUTOMATON.get(("running", "ops_done"))
        if not state.complete and done == "complete":
            state.complete = True
            yield from self._complete(state)

    # -- teardown ---------------------------------------------------------------
    def _retire(self, state: SequenceState, retained: Optional[dict]) -> None:
        """Shared completion/failure teardown: drop live state, archive
        what stale NACKs may be answered from, prune FIFO, and advance
        the retirement floor past whatever the archive forgot."""
        state.cancel_timers()
        self.states.pop(state.seq, None)
        self.archive[state.seq] = retained
        while len(self.archive) > self.nic.params.coll_archive_depth:
            pruned = min(self.archive)
            del self.archive[pruned]
            self.done_floor = max(self.done_floor, pruned)

    def _complete(self, state: SequenceState):
        nic = self.nic
        result, nbytes = self._finish(state)
        if self.reliability != "archive":
            state.cancel_timers()
        if nbytes > 0 and self.late_join:
            yield from nic.pci.dma(nbytes, DmaDirection.NIC_TO_HOST)
        yield from nic.cpu_task(nic.params.t_coll_complete, "coll_complete")
        if nbytes > 0 and not self.late_join:
            yield from nic.pci.dma(nbytes, DmaDirection.NIC_TO_HOST)
        self.completed += 1
        self._count("complete")
        self._retire(state, state.sent_messages)
        yield from nic.notify_host(self._done_event(state, result))

    def _fail(self, state: SequenceState, reason: str):
        """Tear the sequence down and notify the host with a typed
        failure: timers, state table and archive exactly as on
        completion, so a failed sequence leaves the NIC quiescent.  Only
        the archive scheme keeps a failed record answerable, and never
        across a restart (the SRAM it lived in is gone)."""
        nic = self.nic
        self._count("failed")
        keep = (
            self.reliability == "archive"
            and reason != FailureReason.NIC_RESTART.value
        )
        self._retire(state, state.sent_messages if keep else None)
        yield from nic.notify_host(
            BarrierFailed(self.group.group_id, state.seq, reason, nic.sim.now)
        )

    def _abort_all(self, reason: str, event: str, dropped: str):
        """Fail every started sequence; drop passive early-arrival
        states silently (peers recover them through their own
        reliability machinery)."""
        for seq in sorted(self.states):
            state = self.states[seq]
            if state.started and not state.complete:
                if SEQUENCE_AUTOMATON.get(("running", event)) == "fail":
                    yield from self._fail(state, reason)
            elif SEQUENCE_AUTOMATON.get(("idle", event)) == "drop":
                state.cancel_timers()
                del self.states[seq]
                self._count(dropped)

    def on_epoch_change(self):
        """The group's epoch died: abort every in-flight sequence with
        the typed ``group-revoked`` reason, then refuse late traffic and
        late starts for the dead epoch."""
        self.closed = True
        yield from self._abort_all(
            FailureReason.GROUP_REVOKED.value, "revoke", "epoch_state_dropped"
        )

    def on_nic_restart(self):
        """The LANai restarted: engine SRAM state is gone, so every
        in-flight sequence fails up to the host (the driver sees the
        restart)."""
        yield from self._abort_all(
            FailureReason.NIC_RESTART.value, "restart", "crash_state_dropped"
        )

    def _on_failure_signal(self, seq: int, origin: str):
        state = self.states.get(seq)
        if state is None or state.complete or not state.started:
            # Completed / already failed / not entered before the
            # signal landed: nothing to escalate.
            self._count("stale_failure_signal")
            return
        if origin == "deadline":
            self._count("deadline_exceeded")
            event, reason = "deadline", FailureReason.BARRIER_DEADLINE.value
        else:
            self._count("peer_dead_escalation")
            event, reason = "peer_dead", FailureReason.PEER_DEAD.value
        if SEQUENCE_AUTOMATON.get(("running", event)) == "fail":
            yield from self._fail(state, reason)

    def _deadline_fired(self, seq: int) -> None:
        state = self.states.get(seq)
        if state is not None:
            state.deadline = None
            self.nic.post_engine_command((self.group.group_id, "deadline", seq))

    # -- receiver-driven reliability ---------------------------------------
    def _arm_nack_timer(self, state: SequenceState) -> None:
        # The static scheme backs off with the round count: a straggler
        # is probed at the base cadence, a dead peer ever more cheaply.
        params = self.nic.params
        interval = (
            params.nack_backoff_us(state.nack_rounds)
            if self.reliability == "static" else params.nack_timeout_us
        )
        state.nack_timer = self.nic.sim.schedule(
            interval, self._nack_timer_fired, state.seq
        )

    def _nack_timer_fired(self, seq: int) -> None:
        state = self.states.get(seq)
        if state is not None:
            state.nack_timer = None
            self.nic.post_engine_command((self.group.group_id, "timeout", seq))

    def _nack_targets(self, state: SequenceState) -> list[int]:
        """Senders to NACK: every missing sender of the current phase
        (static scheme), else the sender the replay is stalled on."""
        if self.reliability == "static":
            return [sender for _phase, sender in state.missing_senders()]
        if state.op_index < len(self.ops):
            op = self.ops[state.op_index]
            if op.kind == "recv" and not state.has_arrived(op.peer):
                return [op.peer]
        return []

    def _on_nack_timeout(self, seq: int):
        state = self.states.get(seq)
        if state is None or state.complete or not state.started:
            return
        targets = self._nack_targets(state)
        if self.late_join and not targets:
            return
        nic = self.nic
        params = nic.params
        state.nack_rounds += 1
        budget = (
            params.nack_max_rounds if self.reliability == "static"
            else params.max_retries
        )
        if state.nack_rounds > budget:
            # Budget exhausted: the missing peers are dead.  Escalate a
            # typed failure instead of abandoning the sequence.
            if SEQUENCE_AUTOMATON.get(("running", "timeout_exhausted")) == "fail":
                self._count("gave_up")
                yield from self._fail(state, self.budget_reason)
            return
        if SEQUENCE_AUTOMATON.get(("running", "timeout")) != "nack_rearm":
            return
        for sender in targets:
            self._count("nack_timeout")
            yield from nic.send_nack(
                self.group.node_of(sender), self._nack_message(seq, sender)
            )
        self._arm_nack_timer(state)

    def on_nack(self, packet: Packet):
        """A peer is missing one of our messages: resend it from the
        live record or, once retired, from the archive."""
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process, "nack_process")
        if self.closed:
            self._count("nack_after_revoke")
            return
        nack = packet.payload
        phase, requester = self._nack_target(nack)
        state = self.states.get(nack.seq)
        message = None
        if state is not None:
            counter = "nack_retransmit"
            if state.was_sent(phase, requester):
                message = self._resend_message(state.sent_messages, nack.seq, phase)
        elif nack.seq in self.archive:
            if SEQUENCE_AUTOMATON.get(("retired", "nack")) != "resend_archive":
                return
            retained = self.archive[nack.seq]
            if retained is None:
                # The sequence failed here and its record was freed; the
                # requester fails through its own budget.
                self._count("nack_after_failure")
                return
            counter = "nack_stale_resend"
            message = self._resend_message(retained, nack.seq, phase)
        if message is None:
            # Not sent yet (we are behind, not the wire): the message
            # goes out through normal progress.
            self._count("nack_premature")
            return
        self._count(counter)
        yield from self._transmit(requester, message)


class DisseminationDataEngine(NicSequenceEngine):
    """Base for the data collectives (allgather, alltoall, allreduce,
    reduce): the archive scheme plus the four data hooks."""

    def __init__(
        self,
        nic: "LanaiNic",
        group: ProcessGroup,
        rank: int,
        bytes_per_value: Optional[int] = None,
        root: int = 0,
    ):
        if bytes_per_value is not None:
            self.bytes_per_value = bytes_per_value
        self.root = root
        super().__init__(nic, group, rank)


class NicCollectiveBarrierEngine(NicSequenceEngine):
    """This paper's scheme: the separate collective protocol (§3, §6).

    Sends bypass the p2p machinery entirely: the group's send token is
    permanently at the front of its dedicated queue and the message
    rides the padded static ACK packet, so a trigger costs only
    ``t_coll_trigger`` + injection.  Reliability is receiver-driven: no
    ACKs; a receiver missing a message NACKs the sender, which
    re-injects from its bit-vector record.
    """

    counter_prefix = "coll"
    counter_aliases = {
        "complete": "barrier_complete",
        "failed": "barrier_failed",
        "nack_stale_resend": "nack_retransmit",
    }
    collective_name = "barrier"
    bytes_per_value = 0
    packet_kind = PacketKind.BARRIER
    reliability = "static"
    budget_reason = FailureReason.NACK_BUDGET.value

    def _message(self, state: SequenceState, phase: int, payload: Any,
                 nbytes: int) -> BarrierMsg:
        return BarrierMsg(self.group.group_id, state.seq, self.rank, phase)

    def _transmit(self, dst: int, message: BarrierMsg):
        return self.nic.fast_inject(self.group.node_of(dst), message)

    def _resend_message(self, sent: dict[int, Any], seq: int, phase: Any) -> BarrierMsg:
        # The static packet carries no data: rebuild it, retain nothing.
        return BarrierMsg(self.group.group_id, seq, self.rank, phase)

    def _done_event(self, state: SequenceState, result: Any) -> BarrierDone:
        return BarrierDone(self.group.group_id, state.seq, completed_at=self.nic.sim.now)


class NicDirectBarrierEngine(NicCollectiveBarrierEngine):
    """Prior work: NIC-triggered barrier over the p2p protocol.

    Each barrier message is a regular GM send: the engine builds a send
    token (``t_sdma_event``), queues it to the destination's send queue,
    and the MCP send scheduler does the rest — packet allocation, a
    per-packet send record, injection, and ACK/timeout reliability.
    """

    reliability = "ack"

    def _transmit(self, dst: int, message: BarrierMsg):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_sdma_event, "build_token")
        nic.enqueue_send_token(SendToken(
            dst=self.group.node_of(dst),
            size_bytes=nic.params.barrier_payload_bytes,
            payload=message,
            kind=PacketKind.BARRIER,
            notify_host=False,
        ))


class NicBroadcastEngine(NicSequenceEngine):
    """NIC-based broadcast over the collective protocol (§9 future work).

    The paper plans to combine its barrier with "the NIC-based broadcast
    [18]" (reliable NIC-based multicast over Myrinet/GM-2): the root's
    host DMAs the payload into NIC SRAM once, NICs forward it down the
    binomial tree rooted at group rank 0 entirely at NIC level (before
    their own host joins), and children that miss it NACK their parent,
    which re-injects from SRAM.
    """

    counter_prefix = "bcast"
    collective_name = "bcast"
    forced_algorithm = "binomial"
    bytes_per_value = 0
    late_join = True
    budget_reason = FailureReason.BCAST_BUDGET.value

    def __init__(self, nic: "LanaiNic", group: ProcessGroup, rank: int):
        super().__init__(nic, group, rank)
        # The one recv op: the parent and the phase it sends in.
        self._parent = next(
            ((op.peer, op.peer_phase) for op in self.ops if op.kind == "recv"),
            (-1, -1),
        )

    def _init_data(self, state: SequenceState, args: tuple) -> None:
        if args:  # the root's host pushed the payload into SRAM
            size_bytes, payload = args
            state.data = BcastMsg(
                self.group.group_id, state.seq, self.rank, size_bytes, payload
            )

    def _phase_payload(self, state: SequenceState, phase: int) -> tuple[Any, int]:
        return state.data, state.data.size_bytes

    def _merge(self, state: SequenceState, payload: Any, phase: int) -> None:
        state.data = state.received  # forwarded as-is

    def _finish(self, state: SequenceState) -> tuple[Any, int]:
        # The root's host already owns the data: no delivery DMA.
        message = state.data
        return message, 0 if self.rank == self.root else message.size_bytes

    def _hop(self, message: BcastMsg) -> tuple[int, int, int]:
        return (message.seq,) + self._parent

    def _message(self, state: SequenceState, phase: int, payload: Any,
                 nbytes: int) -> BcastMsg:
        return payload

    def _transmit(self, dst: int, message: BcastMsg):
        return self.nic.coll_inject(
            self.group.node_of(dst), message, message.size_bytes
        )

    def _nack_message(self, seq: int, sender: int) -> BcastNack:
        return BcastNack(self.group.group_id, seq, self.rank)

    def _nack_target(self, nack: BcastNack) -> tuple[Optional[int], int]:
        return self._layout.dst_phase.get(nack.requester), nack.requester

    def _done_event(self, state: SequenceState, result: BcastMsg) -> BcastDone:
        return BcastDone(
            self.group.group_id, state.seq, result.size_bytes, result.payload
        )


# ----------------------------------------------------------------------
# Host side: one post path (requests: :mod:`~repro.collectives.messages`)
# ----------------------------------------------------------------------
def post_collective(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    args: tuple = (),
    host_us: Optional[float] = None,
    contribute_bytes: int = 0,
    label: Optional[str] = None,
):
    """Post half of every NIC collective: the host's software cost, one
    PIO doorbell, the contribution's DMA into NIC SRAM, and the engine
    start command.  The host is free until it waits."""
    cpu = port.cpu
    yield from cpu.compute(
        cpu.params.send_overhead_us if host_us is None else host_us, label
    )
    yield from port.pci.pio_write()
    if contribute_bytes > 0:
        yield from port.pci.dma(contribute_bytes, DmaDirection.HOST_TO_NIC)
    port.nic.post_engine_command((group.group_id, "start", seq) + args)


def post_data_collective(port: "GmPort", collective: str, group: ProcessGroup,
                         seq: int, args: tuple, contribute_bytes: int,
                         transform: Callable[[Any], Any] = lambda result: result):
    """Post a data collective; the request's result is
    ``transform(event.result)``."""
    yield from post_collective(
        port, group, seq, args, contribute_bytes=contribute_bytes
    )
    return CollectiveRequest(
        port, collective, group, seq, lambda event: transform(event.result)
    )


def nic_ibarrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Post a barrier (one PIO starts the NIC engine); the request's
    result is the BarrierDone event."""
    yield from post_collective(
        port, group, seq, host_us=port.cpu.params.barrier_call_us,
        label="barrier_call",
    )
    return CollectiveRequest(port, "barrier", group, seq)


def nic_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Host side of a NIC-based barrier (either engine).

    One PIO to start, then the host is completely uninvolved until the
    completion (or failure) event appears in its receive-event queue —
    the entire point of NIC offload.
    """
    request = yield from nic_ibarrier(port, group, seq)
    return (yield from request.wait())


def _post_broadcast(port: "GmPort", group: ProcessGroup, seq: int, root: bool,
                    size_bytes: int, payload: Any):
    """The root pushes the payload to its NIC and starts the tree; any
    other rank joins (its NIC may already be forwarding)."""
    if root:
        yield from post_collective(
            port, group, seq, (size_bytes, payload), contribute_bytes=size_bytes
        )
    else:
        yield from post_collective(
            port, group, seq, host_us=port.cpu.params.recv_overhead_us
        )
    return CollectiveRequest(port, "bcast", group, seq)


def nic_ibcast(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    size_bytes: int = 0,
    payload: Any = None,
    root: int = 0,
):
    """Post a broadcast (root pushes the payload, non-roots join); the
    request's result is the BcastDone event carrying the payload."""
    is_root = group.rank_of(port.node_id) == root
    return (yield from _post_broadcast(
        port, group, seq, is_root, size_bytes, payload
    ))


def nic_broadcast_root(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int, payload: Any = None
):
    """Root side: push the payload to the NIC and start the broadcast."""
    request = yield from _post_broadcast(port, group, seq, True, size_bytes, payload)
    return (yield from request.wait())


def nic_broadcast_recv(port: "GmPort", group: ProcessGroup, seq: int):
    """Non-root side: join the broadcast and wait for local delivery."""
    request = yield from _post_broadcast(port, group, seq, False, 0, None)
    return (yield from request.wait())
