"""Shared machinery for data-bearing collectives on the NIC.

The barrier's collective protocol generalizes to data collectives that
replay a precompiled :class:`~repro.collectives.schedule_ir
.CollectiveSchedule` — an ordered list of send/recv/reduce/dma ops per
rank, compiled once per ``(collective, algorithm, group, payload)`` and
cached on the :class:`ProcessGroup`.  Allgather, Alltoall (Bruck) and
Allreduce/Reduce all specialize :class:`DisseminationDataEngine`
through four hooks:

- ``_init_data``      — seed per-sequence state from the host command;
- ``_phase_payload``  — build phase *m*'s outgoing payload (+ wire bytes);
- ``_merge``          — fold an arrived payload into the state;
- ``_finish``         — produce the host-visible result (+ DMA bytes).

The base class provides everything the paper's protocol prescribes:
the fast send path (no p2p queues/records), one logical record per
operation, receiver-driven NACK retransmission, per-sequence duplicate
suppression, and retention of sent payloads so even post-completion
NACKs are answerable.

Sequences are independent: several can be in flight per group (the
non-blocking APIs in :mod:`repro.collectives.nonblocking` depend on
this) and they may *complete out of order* — e.g. a NACK-recovered
sequence finishing after a younger one sailed through.  Retirement is
therefore tracked per sequence, aligned with the bounded send archive,
rather than with a single high-watermark: a message is a duplicate iff
its sequence sits in the archive (recently retired) or at/below the
floor the archive has pruned past.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import BarrierFailure
from repro.collectives.schedule_ir import CollectiveSchedule, ScheduleOp
from repro.network import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.nic import LanaiNic

#: Typed failure reason when a receiver exhausts its NACK retry budget
#: (back-compat alias into the registry).
RETRY_BUDGET_EXHAUSTED = FailureReason.DATACOLL_BUDGET.value

#: The per-sequence lifecycle automaton, exported as *data* so the
#: schedule-IR verifier's bounded model checker (simlint SL207/SL208)
#: checks the same state machine the engine runs instead of re-reading
#: method bodies.  ``(state, event) -> action``:
#:
#: - states: ``idle`` (no state yet), ``running`` (live sequence),
#:   ``retired`` (completed or failed — archived or below the floor);
#: - events: ``start`` (host command), ``arrival`` (matched collective
#:   message), ``stale_arrival`` (sender already pending), ``timeout``
#:   (NACK timer, budget remaining), ``timeout_exhausted`` (NACK timer,
#:   budget spent), ``invalid`` (``_validate`` rejection), ``ops_done``
#:   (op list replayed to the final dma), ``nack`` (peer NACK for a
#:   retired sequence);
#: - actions: ``run`` (replay ops via ``_progress``), ``drop``,
#:   ``nack_rearm`` (send NACK, re-arm the timer), ``fail`` (typed
#:   teardown via ``_fail``), ``complete`` (teardown via ``_complete``),
#:   ``resend_archive`` (answer from the retained payloads).
#:
#: The two entries the engine *dispatches through* (rather than merely
#: documents) are the two historical bug sites: ``timeout_exhausted``
#: (the PR 7 silent-``return`` hang — anything but ``fail`` parks every
#: rank forever, which the model checker flags as an SL207 absorbing
#: state) and ``("retired", "arrival")`` (anything but ``drop``
#: resurrects a finished sequence, the SL208 exactly-once violation).
SEQUENCE_AUTOMATON: dict[tuple[str, str], str] = {
    ("idle", "start"): "run",
    ("running", "arrival"): "run",
    ("running", "stale_arrival"): "drop",
    ("running", "timeout"): "nack_rearm",
    ("running", "timeout_exhausted"): "fail",
    ("running", "invalid"): "fail",
    ("running", "ops_done"): "complete",
    ("retired", "arrival"): "drop",
    ("retired", "nack"): "resend_archive",
}


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
class DataCollNack:
    """Receiver-driven retransmission request (shared by all data
    collectives).  ``phase`` is the missing *sender's* phase index, so
    the sender can look the payload up directly."""

    group_id: int
    seq: int
    phase: int
    missing_sender: int
    requester: int


@dataclass(frozen=True)
class DataCollDone:
    """Host notification carrying the collective's result."""

    group_id: int
    seq: int
    result: Any


@dataclass(frozen=True)
class DataCollFailed:
    """Failure notification the NIC DMAs to the host.

    Posted when the engine detects an unrecoverable protocol violation
    (e.g. ranks disagreeing on the Allreduce operator) or gives up on a
    retransmission budget.  The NIC has already torn the sequence's
    state down; the host-side wrapper raises it as
    :class:`CollectiveFailure`.
    """

    group_id: int
    seq: int
    reason: str
    failed_at: float


class CollectiveFailure(BarrierFailure):
    """A data collective gave up instead of hanging — same typed
    escalation surface as :class:`~repro.collectives.messages
    .BarrierFailure`, so existing handlers catch both."""


class _DataState:
    """Per-(rank, sequence) progress for one data collective."""

    __slots__ = (
        "seq", "data", "op_index", "started", "complete", "in_progress",
        "received", "payload_phase", "payload_value", "payload_nbytes",
        "sent_messages", "pending", "nack_timer", "nack_rounds",
    )

    def __init__(self, seq: int):
        self.seq = seq
        self.data: Any = None
        self.op_index = 0
        self.started = False
        self.complete = False
        self.in_progress = False
        self.received: Optional[DataCollMsg] = None
        # A phase's payload is built exactly once, even when the phase
        # sends to several peers (Alltoall's hook is destructive).
        self.payload_phase = -1
        self.payload_value: Any = None
        self.payload_nbytes = 0
        self.sent_messages: dict[int, DataCollMsg] = {}  # phase -> message
        self.pending: dict[int, DataCollMsg] = {}  # sender -> message
        self.nack_timer = None
        self.nack_rounds = 0

    def cancel_timer(self) -> None:
        if self.nack_timer is not None:
            self.nack_timer.cancel()
            self.nack_timer = None


class DisseminationDataEngine:
    """Base NIC engine for schedule-replaying data collectives."""

    counter_prefix = "datacoll"
    #: Name under which the group's compiled schedule is looked up.
    collective_name = "allgather"
    #: Pin a message pattern regardless of group/tuner choice (Bruck
    #: Alltoall only works on dissemination); ``None`` follows the group.
    forced_algorithm: Optional[str] = None
    #: Per-sequence state class; subclasses needing extra fields (e.g.
    #: Allreduce's operator) override with a ``_DataState`` subclass.
    state_cls = _DataState

    def __init__(
        self,
        nic: "LanaiNic",
        group: ProcessGroup,
        rank: int,
        bytes_per_value: Optional[int] = None,
        root: int = 0,
    ):
        if group.node_of(rank) != nic.node_id:
            raise ValueError(
                f"rank {rank} of group {group.group_id} is not on {nic.name}"
            )
        self.nic = nic
        self.group = group
        self.rank = rank
        self.root = root
        if bytes_per_value is not None:
            self.bytes_per_value = bytes_per_value
        self.schedule: CollectiveSchedule = group.collective_schedule(
            self.collective_name,
            payload_bytes=self.bytes_per_value,
            algorithm=self.forced_algorithm,
            root=root,
        )
        self.ops: tuple[ScheduleOp, ...] = self.schedule.ops(rank)
        # Exactly-once receive bookkeeping: where in the op list each
        # expected (sender, sender-phase) pair is consumed.  An arrival
        # whose slot sits *behind* op_index was already delivered — a
        # retransmit that raced the original (e.g. across a healed
        # link) — and must be dropped, never re-buffered.
        self._recv_pos = {
            (op.peer, op.peer_phase): i
            for i, op in enumerate(self.ops)
            if op.kind == "recv"
        }
        self.states: dict[int, _DataState] = {}
        self.closed = False
        self.completed = 0
        # Per-seq retirement, aligned with the bounded send archive:
        # ``archive`` holds the recently-retired sequences (completed or
        # failed, in any order); ``done_floor`` rises only as the
        # archive prunes, so everything at/below it is long retired.
        self.archive: dict[int, dict[int, DataCollMsg]] = {}
        self.done_floor = -1
        nic.register_engine(group.group_id, self)

    #: Default wire bytes of one contributed value (subclasses override
    #: or the constructor pins it for payload sweeps).
    bytes_per_value = 4

    # -- hooks ---------------------------------------------------------
    def _init_data(self, state: _DataState, args: tuple) -> None:
        raise NotImplementedError

    def _phase_payload(self, state: _DataState, phase: int) -> tuple[Any, int]:
        raise NotImplementedError

    def _merge(self, state: _DataState, payload: Any, phase: int) -> None:
        raise NotImplementedError

    def _finish(self, state: _DataState) -> tuple[Any, int]:
        raise NotImplementedError

    def _validate(self, state: _DataState, message: DataCollMsg) -> Optional[str]:
        """Check an arrived message against this rank's collective
        arguments before merging.  A non-``None`` reason fails the
        sequence with a typed :class:`DataCollFailed` instead of
        silently merging inconsistent contributions."""
        return None

    # -- plumbing --------------------------------------------------------
    def _state(self, seq: int) -> _DataState:
        state = self.states.get(seq)
        if state is None:
            state = self.state_cls(seq)
            self.states[seq] = state
        return state

    def _retired(self, seq: int) -> bool:
        return seq <= self.done_floor or seq in self.archive

    def on_command(self, command: tuple):
        kind = command[0]
        if kind == "start":
            yield from self._on_start(command[1], command[2:])
        elif kind == "timeout":
            yield from self._on_nack_timeout(command[1])
        elif kind == "epoch":
            yield from self.on_epoch_change()
        else:
            raise ValueError(f"unknown {self.counter_prefix} command {command!r}")

    def _on_start(self, seq: int, args: tuple):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_start)
        if self.closed:
            # Epoch died while the start crossed the bus: resolve the
            # host with a typed revocation instead of parking it.
            nic.tracer.count(f"{self.counter_prefix}.start_after_revoke")
            yield from nic.notify_host(
                DataCollFailed(
                    self.group.group_id, seq,
                    FailureReason.GROUP_REVOKED.value, nic.sim.now,
                )
            )
            return
        state = self._state(seq)
        self._init_data(state, args)
        state.started = True
        self._arm_nack_timer(state)
        yield from self._progress(seq)

    def on_bcast_packet(self, packet: Packet):
        """Data-collective traffic arrives as BCAST-kind packets."""
        message: DataCollMsg = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_coll_trigger)
        if self.closed:
            # Revoked epoch: stray traffic from peers that had not yet
            # heard must never resurrect a sequence.
            nic.tracer.count(f"{self.counter_prefix}.rx_after_revoke")
            return
        if self._retired(message.seq):
            if SEQUENCE_AUTOMATON.get(("retired", "arrival")) == "drop":
                nic.tracer.count(f"{self.counter_prefix}.rx_duplicate")
                return
            # Any other action resurrects a finished sequence (the
            # exactly-once violation SL208 proves absent); falling
            # through here models that broken automaton for the
            # verifier's regression shim.
        state = self._state(message.seq)
        if message.sender in state.pending:
            nic.tracer.count(f"{self.counter_prefix}.rx_duplicate")
            return
        pos = self._recv_pos.get((message.sender, message.phase))
        if pos is None:
            # No recv op ever consumes this (sender, phase) here.
            nic.tracer.count(f"{self.counter_prefix}.rx_unexpected")
            return
        if pos < state.op_index:
            # Its recv op already consumed the original: a retransmit
            # delivered twice (NACK answered across a healing link).
            # Exactly-once: count and discard, never re-buffer.
            nic.tracer.count(f"{self.counter_prefix}.rx_duplicate")
            return
        state.pending[message.sender] = message
        if state.started and not state.complete:
            yield from self._progress(message.seq)

    def on_barrier_packet(self, packet: Packet):  # pragma: no cover - guard
        raise TypeError(f"{self.counter_prefix} engine received a barrier packet")

    # -- epoch repair ------------------------------------------------------
    def on_epoch_change(self):
        """The group's epoch died: abort every in-flight sequence.

        Started sequences fail up to the host with the typed
        ``group-revoked`` reason through the same ``_fail`` teardown
        retry exhaustion uses (timer cancelled, state archived, host
        notified — so blocking and non-blocking waiters both resolve);
        passive early-arrival states drop silently.  The engine closes:
        late traffic and late starts for the dead epoch are refused.
        """
        nic = self.nic
        self.closed = True
        for seq in sorted(self.states):
            state = self.states[seq]
            if state.started and not state.complete:
                yield from self._fail(state, FailureReason.GROUP_REVOKED.value)
            else:
                state.cancel_timer()
                del self.states[seq]
                nic.tracer.count(f"{self.counter_prefix}.epoch_state_dropped")

    # -- schedule replay ---------------------------------------------------
    def _payload_for(self, state: _DataState, phase: int) -> tuple[Any, int]:
        if state.payload_phase != phase:
            state.payload_value, state.payload_nbytes = self._phase_payload(
                state, phase
            )
            state.payload_phase = phase
        return state.payload_value, state.payload_nbytes

    def _progress(self, seq: int):
        """Replay the compiled op list from where this sequence stands.

        Stalls (returns) at a ``recv`` whose message has not arrived;
        the next arrival or NACK-recovered retransmission resumes it.
        """
        state = self._state(seq)
        if state.in_progress:
            return
        state.in_progress = True
        try:
            ops = self.ops
            while state.op_index < len(ops):
                op = ops[state.op_index]
                if op.kind == "send":
                    payload, nbytes = self._payload_for(state, op.phase)
                    state.op_index += 1
                    yield from self._send(state, op.phase, op.peer, payload, nbytes)
                elif op.kind == "recv":
                    message = state.pending.get(op.peer)
                    if message is None or message.phase != op.peer_phase:
                        return
                    del state.pending[op.peer]
                    reason = self._validate(state, message)
                    if reason is not None:
                        yield from self._fail(state, reason)
                        return
                    state.received = message
                    state.op_index += 1
                elif op.kind == "reduce":
                    assert state.received is not None
                    self._merge(state, state.received.payload, op.phase)
                    state.received = None
                    state.op_index += 1
                else:  # dma: deliver the result
                    state.op_index += 1
                    if not state.complete:
                        state.complete = True
                        yield from self._complete(state)
                    return
        finally:
            state.in_progress = False

    def _send(self, state: _DataState, phase: int, dst: int, payload: Any, nbytes: int):
        nic = self.nic
        message = DataCollMsg(
            self.group.group_id, state.seq, self.rank, phase, payload, nbytes
        )
        state.sent_messages[phase] = message
        yield from nic.coll_inject(self.group.node_of(dst), message, nbytes)
        nic.tracer.count(f"{self.counter_prefix}.sent")

    def _retire(self, state: _DataState) -> None:
        """Shared completion/failure teardown: drop live state, archive
        the sent payloads for stale NACKs, prune FIFO, and advance the
        retirement floor past whatever the archive forgot."""
        state.cancel_timer()
        del self.states[state.seq]
        self.archive[state.seq] = state.sent_messages
        while len(self.archive) > self.nic.params.coll_archive_depth:
            pruned = min(self.archive)
            self.archive.pop(pruned)
            self.done_floor = max(self.done_floor, pruned)

    def _complete(self, state: _DataState):
        from repro.pci import DmaDirection

        nic = self.nic
        result, result_bytes = self._finish(state)
        yield from nic.cpu_task(nic.params.t_coll_complete)
        if result_bytes > 0:
            yield from nic.pci.dma(result_bytes, DmaDirection.NIC_TO_HOST)
        self.completed += 1
        nic.tracer.count(f"{self.counter_prefix}.complete")
        self._retire(state)
        yield from nic.notify_host(
            DataCollDone(self.group.group_id, state.seq, result)
        )

    def _fail(self, state: _DataState, reason: str):
        """Tear the sequence down and notify the host with a typed failure.

        Mirrors ``_complete``'s teardown (timer, state table, archive)
        so a failed sequence leaves no dangling NIC resources, but DMAs
        a :class:`DataCollFailed` instead of a result.
        """
        nic = self.nic
        nic.tracer.count(f"{self.counter_prefix}.failed")
        self._retire(state)
        yield from nic.notify_host(
            DataCollFailed(self.group.group_id, state.seq, reason, nic.sim.now)
        )

    # -- receiver-driven reliability ----------------------------------------
    def _arm_nack_timer(self, state: _DataState) -> None:
        nic = self.nic
        state.nack_timer = nic.sim.schedule(
            nic.params.nack_timeout_us, self._nack_timer_fired, state.seq
        )

    def _nack_timer_fired(self, seq: int) -> None:
        if seq in self.states:
            self.nic.post_engine_command((self.group.group_id, "timeout", seq))

    def _on_nack_timeout(self, seq: int):
        state = self.states.get(seq)
        if state is None or state.complete or not state.started:
            return
        state.nack_rounds += 1
        if state.nack_rounds > self.nic.params.max_retries:
            # Retry budget exhausted: tear the sequence down with a
            # typed failure instead of leaking the state and leaving
            # the host blocked in recv_matching forever.  Dispatched
            # through the exported automaton so the SL207 model check
            # and the engine can never disagree: any action but "fail"
            # is the PR 7 silent ``return`` — the sequence parks with a
            # dead timer and no recovery transition.
            if SEQUENCE_AUTOMATON.get(("running", "timeout_exhausted")) == "fail":
                self.nic.tracer.count(f"{self.counter_prefix}.gave_up")
                yield from self._fail(state, RETRY_BUDGET_EXHAUSTED)
            return
        if state.op_index < len(self.ops):
            op = self.ops[state.op_index]
            if op.kind == "recv" and op.peer not in state.pending:
                self.nic.tracer.count(f"{self.counter_prefix}.nack_timeout")
                yield from self.nic.send_nack(
                    self.group.node_of(op.peer),
                    DataCollNack(
                        self.group.group_id, seq, op.peer_phase, op.peer, self.rank
                    ),
                )
        self._arm_nack_timer(state)

    def on_nack(self, packet: Packet):
        nack: DataCollNack = packet.payload
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_nack_process)
        if self.closed:
            nic.tracer.count(f"{self.counter_prefix}.nack_after_revoke")
            return
        state = self.states.get(nack.seq)
        if state is not None:
            message = state.sent_messages.get(nack.phase)
            counter = f"{self.counter_prefix}.nack_retransmit"
        else:
            message = self.archive.get(nack.seq, {}).get(nack.phase)
            counter = f"{self.counter_prefix}.nack_stale_resend"
        if message is None:
            nic.tracer.count(f"{self.counter_prefix}.nack_premature")
            return
        nic.tracer.count(counter)
        yield from nic.coll_inject(
            self.group.node_of(nack.requester), message, message.nbytes
        )


def host_start_data_collective(port, group: ProcessGroup, seq: int, args: tuple,
                               contribute_bytes: int):
    """Shared host side: contribute data, start, await the result."""
    yield from host_post_data_collective(port, group, seq, args, contribute_bytes)
    result = yield from host_wait_data_collective(port, group, seq)
    return result


def host_post_data_collective(port, group: ProcessGroup, seq: int, args: tuple,
                              contribute_bytes: int):
    """Non-blocking host side: contribute data and start the NIC engine
    without waiting.  Pair with :func:`host_wait_data_collective`."""
    from repro.pci import DmaDirection

    yield from port.cpu.compute(port.cpu.params.send_overhead_us)
    yield from port.pci.pio_write()
    if contribute_bytes > 0:
        yield from port.pci.dma(contribute_bytes, DmaDirection.HOST_TO_NIC)
    port.nic.post_engine_command((group.group_id, "start", seq) + args)
    return seq


def data_collective_matcher(group: ProcessGroup, seq: int):
    """Event matcher for one sequence's completion (done or failed)."""
    return (
        lambda ev: isinstance(ev, (DataCollDone, DataCollFailed))
        and ev.group_id == group.group_id
        and ev.seq == seq
    )


def interpret_data_collective(done, group: ProcessGroup, node_id: int):
    """Turn a completion event into a result, raising typed failures
    (:class:`Revoked` when the epoch died)."""
    if isinstance(done, DataCollFailed):
        if done.reason == FailureReason.GROUP_REVOKED.value:
            raise Revoked(group.group_id, done.seq, node=node_id,
                          failed_at=done.failed_at)
        raise CollectiveFailure(group.group_id, done.seq, done.reason, node=node_id)
    return done.result


def host_wait_data_collective(port, group: ProcessGroup, seq: int):
    """Blocking wait for a previously-posted data collective."""
    done = yield from port.recv_matching(data_collective_matcher(group, seq))
    return interpret_data_collective(done, group, port.node_id)
