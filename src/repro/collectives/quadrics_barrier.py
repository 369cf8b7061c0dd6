"""NIC-based barrier over Quadrics via chained RDMA descriptors (§7).

The paper's design choices, reproduced here:

- **No Elan thread**: "we have chosen not to set up an additional
  thread ... and instead, set up a list of chained RDMA descriptors at
  the NIC from user-level."  Only the event unit and DMA engine run.
- **Event-triggered chain**: "The RDMA operations are triggered only
  upon the arrival of a remote event except the very first RDMA
  operation, which the host process triggers to initiate a barrier."
- **Host completion**: "The completion of the very last RDMA operation
  will trigger a local event to the host process."

Chain construction
------------------
Each rank's schedule is flattened into an alternating list of
operations: ``send`` (one or more RDMA descriptors, issued in order)
and ``wait`` (an Elan event that must collect that step's arrivals).
The chain is strictly *sequential*: operation *t+1* is gated on an
event fed by **both** operation *t*'s completion (the last descriptor's
local completion event, or a chained set-event for wait → wait links)
**and** its own arrivals.  This sequencing is what makes the barrier
sound — a message sent at step *t* proves its sender finished steps
``0..t-1``, so causality covers every participant by the last step.
(Gating each step only on its own arrival event is *not* sufficient;
the end-to-end tests catch that variant letting a rank exit before a
straggler enters.)

Event words are cumulative counters, so consecutive barriers reuse the
same per-step events with thresholds that grow by the step's expected
count each iteration — early messages from barrier *k+1* simply
pre-increment the counters (see
:class:`repro.quadrics.events.ElanEvent`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import BarrierDone, BarrierFailed, CollectiveRequest
from repro.quadrics.elan import RdmaDescriptor
from repro.quadrics.elanlib import ElanPort


@dataclass(frozen=True)
class _Op:
    """One link of the flattened chain: a send or a wait."""

    kind: str  # "send" | "wait"
    peers: tuple[int, ...]  # dst ranks (send) or src ranks (wait)


def _flatten_ops(phases) -> list[_Op]:
    """Flatten phases into the alternating send/wait operation list.

    Adjacent sends merge (they just queue on the DMA engine); empty
    phases disappear.  The final virtual "done" wait is added by the
    driver, not here.
    """
    ops: list[_Op] = []

    def _append(kind: str, peers: tuple[int, ...]) -> None:
        if not peers:
            return
        if ops and ops[-1].kind == kind == "send":
            ops[-1] = _Op("send", ops[-1].peers + peers)
        else:
            ops.append(_Op(kind, peers))

    for phase in phases:
        if phase.send_first:
            _append("send", phase.sends)
            _append("wait", phase.recvs)
        else:
            _append("wait", phase.recvs)
            _append("send", phase.sends)
    return ops


def _group_chain_layout(group: ProcessGroup) -> tuple[list, list]:
    """Every rank's flattened ops and wait-index map, computed **once**.

    Each of the N drivers needs the wait-op index its peers use for
    messages from *it*.  Flattening every peer's schedule inside every
    driver's constructor is O(N^2 log N) — the wall that capped sweeps at
    1024 nodes (69 of 85 seconds at N=1024 went to driver setup).  One
    shared pass flattens each rank exactly once and inverts the relation
    into ``wait_maps[rank][src] -> op index``; drivers then look up only
    their own O(log N) peers.  Cached on the group (immutable after
    construction), so all N drivers share one layout.
    """
    cached = getattr(group, "_chained_layout", None)
    if cached is not None:
        return cached
    rank_ops = [_flatten_ops(group.schedule.phases(r)) for r in range(group.size)]
    wait_maps: list[dict[int, int]] = []
    for ops in rank_ops:
        waits: dict[int, int] = {}
        for t, op in enumerate(ops):
            if op.kind == "wait":
                for src in op.peers:
                    waits[src] = t  # later wait wins, as in the per-driver scan
        wait_maps.append(waits)
    group._chained_layout = (rank_ops, wait_maps)
    return group._chained_layout


def prearm_chained_group(drivers, total_iterations: int) -> bool:
    """Batch-arm every driver's chain for the whole experiment.

    Homogeneous-phase batching: all N ranks run the same chain shape, so
    the per-iteration bookkeeping (threshold arming, done-word notify
    values) collapses into one setup pass over ranks x iterations instead
    of N generator-resumed arm loops per barrier.

    Bit-identical only when no wait word's threshold can be crossed
    before its per-iteration arm point.  Every wait op at index > 0
    carries a chain link fed by the rank's *own* previous op — which
    trails the host's arm-and-trigger — so its threshold is structurally
    unreachable early.  A chain *starting* with a wait (gather-broadcast
    root) has no such link and could fire at arm time under per-iteration
    arming; if any rank's chain starts with a wait the whole group falls
    back to per-iteration arming.  Returns whether prearming applied.
    """
    dset = list(drivers.values())
    if not all(d.ops and d.ops[0].kind == "send" for d in dset):
        return False
    for driver in dset:
        for seq in range(driver._prearmed, total_iterations):
            driver._arm_chain(seq)
        driver._prearmed = max(driver._prearmed, total_iterations)
    return True


class _RemoteWaitView:
    """Lazy ``dst_rank -> wait-op index`` mapping for one sender.

    Backed by the group-shared wait maps; materializing a per-driver
    dict over all N destinations would reintroduce the O(N^2) setup the
    shared layout removed, and a driver only ever looks up its own
    O(log N) send peers.
    """

    __slots__ = ("_maps", "_rank")

    def __init__(self, wait_maps: list, rank: int):
        self._maps = wait_maps
        self._rank = rank

    def __getitem__(self, dst_rank: int) -> int:
        return self._maps[dst_rank][self._rank]


class QuadricsChainedBarrier:
    """Per-rank chained-RDMA barrier driver (host object).

    Build once per (port, group); call :meth:`ibarrier` or
    :meth:`barrier` with increasing sequence numbers.  The host
    contract is the Myrinet NIC barrier's: one call starts it, one
    completion word ends it, and :meth:`ibarrier` returns the same
    :class:`~repro.collectives.messages.CollectiveRequest`.
    """

    def __init__(self, port: ElanPort, group: ProcessGroup):
        self.port = port
        self.group = group
        self.rank = group.rank_of(port.node_id)
        rank_ops, wait_maps = _group_chain_layout(group)
        self.phases = group.schedule.phases(self.rank)
        self.ops = rank_ops[self.rank]
        # Which wait-op index at each destination rank expects *us*.
        rank = self.rank
        self.remote_wait_index = _RemoteWaitView(wait_maps, rank)
        self.barriers_completed = 0
        self._prearmed = 0  # chains armed through this seq (exclusive)
        self._done_name = self._done_event()
        self._plan, self._head = self._build_plan()
        #: Started-but-not-yet-completed sequence numbers: what
        #: :meth:`revoke` must resolve with synthetic failure words so
        #: a waiter of a dead epoch unblocks instead of hanging.
        self._outstanding: set[int] = set()
        self.closed = False

    # ------------------------------------------------------------------
    # Event-word naming and cumulative thresholds
    # ------------------------------------------------------------------
    def _wait_event(self, op_index: int) -> str:
        return f"g{self.group.group_id}w{op_index}"

    def _done_event(self) -> str:
        return f"g{self.group.group_id}done"

    def _per_barrier(self, op_index: int) -> int:
        """Set-events this wait op's word collects per barrier."""
        arrivals = len(self.ops[op_index].peers)
        link = 1 if op_index > 0 else 0  # the chain link from op t-1
        return arrivals + link

    # ------------------------------------------------------------------
    # Chain arming
    # ------------------------------------------------------------------
    def _descriptors(self, op: _Op, next_gate: str) -> list[RdmaDescriptor]:
        """Build a send op's descriptor list; the last descriptor's
        local completion feeds the next chain link."""
        descriptors = []
        for k, dst in enumerate(op.peers):
            descriptors.append(
                RdmaDescriptor(
                    dst=self.group.node_of(dst),
                    remote_event=self._wait_event(self.remote_wait_index[dst]),
                    size_bytes=0,
                    local_event=next_gate if k == len(op.peers) - 1 else None,
                    group_id=self.group.group_id,
                )
            )
        return descriptors

    def _build_plan(self):
        """Precompute the seq-invariant part of the chain.

        Event words, descriptor contents and the armed actions are the
        same every iteration — only the (linear-in-seq) thresholds
        change.  Descriptors are deliberately shared across iterations:
        they are never mutated, and a packet snapshots nothing beyond a
        reference to them.
        """
        nic = self.port.nic
        ops = self.ops
        head: list[RdmaDescriptor] = []
        plan: list[tuple] = []  # (ElanEvent, per-barrier count, actions)
        for t, op in enumerate(ops):
            next_gate = (
                self._wait_event(t + 1) if t + 1 < len(ops) else self._done_name
            )
            if op.kind == "send":
                if t == 0:
                    head = self._descriptors(op, next_gate)
                # A send op at t > 0 is issued by op t-1's firing —
                # which is always a wait op (adjacent sends merged), so
                # it is armed as that wait's action below.
            else:  # wait
                event = nic.event(self._wait_event(t))
                if t + 1 < len(ops) and ops[t + 1].kind == "send":
                    follow = self._descriptors(ops[t + 1], self._gate_after(t + 1))
                    actions = tuple(
                        (lambda d=descriptor: nic.issue_rdma(d))
                        for descriptor in follow
                    )
                else:
                    # wait -> wait/done: a chained set-event (SRAM write).
                    actions = (nic.event(next_gate).set_event,)
                plan.append((event, self._per_barrier(t), actions))
        return plan, head

    def _arm_chain(self, seq: int) -> list[RdmaDescriptor]:
        """Arm every link of this barrier's chain; return the head
        descriptors the host must trigger itself (if the chain starts
        with a send)."""
        s1 = seq + 1
        for event, per_barrier, actions in self._plan:
            threshold = s1 * per_barrier
            for action in actions:
                event.arm(threshold, action)
        self.port.nic.arm_host_notify(
            self._done_name,
            s1,  # the done word collects exactly one set per barrier
            value=BarrierDone(self.group.group_id, seq, completed_at=0.0),
        )
        return self._head

    def _gate_after(self, send_op_index: int) -> str:
        """The event a send op's completion feeds (the op after it)."""
        if send_op_index + 1 < len(self.ops):
            return self._wait_event(send_op_index + 1)
        return self._done_event()

    # ------------------------------------------------------------------
    def _completed(self, done):
        """Settle-time bookkeeping of a completed barrier (its
        request's transform); ``done`` is the completion word, or
        ``None`` for a single-rank group's empty chain.  A failure word
        comes only from :meth:`revoke`, which closes the driver, so the
        outstanding set is never read again after one."""
        if done is not None:
            self._outstanding.discard(done.seq)
        self.barriers_completed += 1
        return done

    def revoke(self):
        """Tear down this driver's epoch after a membership change.

        Disarms every armed action on the group's chain events (a stale
        chain link firing after repair would DMA a ghost done-word into
        the new epoch's host queue) and resolves every outstanding
        sequence with a synthetic revocation word, so blocked waiters
        surface :class:`Revoked` instead of hanging on a chain that can
        never complete — some of its senders are dead.
        """
        if self.closed:
            return
        self.closed = True
        nic = self.port.nic
        disarmed = nic.disarm_events(f"g{self.group.group_id}")
        nic.tracer.count("elan.barrier_revoked")
        if disarmed:
            nic.tracer.count("elan.barrier_revoke_disarmed", disarmed)
        for seq in sorted(self._outstanding):
            nic.host_events.post(
                BarrierFailed(
                    self.group.group_id,
                    seq,
                    FailureReason.GROUP_REVOKED.value,
                    failed_at=self.port.sim.now,
                )
            )

    def ibarrier(self, seq: int):
        """Post a barrier: arm the chain, trigger the head, and return
        its :class:`~repro.collectives.messages.CollectiveRequest`.

        Event words are cumulative, so several sequences can be armed
        and in flight at once — arming always proceeds contiguously up
        through ``seq`` (thresholds are linear in the iteration count).
        A single-rank group's chain is empty: its request is settled
        at once, with result ``None``.
        """
        if self.closed:
            raise Revoked(
                self.group.group_id,
                seq,
                node=self.port.node_id,
                failed_at=self.port.sim.now,
            )
        port = self.port
        nic = port.nic
        yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
        # One command crossing re-arms the descriptor list for this
        # iteration (the SRAM writes ride the same PIO burst).
        yield from port._command()
        request = CollectiveRequest(port, "barrier", self.group, seq, self._completed)
        if not self.ops:
            request._settle(None)
            return request
        self._outstanding.add(seq)
        # Prearmed chains (see prearm_chained_group) skip the arm loop:
        # the thresholds are already in SRAM, only the head trigger and
        # the completion wait remain per iteration.
        if seq >= self._prearmed:
            head = None
            for s in range(self._prearmed, seq + 1):
                head = self._arm_chain(s)
            self._prearmed = seq + 1
        else:
            head = self._head
        # "The very first RDMA operation ... the host process triggers."
        for descriptor in head:
            nic.issue_rdma(descriptor)
        return request

    def barrier(self, seq: int):
        """One barrier: :meth:`ibarrier`, then wait for the tail's
        completion word (returned)."""
        request = yield from self.ibarrier(seq)
        return (yield from request.wait())
