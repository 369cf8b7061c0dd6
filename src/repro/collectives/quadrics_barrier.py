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
Each rank's chain is derived from its ops in the group's compiled
barrier schedule (:meth:`ProcessGroup.collective_schedule`), the IR the
Myrinet engines replay and SL201–SL208 prove: adjacent ``send`` ops
merge into one ``send`` link (one or more RDMA descriptors, issued in
order), the ``recv`` ops of one phase form one ``wait`` link (an Elan
event that must collect that step's arrivals), and ``reduce``/``dma``
ops have no chain link.
The chain is strictly *sequential*: link *t+1* is gated on an
event fed by **both** link *t*'s completion (the last descriptor's
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
:class:`repro.quadrics.events.ElanEvent`).  That growth is one stride:
each (event, action) pair is armed as one stride entry that fires once
per barrier, for as many barriers as are armed at once — all of them
when :func:`prearm_chained_group` arms the experiment at setup, one at
a time otherwise.  The done word's single action posts each barrier's
completion word in turn.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.collectives.failures import FailureReason, Revoked
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import BarrierDone, BarrierFailed, CollectiveRequest
from repro.quadrics.elan import RdmaDescriptor
from repro.quadrics.elanlib import ElanPort


class _Link(NamedTuple):
    """One link of a rank's chain: a send or a wait."""

    kind: str  # "send" | "wait"
    peers: tuple[int, ...]  # dst ranks (send) or src ranks (wait)


def _chain_links(ops) -> list[_Link]:
    """A rank's chain links, read from its compiled IR ops in order.

    Adjacent sends merge (they just queue on the DMA engine); the
    receives of one phase form one wait; ``reduce`` and ``dma`` ops have
    no link.  The final virtual "done" wait is added by the driver, not
    here.
    """
    links: list[_Link] = []
    joins = None  # what the last link absorbs: "send", or a recv phase
    for op in ops:
        if op.kind == "send":
            kind, key = "send", "send"
        elif op.kind == "recv":
            kind, key = "wait", op.phase
        else:
            continue
        if key == joins:
            links[-1] = _Link(kind, links[-1].peers + (op.peer,))
        else:
            links.append(_Link(kind, (op.peer,)))
            joins = key
    return links


class _ChainLayout:
    """A group's chain layout, derived **once** and shared by its drivers.

    Each of the N drivers needs its own chain links, plus the wait-link
    index its peers use for messages from *it*.  Deriving every peer's
    chain inside every driver's constructor is O(N^2 log N) — the wall
    that capped sweeps at 1024 nodes (69 of 85 seconds at N=1024 went to
    driver setup).  One pass over the compiled schedule derives each
    rank's links once and inverts the relation into
    ``wait_maps[rank][src] -> link index``; drivers then look up only
    their own O(log N) peers.

    ``names`` holds the group's event-word names (wait link ``t`` is
    ``names[t]``, the done word is ``names[-1]``), so every descriptor
    and every NIC's event table share one string per name.  A driver
    takes its rank's links and the layout drops them; once every rank
    has taken its links the group drops the layout, so no per-rank chain
    copy outlives setup.
    """

    __slots__ = ("links", "wait_maps", "names", "untaken")

    def __init__(self, group: ProcessGroup):
        schedule = group.collective_schedule("barrier")
        self.links = [_chain_links(schedule.ops(rank)) for rank in range(group.size)]
        self.wait_maps: list[dict[int, int]] = []
        for links in self.links:
            waits: dict[int, int] = {}
            for t, link in enumerate(links):
                if link.kind == "wait":
                    for src in link.peers:
                        waits[src] = t
            self.wait_maps.append(waits)
        gid = group.group_id
        longest = max(map(len, self.links), default=0)
        self.names = tuple(f"g{gid}w{t}" for t in range(longest)) + (f"g{gid}done",)
        self.untaken = group.size


def _take_chain(group: ProcessGroup, rank: int):
    """``rank``'s chain links and its group's shared layout."""
    layout = getattr(group, "_chained_layout", None)
    if layout is None or layout.links[rank] is None:
        layout = group._chained_layout = _ChainLayout(group)
    links, layout.links[rank] = layout.links[rank], None
    layout.untaken -= 1
    if not layout.untaken:
        del group._chained_layout
    return links, layout


def prearm_chained_group(drivers, total_iterations: int) -> bool:
    """Arm every driver's chain for the whole experiment at setup.

    Homogeneous-phase batching: all N ranks run the same chain shape, so
    the per-iteration bookkeeping (threshold arming, done-word notify
    values) collapses into one setup pass.  Each (event, action) pair is
    armed once as a stride entry that fires once per iteration (see
    :class:`~repro.quadrics.events.ElanEvent`), so the armed state is
    O(links), whatever the iteration count.

    Bit-identical only when no wait word's threshold can be crossed
    before its per-iteration arm point.  Every wait link at index > 0
    carries a chain link fed by the rank's *own* previous link — which
    trails the host's arm-and-trigger — so its threshold is structurally
    unreachable early.  A chain *starting* with a wait (gather-broadcast
    root) has no such link and could fire at arm time under per-iteration
    arming; if any rank's chain starts with a wait the whole group falls
    back to per-iteration arming.  Returns whether prearming applied.
    """
    dset = list(drivers.values())
    if not all(d._head for d in dset):
        return False
    for driver in dset:
        if total_iterations > driver._prearmed:
            driver._arm_chain(driver._prearmed, total_iterations - driver._prearmed)
            driver._prearmed = total_iterations
    return True


class _IssueLink:
    """The armed action of a wait link that a send link follows: queue
    the send link's descriptors on the DMA engine, in order."""

    __slots__ = ("nic", "descriptors")

    def __init__(self, nic, descriptors: tuple):
        self.nic = nic
        self.descriptors = descriptors

    def __call__(self) -> None:
        for descriptor in self.descriptors:
            self.nic.issue_rdma(descriptor)


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
        self.barriers_completed = 0
        self._prearmed = 0  # chains armed through this seq (exclusive)
        self._notified = 0  # done words posted so far: the next one's seq
        self._plan, self._head = self._build_plan(*_take_chain(group, self.rank))
        #: Started-but-not-yet-completed sequence numbers: what
        #: :meth:`revoke` must resolve with synthetic failure words so
        #: a waiter of a dead epoch unblocks instead of hanging.
        self._outstanding: set[int] = set()
        self.closed = False

    # ------------------------------------------------------------------
    # Chain arming
    # ------------------------------------------------------------------
    def _descriptors(self, peers, next_gate: str, layout: _ChainLayout) -> tuple:
        """Build a send link's descriptors; the last descriptor's local
        completion feeds the next chain link.  Each descriptor fires the
        wait link that expects *us* at its destination."""
        last = len(peers) - 1
        return tuple(
            RdmaDescriptor(
                dst=self.group.node_of(dst),
                remote_event=layout.names[layout.wait_maps[dst][self.rank]],
                size_bytes=0,
                local_event=next_gate if k == last else None,
                group_id=self.group.group_id,
            )
            for k, dst in enumerate(peers)
        )

    def _build_plan(self, links: list[_Link], layout: _ChainLayout):
        """Precompute the seq-invariant part of the chain.

        Event words, descriptor contents and the armed actions are the
        same every iteration — only the (linear-in-seq) thresholds
        change.  Descriptors are deliberately shared across iterations:
        they are never mutated, and a packet snapshots nothing beyond a
        reference to them.  The plan and the head are all a driver keeps
        of its chain; ``links`` and the layout are read only here.  The
        plan's last entry is the done word, whose one action posts each
        barrier's completion word in turn.
        """
        if not links:
            return [], ()
        nic = self.port.nic
        names = layout.names
        last = len(links) - 1

        def gate(t: int) -> str:
            """The event link ``t``'s completion feeds."""
            return names[t + 1] if t < last else names[-1]

        head: tuple = ()
        plan: list[tuple] = []  # (ElanEvent, set-events per barrier, action)
        for t, link in enumerate(links):
            if link.kind == "send":
                if t == 0:
                    head = self._descriptors(link.peers, gate(t), layout)
                # A send link at t > 0 is issued by link t-1's firing —
                # which is always a wait (adjacent sends merged), so it
                # is armed as that wait's action below.
                continue
            if t < last and links[t + 1].kind == "send":
                action = _IssueLink(
                    nic, self._descriptors(links[t + 1].peers, gate(t + 1), layout)
                )
            else:
                # wait -> wait/done: a chained set-event (SRAM write).
                action = nic.event(gate(t)).set_event
            # Set-events the word collects per barrier: the link's
            # arrivals, plus the chain link from link t-1.
            per_barrier = len(link.peers) + (1 if t > 0 else 0)
            plan.append((nic.event(names[t]), per_barrier, action))
        # The done word collects exactly one set per barrier.
        plan.append((nic.event(names[-1]), 1, self._post_done))
        return plan, head

    def _arm_chain(self, seq: int, count: int) -> None:
        """Arm every link of barriers ``seq .. seq + count - 1``: one
        stride entry per (event, action), firing once per barrier."""
        s1 = seq + 1
        for event, per_barrier, action in self._plan:
            event.arm(s1 * per_barrier, action, count, per_barrier)

    def _post_done(self) -> None:
        """The done word's action: post the next barrier's completion
        word (the done word fires once per barrier, in order)."""
        seq = self._notified
        self._notified = seq + 1
        self.port.nic.notify_host(
            BarrierDone(self.group.group_id, seq, completed_at=0.0)
        )

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
        if not self._plan:
            request._settle(None)
            return request
        self._outstanding.add(seq)
        # Prearmed chains (see prearm_chained_group) skip the arming:
        # the thresholds are already in SRAM, only the head trigger and
        # the completion wait remain per iteration.
        for s in range(self._prearmed, seq + 1):
            self._arm_chain(s, 1)
        self._prearmed = max(self._prearmed, seq + 1)
        # "The very first RDMA operation ... the host process triggers."
        for descriptor in self._head:
            nic.issue_rdma(descriptor)
        return request

    def barrier(self, seq: int):
        """One barrier: :meth:`ibarrier`, then wait for the tail's
        completion word (returned)."""
        request = yield from self.ibarrier(seq)
        return (yield from request.wait())
