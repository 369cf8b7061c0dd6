"""Wire messages and host notifications of the NIC collectives, and
:class:`CollectiveRequest`, the one host handle for a NIC collective on
either network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.group import ProcessGroup


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


# ----------------------------------------------------------------------
# Host side: one match / interpret / settle path for both networks
# ----------------------------------------------------------------------
_HOST_EVENTS = (BarrierDone, BcastDone, DataCollDone, BarrierFailed)


def collective_matcher(group: "ProcessGroup", seq: int):
    """Event matcher for one sequence's completion or failure."""
    group_id = group.group_id
    return (
        lambda ev: isinstance(ev, _HOST_EVENTS)
        and ev.group_id == group_id
        and ev.seq == seq
    )


def interpret_collective(event: Any, node_id: int) -> Any:
    """Return a completion event, or raise the typed failure
    (:class:`Revoked` when the epoch died)."""
    if isinstance(event, BarrierFailed):
        # Deferred: the failure registry imports this module.
        from repro.collectives.failures import FailureReason, Revoked

        if event.reason == FailureReason.GROUP_REVOKED.value:
            raise Revoked(event.group_id, event.seq, node=node_id,
                          failed_at=event.failed_at)
        raise CollectiveFailure(event.group_id, event.seq, event.reason,
                                node=node_id)
    return event


class CollectiveRequest:
    """Handle for one posted NIC collective (MPI-3 style requests).

    The one handle on both networks: the Myrinet ``nic_i*`` starters
    and the Quadrics chained-RDMA barrier's ``ibarrier`` post and
    return one.  ``port`` is a ``GmPort`` or an ``ElanPort``; both
    offer ``recv_matching``/``poll_matching``/``spin_matching`` over
    the queue the NIC posts completion words to.  Several sequences
    per group are genuinely in flight at once and may be waited in any
    order.  ``wait()`` blocks until the collective finishes and returns
    its result; ``test()`` is one non-blocking poll, ``True`` once the
    completion has been consumed (the result is then in ``result``);
    ``spin()`` polls until then and returns the result.
    Typed failures (``CollectiveFailure``, ``Revoked``) raise from all
    three, and again from every later call; a settled request never
    touches the event queue again.  ``transform`` maps the completion
    event to the result (the data collectives hand back
    ``event.result``; the chained barrier counts its completions).
    """

    def __init__(
        self,
        port: Any,
        collective: str,
        group: "ProcessGroup",
        seq: int,
        transform: Optional[Callable[[Any], Any]] = None,
    ):
        self.port = port
        self.collective = collective
        self.group = group
        self.seq = seq
        self._matcher = collective_matcher(group, seq)
        self._transform = transform
        self.done = False
        self.result: Any = None
        self.failure: Optional[Exception] = None

    def _settle(self, event: Any) -> Any:
        # A typed failure still settles the request: waiting again
        # would hang on a consumed event.
        self.done = True
        try:
            result = interpret_collective(event, self.port.node_id)
        except Exception as exc:
            self.failure = exc
            raise
        if self._transform is not None:
            result = self._transform(result)
        self.result = result
        return result

    def wait(self):
        """Block until the collective completes; returns its result."""
        if self.done:
            if self.failure is not None:
                raise self.failure
            return self.result
        event = yield from self.port.recv_matching(self._matcher)
        return self._settle(event)

    def test(self):
        """One non-blocking poll: ``True`` iff the collective has
        completed (its result is then in ``self.result``)."""
        if self.done:
            if self.failure is not None:
                raise self.failure
            return True
        event = yield from self.port.poll_matching(self._matcher)
        if event is None:
            return False
        self._settle(event)
        return True

    def spin(self):
        """Poll until the collective completes; returns its result.

        Exactly ``while not (yield from self.test()): pass``, with the
        polls that find nothing fast-forwarded
        (:meth:`~repro.host.demux.EventDemux.spin`)."""
        if self.done:
            yield from self.test()
            return self.result
        event = yield from self.port.spin_matching(self._matcher)
        return self._settle(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "done" if self.done else "in-flight"
        return (
            f"<CollectiveRequest {self.collective} group={self.group.group_id}"
            f" seq={self.seq} {status}>"
        )
