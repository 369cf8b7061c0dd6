"""Host processor model: per-operation software costs and polling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim import ArbitratedResource, Simulator, Tracer


@dataclass(frozen=True)
class HostParams:
    """Host software costs (µs).

    ``send_overhead_us`` — building and posting one send descriptor
    (user-level library code, before the PIO doorbell).
    ``recv_overhead_us`` — consuming one receive event (buffer matching,
    callback dispatch).
    ``poll_us`` — one poll of the receive-event queue that finds nothing.
    ``poll_interval_us`` — gap between successive polls while waiting.
    ``barrier_call_us`` — fixed entry/exit software cost of the barrier
    library call itself.
    """

    send_overhead_us: float
    recv_overhead_us: float
    poll_us: float
    poll_interval_us: float
    barrier_call_us: float

    def __post_init__(self) -> None:
        for field_name in (
            "send_overhead_us",
            "recv_overhead_us",
            "poll_us",
            "poll_interval_us",
            "barrier_call_us",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


class HostCpu:
    """One node's host processor.

    A capacity-1 resource: host library code, polling loops and
    callbacks on the same node serialize (quad-SMP nodes ran one MPI
    process per node in the paper's tests, so one CPU per node is the
    faithful model).

    Same-instant compute requests from *different* processes (two jobs
    sharing the node in a multi-job workload) are arbitrated in
    canonical process-name order via :class:`ArbitratedResource` —
    plain FIFO granting would make the interleaving an event-heap race
    (simlint SL101).  With one process per node this is timing-identical
    to the plain resource: requests never contend.
    """

    def __init__(
        self,
        sim: Simulator,
        params: HostParams,
        node_id: int,
        name: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.name = name or f"host{node_id}"
        self.tracer = tracer or Tracer()
        self._cpu = ArbitratedResource(sim, capacity=1, name=f"{self.name}.cpu")
        self.busy_us = 0.0
        # Chaos-campaign host slowdown: every software cost on this node
        # is multiplied by this factor (1.0 = calibrated speed).  A slow
        # host is the paper's straggler scenario — it stretches barrier
        # skew without touching the network model.
        self.slowdown = 1.0

    def compute(self, us: float, label: Optional[str] = None):
        """Occupy the CPU for ``us`` microseconds (yield from a process).

        ``label`` names the software step on the host lane of a span
        timeline (e.g. ``barrier_call``, ``poll``); it costs nothing
        when tracing is disabled.
        """
        us = us * self.slowdown
        yield from self._cpu.hold(us)
        self.busy_us += us
        tracer = self.tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(now - us, now, self.name, label or "compute")

    def spin_polls(self, queue):
        """Poll ``queue`` until a poll could find something (yield from
        a process): one or more back-to-back ``poll_us`` polls.

        With the tracer off, an idle queue and an idle CPU the polls
        are one express spin (:meth:`ArbitratedResource.spin
        <repro.sim.resources.ArbitratedResource.spin>`): the CPU is held
        until a post to ``queue`` or a rival claim, and the polls that
        would have found nothing cost no event.  Otherwise this is one
        ordinary poll.  The caller sweeps the queue afterwards.
        """
        us = self.params.poll_us * self.slowdown
        if self.tracer.enabled or not queue.idle or not self._cpu.can_spin(us):
            yield from self.compute(self.params.poll_us, "poll")
            return
        polls = yield from self._cpu.spin(us, queue)
        busy = self.busy_us
        for _ in range(polls):
            busy += us
        self.busy_us = busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostCpu {self.name} busy={self.busy_us:.1f}us>"
