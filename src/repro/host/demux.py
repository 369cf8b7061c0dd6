"""The poller-seat event demux both host libraries use.

A NIC posts host-visible items (GM receive events, Elan host-event
words) into a store the host polls.  Several host processes may wait
on one store at once — two jobs sharing a node each park a collective
wait there — and each must get its own item.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import ArbitratedResource

_NO_MATCH = object()


class EventDemux:
    """Matching receive over one NIC-to-host store.

    Only the *seat holder* sits on the store; co-waiters queue on the
    seat.  When the holder pops an item it does not want, it buffers the
    item in ``pending`` and releases the seat, so the next waiter
    re-scans the buffer and takes over polling.  (Were every waiter to
    take from the store itself, waiter A could pop and buffer waiter
    B's item while B stays blocked forever.)  The seat is arbitrated,
    so which of two same-instant waiters polls — and pays the poll-lag
    and poll costs — is canonical, not event-heap order (simlint
    SL101).

    The library hooks: ``on_pop(item)`` runs when an item leaves the
    store, matched or not; the generator ``on_consume(item)`` runs after
    the receive overhead when a waiter takes it.
    """

    def __init__(
        self,
        sim,
        cpu,
        queue,
        seat_name: str,
        on_pop: Optional[Callable[[Any], None]] = None,
        on_consume: Optional[Callable[[Any], Any]] = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.queue = queue
        self.pending: list[Any] = []
        self.seat = ArbitratedResource(sim, 1, name=seat_name)
        self._on_pop = on_pop
        self._on_consume = on_consume

    def _take_pending(self, matches):
        for i, item in enumerate(self.pending):
            if matches(item):
                return self.pending.pop(i)
        return _NO_MATCH

    def _consume(self, item):
        yield from self.cpu.compute(self.cpu.params.recv_overhead_us, "recv_overhead")
        if self._on_consume is not None:
            yield from self._on_consume(item)

    def _next_item(self):
        """Pop the next item, modeling the polling loop: a queued item
        is found at once; otherwise the host blocks and finds the item
        half a poll interval (the mean phase lag) after it lands.  An
        item landing at the very instant polling begins is caught by the
        first poll — charging the lag there would make the cost depend
        on post-vs-take scheduling order (SL101)."""
        params = self.cpu.params
        blocked_at = self.sim.now
        item = yield from self.queue.take()
        if self.sim.now > blocked_at:
            yield params.poll_interval_us / 2.0
        yield from self.cpu.compute(params.poll_us, "poll")
        return item

    def recv(self, matches: Callable[[Any], bool]):
        """Block until an item satisfying ``matches`` arrives."""
        while True:
            item = self._take_pending(matches)
            if item is not _NO_MATCH:
                yield from self._consume(item)
                return item
            yield self.seat.request()
            # The buffer may have grown while we queued for the seat.
            item = self._take_pending(matches)
            if item is not _NO_MATCH:
                self.seat.release()
                yield from self._consume(item)
                return item
            item = yield from self._next_item()
            self.seat.release()
            if self._on_pop is not None:
                self._on_pop(item)
            if matches(item):
                yield from self._consume(item)
                return item
            self.pending.append(item)

    def poll(self, matches: Callable[[Any], bool]):
        """One non-blocking poll: drain what the NIC already posted (one
        poll cost), then return the matching item or ``None``."""
        yield from self.cpu.compute(self.cpu.params.poll_us, "poll")
        return (yield from self._sweep(matches))

    def spin(self, matches: Callable[[Any], bool]):
        """:meth:`poll` until it returns an item, and return it.

        Exactly ``while (item := (yield from poll(matches))) is None``,
        but a run of polls that find nothing on an idle queue costs one
        park (:meth:`~repro.host.cpu.HostCpu.spin_polls`), not two
        kernel events per poll."""
        item = yield from self.poll(matches)
        while item is None:
            yield from self.cpu.spin_polls(self.queue)
            item = yield from self._sweep(matches)
        return item

    def _sweep(self, matches):
        """What a poll does once its cost is paid: drain the store into
        ``pending`` and consume the first match, if any."""
        queue = self.queue
        pending = self.pending
        on_pop = self._on_pop
        while len(queue) > 0:
            item = queue.try_get()
            if on_pop is not None:
                on_pop(item)
            pending.append(item)
        for i, item in enumerate(pending):
            if matches(item):
                del pending[i]
                yield from self._consume(item)
                return item
        return None
