"""Elan event words: counters with thresholds and chained actions.

An Elan3 event is a counter in NIC memory.  A *set-event* operation
increments it; a descriptor (or host waiter) armed with a threshold
fires when the count reaches that threshold.  Because the counter is
cumulative, a set-event arriving *before* anyone armed a waiter is not
lost — exactly the property that lets back-to-back barriers overlap
safely (node A may start barrier *k+1* and fire events at node B while
B is still finishing barrier *k*).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Callable


class ElanEvent:
    """One event word in Elan SRAM.

    ``arm(threshold, action, repeat, stride)`` registers ``action`` (a
    zero-argument callable) to run as soon as ``count >= threshold``,
    then again at ``threshold + stride``, and so on, ``repeat`` times in
    all.  A firing whose threshold is already reached runs immediately
    (synchronously — the caller is the event unit, which has already
    paid its processing cost).

    One stride entry behaves exactly like ``repeat`` single arms made
    back to back: waiters sit in a min-heap keyed by (threshold, arm
    number), and an entry that fires re-enters the heap at its next
    threshold under its *original* arm number, inside the same pop
    loop.  So each firing ranks where its expanded copy would have
    ranked (ties fire in arm order), and a set-event that crosses
    several strides fires the entry several times, in threshold order
    among the other waiters.  A repeating barrier chain therefore holds
    one entry per (event, action), whatever the iteration count, and
    the common no-fire set-event is a single head comparison.
    """

    __slots__ = ("name", "count", "_armed", "_n")

    def __init__(self, name: str = "event"):
        self.name = name
        self.count = 0
        # (threshold, arm number, action, firings left, stride)
        self._armed: list[tuple[int, int, Callable[[], None], int, int]] = []
        self._n = 0

    def set_event(self, n: int = 1) -> None:
        """A set-event (remote or local) increments the counter."""
        if n < 1:
            raise ValueError(f"set count must be >= 1, got {n}")
        self.count += n
        armed = self._armed
        if armed and armed[0][0] <= self.count:
            self._fire_ready()

    def arm(
        self,
        threshold: int,
        action: Callable[[], None],
        repeat: int = 1,
        stride: int = 0,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if repeat < 1 or stride < 0:
            raise ValueError(f"need repeat >= 1 and stride >= 0, got {repeat}, {stride}")
        # Firings already reached run now, one by one, as separate arms
        # would: every set-event drains its ready waiters, so nothing
        # else is ready, and each firing sees what the previous one did.
        while threshold <= self.count:
            action()
            repeat -= 1
            if not repeat:
                return
            threshold += stride
        self._n += 1
        heappush(self._armed, (threshold, self._n, action, repeat, stride))

    def _fire_ready(self) -> None:
        # Snapshot the ready set before running any action (an action
        # may set this same event or arm new waiters; those must see the
        # post-drain state).  A repeating entry steps to its next
        # threshold here, so a count that crossed several strides pops
        # it again, in heap order.
        armed = self._armed
        count = self.count
        ready = []
        while armed and armed[0][0] <= count:
            threshold, n, action, left, stride = armed[0]
            ready.append(action)
            if left > 1:
                heapreplace(armed, (threshold + stride, n, action, left - 1, stride))
            else:
                heappop(armed)
        for action in ready:
            action()

    def disarm_all(self) -> int:
        """Drop every armed waiter without firing it.

        Group revocation uses this: a revoked chained-barrier group must
        never fire a straggler's RDMA chain or a stale done notification
        after the survivors moved to a new epoch.  The counter itself is
        left alone — late set-events still accumulate harmlessly.
        Returns the number of firings dropped (a stride entry counts
        every firing it had left).
        """
        dropped = self.armed_count
        self._armed.clear()
        return dropped

    @property
    def armed_count(self) -> int:
        """Firings still armed (a stride entry counts each one left)."""
        return sum(entry[3] for entry in self._armed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ElanEvent {self.name} count={self.count} armed={self.armed_count}>"
