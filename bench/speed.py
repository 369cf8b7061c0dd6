"""Machine-speed probe for untraced repeats.

The machine this benchmark was built on runs a core at full speed or
1.7x slower and worse, switching within a second as other tenants come
and go, and its two cores switch independently.  No bound tighter than
that drift holds on raw host time, and a reference timed anywhere but
on the workload's own core, at the same moment, cannot see it.  So
every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler in the
workload's process times a fixed pure-Python kernel; the mean timed run
over an interval, divided by ``REFERENCE_S``, is that interval's
slowdown.  ``bench/README.md`` has the measurements behind this design
and what it leaves uncorrected.

The kernel allocates no container, so it never advances the garbage
collector's counts or scans the workload's heap, and it touches only its
own few objects.  Each tick runs it twice and times only the second
run, so what the workload left in the caches does not show either.
The probe's own time, both runs, is subtracted from every timing.
"""

from __future__ import annotations

import signal
import time
from heapq import heapify, heapreplace

INTERVAL_S = 0.02
#: The timed kernel run on an idle core of the reference machine.
REFERENCE_S = 0.000054


def _accumulate():
    total = 0
    while True:
        total = (total + (yield total)) & 255


class SpeedProbe:
    """Samples the kernel's duration, with its start times, until stopped."""

    def __init__(self):
        self._heap = list(range(64, 0, -1))
        heapify(self._heap)
        self._table = dict.fromkeys(range(64), 0)
        self._gen = _accumulate()
        next(self._gen)
        self._busy = False
        self.starts: list[float] = []
        self.took: list[float] = []  # the timed run
        self.cost: list[float] = []  # both runs

    def kernel(self) -> None:
        """About 50 microseconds of heap, dict and generator work on
        preallocated objects and small (cached) integers."""
        heap, table, send = self._heap, self._table, self._gen.send
        for i in range(250):
            smallest = heapreplace(heap, (i * 37) & 127)
            table[smallest & 63] = send(smallest)

    def _tick(self, _signum, _frame) -> None:
        # A tick delayed past the next one (the process was descheduled)
        # must not re-enter the kernel's generator.
        if self._busy:
            return
        self._busy = True
        start = time.monotonic()
        self.kernel()
        timed = time.monotonic()
        self.kernel()
        end = time.monotonic()
        self.starts.append(start)
        self.took.append(end - timed)
        self.cost.append(end - start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def overhead(self, until: float) -> float:
        """Seconds the probe itself took before monotonic time ``until``."""
        return sum(c for s, c in zip(self.starts, self.cost) if s < until)

    def slowdown(self, until: float) -> float:
        """Mean timed kernel run before ``until``, relative to the
        reference; 1.0 without samples (a probe never started)."""
        took = [t for s, t in zip(self.starts, self.took) if s < until]
        return sum(took) / len(took) / REFERENCE_S if took else 1.0
