"""The discrete-event simulation kernel.

Time is a ``float`` in microseconds; the whole reproduction (NIC control
program steps, PCI DMA transactions, wire latencies) is expressed in this
unit because the paper reports barrier latencies in microseconds.

Everything else in :mod:`repro.sim` (events, processes, resources) is
built on :meth:`Simulator.schedule`.

Hot-path layout: a bucketed calendar queue
------------------------------------------
Barrier traffic is massively *time-degenerate*: a dissemination round
schedules thousands of calls at identical timestamps (every rank's
packet crosses the same switch stages with the same constants).  A
single binary heap pays ``O(log n_total)`` float comparisons per event
for ordering the kernel mostly does not need — within one timestamp
only the integer key matters, and across timestamps only the *distinct*
times compete.

The calendar queue splits the two concerns:

- ``_times`` — a small min-heap of **distinct** pending timestamps;
- ``_buckets`` — ``time -> [entries]`` for future timestamps;
- ``_current`` — the key-ordered entry heap for the timestamp being
  drained.

Bucket entries are ``(key, call, None)`` (cancellable
:class:`ScheduledCall`) or ``(key, fn, args)`` (detached) with
``key = (phase << _PHASE_SHIFT) + seq`` — same-time entries order by
delta phase first, then FIFO, and the unique ``seq`` keeps comparisons
off the payload.  Two structural facts make the queue cheap:

1. :meth:`schedule_phase` only ever targets the *current* timestamp, so
   future buckets receive exclusively phase-0 traffic in increasing
   ``seq`` order — **a future bucket is born sorted**, and a sorted
   list is already a valid binary heap.  Scheduling into the future is
   a dict lookup plus a list append; no heap operation at all.
2. Only the active bucket interleaves (delay-0 calls and delta phases
   land mid-drain), so only it needs ``heappush``/``heappop`` — at
   ``O(log bucket_size)``, not ``O(log n_total)``.

Quiescence fast-forward
-----------------------
Cancellation stays O(1) and lazy, but reaping is *wholesale*: when a
bucket that holds a cancelled entry is activated, its cancelled entries
are filtered out in one pass (a per-timestamp count of cancellations
says which buckets hold one; the rest are activated as they are), and a
bucket left with nothing live is dropped **without the clock ever
materializing its timestamp** — the kernel analytically fast-forwards
over quiescent intervals (e.g. the hundreds of armed-then-cancelled
ACK/NACK retransmission timers between barrier rounds) in O(bucket)
instead of O(heap churn).  Long-rotting cancelled timers in far-future
buckets are reclaimed by :meth:`_maybe_compact` once they outnumber the
live entries (the threshold scales with total pending work).

Delta phases
------------
:meth:`Simulator.schedule_phase` schedules a call at the *current*
timestamp but in a later **phase** (a delta cycle, as in VHDL/SystemC):
all phase-``p`` calls at a timestamp run before any phase-``p+1`` call.
Arbitration logic (e.g. fabric link grants) uses this to decide *after*
every same-instant contender has registered, so outcomes never depend on
how same-time, same-phase events happen to be ordered — the property the
simlint tie-break perturbation verifies.  The phase lives in the high
bits of the integer entry key, so ordinary (phase-0) traffic pays
nothing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

# Compact once at least this many cancelled entries are buried in the
# queue *and* they outnumber the live ones (both conditions keep small
# simulations from compacting pointlessly; the second scales the
# threshold with total pending work so huge runs are not scanned early).
_COMPACT_MIN_CANCELLED = 1024

# Entry keys are ``(phase << _PHASE_SHIFT) + seq``: same-time entries
# order by phase first, then FIFO.  48 bits leave room for ~10^14 events.
_PHASE_SHIFT = 48


class ScheduledCall:
    """Handle for a callback scheduled with :meth:`Simulator.schedule`.

    The handle supports O(1) cancellation: the queue entry stays put but
    is skipped when reached (and reclaimed wholesale at bucket
    activation or compaction).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "executed", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple, sim):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        Cancelling a handle whose call already ran (or whose entry has
        already been reaped from the queue) is a no-op: no entry is
        buried anymore, so it must not count toward the compaction
        accounting.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        # Drop references so cancelled timers do not pin large objects.
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancel(self.time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time:.3f} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, print, "hello at t=5us")
        sim.run()

    Processes (see :class:`repro.sim.process.Process`) are started with
    :meth:`process`.  :meth:`run` drives the loop until the queue drains,
    a time limit passes, or a supplied event triggers.
    """

    def __init__(self) -> None:
        # Current simulation time in microseconds: a plain attribute,
        # read on every hot path; only the kernel advances it.
        self.now: float = 0.0
        # Calendar queue: distinct future timestamps (min-heap), their
        # buckets, and the key-ordered heap for the active timestamp.
        # Entries: (key, ScheduledCall, None) | (key, fn, args) with
        # key = (phase << _PHASE_SHIFT) + seq.
        self._times: list[float] = []
        self._buckets: dict[float, list] = {}
        self._current: list = []
        self._seq: int = 0
        self._phase: int = 0
        self._cancelled: int = 0
        # Cancelled entries per future bucket (timestamp -> count): only
        # those buckets need a reap when activated.  Entries of the
        # active timestamp are skipped one by one as they pop.
        self._cancelled_at: dict[float, int] = {}
        self._pending: int = 0  # entries (live + cancelled) across the queue
        self._unhandled: list[BaseException] = []
        # The process whose generator is currently executing (set by
        # Process._step, None outside process context).  Deterministic
        # arbiters key same-instant contention on it.
        self._active_process = None
        # Weak process registry for the quiescence detector
        # (repro.tools.simlint).  Off by default: sweeps create millions
        # of short-lived processes and must not accumulate dead refs.
        self._process_registry: Optional[list] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Total calls scheduled so far.

        Exact and deterministic for a given model and seed: the
        benchmark's ``sim.events_total`` sums it over a repeat's
        simulators, and the tier-1 event ceilings gate on it.
        """
        return self._seq

    @property
    def current_phase(self) -> int:
        """Delta phase of the call being processed (0 for normal calls)."""
        return self._phase

    @property
    def active_process(self):
        """The process currently executing, or ``None`` outside one.

        :class:`~repro.sim.resources.ArbitratedResource` reads this to
        key same-instant requests by a stable process identity instead
        of event-heap pop order.
        """
        return self._active_process

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, time: float, entry: tuple) -> None:
        """Route an entry to the active heap or its future bucket.

        ``time == now`` goes to the active heap (it may interleave with
        the drain in delta-phase order); a future time appends to its
        bucket — born sorted, because only phase-0 keys ever reach a
        future bucket and ``seq`` increases monotonically.
        """
        if time == self.now:
            heappush(self._current, entry)
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [entry]
                heappush(self._times, time)
            else:
                bucket.append(entry)
        self._pending += 1

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now.

        ``delay`` must be non-negative.  Returns a cancellable handle.
        Calls scheduled for the same timestamp run in scheduling order.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        time = self.now + delay
        call = ScheduledCall(time, seq, fn, args, self)
        self._enqueue(time, (seq, call, None))
        if self._cancelled >= _COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return call

    def schedule_detached(self, delay: float, fn: Callable, *args: Any) -> None:
        """Like :meth:`schedule`, but returns no handle and cannot be
        cancelled — the call *will* run.

        This skips the :class:`ScheduledCall` allocation, which matters
        for the kernel's own traffic: every event trigger and packet
        delivery is scheduled exactly once and never revoked.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        # ``_enqueue``, inlined: this is the kernel's own traffic.
        entry = (seq, fn, args)
        now = self.now
        time = now + delay
        if time == now:
            heappush(self._current, entry)
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [entry]
                heappush(self._times, time)
            else:
                bucket.append(entry)
        self._pending += 1

    def schedule_now(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current timestamp, detached.

        The kernel's hottest scheduling call: every event trigger and
        every late-attached callback lands at the current time.
        Equivalent to ``schedule_detached(0.0, fn, *args)`` but skips
        the delay validation, the float add, and the bucket routing —
        a same-time entry always goes straight onto the active heap.
        """
        self._seq = seq = self._seq + 1
        heappush(self._current, (seq, fn, args))
        self._pending += 1

    def schedule_phase(self, phase: int, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current timestamp in a later phase.

        ``phase`` must exceed :attr:`current_phase`: the call runs after
        every same-time call of any lower phase, regardless of when those
        were scheduled.  Detached (no handle, cannot be cancelled).
        """
        if phase <= self._phase:
            raise ValueError(
                f"phase {phase} not after current phase {self._phase}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._current, ((phase << _PHASE_SHIFT) + seq, fn, args))
        self._pending += 1

    def _note_cancel(self, time: float) -> None:
        """Count a cancelled entry scheduled for ``time``."""
        self._cancelled += 1
        if time != self.now:  # in a future bucket, not the active heap
            at = self._cancelled_at
            at[time] = at.get(time, 0) + 1

    def _reap(self, bucket: list) -> list:
        """One wholesale pass dropping a bucket's cancelled entries.

        Preserves order (a sorted bucket stays sorted, a heap-ordered
        active list must be re-heapified by the caller).  Reaped handles
        are marked executed so a late ``cancel()`` stays a no-op.
        """
        live = []
        append = live.append
        for entry in bucket:
            call = entry[1]
            if entry[2] is None and call.cancelled:
                call.executed = True
                self._cancelled -= 1
                self._pending -= 1
            else:
                append(entry)
        return live

    def _activate_next_bucket(self) -> bool:
        """Advance the clock to the next timestamp with live work.

        Only a bucket holding a cancelled entry is reaped.  Buckets
        holding only cancelled entries are dropped whole — the
        quiescence fast-forward: the clock jumps straight over them
        without per-entry heap churn, never materializing their
        timestamps.
        """
        times = self._times
        buckets = self._buckets
        cancelled_at = self._cancelled_at
        while times:
            time = heappop(times)
            bucket = buckets.pop(time)
            if cancelled_at and cancelled_at.pop(time, 0):
                bucket = self._reap(bucket)
                if not bucket:
                    continue
            self.now = time
            self._current = bucket  # sorted == valid heap
            return True
        return False

    def _maybe_compact(self) -> None:
        """Drop buried cancelled entries once they outnumber live ones.

        In place (``list[:] = ...``): the run loop holds a local
        reference to the active heap, so rebinding ``self._current``
        here would strand it draining a stale copy.  The future buckets
        that hold a cancelled entry are filtered in place too (order —
        hence sortedness — preserved); emptied buckets are dropped and
        the time heap rebuilt.
        """
        if self._cancelled * 2 <= self._pending:
            return
        current = self._current
        current[:] = self._reap(current)
        heapify(current)  # reaping a heap-ordered list can break it
        buckets = self._buckets
        emptied = False
        for time in self._cancelled_at:
            bucket = buckets[time]
            bucket[:] = self._reap(bucket)
            if not bucket:
                del buckets[time]
                emptied = True
        self._cancelled_at.clear()
        if emptied:
            times = self._times
            times[:] = list(buckets)
            heapify(times)

    def process(self, generator, name: Optional[str] = None):
        """Start a generator as a simulation process.

        Returns the :class:`~repro.sim.process.Process`; yield it (or its
        ``completion`` event) from another process to join it.
        """
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def track_processes(self) -> None:
        """Keep a weak reference to every process started after this call.

        Enables :meth:`live_processes`, which the simlint quiescence
        detector uses to enumerate still-blocked processes at the end of
        a run.  Costs one list append per process creation.
        """
        if self._process_registry is None:
            self._process_registry = []

    def live_processes(self) -> list:
        """Processes that are still alive (requires :meth:`track_processes`)."""
        registry = self._process_registry
        if registry is None:
            raise RuntimeError("call track_processes() before building the model")
        alive = []
        live_refs = []
        for ref in registry:
            proc = ref()
            if proc is not None:
                live_refs.append(ref)
                if proc.alive:
                    alive.append(proc)
        registry[:] = live_refs  # prune refs to collected processes
        return alive

    def report_unhandled(self, exc: BaseException) -> None:
        """Record a failure nobody is waiting on; re-raised by :meth:`run`.

        Called by the event machinery when a failed event is processed
        without any registered callback (e.g. a crashed process whose
        completion nobody joined).  Silently losing such failures would
        make protocol bugs look like hangs.
        """
        self._unhandled.append(exc)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Timestamp of the next pending call, or ``float('inf')``.

        Reaps cancelled entries it passes over, so an all-cancelled
        future bucket never stalls a ``run(until=...)`` bound.
        """
        current = self._current
        while current:
            head = current[0]
            if head[2] is None and head[1].cancelled:
                heappop(current)
                head[1].executed = True
                self._cancelled -= 1
                self._pending -= 1
                continue
            return self.now
        times = self._times
        buckets = self._buckets
        cancelled_at = self._cancelled_at
        while times:
            time = times[0]
            bucket = buckets[time]
            if cancelled_at and cancelled_at.pop(time, 0):
                live = self._reap(bucket)
                if not live:
                    heappop(times)
                    del buckets[time]
                    continue
                buckets[time] = live
            return time
        return float("inf")

    def step(self) -> bool:
        """Run the single next scheduled call.  Returns False when idle."""
        while True:
            current = self._current
            while current:
                key, fn, args = heappop(current)
                self._pending -= 1
                if args is None:  # cancellable ScheduledCall entry
                    fn.executed = True  # off the queue: late cancel is a no-op
                    if fn.cancelled:
                        self._cancelled -= 1
                        continue
                    fn, args = fn.fn, fn.args
                self._phase = key >> _PHASE_SHIFT
                fn(*args)
                if self._unhandled:
                    exc = self._unhandled[0]
                    self._unhandled.clear()
                    raise exc
                return True
            if not self._activate_next_bucket():
                return False

    def _run_to_exhaustion(self) -> None:
        """Drain the queue with everything hot in locals.

        This is :meth:`step` inlined into a tight loop — the dominant
        mode for barrier experiments (millions of events per figure
        point), where the per-event method-call and attribute-lookup
        overhead of ``while self.step(): pass`` is measurable.
        """
        pop = heappop
        unhandled = self._unhandled
        while True:
            current = self._current
            while current:
                key, fn, args = pop(current)
                self._pending -= 1
                if args is None:  # cancellable ScheduledCall entry
                    fn.executed = True  # off the queue: late cancel is a no-op
                    if fn.cancelled:
                        self._cancelled -= 1
                        continue
                    fn, args = fn.fn, fn.args
                self._phase = key >> _PHASE_SHIFT
                fn(*args)
                if unhandled:
                    exc = unhandled[0]
                    unhandled.clear()
                    raise exc
            if not self._activate_next_bucket():
                return

    def run(self, until: Optional[float] = None, *, until_event=None) -> None:
        """Drive the simulation.

        - ``until=None`` and ``until_event=None``: run until no events
          remain.
        - ``until=t``: run events with timestamp ``<= t``; afterwards
          ``now`` is advanced to exactly ``t`` (even if idle earlier).
        - ``until_event=ev``: stop as soon as ``ev`` has been processed.
        - both: stop at whichever bound wins; if the time bound wins,
          ``now`` still advances to exactly ``t``.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        if until_event is not None:
            while not until_event.processed:
                if until is not None and self.peek() > until:
                    break
                if not self.step():
                    break
            if until is not None and not until_event.processed:
                self.now = max(self.now, until)
            return
        if until is None:
            self._run_to_exhaustion()
            return
        while self.peek() <= until:
            self.step()
        self.now = max(self.now, until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f}us pending={self._pending}>"
