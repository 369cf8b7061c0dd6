"""Synchronization primitives: the arbitrated resource and item stores.

- :class:`ArbitratedResource` — counted semaphore whose same-instant
  grants are *arbitrated* one delta phase later in canonical key order,
  not first-come-first-served on the event heap.  Every serialized unit
  of the model is one: the LANai processor polled by five
  control-program loops, the host CPU, the host's poller seats, the PCI
  bus, and the Elan3 event unit, DMA engine and thread processor.
  Clients use a unit in one of three ways, arbitrated alike in one
  queue: ``request``/``release`` around arbitrary yields, a process's
  :meth:`~ArbitratedResource.hold` (acquire → work → release as one
  pass plus one completion call), or a callback's
  :meth:`~ArbitratedResource.call` (the same task ending in a function
  call instead of a resume).  A hold or call on a free single unit with
  nothing pending is an *express grant*: only its completion is
  scheduled, and a same-instant rival the pass would have preferred
  reverts it.  :meth:`~ArbitratedResource.spin` is a run of
  back-to-back tasks that parks once and is costed at the one task
  whose outcome can differ.
- :class:`Store` — FIFO item queue.  Models token queues, event queues,
  host-visible words, packet FIFOs and free lists (the LANai's send
  packet buffers).  ``post``/``take`` is its one hand-off, event-free,
  to one consuming process: a post hands the item straight to a parked
  taker, and a take of a queued item returns it at once.  ``try_get``
  is the non-blocking take, and ``watch`` arms a one-shot call on the
  next post.
- :class:`PriorityStore` — like Store but items are retrieved lowest
  priority value first (stable for equal priorities).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import Simulator
from repro.sim.events import SimEvent
from repro.sim.process import PARKED


class ArbitratedResource:
    """A counted resource with deterministic same-instant arbitration.

    Granting in request order would make the winner among requests made
    at the same timestamp by different clients the event-heap pop order:
    a schedule race (simlint SL101) when the grant order affects
    anything observable.  Here every request pools up and a decision
    pass runs one delta phase later (zero simulated time), granting free
    units in ``(birth phase, key, n)`` order, ``n`` being the arrival
    number — the same scheme the fabric's
    :class:`~repro.network.fabric.LinkArbiter` uses for link bandwidth.

    ``key_fn`` maps the requesting process's name to an orderable key
    (default: the name itself); it defines the hardware's service
    priority among same-instant contenders.  It is called once per
    process name and memoized.  Requests made outside any process must
    pass an explicit ``key``, and a :meth:`call` always does.

    Three ways to use a unit, arbitrated alike in one queue:

    - ``yield res.request()`` … ``res.release()`` — for a unit held
      across arbitrary yields (the host poller seat, the Elan DMA engine
      across a PCI transfer).  A granted request resolves one delta
      phase after it is made, never synchronously.
    - ``yield from res.hold(cost)`` — one processor task: acquire, work
      ``cost`` µs, release.  The process parks without an event; when
      the decision pass grants it, one detached call ``cost`` µs later
      releases the unit and resumes the process.  Same grant order and
      timing as request → sleep → release, two kernel events instead of
      three (one, granted express), and a hold cannot be interrupted.
    - ``res.call(key, cost, fn, *args)`` — the same task for a callback
      chain: when granted, one detached call ``cost`` µs later releases
      the unit and runs ``fn(*args)``.

    *Express grant.*  A hold or call with ``cost > 0`` made at delta
    phase 0 on a free single-unit resource with nothing pending is
    granted at once: only its completion is scheduled.  The pass would
    have decided the same, except against a rival the pass ranks first:
    one born at this instant and phase with a lower key.  Such a rival
    reverts the grant — the completion is voided and the entry goes back
    to the heap with its key and an arrival number ahead of everything
    pending, as its arrival was — and the pass decides as before.
    Rivals of equal key rank after the earlier arrival,
    rivals born at a later phase after every phase-0 entry, and no
    release can land in between, since ``cost > 0`` puts the unit's
    only release at a later instant.

    ``yield from res.spin(quantum, store)`` is the exact fast-forward of
    a loop of ``hold(quantum)`` tasks that each look at an empty
    ``store``: the unit stays held across back-to-back quanta with no
    event, until a post to ``store`` or a rival claim could change what
    a task sees; then one completion at the next quantum boundary ends
    it.  See :meth:`spin`.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: Optional[str] = None,
        key_fn=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = self.name + ".request"
        self._key_fn = key_fn
        self._keys: Optional[dict[str, Any]] = {} if key_fn is not None else None
        # What a process queued in a hold reports as ``waiting_on``: a
        # stand-in that never triggers and only names the wait, so the
        # quiescence auditor diagnoses a starved hold as it does a
        # starved request.  Made by the first queued hold: most
        # resources (every poller seat) never hold.
        self._hold_wait: Optional[SimEvent] = None
        self._in_use = 0
        # Heap of (birth_phase, key, n, waiter, cost, args); ``n``
        # separates entries with identical keys and keeps the comparison
        # off the waiter.  A request's waiter is its event and its cost
        # None; a hold's waiter is the parked process and its args None;
        # a call's waiter is its function.
        self._pending: list[tuple] = []
        self._n = 0
        self._pass_phase = -1  # armed pass's phase; -1 when unarmed
        # The express grant a same-instant rival may still revert, as
        # (instant, key, waiter, cost, args); None once completed.
        self._express: Optional[tuple] = None
        self._express_done = self._finish_express  # bound once: hot path
        # The process parked in spin(), as (process, key, entry time,
        # quantum, store); None when nobody spins.  Like an express
        # grant it found nothing pending, so a rival that turns it back
        # into a pending task queues it with arrival number 0.
        self._spinner: Optional[tuple] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    def _process_key(self, proc) -> Any:
        keys = self._keys
        if keys is None:
            return proc.name
        key = keys.get(proc.name)
        if key is None:
            key = keys[proc.name] = self._key_fn(proc.name)
        return key

    def _enqueue(self, waiter: Any, key: Any, cost, args) -> None:
        sim = self.sim
        birth = sim._phase
        if self._spinner is not None:
            self._rival_claims(birth)
        express = self._express
        if (
            express is not None
            and not birth
            and sim._now == express[0]
            and key < express[1]
        ):
            self._revert(express)
        self._n += 1
        heapq.heappush(self._pending, (birth, key, self._n, waiter, cost, args))
        self._ensure_pass(birth + 1)

    def _revert(self, express: tuple) -> None:
        # The pass would rank a same-instant rival first: undo the
        # express grant and queue its entry as it would have been.  The
        # completion already scheduled finds ``_express`` changed and
        # does nothing.  Arrival number 0 ranks the entry before every
        # pending one of equal key, as its own arrival did: the grant
        # found nothing pending, and no pass has run since.
        _, key, waiter, cost, args = express
        self._express = None
        self._in_use -= 1
        if args is None:  # a hold: its process waits for the pass
            waiter._waiting_on = self._queued_stand_in()
        heapq.heappush(self._pending, (0, key, 0, waiter, cost, args))

    def request(self, key: Any = None) -> SimEvent:
        if key is None:
            proc = self.sim.active_process
            if proc is None:
                raise RuntimeError(
                    f"{self.name}: request outside a process needs an "
                    "explicit arbitration key"
                )
            key = self._process_key(proc)
        ev = SimEvent(self.sim, name=self._req_name)
        self._enqueue(ev, key, None, None)
        return ev

    def hold(self, cost: float):
        """Occupy one unit for ``cost`` µs (``yield from`` a process).

        Queues in the same arbitration as :meth:`request`; no event, no
        cancellable timer.  Until the unit is released the process can
        be neither interrupted nor resumed by anyone but this resource.
        An uncontended hold is an express grant (see the class
        docstring).
        """
        if cost < 0:
            raise ValueError(f"{self.name}: negative hold time {cost!r}")
        sim = self.sim
        proc = sim._active_process
        if proc is None:
            raise RuntimeError(f"{self.name}: hold outside a process")
        key = self._process_key(proc)
        proc._parked_in = self
        if (
            not (self._in_use or self._pending or sim._phase)
            and cost > 0
            and self.capacity == 1
        ):
            self._in_use = 1
            self._express = express = (sim._now, key, proc, cost, None)
            sim.schedule_detached(cost, self._express_done, express)
        else:
            proc._waiting_on = self._queued_stand_in()
            self._enqueue(proc, key, cost, None)
        yield PARKED

    def call(self, key: Any, cost: float, fn, *args) -> None:
        """Occupy one unit for ``cost`` µs, then release it and run
        ``fn(*args)``.

        The callback form of :meth:`hold` for the NIC models' callback
        chains (Elan event unit → PCI DMA → host word): same arbitration
        under the explicit ``key``, same express grant, no process.
        """
        sim = self.sim
        if (
            not (self._in_use or self._pending or sim._phase)
            and cost > 0
            and self.capacity == 1
        ):
            self._in_use = 1
            self._express = express = (sim._now, key, fn, cost, args)
            sim.schedule_detached(cost, self._express_done, express)
            return
        if cost < 0:
            raise ValueError(f"{self.name}: negative call time {cost!r}")
        self._enqueue(fn, key, cost, args)

    def _queued_stand_in(self) -> SimEvent:
        wait = self._hold_wait
        if wait is None:
            wait = self._hold_wait = SimEvent(self.sim, name=self._req_name)
        return wait

    def _finish_express(self, express: tuple) -> None:
        if express is not self._express:
            return  # reverted: the pass granted the entry afresh
        self._express = None
        self._in_use = 0
        if self._pending:
            self._ensure_pass(1)  # a completion at a later instant: phase 0
        waiter, args = express[2], express[4]
        if args is None:
            waiter._parked_in = None
            waiter._step(None, None)
        else:
            waiter(*args)

    def _finish(self, waiter, args) -> None:
        self.release()
        if args is None:
            waiter._parked_in = None
            waiter._step(None, None)
        else:
            waiter(*args)

    def can_spin(self, quantum: float) -> bool:
        """Whether :meth:`spin` may park now: delta phase 0, a free
        single unit with nothing pending, and a quantum the clock can
        step by exactly (see :meth:`spin`)."""
        sim = self.sim
        now = sim.now
        return (
            not sim.current_phase
            and not self._in_use
            and not self._pending
            and self.capacity == 1
            and 0.0 < quantum <= now
            and now + quantum > now
        )

    def spin(self, quantum: float, store):
        """Hold the unit for back-to-back ``quantum``-µs tasks while
        ``store`` stays empty (``yield from`` a process, after
        :meth:`can_spin` and an idle ``store``); return how many tasks
        ran.

        Exactly ``hold(quantum)`` repeated while each task ends looking
        at an empty store, but parked once, with no event, until
        something could change what a task sees:

        - a post to ``store`` (a one-shot :meth:`Store.watch`), or
        - a rival claim on this resource.

        Either wakes it, and one completion is scheduled at the first
        quantum boundary ``t_k`` after the wake (at it, if the wake runs
        at delta phase 0): boundaries are ``t_k = t_(k-1) + quantum``
        from the entry instant, the float addition the kernel makes
        when a pass grants each task, and ``now + (t_k - now) == t_k``
        holds because a spin starts no earlier than ``quantum``.  A
        rival at the entry instant and phase would have been weighed
        against the first task by the pass, so it turns the spinner
        back into that pending task instead, with its key and its
        place in arrival order.  A spinner reports a ``<store>.post``
        stand-in as ``waiting_on`` and cannot be interrupted.
        """
        sim = self.sim
        proc = sim.active_process
        if proc is None:
            raise RuntimeError(f"{self.name}: spin outside a process")
        key = self._process_key(proc)
        self._in_use += 1
        self._spinner = (proc, key, sim.now, quantum, store)
        proc._parked_in = self
        proc._waiting_on = store.watch(self._wake_spinner)
        tasks = yield PARKED
        return 1 if tasks is None else tasks

    def _rival_claims(self, phase: int) -> None:
        proc, key, entered, quantum, store = self._spinner
        if phase or self.sim.now != entered:
            self._wake_spinner()
            return
        # Same instant and phase as the first task's request: pending,
        # it goes to the pass with the rival, as a hold would have.
        self._spinner = None
        store.unwatch()
        self._in_use -= 1
        proc._waiting_on = self._queued_stand_in()
        heapq.heappush(self._pending, (0, key, 0, proc, quantum, None))

    def _wake_spinner(self) -> None:
        proc, _, boundary, quantum, store = self._spinner
        self._spinner = None
        store.unwatch()
        sim = self.sim
        now = sim.now
        tasks = 1
        boundary += quantum
        if sim.current_phase:
            while boundary <= now:
                boundary += quantum
                tasks += 1
        else:
            while boundary < now:
                boundary += quantum
                tasks += 1
        delay = boundary - now
        if now + delay != boundary:
            raise RuntimeError(
                f"{self.name}: spin boundary {boundary!r} is not now + "
                f"{delay!r} (now {now!r})"
            )
        proc._waiting_on = None
        sim.schedule_detached(delay, self._finish_spin, proc, tasks)

    def _finish_spin(self, proc, tasks: int) -> None:
        self.release()
        proc._parked_in = None
        proc._step(tasks, None)

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        self._in_use -= 1
        if self._pending:
            self._ensure_pass(self.sim.current_phase + 1)

    def _ensure_pass(self, phase: int) -> None:
        # An armed pass always fires at the instant it was armed (see
        # LinkArbiter._ensure_pass), so the guard needs no time component.
        if self._pass_phase >= phase:
            return
        self._pass_phase = phase
        self.sim.schedule_phase(phase, self._pass, phase)

    def _pass(self, phase: int) -> None:
        self._pass_phase = -1
        pending = self._pending
        while pending and self._in_use < self.capacity and pending[0][0] < phase:
            _, _, _, waiter, cost, args = heapq.heappop(pending)
            self._in_use += 1
            if cost is None:
                waiter.succeed(self)
            else:
                if args is None:
                    waiter._waiting_on = None
                self.sim.schedule_detached(cost, self._finish, waiter, args)
        if pending and self._in_use < self.capacity:
            # Only same-phase births remain; decide them next phase so
            # no same-instant contender is missed.
            self._ensure_pass(phase + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArbitratedResource {self.name} {self._in_use}/{self.capacity}"
            f" pending={len(self._pending)}>"
        )


class Store:
    """Unbounded FIFO item store: an event-free hand-off to one
    consuming process (a NIC service loop, a host poller).

    - ``post(item)`` stores the item and schedules nothing.  A process
      parked in ``take`` gets it at once, resumed synchronously; from
      delta phase ≥ 1 the resume is one ``schedule_now`` instead, so
      the taker still runs (and its next request is born) at phase 0.
    - ``yield from take()`` returns a queued item with no event, or
      parks the process (:data:`~repro.sim.process.PARKED`) until a
      post.  A parked taker reports a ``<store>.get`` stand-in as
      ``waiting_on``, so the quiescence auditor sees a parked service
      loop, and it cannot be interrupted.  One taker at a time.  A
      post hands an item straight to a parked taker, so the store is
      empty whenever a taker waits.
    - ``try_get()`` returns a queued item or ``None``.

    ``watch(fn)`` arms one call of ``fn()`` at the end of the next
    post (the express spin's wake, :meth:`ArbitratedResource.spin`).
    """

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        self.sim = sim
        self.name = name or "store"
        self._items: deque[Any] = deque()
        self._taker = None  # the process parked in take(), if any
        # Its ``waiting_on`` stand-in: never triggers, only names the
        # wait.  Made by the first park.
        self._take_wait: Optional[SimEvent] = None
        self._watcher = None  # called once by the next post, if set
        self._watch_wait: Optional[SimEvent] = None  # as _take_wait

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    @property
    def idle(self) -> bool:
        """Empty, with no taker or watcher."""
        return not (
            self._items or self._taker is not None or self._watcher is not None
        )

    # -- storage policy hooks (overridden by PriorityStore) --------------
    def _do_put(self, item: Any) -> None:
        self._items.append(item)

    def _do_get(self) -> Any:
        return self._items.popleft()

    # -- operations ------------------------------------------------------
    def post(self, item: Any) -> None:
        """Store ``item`` without an event; hand it to a parked taker."""
        self._do_put(item)
        taker = self._taker
        if taker is not None:
            self._taker = None
            taker._waiting_on = None
            if self.sim.current_phase:
                self.sim.schedule_now(self._resume_taker, taker, self._do_get())
            else:
                self._resume_taker(taker, self._do_get())
        watcher = self._watcher
        if watcher is not None:
            self._watcher = None
            watcher()

    def watch(self, fn) -> SimEvent:
        """Call ``fn()`` once, at the end of the next :meth:`post`.

        Returns the ``<store>.post`` stand-in a process waiting for that
        post reports as ``waiting_on``.  One watcher at a time.
        """
        if self._watcher is not None:
            raise RuntimeError(f"{self.name}: a watcher is already armed")
        self._watcher = fn
        wait = self._watch_wait
        if wait is None:
            wait = self._watch_wait = SimEvent(
                self.sim, name=self.name + ".post"
            )
        return wait

    def unwatch(self) -> None:
        """Disarm the watcher, if any."""
        self._watcher = None

    def take(self):
        """Next item (``yield from`` a process): queued → no event,
        else park until a :meth:`post` hands one over."""
        if self._items:
            return self._do_get()
        proc = self.sim.active_process
        if proc is None:
            raise RuntimeError(f"{self.name}: take outside a process")
        if self._taker is not None:
            raise RuntimeError(
                f"{self.name}: {proc.name!r} cannot take while "
                f"{self._taker.name!r} is parked in take"
            )
        wait = self._take_wait
        if wait is None:
            wait = self._take_wait = SimEvent(self.sim, name=self.name + ".get")
        proc._parked_in = self
        proc._waiting_on = wait
        self._taker = proc
        return (yield PARKED)

    def _resume_taker(self, taker, item: Any) -> None:
        taker._parked_in = None
        taker._step(item, None)

    def try_get(self) -> Any:
        """Non-blocking take: the next item, or ``None`` when empty."""
        if not self._items:
            return None
        return self._do_get()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} items={len(self._items)}>"


class PriorityStore(Store):
    """A store whose ``take`` returns the lowest-priority item first.

    Items are posted as ``post((priority, item))`` or via
    :meth:`post_item`; ``take``/``try_get`` return the bare item.  Ties
    are FIFO.
    """

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        super().__init__(sim, name)
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._items = self._heap  # len()/bool checks reuse Store's logic

    def post_item(self, item: Any, priority: float = 0.0) -> None:
        self.post((priority, item))

    def _do_put(self, pair: Any) -> None:
        priority, item = pair
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))

    def _do_get(self) -> Any:
        return heapq.heappop(self._heap)[2]

    @property
    def items(self) -> tuple:
        return tuple(item for _, _, item in sorted(self._heap))
