"""Synchronization primitives: resources and item stores.

- :class:`Resource` — counted semaphore with a FIFO wait queue.  Models
  serialized hardware: a PCI bus, a DMA engine, a switch output port.
- :class:`ArbitratedResource` — counted semaphore whose same-instant
  grants are *arbitrated* one delta phase later in canonical key order,
  not first-come-first-served on the event heap.  Models serialized
  hardware with a defined service priority among concurrent clients —
  the LANai processor polled by five control-program loops.  Its
  :meth:`~ArbitratedResource.hold` runs a whole acquire → work →
  release task as one pass plus one completion call, and a hold by the
  ``top_key`` client, which no same-instant request can beat, skips
  the pass when nothing contends: one completion call.  Its
  :meth:`~ArbitratedResource.spin` is a run of back-to-back tasks that
  parks once and is costed at the one task whose outcome can differ.
- :class:`Store` — FIFO item queue with blocking ``get`` (and blocking
  ``put`` when capacity-bounded).  Models token queues, event queues and
  packet FIFOs.  ``post``/``take`` is its event-free hand-off to one
  consuming process: a post hands the item straight to a parked taker,
  and a take of a queued item returns it at once.  ``watch`` arms a
  one-shot call on the next post.
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


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        ... critical section ...
        resource.release()

    A pending (ungranted) request can be cancelled with
    :meth:`cancel_request`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = self.name + ".request"
        self._in_use = 0
        self._waiters: deque[SimEvent] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> SimEvent:
        ev = SimEvent(self.sim, name=self._req_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Claim a unit synchronously if one is free (no event, no wait).

        The Elan event and DMA units and the PCI bus use this to skip the
        request event when uncontended; pair every successful call with
        :meth:`release`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def cancel_request(self, ev: SimEvent) -> bool:
        """Withdraw a still-queued request.  Returns True if it was queued."""
        try:
            self._waiters.remove(ev)
            return True
        except ValueError:
            return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed(self)  # usage count carries over to the waiter
        else:
            self._in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity}"
            f" queued={len(self._waiters)}>"
        )


class ArbitratedResource:
    """A counted resource with deterministic same-instant arbitration.

    :class:`Resource` grants in request order — which, for requests made
    at the same timestamp by different processes, is event-heap pop
    order: a schedule race (simlint SL101) when the grant order affects
    anything observable.  Here every request pools up and a decision
    pass runs one delta phase later (zero simulated time), granting free
    units in ``(birth phase, key)`` order — the same scheme the fabric's
    :class:`~repro.network.fabric.LinkArbiter` uses for link bandwidth.

    ``key_fn`` maps the requesting process's name to an orderable key
    (default: the name itself); it defines the hardware's service
    priority among same-instant contenders.  It is called once per
    process name and memoized.  Requests made outside any process must
    pass an explicit ``key``.

    Two ways to use a unit, arbitrated alike in one queue:

    - ``yield res.request()`` … ``res.release()`` — the interface of
      :class:`Resource` (``request``/``release``/``cancel_request``/
      ``in_use``), for a unit held across arbitrary yields (the host
      poller seat).  A granted request resolves one delta phase after
      it is made, never synchronously.
    - ``yield from res.hold(cost)`` — one processor task: acquire, work
      ``cost`` µs, release.  The process parks without an event; when
      the decision pass grants it, one detached call ``cost`` µs later
      releases the unit and resumes the process.  Same grant order and
      timing as request → sleep → release, two kernel events instead of
      three, and a hold cannot be cancelled or interrupted.

    ``top_key`` names the key no same-instant request can beat: the
    resource raises if any other process name's key, or any explicit
    request key, sorts at or below it.  A hold with that key made at
    delta phase 0, with the unit free and nothing pending, is granted at
    once: only its completion is scheduled.  That is exactly what the
    pass would have decided, since every request it could weigh against
    the hold is born at this instant and sorts after it.  Only a
    single-unit resource takes a top key: with more units the early
    grant could land before a same-instant release of another unit,
    which the pass would have seen first.

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
        top_key: Any = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if top_key is not None and capacity != 1:
            raise ValueError(f"a top key needs capacity 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = self.name + ".request"
        self._key_fn = key_fn
        self._top_key = top_key
        self._top_name: Optional[str] = None  # the process holding top_key
        self._keys: Optional[dict[str, Any]] = (
            {} if key_fn is not None or top_key is not None else None
        )
        # What a process queued in a hold reports as ``waiting_on``: a
        # stand-in that never triggers and only names the wait, so the
        # quiescence auditor diagnoses a starved hold as it does a
        # starved request.  Made by the first hold: most resources
        # (every poller seat) never hold.
        self._hold_wait: Optional[SimEvent] = None
        self._in_use = 0
        # Heap of [birth_phase, key, n, waiter, cost]; ``n`` separates
        # requests with identical keys and keeps the comparison off the
        # waiter.  A request's waiter is its event and its cost None; a
        # hold's waiter is the parked process.  Entries are lists so a
        # withdrawn request is cancelled in place (waiter slot set to
        # None) in O(1) — the same lazy-cancellation scheme as the event
        # kernel's calendar queue.
        self._pending: list[list] = []
        self._entry_of: dict[SimEvent, list] = {}
        self._abandoned = 0
        self._n = 0
        self._pass_phase = -1  # armed pass's phase; -1 when unarmed
        # The process parked in spin(), as (process, key, n, entry time,
        # quantum, store); None when nobody spins.
        self._spinner: Optional[tuple] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._pending) - self._abandoned

    def _process_key(self, proc) -> Any:
        keys = self._keys
        if keys is None:
            return proc.name
        key = keys.get(proc.name)
        if key is None:
            name = proc.name
            key = self._key_fn(name) if self._key_fn is not None else name
            top = self._top_key
            if top is not None and key <= top:
                if key != top or self._top_name is not None:
                    self._below_top(f"process {name!r}", key)
                self._top_name = name
            keys[name] = key
        return key

    def _below_top(self, who: str, key: Any) -> None:
        raise ValueError(
            f"{self.name}: {who} has key {key!r}, which does not sort "
            f"after the top key {self._top_key!r}"
        )

    def _enqueue(self, waiter: Any, key: Any, cost: Optional[float]) -> list:
        birth = self.sim.current_phase
        if self._spinner is not None:
            self._rival_claims(birth)
        self._n += 1
        entry = [birth, key, self._n, waiter, cost]
        heapq.heappush(self._pending, entry)
        self._ensure_pass(birth + 1)
        return entry

    def request(self, key: Any = None) -> SimEvent:
        if key is None:
            proc = self.sim.active_process
            if proc is None:
                raise RuntimeError(
                    f"{self.name}: request outside a process needs an "
                    "explicit arbitration key"
                )
            key = self._process_key(proc)
        elif self._top_key is not None and key <= self._top_key:
            self._below_top("an explicit request", key)
        ev = SimEvent(self.sim, name=self._req_name)
        self._entry_of[ev] = self._enqueue(ev, key, None)
        return ev

    def hold(self, cost: float):
        """Occupy one unit for ``cost`` µs (``yield from`` a process).

        Queues in the same arbitration as :meth:`request`; no event, no
        cancellable timer.  Until the unit is released the process can
        be neither interrupted nor resumed by anyone but this resource.
        The ``top_key`` holder is granted without a pass when nothing
        contends (see the class docstring).
        """
        if cost < 0:
            raise ValueError(f"{self.name}: negative hold time {cost!r}")
        sim = self.sim
        proc = sim.active_process
        if proc is None:
            raise RuntimeError(f"{self.name}: hold outside a process")
        key = self._process_key(proc)
        proc._parked_in = self
        if (
            key == self._top_key
            and not self._pending
            and not self._in_use
            and not sim.current_phase
        ):
            self._in_use += 1
            sim.schedule_detached(cost, self._finish_hold, proc)
            yield PARKED
            return
        proc._waiting_on = self._queued_stand_in()
        self._enqueue(proc, key, cost)
        yield PARKED

    def _queued_stand_in(self) -> SimEvent:
        wait = self._hold_wait
        if wait is None:
            wait = self._hold_wait = SimEvent(self.sim, name=self._req_name)
        return wait

    def _finish_hold(self, proc) -> None:
        self.release()
        proc._parked_in = None
        proc._step(None, None)

    def can_spin(self, quantum: float) -> bool:
        """Whether :meth:`spin` may park now: delta phase 0, a free
        single unit with nothing pending and no top key, and a quantum
        the clock can step by exactly (see :meth:`spin`)."""
        sim = self.sim
        now = sim.now
        return (
            not sim.current_phase
            and not self._in_use
            and not self._pending
            and self._top_key is None
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
        self._n += 1
        self._in_use += 1
        self._spinner = (proc, key, self._n, sim.now, quantum, store)
        proc._parked_in = self
        proc._waiting_on = store.watch(self._wake_spinner)
        tasks = yield PARKED
        return 1 if tasks is None else tasks

    def _rival_claims(self, phase: int) -> None:
        proc, key, n, entered, quantum, store = self._spinner
        if phase or self.sim.now != entered:
            self._wake_spinner()
            return
        # Same instant and phase as the first task's request: pending,
        # it goes to the pass with the rival, as a hold would have.
        self._spinner = None
        store.unwatch()
        self._in_use -= 1
        proc._waiting_on = self._queued_stand_in()
        heapq.heappush(self._pending, [0, key, n, proc, quantum])

    def _wake_spinner(self) -> None:
        proc, _, _, boundary, quantum, store = self._spinner
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

    def cancel_request(self, ev: SimEvent) -> bool:
        """Withdraw a still-pending request.  Returns True if it was
        pending (a cancelled entry is skipped by the decision pass)."""
        entry = self._entry_of.pop(ev, None)
        if entry is None or ev.triggered:
            return False
        entry[3] = None
        self._abandoned += 1
        return True

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
        while pending:
            if pending[0][3] is None:  # cancelled in place: reap lazily
                heapq.heappop(pending)
                self._abandoned -= 1
                continue
            if not (self._in_use < self.capacity and pending[0][0] < phase):
                break
            _, _, _, waiter, cost = heapq.heappop(pending)
            self._in_use += 1
            if cost is None:
                del self._entry_of[waiter]
                waiter.succeed(self)
            else:
                waiter._waiting_on = None
                self.sim.schedule_detached(cost, self._finish_hold, waiter)
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
    """FIFO item store with blocking get/put semantics.

    ``put`` returns an event that succeeds once the item is accepted
    (immediately unless the store is at capacity).  ``get`` returns an
    event that succeeds with the item.

    ``post``/``take`` is the event-free hand-off for a store with one
    consuming process (a NIC service loop):

    - ``post(item)`` stores the item and schedules nothing.  A process
      parked in ``take`` gets it at once, resumed synchronously; from
      delta phase ≥ 1 the resume is one ``schedule_now`` instead, so
      the taker still runs (and its next request is born) at phase 0,
      as after a ``get`` event.  A ``get`` waiter is served as by
      ``put``, one event fewer: no put event, which nothing waited on.
    - ``yield from take()`` returns a queued item with no event, or
      parks the process (:data:`~repro.sim.process.PARKED`) until a
      post.  A parked taker reports a ``<store>.get`` stand-in as
      ``waiting_on``, so the quiescence auditor sees a parked service
      loop, and it cannot be interrupted.  One taker at a time, and
      never alongside ``get`` waiters.

    ``watch(fn)`` arms one call of ``fn()`` at the end of the next
    post (the express spin's wake, :meth:`ArbitratedResource.spin`).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._put_name = self.name + ".put"
        self._get_name = self.name + ".get"
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()
        self._putters: deque[tuple[SimEvent, Any]] = deque()
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
    def getters_waiting(self) -> int:
        return len(self._getters)

    @property
    def idle(self) -> bool:
        """Empty, with no getter, taker or watcher."""
        return not (
            self._items or self._getters or self._taker is not None
            or self._watcher is not None
        )

    # -- storage policy hooks (overridden by PriorityStore) --------------
    def _do_put(self, item: Any) -> None:
        self._items.append(item)

    def _do_get(self) -> Any:
        return self._items.popleft()

    # -- operations ------------------------------------------------------
    def put(self, item: Any) -> SimEvent:
        ev = SimEvent(self.sim, name=self._put_name)
        if len(self._items) < self.capacity:
            ev.succeed(item)
            self.post(item)
        else:
            self._putters.append((ev, item))
        return ev

    def post(self, item: Any) -> None:
        """Store ``item`` without an event; hand it to a parked taker."""
        if len(self._items) >= self.capacity:
            raise RuntimeError(f"{self.name}: post to a full store")
        self._do_put(item)
        taker = self._taker
        if taker is not None:
            self._taker = None
            taker._waiting_on = None
            if self.sim.current_phase:
                self.sim.schedule_now(self._resume_taker, taker, self._do_get())
            else:
                self._resume_taker(taker, self._do_get())
        elif self._getters:
            self._serve_getters()
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
        if self._getters:
            raise RuntimeError(f"{self.name}: take while getters are waiting")
        if self._items:
            item = self._do_get()
            if self._putters:
                self._admit_putters()
            return item
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
            wait = self._take_wait = SimEvent(self.sim, name=self._get_name)
        proc._parked_in = self
        proc._waiting_on = wait
        self._taker = proc
        return (yield PARKED)

    def _resume_taker(self, taker, item: Any) -> None:
        taker._parked_in = None
        taker._step(item, None)

    def get(self) -> SimEvent:
        if self._taker is not None:
            raise RuntimeError(
                f"{self.name}: get while {self._taker.name!r} is parked in take"
            )
        ev = SimEvent(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._do_get())
            self._admit_putters()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns the item or ``None`` when empty.

        Only safe when no getter is queued (NIC poll loops use this on
        queues they exclusively consume).
        """
        if self._getters:
            raise RuntimeError(f"{self.name}: try_get while getters are waiting")
        if not self._items:
            return None
        item = self._do_get()
        self._admit_putters()
        return item

    def cancel_get(self, ev: SimEvent) -> bool:
        try:
            self._getters.remove(ev)
            return True
        except ValueError:
            return False

    # -- internals ---------------------------------------------------------
    def _serve_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._do_get())

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            ev, item = self._putters.popleft()
            self._do_put(item)
            ev.succeed(item)
            self._serve_getters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} items={len(self._items)}>"


class PriorityStore(Store):
    """A store whose ``get`` returns the lowest-priority item first.

    Items are pushed as ``put((priority, item))`` or via
    :meth:`post_item`; ``get``/``take`` yield the bare item.  Ties are
    FIFO.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ):
        super().__init__(sim, capacity, name)
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
