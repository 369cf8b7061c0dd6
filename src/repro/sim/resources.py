"""Synchronization primitives: the arbitrated resource and item stores.

- :class:`ArbitratedResource` — counted semaphore whose same-instant
  grants are *arbitrated* one delta phase later in canonical key order,
  not first-come-first-served on the event heap.  Every serialized unit
  of the model is one: the LANai processor polled by five
  control-program loops, the host CPU, the host's poller seats, the PCI
  bus, the Elan3 event unit, DMA engine and thread processor, and each
  directional link of the fabric.  Clients use a unit in one of four
  ways, arbitrated alike in one queue: ``request``/``release`` around
  arbitrary yields, a process's :meth:`~ArbitratedResource.hold`
  (acquire → work → release as one pass plus one completion call), a
  callback's :meth:`~ArbitratedResource.call` (the same task ending in
  a function call instead of a resume), or a fabric worm's chain of
  link claims.  A hold or call on a free single unit with
  nothing pending is an *express grant*: only its completion is
  scheduled, and a same-instant rival the pass would have preferred
  reverts it.  :meth:`~ArbitratedResource.spin` is a run of
  back-to-back tasks that parks once and is costed at the one task
  whose outcome can differ.
- :class:`ArbitrationDomain` — runs the passes its resources need at
  one instant and delta phase under one kernel event; the fabric's
  links share one.
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

from heapq import heappop, heappush
from typing import Any, Optional

from repro.sim.engine import Simulator
from repro.sim.events import SimEvent
from repro.sim.process import PARKED


class ArbitrationDomain:
    """One kernel event per (instant, delta phase) for a set of arbiters.

    Every :class:`ArbitratedResource` of a domain that needs a phase-``p``
    pass at the current instant is queued under ``p``, and a single
    :meth:`Simulator.schedule_phase` event runs all their passes.  The
    fabric's links share one domain: one event per link decision was a
    third of all kernel traffic at 4096+ nodes.  Order within a pooled
    link pass is observationally irrelevant: a phase-``p`` pass only
    grants claims born in earlier phases, any claim a grant causes is
    born in phase ``p`` or later (``p + skip`` past an elided climb) and
    so decided at ``p+1`` at the earliest whichever link ran first, and
    releases only arrive from timed (phase-0) events — no link's
    decision can observe another's position in the list.  Every other
    resource has a domain of its own, so its pass is its own event:
    pooled with the links, a processor grant's follow-ups would
    interleave differently with the link grants of the same pass, and
    that order is proven irrelevant only for link decisions (DESIGN
    §12).  The queues never leak across instants because every
    scheduled call at a timestamp drains before the clock advances.
    """

    __slots__ = ("sim", "_queues")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._queues: dict[int, list] = {}

    def _run(self, phase: int) -> None:
        for arbiter in self._queues.pop(phase):
            arbiter._pass(phase)


def _drain_worm(worm: list) -> None:
    """The tail of a fabric worm that holds every link of its route:
    free the path, then hand the packet over (``fn(packet)``)."""
    for link in worm[1]:
        link.release()
    worm[5](worm[0])


class ArbitratedResource:
    """A counted resource with deterministic same-instant arbitration.

    Granting in request order would make the winner among requests made
    at the same timestamp by different clients the event-heap pop order:
    a schedule race (simlint SL101) when the grant order affects
    anything observable.  Here every request pools up and a decision
    pass runs one delta phase later (zero simulated time), granting free
    units in ``(birth phase, key, n)`` order, ``n`` being the arrival
    number.  Every serialized unit of the model is one: the processors,
    the PCI bus, the poller seats and each directional link of the
    fabric.

    *Arming.*  A pass is armed only while a unit is free, at
    ``max(current phase, head birth) + 1``, the first phase that can
    grant the head.  A claim on a full unit arms nothing (the release
    that frees a unit does), and a head left over from an earlier
    instant is decided at its birth phase + 1, with no pass at each
    phase up to it.  Arming an earlier pass supersedes a later one,
    which returns at once.  The grants and their phases are those of a
    pass at every phase.  Passes run through an
    :class:`ArbitrationDomain`: the fabric passes its one shared domain
    to every link, and every other resource makes its own.

    ``key_fn`` maps the requesting process's name to an orderable key
    (default: the name itself); it defines the hardware's service
    priority among same-instant contenders.  It is called once per
    process name and memoized.  Requests made outside any process must
    pass an explicit ``key``, and a :meth:`call` always does.

    Four kinds of claim, arbitrated alike in one queue:

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
    - A fabric worm, pushed with no waiter and its traversal record
      ``[packet, links, latency, idx, skip, fn]`` (see
      :meth:`~repro.network.fabric.Fabric.transmit`): the pass that
      grants one link pushes the claim on the next, and once the worm
      holds every link one detached call ``latency`` µs later releases
      them all and runs ``fn(packet)``.

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

    __slots__ = (
        "sim", "capacity", "name", "_domain", "_key_fn", "_keys",
        "_hold_wait", "_in_use", "_pending", "_n",
        "_pass_phase", "_express", "_spinner", "_spin_end",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: Optional[str] = None,
        key_fn=None,
        domain: Optional[ArbitrationDomain] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._domain = ArbitrationDomain(sim) if domain is None else domain
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
        # a call's waiter is its function; a worm's waiter and cost are
        # None and its args are its traversal record.
        self._pending: list[tuple] = []
        self._n = 0
        # Phase of the live armed pass; -1 when unarmed.  An armed pass
        # always runs at the instant it was armed (the domain's event
        # lands at the current timestamp, and every same-time call
        # drains before time advances), so it needs no time component.
        self._pass_phase = -1
        # The express grant a same-instant rival may still revert, as
        # (instant, key, waiter, cost, args); None once completed.
        self._express: Optional[tuple] = None
        # The process parked in spin(), as (process, key, entry time,
        # quantum, store); None when nobody spins.
        self._spinner: Optional[tuple] = None
        # The completion a post scheduled on the boundary it landed on,
        # as (process, tasks); None once it ran.
        self._spin_end: Optional[tuple] = None

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
        if self._spin_end is not None:
            # A rival at the boundary a post woke the spinner on: the
            # completion due here runs first, as a parked spin's does.
            self._end_spin(self._spin_end)
        # A spin the rival finishes on the spot may park again.
        while self._spinner is not None:
            self._rival_claims(birth)
        express = self._express
        if (
            express is not None
            and not birth
            and sim.now == express[0]
            and key < express[1]
        ):
            self._revert(express)
        self._push(birth, key, waiter, cost, args)

    def _push(self, birth: int, key: Any, waiter: Any, cost, args) -> None:
        self._n += 1
        heappush(self._pending, (birth, key, self._n, waiter, cost, args))
        if self._in_use < self.capacity:
            # ``_arm(birth + 1)``, inlined: this is the hottest
            # arbitration call (one per link per packet).
            phase = birth + 1
            armed = self._pass_phase
            if armed < 0 or armed > phase:
                self._pass_phase = phase
                domain = self._domain
                queue = domain._queues.get(phase)
                if queue is None:
                    domain._queues[phase] = [self]
                    self.sim.schedule_phase(phase, domain._run, phase)
                else:
                    queue.append(self)

    def _arm(self, phase: int) -> None:
        # A live pass at this phase or earlier decides first and re-arms
        # for whatever it leaves; otherwise arm one, superseding a later
        # pass.
        armed = self._pass_phase
        if 0 <= armed <= phase:
            return
        self._pass_phase = phase
        domain = self._domain
        queue = domain._queues.get(phase)
        if queue is None:
            domain._queues[phase] = [self]
            self.sim.schedule_phase(phase, domain._run, phase)
        else:
            queue.append(self)

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
        heappush(self._pending, (0, key, 0, waiter, cost, args))

    def request(self, key: Any = None) -> SimEvent:
        if key is None:
            proc = self.sim.active_process
            if proc is None:
                raise RuntimeError(
                    f"{self.name}: request outside a process needs an "
                    "explicit arbitration key"
                )
            key = self._process_key(proc)
        ev = SimEvent(self.sim, name=self.name + ".request")
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
            self._express = express = (sim.now, key, proc, cost, None)
            sim.schedule_detached(cost, self._finish_express, express)
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
            self._express = express = (sim.now, key, fn, cost, args)
            sim.schedule_detached(cost, self._finish_express, express)
            return
        if cost < 0:
            raise ValueError(f"{self.name}: negative call time {cost!r}")
        self._enqueue(fn, key, cost, args)

    def _queued_stand_in(self) -> SimEvent:
        wait = self._hold_wait
        if wait is None:
            wait = self._hold_wait = SimEvent(self.sim, name=self.name + ".request")
        return wait

    def _finish_express(self, express: tuple) -> None:
        if express is not self._express:
            return  # reverted: the pass granted the entry afresh
        self._express = None
        self._in_use = 0
        if self._pending:
            # A completion at a later instant runs at phase 0.
            self._arm(self._pending[0][0] + 1)
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
        rival claim at phase 0 exactly on a boundary finishes the spin
        on the spot instead, as if the task ending there completed
        first; so does one that comes after a post on that boundary
        woke the spin, before the completion it scheduled.  A rival at
        the entry instant and phase would have met the first task as an
        express grant, so it turns the spin into that grant, which it
        reverts if its key is lower.  A spinner reports a
        ``<store>.post`` stand-in as ``waiting_on`` and cannot be
        interrupted.
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
        sim = self.sim
        if phase or sim.now != entered:
            self._wake_spinner(rival=True)
            return
        # Same instant and phase as the first task's claim, which found
        # the unit free with nothing pending: it becomes that express
        # grant.
        self._spinner = None
        store.unwatch()
        proc._waiting_on = None
        self._express = express = (entered, key, proc, quantum, None)
        sim.schedule_detached(quantum, self._finish_express, express)

    def _wake_spinner(self, rival: bool = False) -> None:
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
        if delay:
            sim.schedule_detached(delay, self._finish_spin, proc, tasks)
        elif rival:
            # A phase-0 rival on a boundary: the task ending here
            # completes before the rival claims, one of the two orders
            # the loop's completion and the claim may take.
            self._finish_spin(proc, tasks)
        else:
            # A post stays scheduled: two posts on one boundary must
            # both land before the sweep.  A rival claiming first runs
            # it on the spot (see ``_enqueue``).
            self._spin_end = end = (proc, tasks)
            sim.schedule_detached(0.0, self._end_spin, end)

    def _end_spin(self, end: tuple) -> None:
        if end is self._spin_end:  # else a rival already ran it
            self._spin_end = None
            self._finish_spin(*end)

    def _finish_spin(self, proc, tasks: int) -> None:
        self.release()
        proc._parked_in = None
        proc._step(tasks, None)

    def release(self) -> None:
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        self._in_use = in_use - 1
        pending = self._pending
        if pending:
            self._arm(max(self.sim._phase, pending[0][0]) + 1)

    def _pass(self, phase: int) -> None:
        if phase != self._pass_phase:
            return  # superseded by an earlier pass
        self._pass_phase = -1
        pending = self._pending
        capacity = self.capacity
        # ``in_use`` can be cached across the loop: no grant releases a
        # unit synchronously (a granted request's event and every
        # completion are scheduled; a granted worm claims other links).
        in_use = self._in_use
        while in_use < capacity and pending and pending[0][0] < phase:
            _, key, _, waiter, cost, args = heappop(pending)
            in_use += 1
            self._in_use = in_use
            if waiter is None:
                # A fabric worm: claim its next link or, holding them
                # all, let it drain.  Past an elided route's injection
                # hop the claim is born ``skip`` phases on: the phase at
                # which it would reach that link after crossing the free
                # up-edges one phase each.
                links = args[1]
                idx = args[3] + 1
                if idx == len(links):
                    self.sim.schedule_detached(args[2], _drain_worm, args)
                else:
                    args[3] = idx
                    links[idx]._push(
                        phase + args[4] if idx == 1 else phase, key,
                        None, None, args,
                    )
            elif cost is None:
                waiter.succeed(self)
            else:
                if args is None:
                    waiter._waiting_on = None
                self.sim.schedule_detached(cost, self._finish, waiter, args)
        if pending and in_use < capacity:
            self._arm(max(phase, pending[0][0]) + 1)

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

    The FIFO is a plain list: every store of the model holds a handful
    of items at most, where ``pop(0)`` costs nothing, and an idle
    ``deque`` is ten times the size of an idle list — thousands of
    stores (eight per LANai) sit idle most of a run.
    """

    __slots__ = (
        "sim", "name", "_items", "_taker", "_take_wait", "_watcher",
        "_watch_wait",
    )

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        self.sim = sim
        self.name = name or "store"
        self._items: list[Any] = []
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
        return self._items.pop(0)

    @staticmethod
    def _bare(item: Any) -> Any:
        """What a take returns for the posted ``item``."""
        return item

    # -- operations ------------------------------------------------------
    def post(self, item: Any) -> None:
        """Store ``item`` without an event; hand it to a parked taker.

        A parked taker means an empty store, so the item goes to it
        straight, never through the storage.
        """
        taker = self._taker
        if taker is None:
            self._do_put(item)
        else:
            self._taker = None
            taker._waiting_on = None
            sim = self.sim
            if sim._phase:
                sim.schedule_now(self._resume_taker, taker, self._bare(item))
            else:
                self._resume_taker(taker, self._bare(item))
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
    are FIFO.  The storage list is a heap of ``(priority, seq, item)``.
    """

    __slots__ = ("_seq",)

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        super().__init__(sim, name)
        self._seq = 0

    def post_item(self, item: Any, priority: float = 0.0) -> None:
        self.post((priority, item))

    def _do_put(self, pair: Any) -> None:
        priority, item = pair
        self._seq += 1
        heappush(self._items, (priority, self._seq, item))

    def _do_get(self) -> Any:
        return heappop(self._items)[2]

    @staticmethod
    def _bare(pair: Any) -> Any:
        return pair[1]

    @property
    def items(self) -> tuple:
        return tuple(item for _, _, item in sorted(self._items))
