"""Generator-based cooperative processes.

A process is a Python generator driven by the simulator.  It may yield:

- a ``float``/``int`` — sleep that many microseconds;
- a :class:`~repro.sim.events.SimEvent` — wait for it (the event's value
  is sent back into the generator; a failed event is *thrown* in);
- another :class:`Process` — join it (waits on its ``completion`` event);
- :data:`PARKED` — only from inside a primitive that has taken over the
  resume (:meth:`~repro.sim.resources.ArbitratedResource.hold`,
  :meth:`~repro.sim.resources.ArbitratedResource.spin`,
  :meth:`~repro.sim.resources.Store.take`): the process waits,
  unscheduled, until that primitive resumes it.

The NIC control programs, host programs, DMA engines and switches in this
reproduction are all written as processes.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator, Optional

from repro.sim.engine import Simulator
from repro.sim.events import SimEvent, Timeout


#: Yielded by a primitive that parks the process and resumes it itself.
PARKED = object()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries caller-supplied context (e.g. "link went down").
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running simulation process.

    Attributes
    ----------
    completion:
        Event that succeeds with the generator's return value, or fails
        with its exception.  Yield the process (or this event) to join.
    """

    __slots__ = (
        "sim", "name", "_gen", "completion", "_waiting_on", "_resume_handle",
        "_parked_in", "_step_cb", "_wake_cb", "__weakref__",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: Optional[str] = None):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process needs a generator, got {gen!r}")
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.completion = SimEvent(sim, name=f"{self.name}.completion")
        self._waiting_on: Optional[SimEvent] = None
        # The resource or store whose hold/take owns this process's
        # resume, if any.
        self._parked_in = None
        # Every resume and every event wait passes one of these two
        # bound methods to the scheduler; binding them once here turns
        # millions of per-yield bound-method allocations into attribute
        # loads.
        self._step_cb = self._step
        self._wake_cb = self._on_event
        self._resume_handle = sim.schedule(0.0, self._step_cb, None, None)
        registry = sim._process_registry
        if registry is not None:
            registry.append(weakref.ref(self))

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.completion.triggered

    @property
    def waiting_on(self) -> Optional[SimEvent]:
        """The event this process is currently blocked on (None when it
        is scheduled to resume, e.g. mid-sleep, or finished).

        A process queued in a hold reports a stand-in named
        ``<resource>.request``, as if it waited on a request; once the
        hold is granted it is mid-sleep (None).  A process parked in a
        store's ``take`` reports a ``<store>.get`` stand-in, and one
        parked in a resource's ``spin`` a ``<store>.post`` stand-in.
        """
        return self._waiting_on

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op (it can no longer
        observe anything).  The event it was waiting on keeps running;
        the process may re-wait on it after handling the interrupt.

        A process parked in a hold (queued or granted), a spin or a
        store's ``take`` cannot be interrupted: the primitive owns its resume
        (and a hold the unit), so an interrupt would leak the unit or
        the handed-over item and resume the process twice.  That raises
        :class:`RuntimeError`.
        """
        if not self.alive:
            return
        if self._parked_in is not None:
            raise RuntimeError(
                f"cannot interrupt process {self.name!r}: it is parked in "
                f"{self._parked_in.name!r}"
            )
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._wake_cb)
            self._waiting_on = None
        if self._resume_handle is not None:
            self._resume_handle.cancel()
        self._resume_handle = self.sim.schedule(
            0.0, self._step_cb, None, Interrupt(cause)
        )

    # ------------------------------------------------------------------
    def _on_event(self, ev: SimEvent) -> None:
        self._waiting_on = None
        if ev.ok:
            self._step(ev.value, None)
        else:
            ev.defuse()
            self._step(None, ev.value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        self._resume_handle = None
        # Event callbacks can run another process's _step synchronously
        # (e.g. a succeed() inside this generator), so the active-process
        # marker nests: save, set, restore on every exit.
        sim = self.sim
        prev_active = sim._active_process
        sim._active_process = self
        try:
            self._drive(value, exc)
        finally:
            sim._active_process = prev_active

    def _drive(self, value: Any, exc: Optional[BaseException]) -> None:
        while True:
            try:
                if exc is not None:
                    target = self._gen.throw(exc)
                else:
                    target = self._gen.send(value)
            except StopIteration as stop:
                self.completion.succeed(stop.value)
                return
            except BaseException as err:
                self.completion.fail(err)
                return

            if target is PARKED:
                return
            value, exc = None, None
            cls = type(target)
            if cls is float or cls is int:
                # Fast path for the dominant yield: a plain sleep.
                # Scheduling the generator resume directly skips the
                # Timeout event, its callback registration, and the
                # extra event-processing hop — same resume time, same
                # FIFO position (one scheduled call either way).
                if target < 0:
                    # Thrown into the generator (like a bad yield), so
                    # the error fails ``completion`` instead of escaping
                    # into the run loop.
                    exc = ValueError(f"negative timeout {target!r}")
                    continue
                self._resume_handle = self.sim.schedule(
                    target, self._step_cb, None, None
                )
                return
            if isinstance(target, (int, float)):
                # Numeric subclasses (e.g. numpy scalars, bool) take the
                # generic event path.
                if target < 0:
                    exc = ValueError(f"negative timeout {target!r}")
                    continue
                target = Timeout(self.sim, float(target))
            elif isinstance(target, Process):
                target = target.completion
            if not isinstance(target, SimEvent):
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; expected an "
                    "event, a delay, or a process"
                )
                continue
            if target.processed:
                # Already resolved: consume its value/failure immediately
                # (stay inside this while-loop; no extra scheduler hop).
                if target.ok:
                    value = target.value
                else:
                    target.defuse()
                    exc = target.value
                continue
            self._waiting_on = target
            target.add_callback(self._wake_cb)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"
