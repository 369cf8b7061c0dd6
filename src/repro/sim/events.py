"""One-shot triggerable events.

A :class:`SimEvent` goes through three states::

    PENDING --succeed()/fail()--> TRIGGERED --(event loop)--> PROCESSED

Triggering schedules the event's callback pass at the *current* simulation
time, so causality between same-time events follows scheduling order.
Callbacks attached after processing fire on the next scheduler tick at the
current time (never synchronously), which keeps process resumption order
deterministic.

Hot-path layout: the overwhelmingly common case is an event with exactly
one waiter (a process blocked on it, or a fabric delivery callback), so
the first callback lives in an inline slot (``_cb1``) and the overflow
list is only allocated for the second and later callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed()/fail() is called on a non-pending event."""


class SimEvent:
    """A one-shot event carrying a value or an exception.

    Processes wait on events by ``yield``-ing them; plain callbacks can be
    attached with :meth:`add_callback`.
    """

    __slots__ = ("sim", "name", "_state", "_ok", "_value", "_cb1", "_callbacks", "_defused")

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._cb1: Optional[Callable[["SimEvent"], None]] = None
        self._callbacks: Optional[list[Callable[["SimEvent"], None]]] = None
        self._defused = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value, or the exception if the event failed."""
        if self._state == PENDING:
            raise RuntimeError(f"{self!r} has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled out-of-band.

        Prevents :meth:`repro.sim.engine.Simulator.run` from re-raising
        the failure when no callback consumed it.
        """
        self._defused = True

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already {self._state}")
        self._state = TRIGGERED
        self._ok = ok
        self._value = value
        self.sim.schedule_now(self._process)

    def _process(self) -> None:
        self._state = PROCESSED
        cb1 = self._cb1
        callbacks = self._callbacks
        self._cb1 = None
        self._callbacks = None
        if cb1 is None and callbacks is None:
            if self._ok is False and not self._defused:
                self.sim.report_unhandled(self._value)
            return
        if cb1 is not None:
            cb1(self)
        if callbacks is not None:
            for cb in callbacks:
                cb(self)

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Run ``fn(event)`` once the event is processed.

        If the event has already been processed the callback is scheduled
        for the current time (asynchronously, preserving determinism).
        """
        if self._state == PROCESSED:
            self.sim.schedule_now(fn, self)
        elif self._cb1 is None and self._callbacks is None:
            self._cb1 = fn
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["SimEvent"], None]) -> bool:
        """Detach a pending callback; returns True if it was attached."""
        # Equality, not identity: callers pass bound methods, and each
        # attribute access creates a fresh (but ==) bound-method object.
        if self._cb1 is not None and self._cb1 == fn:
            # Keep attachment order: the overflow list (if any) now
            # contains every remaining callback, oldest first.
            if self._callbacks:
                self._cb1 = self._callbacks.pop(0)
            else:
                self._cb1 = None
            return True
        if self._callbacks is not None:
            try:
                self._callbacks.remove(fn)
                return True
            except ValueError:
                return False
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or type(self).__name__
        return f"<{label} {self._state}>"


class Timeout(SimEvent):
    """An event that succeeds ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout {delay!r}")
        super().__init__(sim, name=f"Timeout({delay})")
        self.delay = delay
        # succeed() schedules processing at now + 0; we want now + delay.
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim.schedule_detached(delay, self._process)
