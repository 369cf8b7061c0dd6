"""Discrete-event simulation engine.

This subpackage is a self-contained, deterministic discrete-event
simulation kernel in the style of SimPy, built from scratch because the
reproduction environment is offline.  It provides:

- :class:`~repro.sim.engine.Simulator` — the event loop (time unit:
  microseconds, stored as ``float``).
- :class:`~repro.sim.events.SimEvent`, :class:`~repro.sim.events.Timeout`
  — one-shot triggerable events.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (``yield`` an event / delay / another process to wait on it).
- :class:`~repro.sim.resources.ArbitratedResource`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.PriorityStore` — synchronization
  primitives used to model NIC processors, DMA engines, buses, fabric
  links and queues.
- :class:`~repro.sim.trace.Tracer` — finished spans and packet counters
  used by the experiment harnesses.

Determinism: all same-timestamp events are processed in FIFO scheduling
order (a monotonically increasing sequence number breaks ties), so a
simulation with a fixed seed is exactly reproducible.
"""

from repro.sim.engine import Simulator, ScheduledCall
from repro.sim.events import (
    SimEvent,
    Timeout,
    EventAlreadyTriggered,
)
from repro.sim.process import Process, Interrupt
from repro.sim.resources import ArbitratedResource, Store, PriorityStore
from repro.sim.trace import Span, Tracer, TraceTruncated
from repro.sim.rng import DeterministicRng

__all__ = [
    "Simulator",
    "ScheduledCall",
    "SimEvent",
    "Timeout",
    "EventAlreadyTriggered",
    "Process",
    "Interrupt",
    "ArbitratedResource",
    "Store",
    "PriorityStore",
    "Span",
    "Tracer",
    "TraceTruncated",
    "DeterministicRng",
]
