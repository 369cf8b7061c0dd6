"""Measurement hooks installed in a benchmark child, from outside ``src/``.

Every hook replaces a class or module attribute in the child process
only; no file under ``src/`` changes and the simulated outputs are the
same with the hooks on and off (the harness checks this on every run).

Untraced repeats install two cheap hooks, each hit a handful of times
per workload:

- ``Simulator.run``: its first entry ends set-up (``setup_s``); every
  exit snapshots that simulator's scheduled-event count.
- ``build_cluster``: keeps each cluster's ``Tracer`` so the physics
  counters can be summed when the workload returns.

The traced repeat adds spans around the public entry points, per-layer
ownership of every scheduled kernel event, and the span sums behind
``cluster.build_s``, ``collectives.compile_s``, ``tools.quiescence_s``
and ``tools.replay_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import time
import weakref
from collections import Counter
from types import GeneratorType

#: This repo's packages, used as the per-layer breakdown.  Code in any
#: other file (the stdlib, ``repro/experiments``, this harness) counts
#: as ``other``.
LAYERS = (
    "sim", "network", "topology", "myrinet", "quadrics", "pci", "host",
    "mpi", "collectives", "cluster", "workload", "tools",
)
OTHER = "other"

# Frame classes for event ownership: skipped while walking the stack,
# or the kernel's dispatch loop (the walk stops there: the kernel
# itself scheduled the event).
_SKIP = object()
_LOOP = object()

_PCI_PIO = re.compile(r"pci\d+\.pio$")
_PCI_DMA = re.compile(r"pci\d+\.dma$")

#: Span names whose outermost occurrences make up each timing metric.
_SPAN_TIMERS = {
    "cluster.build_s": ("build_cluster",),
    "collectives.compile_s": ("compile_schedule", "make_schedule"),
    "tools.quiescence_s": ("check_quiescent",),
}


def physics(counters: Counter, xtraffic: tuple[int, int]) -> dict:
    """The simulated-machine work counts, from summed tracer counters.

    ``xtraffic`` is ``(injected, delivered)`` cross-traffic packets.
    These move only when the modelled machine does different work, so
    a simulator-only change must leave every one of them unchanged.
    """
    injected, delivered = xtraffic
    retransmits = counters.get("gm.retransmit", 0) + sum(
        v for k, v in counters.items()
        if k.endswith((".nack_retransmit", ".nack_stale_resend"))
    )
    return {
        "network.packets": counters.get("wire.packets", 0),
        "network.acks": counters.get("wire.ack", 0),
        "network.fault_drops": (
            counters.get("wire.dropped", 0) + counters.get("wire.corrupted", 0)
        ),
        "network.xtraffic_delivered_ratio": (
            delivered / injected if injected else 0.0
        ),
        "pci.pio": sum(v for k, v in counters.items() if _PCI_PIO.match(k)),
        "pci.dma": sum(v for k, v in counters.items() if _PCI_DMA.match(k)),
        "quadrics.rdma_issued": counters.get("elan.rdma_issued", 0),
        "myrinet.retransmits": retransmits,
    }


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``from x import f`` copy of ``original`` in the
    repo's and the harness's modules to ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "bench")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Probe:
    """Hooks and collected measurements for one benchmark child.

    ``first_run_at`` is the ``time.monotonic()`` of the first
    ``Simulator.run`` entry.
    """

    def __init__(self, trace: bool):
        import repro
        from repro.sim.engine import Simulator

        self.trace = trace
        self.first_run_at: float | None = None
        self._sim_cls = Simulator
        self._sim_events: list[list[int]] = []  # one [events] cell per simulator
        self._sim_cell = weakref.WeakKeyDictionary()
        self._tracers: dict[int, object] = {}
        # Spans: [id, name, parent, start, end, attrs], times in seconds
        # from probe creation.  Span 0 is the child itself.
        self._origin = time.perf_counter()
        self.spans: list[list] = [[0, "child", None, 0.0, None, {}]]
        self._open = [0]
        self.events: Counter = Counter()
        self._repro_dir = os.path.dirname(repro.__file__) + os.sep
        self._sim_dir = self._repro_dir + "sim" + os.sep
        self._bench_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
        self._kinds: dict = {}

        self._wrap_run()
        self._wrap_function("repro.cluster.builder", "build_cluster",
                            on_return=self._keep_tracer)
        if trace:
            self._install_tracing()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _wrap_run(self) -> None:
        orig = self._sim_cls.run
        probe = self

        @functools.wraps(orig)
        def run(sim, *args, **kwargs):
            if probe.first_run_at is None:
                probe.first_run_at = time.monotonic()
            span = probe._enter("Simulator.run") if probe.trace else None
            try:
                return orig(sim, *args, **kwargs)
            finally:
                probe._note_events(sim)
                if span is not None:
                    probe._exit(span)

        self._sim_cls.run = run

    def _wrap_function(self, module_name: str, attr: str, on_return=None,
                       attrs_of=None) -> None:
        orig = getattr(importlib.import_module(module_name), attr)
        probe = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = None
            if probe.trace:
                span = probe._enter(
                    attr, attrs_of(args, kwargs) if attrs_of else None
                )
            try:
                result = orig(*args, **kwargs)
            finally:
                if span is not None:
                    probe._exit(span)
            if on_return is not None:
                on_return(result)
            return result

        _replace_everywhere(orig, wrapper)

    def _install_tracing(self) -> None:
        # Import every entry point's module first, so each one's
        # ``from x import f`` copies exist to be rebound.
        import repro.tools.chaos  # noqa: F401
        import repro.workload  # noqa: F401
        from repro.sim.process import Process
        from repro.tools.simlint.perturb import TieBreakSimulator

        self._process_cls = Process
        self._wrap_function("repro.collectives.schedule_ir", "compile_schedule")
        self._wrap_function("repro.collectives.algorithms", "make_schedule")
        self._wrap_function("repro.tools.simlint.quiescence", "check_quiescent")
        self._wrap_function("repro.workload.driver", "run_workload")
        self._wrap_function(
            "repro.tools.chaos", "run_fuzz_case",
            attrs_of=lambda args, kwargs: {
                "replay": isinstance(
                    kwargs.get("sim", args[1] if len(args) > 1 else None),
                    TieBreakSimulator,
                )
            },
        )
        loop_codes = set()
        for cls in (self._sim_cls, TieBreakSimulator):
            loop_codes.add(cls.step.__code__)
            loop_codes.add(cls._run_to_exhaustion.__code__)
            self._count_events(cls, "schedule", fn_first=False)
            self._count_events(cls, "schedule_detached", fn_first=False)
            self._count_events(cls, "schedule_phase", fn_first=False)
            self._count_events(cls, "schedule_now", fn_first=True)
        self._loop_codes = loop_codes

    def _count_events(self, cls, name: str, fn_first: bool) -> None:
        orig = cls.__dict__[name]
        counts = self.events
        owner = self._owner
        getframe = sys._getframe
        if fn_first:
            def wrapper(sim, fn, *args):
                counts[owner(fn, getframe(1))] += 1
                return orig(sim, fn, *args)
        else:
            def wrapper(sim, first, fn, *args):
                counts[owner(fn, getframe(1))] += 1
                return orig(sim, first, fn, *args)
        setattr(cls, name, functools.wraps(orig)(wrapper))

    def _keep_tracer(self, cluster) -> None:
        self._tracers.setdefault(id(cluster.tracer), cluster.tracer)

    def _note_events(self, sim) -> None:
        cell = self._sim_cell.get(sim)
        if cell is None:
            cell = self._sim_cell[sim] = [0]
            self._sim_events.append(cell)
        cell[0] = sim.events_scheduled

    # ------------------------------------------------------------------
    # Event ownership
    # ------------------------------------------------------------------
    def _file_layer(self, filename: str) -> str:
        if not filename.startswith(self._repro_dir):
            return OTHER
        package, sep, _rest = filename[len(self._repro_dir):].partition(os.sep)
        return package if sep and package in LAYERS else OTHER

    def _classify(self, code):
        if code in self._loop_codes:
            return _LOOP
        filename = code.co_filename
        if filename.startswith((self._sim_dir, self._bench_dir)):
            return _SKIP
        return self._file_layer(filename)

    def _owner(self, fn, frame) -> str:
        """The layer that scheduled ``fn``.

        A process resume belongs to the innermost generator of the
        process's ``yield from`` chain.  Anything else belongs to the
        first stack frame outside ``repro/sim/`` (and this harness); if
        the walk reaches the kernel's dispatch loop first, the kernel
        scheduled it for itself and ``sim`` owns it.
        """
        target = getattr(fn, "__self__", None)
        if target.__class__ is self._process_cls:
            gen = target._gen
            inner = gen.gi_yieldfrom
            while inner.__class__ is GeneratorType:
                gen = inner
                inner = gen.gi_yieldfrom
            return self._file_layer(gen.gi_code.co_filename)
        kinds = self._kinds
        while frame is not None:
            code = frame.f_code
            kind = kinds.get(code)
            if kind is None:
                kind = kinds[code] = self._classify(code)
            if kind is not _SKIP:
                return "sim" if kind is _LOOP else kind
            frame = frame.f_back
        return OTHER

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, name: str, attrs: dict | None = None) -> list:
        span = [len(self.spans), name, self._open[-1],
                time.perf_counter() - self._origin, None, attrs or {}]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def _exit(self, span: list) -> None:
        span[4] = time.perf_counter() - self._origin
        self._open.pop()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close the root span and catch simulators still alive."""
        self.spans[0][4] = time.perf_counter() - self._origin
        for sim in list(self._sim_cell):
            self._note_events(sim)

    @property
    def events_total(self) -> int:
        return sum(cell[0] for cell in self._sim_events)

    def counters(self) -> Counter:
        total: Counter = Counter()
        for tracer in self._tracers.values():
            total.update(tracer.counters)
        return total

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "parent": parent, "start": start,
             "end": end, **({"attrs": attrs} if attrs else {})}
            for sid, name, parent, start, end, attrs in self.spans
        ]

    def span_metrics(self) -> dict:
        """Outermost-span sums and counts for the timing metrics."""
        by_id = {span[0]: span for span in self.spans}

        def outermost(span, names) -> bool:
            parent = span[2]
            while parent is not None:
                if by_id[parent][1] in names:
                    return False
                parent = by_id[parent][2]
            return True

        out = {}
        for metric, names in _SPAN_TIMERS.items():
            top = [s for s in self.spans if s[1] in names and outermost(s, names)]
            out[metric] = sum(s[4] - s[3] for s in top)
            if metric == "cluster.build_s":
                out["cluster.builds"] = len(top)
            elif metric == "collectives.compile_s":
                out["collectives.compiles"] = len(top)
        out["tools.replay_s"] = sum(
            s[4] - s[3] for s in self.spans
            if s[1] == "run_fuzz_case" and s[5].get("replay")
        )
        return out

    def layer_self_times(self, profiler) -> dict[str, float]:
        """cProfile tottime summed by the package of each function's file."""
        profiler.create_stats()
        totals = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        for (filename, _line, _name), row in profiler.stats.items():
            totals[self._file_layer(filename)] += row[2]
        return totals
