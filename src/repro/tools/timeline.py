"""Span timelines: Chrome-trace export, ASCII rendering, critical path.

Run any experiment with an enabled tracer, then:

- :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome trace event
  format JSON; open it at https://ui.perfetto.dev (or
  ``chrome://tracing``) to scrub through every host CPU, NIC unit, PCI
  bus and wire hop on its own track;
- :func:`ascii_timeline` — terminal rendering of the same lanes;
- :func:`critical_path` — walk one barrier iteration's span graph
  backwards and attribute every microsecond of the measured latency to
  the component that was the proximate cause, exactly (the per-step
  durations sum to the window length by construction).

The critical path is what turns the paper's *architectural* claim into
a measurement: comparing the per-component breakdown of the host-based
barrier against the NIC-based one shows precisely which processing
steps (host software, PCI crossings, per-packet GM bookkeeping) the
collective protocol removed from the path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.trace import Span, Tracer, TraceTruncated

#: Lanes that annotate the run rather than model hardware; they never
#: appear on a critical path (a "barrier[k]" span would otherwise
#: swallow the whole window it delimits).
META_LANES = frozenset({"run"})

_LANE_NODE = re.compile(r"^(host|pci|lanai|elan)(\d+)(?:\.(\w+))?$")

#: Render/order key per component, lowest first.
_COMPONENT_ORDER = {
    "run": 0,
    "host": 1,
    "pci": 2,
    "nic.cpu": 3,
    "nic.event": 4,
    "nic.dma": 5,
    "elite": 6,
    "wire": 7,
}


def component_of(lane: str) -> str:
    """Collapse a lane name to its hardware component class.

    ``host3`` -> ``host``; ``pci3`` -> ``pci``; ``lanai3.cpu`` ->
    ``nic.cpu``; ``elan0.dma`` -> ``nic.dma``; ``wire.n0-n4`` ->
    ``wire``; ``elite`` and ``run`` map to themselves.
    """
    m = _LANE_NODE.match(lane)
    if m is not None:
        kind, _node, unit = m.groups()
        if kind in ("host", "pci"):
            return kind
        return f"nic.{unit or 'cpu'}"
    if lane.startswith("wire"):
        return "wire"
    return lane


def _lane_sort_key(lane: str) -> tuple:
    m = _LANE_NODE.match(lane)
    node = int(m.group(2)) if m is not None else -1
    comp = component_of(lane)
    return (_COMPONENT_ORDER.get(comp, 99), node, lane)


def _check_exportable(tracer: Tracer, force: bool) -> list[str]:
    """The truncation check shared by the exporters and the ASCII
    timeline (which always passes ``force=False``).

    Returns warning strings when ``force`` overrides a refusal.
    """
    if not tracer.truncated:
        return []
    message = (
        f"trace is truncated ({tracer.dropped_spans} spans dropped at "
        f"max_records={tracer.max_records}); conclusions drawn from "
        "it would be silently wrong"
    )
    if not force:
        raise TraceTruncated(
            message + " (raise max_records, or pass chrome_trace "
            "force=True to export anyway)"
        )
    return [message]


# ----------------------------------------------------------------------
# Chrome trace / Perfetto export
# ----------------------------------------------------------------------
def chrome_trace(tracer: Tracer, force: bool = False) -> dict:
    """The trace as a Chrome trace event format object.

    Each simulated node becomes a process, each lane a named thread;
    spans become complete (``"ph": "X"``) events with microsecond
    timestamps (the Chrome trace native unit, conveniently also the
    simulation's).  Loadable in Perfetto / ``chrome://tracing``.

    Refuses a truncated trace (:class:`TraceTruncated`) unless
    ``force`` is set — a lossy trace silently misrepresents the run.
    """
    warnings = _check_exportable(tracer, force)
    lanes = sorted(tracer.lanes(), key=_lane_sort_key)
    pids: dict[str, int] = {}
    tids: dict[str, tuple[int, int]] = {}
    events: list[dict[str, Any]] = []
    for lane in lanes:
        m = _LANE_NODE.match(lane)
        if m is not None:
            pname = f"node{m.group(2)}"
        elif lane in META_LANES:
            pname = "run"
        else:
            pname = "fabric"
        pid = pids.setdefault(pname, len(pids))
        tid = tids.setdefault(lane, (pid, len(tids)))[1]
        events.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": lane}}
        )
        events.append(
            {"ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
             "args": {"sort_index": len(tids)}}
        )
    for pname, pid in pids.items():
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": pname}}
        )
    for span in tracer.spans:
        pid, tid = tids[span.lane]
        event: dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": component_of(span.lane),
            "ts": span.start,
            "dur": span.end - span.start,
            "pid": pid,
            "tid": tid,
        }
        if span.fields:
            event["args"] = dict(span.fields)
        events.append(event)
    out: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ns"}
    if warnings:
        out["metadata"] = {"warnings": warnings}
    return out


def write_chrome_trace(tracer: Tracer, path: str, force: bool = False) -> None:
    """Write :func:`chrome_trace` JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, force=force), fh)


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------
def ascii_timeline(
    tracer: Tracer,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    width: int = 64,
    max_lanes: int = 40,
) -> str:
    """Render the span lanes as rows of a fixed-width busy/idle chart.

    ``#`` marks sim time where the lane had at least one span active;
    the right-hand columns give the lane's busy time and span count
    inside the window.  Refuses a truncated trace
    (:class:`TraceTruncated`), as the Chrome-trace exporter does.
    """
    _check_exportable(tracer, force=False)
    spans = [s for s in tracer.spans if s.lane not in META_LANES]
    if t0 is not None:
        spans = [s for s in spans if s.end > t0]
    if t1 is not None:
        spans = [s for s in spans if s.start < t1]
    if not spans:
        return "(no spans in window)"
    lo = min(s.start for s in spans) if t0 is None else t0
    hi = max(s.end for s in spans) if t1 is None else t1
    if hi <= lo:
        return "(empty window)"
    dt = (hi - lo) / width
    by_lane: dict[str, list[Span]] = {}
    for span in spans:
        by_lane.setdefault(span.lane, []).append(span)
    lanes = sorted(by_lane, key=_lane_sort_key)
    dropped = 0
    if len(lanes) > max_lanes:
        dropped = len(lanes) - max_lanes
        lanes = lanes[:max_lanes]
    name_w = max(len(lane) for lane in lanes)
    lines = [
        f"{'lane':<{name_w}} |{lo:>8.3f}us{'':{max(width - 18, 0)}}{hi:>8.3f}us"
        f" | busy(us) spans"
    ]
    for lane in lanes:
        cells = [" "] * width
        busy = 0.0
        count = 0
        for span in by_lane[lane]:
            start, end = max(span.start, lo), min(span.end, hi)
            if end < start:
                continue
            count += 1
            busy += end - start
            first = min(int((start - lo) / dt), width - 1)
            last = min(int((end - lo) / dt), width - 1) if end > start else first
            for i in range(first, last + 1):
                cells[i] = "#"
        lines.append(
            f"{lane:<{name_w}} |{''.join(cells)} | {busy:>8.3f} {count:>5}"
        )
    if dropped:
        lines.append(f"(… {dropped} more lanes not shown)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathStep:
    """One segment of the critical path: busy work on a lane, or a wait
    (no instrumented component active at the walk's frontier)."""

    start: float
    end: float
    lane: str
    name: str
    kind: str  # "busy" | "wait"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The backward-walk decomposition of one ``[t0, t1]`` window.

    The steps tile the window exactly: ``sum(step.duration) == t1 - t0``
    (up to float addition), so the per-component attribution accounts
    for every microsecond of the measured latency.
    """

    t0: float
    t1: float
    steps: tuple[PathStep, ...]

    @property
    def total(self) -> float:
        return self.t1 - self.t0

    def by_component(self) -> dict[str, float]:
        """Latency attributed per hardware component (+ ``wait``)."""
        out: dict[str, float] = {}
        for step in self.steps:
            key = "wait" if step.kind == "wait" else component_of(step.lane)
            out[key] = out.get(key, 0.0) + step.duration
        return out

    def table(self) -> str:
        """The walk, oldest step first, as a fixed-width table."""
        lines = [f"{'t(us)':>10} {'dur(us)':>9}  {'lane':<18} step"]
        for step in self.steps:
            lane = step.lane if step.kind == "busy" else "-"
            lines.append(
                f"{step.start:>10.3f} {step.duration:>9.4f}  {lane:<18} {step.name}"
            )
        lines.append(
            f"{'total':>10} {self.total:>9.4f}  (window {self.t0:.3f}..{self.t1:.3f}us)"
        )
        return "\n".join(lines)

    def summary(self) -> str:
        parts = sorted(
            self.by_component().items(), key=lambda kv: -kv[1]
        )
        total = self.total or 1.0
        lines = [f"{'component':<12} {'us':>9} {'share':>7}"]
        for comp, us in parts:
            lines.append(f"{comp:<12} {us:>9.4f} {us / total:>6.1%}")
        lines.append(f"{'total':<12} {self.total:>9.4f} {1:>6.1%}")
        return "\n".join(lines)


def critical_path(
    tracer: Tracer,
    t0: float,
    t1: float,
    exclude_lanes: frozenset = META_LANES,
) -> CriticalPath:
    """Attribute the latency of ``[t0, t1]`` along the chain of work
    that finished last.

    The walk runs backwards from ``t1``: at each frontier time ``t`` it
    picks the span active at or most recently before ``t`` (latest end
    wins; ties broken toward the latest-starting, then latest-recorded
    span — the most proximate cause), attributes that span's share of
    the window up to ``t`` to its lane, and jumps to the span's start.
    Gaps where no instrumented component was active become ``wait``
    steps (e.g. a host polling interval's idle half, or an armed timer
    pending).  By construction the steps tile the window exactly, so
    the per-component sums add up to the measured latency.

    Refuses a truncated trace — missing spans would silently show up as
    ``wait`` time.
    """
    if t1 < t0:
        raise ValueError(f"bad window [{t0}, {t1}]")
    if tracer.truncated:
        raise TraceTruncated(
            "critical path over a truncated trace would be silently wrong "
            f"({tracer.dropped_spans} spans dropped); raise max_records"
        )
    spans = [
        s
        for s in tracer.spans
        if s.lane not in exclude_lanes and s.end > t0 and s.start < t1
    ]
    # Descending by (end, start, record order).  The frontier only
    # moves backwards, so a span skipped because it starts at/after the
    # frontier can never become eligible again: one pointer suffices.
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].end, spans[i].start, i),
        reverse=True,
    )
    steps: list[PathStep] = []
    t = t1
    ptr = 0
    while t > t0:
        while ptr < len(order) and spans[order[ptr]].start >= t:
            ptr += 1
        if ptr >= len(order):
            steps.append(PathStep(t0, t, "", "wait", "wait"))
            break
        span = spans[order[ptr]]
        ptr += 1
        busy_end = min(span.end, t)  # a straddling span counts up to t
        if busy_end < t:
            steps.append(PathStep(busy_end, t, "", "wait", "wait"))
            t = busy_end
        start = max(span.start, t0)
        steps.append(PathStep(start, t, span.lane, span.name, "busy"))
        t = start
    steps.reverse()
    return CriticalPath(t0, t1, tuple(steps))
