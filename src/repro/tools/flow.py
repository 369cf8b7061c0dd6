"""Wire-traffic inspection: message flows and sequence diagrams.

Run any experiment with an enabled tracer (``Tracer(enabled=True)``),
then render what the protocol actually did — e.g. watch one
dissemination barrier's three rounds, or see a NACK retransmission
recover a dropped hop::

    tracer = Tracer(enabled=True)
    cluster = build_myrinet_cluster(..., tracer=tracer)
    ... run one barrier ...
    print(wire_sequence_diagram(tracer, nodes=8))

The delivered packets are the fabric's ``wire.n{src}-n{dst}`` spans;
hardware broadcasts (``wire.n{src}-bcast``) are not shown.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.sim.trace import Tracer, TraceTruncated

_WIRE_LANE = re.compile(r"^wire\.n(\d+)-n(\d+)$")

_KIND_GLYPH = {
    "data": "D",
    "ack": "a",
    "nack": "N",
    "barrier": "B",
    "rdma": "R",
    "event": "e",
    "bcast": "C",
}


@dataclass(frozen=True)
class WireEvent:
    """One delivered packet, read from its wire span."""

    time: float
    sent_at: float
    kind: str
    src: int
    dst: int
    size: int

    @property
    def latency(self) -> float:
        return self.time - self.sent_at


def wire_events(
    tracer: Tracer,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> list[WireEvent]:
    """All delivered packets in ``[t0, t1]``, in delivery order.

    Raises :class:`TraceTruncated` on a truncated trace: the packets
    past ``max_records`` were never stored.
    """
    if tracer.truncated:
        raise TraceTruncated(
            "wire views over a truncated trace would leave packets out "
            f"({tracer.dropped_spans} spans dropped); raise max_records"
        )
    events = []
    for span in tracer.spans:
        m = _WIRE_LANE.match(span.lane)
        if m is None:
            continue
        if t0 is not None and span.end < t0:
            continue
        if t1 is not None and span.end > t1:
            continue
        events.append(
            WireEvent(
                time=span.end,
                sent_at=span.start,
                kind=span.name,
                src=int(m.group(1)),
                dst=int(m.group(2)),
                size=dict(span.fields)["size"],
            )
        )
    return events


def message_flow(
    tracer: Tracer,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """A line-per-message log: delivery time, route, kind, wire latency."""
    lines = [f"{'time(us)':>10} {'route':>12} {'kind':<8} {'bytes':>6} {'wire(us)':>9}"]
    for event in wire_events(tracer, t0, t1):
        lines.append(
            f"{event.time:>10.3f} {event.src:>4} -> {event.dst:<4} "
            f"{event.kind:<8} {event.size:>6} {event.latency:>9.3f}"
        )
    return "\n".join(lines)


def wire_sequence_diagram(
    tracer: Tracer,
    nodes: int,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    max_rows: int = 200,
) -> str:
    """An ASCII sequence diagram: one column per node, one row per
    delivered packet (glyph = packet kind at the destination, ``*`` at
    the source).  Past ``max_rows`` rows, a closing line counts the
    packets not shown."""
    events = wire_events(tracer, t0, t1)
    if not events:
        return "(no wire traffic in window)"
    hidden = max(len(events) - max_rows, 0)
    events = events[:max_rows]
    width = 4
    header = f"{'time(us)':>10} |" + "".join(f"{f'n{i}':>{width}}" for i in range(nodes))
    lines = [header, "-" * len(header)]
    for event in events:
        cells = [" " * width] * nodes
        glyph = _KIND_GLYPH.get(event.kind, "?")
        if 0 <= event.src < nodes:
            cells[event.src] = f"{'*':>{width}}"
        if 0 <= event.dst < nodes:
            cells[event.dst] = f"{glyph:>{width}}"
        lines.append(f"{event.time:>10.3f} |" + "".join(cells))
    if hidden:
        lines.append(f"(… {hidden} more packets not shown)")
    legend = "  ".join(f"{glyph}={kind}" for kind, glyph in _KIND_GLYPH.items())
    lines.append(f"(* = sender; {legend})")
    return "\n".join(lines)
