"""Spans and counters for simulations.

The experiment harnesses rely on counters (packets on the wire, PCI
transactions, ACKs vs NACKs, retransmissions) to verify the paper's
architectural claims — e.g. that receiver-driven retransmission halves
the number of barrier packets, or that the NIC-based barrier removes the
per-step host/PCI crossings.

Spans are the one event stream: one span is a finished stretch of work
on a named lane (a host CPU, a NIC functional unit, a PCI bus, a wire
hop).  The NIC models, fabric, bus and host emit spans behind the
``enabled`` guard; :mod:`repro.tools.timeline` turns them into
Chrome-trace/Perfetto JSON, ASCII timelines, and a critical-path
decomposition of one barrier iteration, and :mod:`repro.tools.flow`
reads the ``wire.n{src}-n{dst}`` spans as the delivered packets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class Span:
    """One finished interval of work on a lane.

    ``lane`` names the hardware component the work occupied (e.g.
    ``host3``, ``pci3``, ``nic3.cpu``, ``elan0.dma``, ``wire.n0-n4``);
    ``name`` names the protocol step (e.g. ``rx_header``, ``rdma_issue``,
    ``pio_write``).
    """

    lane: str
    name: str
    start: float
    end: float
    fields: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        return f"[{self.start:10.3f}..{self.end:>10.3f}us] {self.lane:<16} {self.name}"


class TraceTruncated(RuntimeError):
    """Raised when a reader refuses a truncated (lossy) trace."""


class Tracer:
    """Collects finished spans and named counters.

    A disabled tracer (``enabled=False``) keeps counters but drops
    spans.  Hot paths that build per-span field dicts guard on
    :attr:`enabled` before calling :meth:`add_span`, so a disabled
    tracer costs nothing at all.

    Once ``max_records`` spans have been stored, further ones are
    *dropped* and counted in :attr:`dropped_spans`; :attr:`truncated`
    flips to True so exporters, the wire views and the critical-path
    audit can refuse to draw conclusions from a lossy trace.
    """

    def __init__(self, enabled: bool = False, max_records: int = 1_000_000):
        self.enabled = enabled
        self.max_records = max_records
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.dropped_spans = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def add_span(
        self, start: float, end: float, lane: str, name: str, **fields: Any
    ) -> Optional[Span]:
        """Record a finished interval on ``lane``."""
        if not self.enabled:
            return None
        if len(self.spans) >= self.max_records:
            self.dropped_spans += 1
            return None
        span = Span(lane, name, start, end, tuple(fields.items()))
        self.spans.append(span)
        return span

    def lanes(self) -> list[str]:
        """All span lanes, in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.lane, None)
        return list(seen)

    @property
    def truncated(self) -> bool:
        """True when any span was dropped at ``max_records`` — a
        truncated trace must not feed exports or critical-path audits."""
        return self.dropped_spans > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer enabled={self.enabled} spans={len(self.spans)} "
            f"counters={len(self.counters)}>"
        )
