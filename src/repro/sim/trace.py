"""Structured tracing, spans, and counters for simulations.

The experiment harnesses rely on counters (packets on the wire, PCI
transactions, ACKs vs NACKs, retransmissions) to verify the paper's
architectural claims — e.g. that receiver-driven retransmission halves
the number of barrier packets, or that the NIC-based barrier removes the
per-step host/PCI crossings.

Spans extend the flat records with *intervals*: one span is a stretch of
work on a named lane (a host CPU, a NIC functional unit, a PCI bus, a
wire hop).  The NIC models, fabric, bus and host emit spans behind the
``enabled`` guard, and :mod:`repro.tools.timeline` turns them into
Chrome-trace/Perfetto JSON, ASCII timelines, and a critical-path
decomposition of one barrier iteration.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace line: what happened, where, when."""

    time: float
    category: str
    source: str
    message: str
    fields: tuple = ()

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.time:10.3f}us] {self.category:<12} {self.source:<16} {self.message} {extra}".rstrip()


@dataclass
class Span:
    """One interval of work on a lane.

    ``lane`` names the hardware component the work occupied (e.g.
    ``host3``, ``pci3``, ``nic3.cpu``, ``elan0.dma``, ``wire.n0-n4``);
    ``name`` names the protocol step (e.g. ``rx_header``, ``rdma_issue``,
    ``pio_write``).  ``end`` stays ``None`` while the span is open.
    """

    lane: str
    name: str
    start: float
    end: Optional[float] = None
    fields: tuple = ()

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.lane}/{self.name} is still open")
        return self.end - self.start

    def __str__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "..."
        return f"[{self.start:10.3f}..{end:>10}us] {self.lane:<16} {self.name}"


class TraceTruncated(RuntimeError):
    """Raised when an exporter refuses a truncated (lossy) trace."""


class Tracer:
    """Collects trace records, spans, and named counters.

    Recording is cheap when disabled (``enabled=False`` keeps counters
    but drops records and spans); category filtering lets tests capture
    only the traffic they assert on.

    ``counting=False`` turns :meth:`count` into a bound no-op — zero
    work beyond the call itself — for perf-critical sweeps that only
    consume latencies.  Hot paths that build per-record field dicts
    should additionally guard on :attr:`enabled` before calling
    :meth:`record`/:meth:`begin_span`/:meth:`add_span`, so a disabled
    tracer costs nothing at all.

    Once ``max_records`` records (or spans) have been stored, further
    ones are *dropped* and counted in :attr:`dropped_records` /
    :attr:`dropped_spans`; :attr:`truncated` flips to True so exporters
    and the critical-path audit can refuse to draw conclusions from a
    lossy trace.
    """

    def __init__(
        self,
        enabled: bool = False,
        categories: Optional[Iterable[str]] = None,
        max_records: int = 1_000_000,
        counting: bool = True,
    ):
        self.enabled = enabled
        self.categories = set(categories) if categories is not None else None
        self.max_records = max_records
        self.counting = counting
        self.records: list[TraceRecord] = []
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.dropped_records = 0
        self.dropped_spans = 0
        self._open_spans = 0
        if not counting:
            # Shadow the method with a no-op so the 50-odd call sites in
            # the NIC/fabric models pay only a function call.
            self.count = self._count_disabled

    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        category: str,
        source: str,
        message: str,
        **fields: Any,
    ) -> None:
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(
            TraceRecord(time, category, source, message, tuple(fields.items()))
        )

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    @staticmethod
    def _count_disabled(name: str, n: int = 1) -> None:
        return None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin_span(self, time: float, lane: str, name: str, **fields: Any) -> Optional[Span]:
        """Open a span at ``time``; close it with :meth:`end_span`.

        Returns ``None`` when disabled or at capacity (pass the result
        straight back to :meth:`end_span`, which tolerates ``None``).
        """
        if not self.enabled:
            return None
        if len(self.spans) >= self.max_records:
            self.dropped_spans += 1
            return None
        span = Span(lane, name, time, None, tuple(fields.items()))
        self.spans.append(span)
        self._open_spans += 1
        return span

    def end_span(self, span: Optional[Span], time: float) -> None:
        if span is None:
            return
        if span.end is not None:
            raise ValueError(f"span {span.lane}/{span.name} already ended")
        span.end = time
        self._open_spans -= 1

    def add_span(
        self, start: float, end: float, lane: str, name: str, **fields: Any
    ) -> Optional[Span]:
        """Record an already-finished interval (callback-style paths
        where the duration is known at completion time)."""
        if not self.enabled:
            return None
        if len(self.spans) >= self.max_records:
            self.dropped_spans += 1
            return None
        span = Span(lane, name, start, end, tuple(fields.items()))
        self.spans.append(span)
        return span

    @property
    def open_span_count(self) -> int:
        return self._open_spans

    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def lanes(self) -> list[str]:
        """All span lanes, in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.lane, None)
        return list(seen)

    # ------------------------------------------------------------------
    @property
    def truncated(self) -> bool:
        """True when any record or span was dropped at ``max_records`` —
        a truncated trace must not feed exports or critical-path audits."""
        return self.dropped_records > 0 or self.dropped_spans > 0

    # ------------------------------------------------------------------
    def by_category(self, category: str) -> list[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()
        self.spans.clear()
        self.counters.clear()
        self.dropped_records = 0
        self.dropped_spans = 0
        self._open_spans = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer enabled={self.enabled} records={len(self.records)} "
            f"spans={len(self.spans)} counters={len(self.counters)}>"
        )


@dataclass
class StatAccumulator:
    """Running mean/min/max/count without storing samples.

    Used for per-iteration barrier latencies where the paper reports the
    average of 10,000 iterations.
    """

    count: int = 0
    total: float = 0.0
    min_value: float = field(default=float("inf"))
    max_value: float = field(default=float("-inf"))

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ZeroDivisionError("no samples")
        return self.total / self.count

    def merge(self, other: "StatAccumulator") -> None:
        self.count += other.count
        self.total += other.total
        if other.count == 0:
            # An empty accumulator carries the +/-inf sentinels; folding
            # them in would be harmless for min/max but poisons any
            # later serialization of a still-empty self.
            return
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe summary: the +/-inf sentinels of an empty
        accumulator become ``None`` instead of leaking non-finite values
        into report files."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": None if empty else self.total / self.count,
            "min": None if empty or not math.isfinite(self.min_value) else self.min_value,
            "max": None if empty or not math.isfinite(self.max_value) else self.max_value,
        }
