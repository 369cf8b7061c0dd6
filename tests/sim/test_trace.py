"""Unit tests for spans and counters."""

import pytest

from repro.sim.trace import Tracer, TraceTruncated


class TestTracer:
    def test_disabled_tracer_drops_records_keeps_counters(self):
        tr = Tracer(enabled=False)
        assert tr.add_span(1.0, 2.0, "wire.n0-n1", "barrier") is None
        tr.count("packets")
        assert tr.spans == []
        assert tr.counters["packets"] == 1

    def test_enabled_records(self):
        tr = Tracer(enabled=True)
        span = tr.add_span(2.5, 3.0, "wire.n0-n1", "barrier", size=8)
        assert tr.spans == [span]
        assert span.start == 2.5 and span.end == 3.0
        assert span.fields == (("size", 8),)

    def test_max_records_cap(self):
        tr = Tracer(enabled=True, max_records=3)
        for i in range(10):
            tr.add_span(float(i), float(i + 1), "lane", "work")
        assert len(tr.spans) == 3

    def test_count_increments(self):
        tr = Tracer()
        tr.count("acks")
        tr.count("acks", 4)
        assert tr.counters["acks"] == 5


class TestSpans:
    def test_begin_end_round_trip(self):
        tr = Tracer(enabled=True)
        span = tr.add_span(1.0, 2.5, "elan0.dma", "rdma_issue", dst=3)
        assert span.duration == pytest.approx(1.5)
        assert tr.spans == [span]
        assert tr.lanes() == ["elan0.dma"]

    def test_disabled_tracer_spans_are_free(self):
        tr = Tracer(enabled=False)
        assert tr.add_span(0.0, 1.0, "lane", "work") is None
        assert tr.spans == []


class TestTruncation:
    """Regression: hitting max_records used to drop silently; now the
    drop is counted and `truncated` lets exporters refuse lossy data."""

    def test_span_overflow_is_counted(self):
        tr = Tracer(enabled=True, max_records=1)
        tr.add_span(0.0, 1.0, "lane", "a")
        assert tr.add_span(1.0, 2.0, "lane", "b") is None
        assert tr.dropped_spans == 1
        assert tr.truncated

    def test_untruncated_by_default(self):
        tr = Tracer(enabled=True)
        tr.add_span(0.0, 1.0, "lane", "a")
        assert not tr.truncated

    def test_exporter_refuses_truncated_trace(self):
        from repro.tools import chrome_trace

        tr = Tracer(enabled=True, max_records=1)
        tr.add_span(0.0, 1.0, "lane", "a")
        tr.add_span(1.0, 2.0, "lane", "b")
        with pytest.raises(TraceTruncated):
            chrome_trace(tr)
        forced = chrome_trace(tr, force=True)
        assert forced["metadata"]["warnings"]
