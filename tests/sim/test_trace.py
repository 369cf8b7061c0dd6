"""Unit tests for tracing and statistics."""

import pytest

from repro.sim.trace import StatAccumulator, Tracer, TraceTruncated


class TestTracer:
    def test_disabled_tracer_drops_records_keeps_counters(self):
        tr = Tracer(enabled=False)
        tr.record(1.0, "wire", "nic0", "send")
        tr.count("packets")
        assert tr.records == []
        assert tr.counters["packets"] == 1

    def test_enabled_records(self):
        tr = Tracer(enabled=True)
        tr.record(2.5, "wire", "nic0", "send", size=8)
        assert len(tr.records) == 1
        rec = tr.records[0]
        assert rec.time == 2.5
        assert rec.category == "wire"
        assert rec.fields == (("size", 8),)

    def test_category_filter(self):
        tr = Tracer(enabled=True, categories={"wire"})
        tr.record(1.0, "wire", "a", "x")
        tr.record(1.0, "pci", "a", "y")
        assert len(tr.records) == 1
        assert tr.by_category("wire")[0].message == "x"
        assert tr.by_category("pci") == []

    def test_max_records_cap(self):
        tr = Tracer(enabled=True, max_records=3)
        for i in range(10):
            tr.record(float(i), "c", "s", "m")
        assert len(tr.records) == 3

    def test_count_increments(self):
        tr = Tracer()
        tr.count("acks")
        tr.count("acks", 4)
        assert tr.counters["acks"] == 5

    def test_clear(self):
        tr = Tracer(enabled=True)
        tr.record(0.0, "c", "s", "m")
        tr.count("x")
        tr.clear()
        assert tr.records == [] and not tr.counters

    def test_record_str_contains_fields(self):
        tr = Tracer(enabled=True)
        tr.record(1.0, "wire", "nic3", "inject", dest=5)
        text = str(tr.records[0])
        assert "wire" in text and "nic3" in text and "dest=5" in text


class TestStatAccumulator:
    def test_empty_mean_raises(self):
        acc = StatAccumulator()
        with pytest.raises(ZeroDivisionError):
            _ = acc.mean

    def test_mean_min_max(self):
        acc = StatAccumulator()
        for v in [2.0, 4.0, 6.0]:
            acc.add(v)
        assert acc.mean == pytest.approx(4.0)
        assert acc.min_value == 2.0
        assert acc.max_value == 6.0
        assert acc.count == 3

    def test_merge(self):
        a, b = StatAccumulator(), StatAccumulator()
        a.add(1.0)
        a.add(3.0)
        b.add(10.0)
        a.merge(b)
        assert a.count == 3
        assert a.mean == pytest.approx(14.0 / 3.0)
        assert a.max_value == 10.0
        assert a.min_value == 1.0


class TestSpans:
    def test_begin_end_round_trip(self):
        tr = Tracer(enabled=True)
        span = tr.begin_span(1.0, "elan0.dma", "rdma_issue", dst=3)
        assert tr.open_span_count == 1
        assert not span.closed
        tr.end_span(span, 2.5)
        assert span.closed
        assert span.duration == pytest.approx(1.5)
        assert tr.open_span_count == 0
        assert tr.closed_spans() == [span]
        assert tr.lanes() == ["elan0.dma"]

    def test_disabled_tracer_spans_are_free(self):
        tr = Tracer(enabled=False)
        span = tr.begin_span(1.0, "lane", "work")
        assert span is None
        tr.end_span(span, 2.0)  # tolerates None
        assert tr.add_span(0.0, 1.0, "lane", "work") is None
        assert tr.spans == []

    def test_double_end_rejected(self):
        tr = Tracer(enabled=True)
        span = tr.begin_span(0.0, "lane", "work")
        tr.end_span(span, 1.0)
        with pytest.raises(ValueError, match="already ended"):
            tr.end_span(span, 2.0)

    def test_clear_resets_span_state(self):
        tr = Tracer(enabled=True)
        tr.begin_span(0.0, "lane", "work")
        tr.add_span(0.0, 1.0, "lane", "work")
        tr.clear()
        assert tr.spans == []
        assert tr.open_span_count == 0
        assert not tr.truncated


class TestTruncation:
    """Regression: hitting max_records used to drop silently; now the
    drop is counted and `truncated` lets exporters refuse lossy data."""

    def test_record_overflow_is_counted(self):
        tr = Tracer(enabled=True, max_records=2)
        for t in range(4):
            tr.record(float(t), "wire", "nic0", "send")
        assert len(tr.records) == 2
        assert tr.dropped_records == 2
        assert tr.truncated

    def test_span_overflow_is_counted(self):
        tr = Tracer(enabled=True, max_records=1)
        tr.add_span(0.0, 1.0, "lane", "a")
        assert tr.add_span(1.0, 2.0, "lane", "b") is None
        assert tr.begin_span(2.0, "lane", "c") is None
        assert tr.dropped_spans == 2
        assert tr.truncated

    def test_untruncated_by_default(self):
        tr = Tracer(enabled=True)
        tr.record(0.0, "wire", "nic0", "send")
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


class TestStatAccumulatorEmpty:
    """Regression: an empty accumulator's +/-inf sentinels used to leak
    through merge() and into JSON-bound dicts."""

    def test_merge_empty_into_empty(self):
        a, b = StatAccumulator(), StatAccumulator()
        a.merge(b)
        assert a.count == 0
        assert a.min_value == float("inf")
        assert a.max_value == float("-inf")

    def test_merge_empty_into_populated_keeps_extrema(self):
        a, b = StatAccumulator(), StatAccumulator()
        a.add(2.0)
        a.merge(b)
        assert a.min_value == 2.0
        assert a.max_value == 2.0

    def test_as_dict_empty_is_json_safe(self):
        import json

        d = StatAccumulator().as_dict()
        assert d == {"count": 0, "total": 0.0, "mean": None, "min": None, "max": None}
        json.dumps(d)  # must not need allow_nan

    def test_as_dict_populated(self):
        acc = StatAccumulator()
        acc.add(1.0)
        acc.add(3.0)
        assert acc.as_dict() == {
            "count": 2, "total": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0,
        }
