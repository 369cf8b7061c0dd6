"""Tests for the span timeline tools: Chrome-trace export, ASCII
rendering, critical path — plus span-balance integration checks on
full 16-node barriers for both networks."""

import json

import pytest

from repro.cluster import (
    build_myrinet_cluster,
    build_quadrics_cluster,
    run_barrier_experiment,
)
from repro.sim import Tracer
from repro.tools import (
    ascii_timeline,
    chrome_trace,
    component_of,
    critical_path,
    write_chrome_trace,
)


# ----------------------------------------------------------------------
# component_of
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "lane,component",
    [
        ("host3", "host"),
        ("pci12", "pci"),
        ("lanai7.cpu", "nic.cpu"),
        ("elan0.event", "nic.event"),
        ("elan15.dma", "nic.dma"),
        ("elan2.thread", "nic.thread"),
        ("wire.n0-n4", "wire"),
        ("wire.n3-bcast", "wire"),
        ("elite", "elite"),
        ("run", "run"),
    ],
)
def test_component_of(lane, component):
    assert component_of(lane) == component


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def _toy_tracer():
    tr = Tracer(enabled=True)
    tr.add_span(0.0, 1.0, "host0", "compute")
    tr.add_span(1.0, 1.5, "pci0", "pio_write")
    tr.add_span(1.5, 2.0, "wire.n0-n1", "barrier", pkt=7)
    return tr


def test_chrome_trace_structure():
    doc = chrome_trace(_toy_tracer())
    events = doc["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    assert len(x) == 3
    for event in x:
        assert event["dur"] >= 0
        assert {"name", "ts", "pid", "tid", "cat"} <= set(event)
    # Node lanes share a process; the wire lives in "fabric".
    names = {
        e["args"]["name"]: e["pid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert "node0" in names and "fabric" in names
    wire_event = next(e for e in x if e["name"] == "barrier")
    assert wire_event["pid"] == names["fabric"]
    assert wire_event["args"] == {"pkt": 7}


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_toy_tracer(), str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------
def test_ascii_timeline_rows_and_window():
    out = ascii_timeline(_toy_tracer(), width=20)
    lines = out.splitlines()
    assert any(line.startswith("host0") for line in lines)
    assert any(line.startswith("wire.n0-n1") for line in lines)
    assert "#" in out


def test_ascii_timeline_empty():
    assert "no spans" in ascii_timeline(Tracer(enabled=True))


def test_ascii_timeline_refuses_truncated():
    from repro.sim.trace import TraceTruncated

    tr = Tracer(enabled=True, max_records=1)
    tr.add_span(0.0, 1.0, "host0", "a")
    tr.add_span(1.0, 2.0, "host0", "b")
    with pytest.raises(TraceTruncated, match="spans dropped"):
        ascii_timeline(tr)


# ----------------------------------------------------------------------
# Critical path (unit)
# ----------------------------------------------------------------------
def test_critical_path_tiles_window_exactly():
    tr = Tracer(enabled=True)
    tr.add_span(0.0, 1.0, "host0", "a")
    tr.add_span(1.5, 3.0, "pci0", "b")  # gap 1.0..1.5 becomes a wait
    path = critical_path(tr, 0.0, 3.0)
    assert [s.kind for s in path.steps] == ["busy", "wait", "busy"]
    assert sum(s.duration for s in path.steps) == pytest.approx(path.total)
    assert path.by_component() == pytest.approx({"host": 1.0, "wait": 0.5, "pci": 1.5})


def test_critical_path_prefers_latest_ending_span():
    tr = Tracer(enabled=True)
    tr.add_span(0.0, 2.0, "host0", "long")
    tr.add_span(1.0, 3.0, "pci0", "late")
    path = critical_path(tr, 0.0, 3.0)
    # Walks back through "late", then the portion of "long" before it.
    assert [s.name for s in path.steps] == ["long", "late"]
    assert path.steps[0].end == pytest.approx(1.0)


def test_critical_path_clamps_to_window():
    tr = Tracer(enabled=True)
    tr.add_span(0.0, 10.0, "host0", "spanning")
    path = critical_path(tr, 4.0, 6.0)
    assert len(path.steps) == 1
    assert (path.steps[0].start, path.steps[0].end) == (4.0, 6.0)


def test_critical_path_excludes_meta_lane():
    tr = Tracer(enabled=True)
    tr.add_span(0.0, 5.0, "run", "barrier[0]")
    path = critical_path(tr, 0.0, 5.0)
    assert [s.kind for s in path.steps] == ["wait"]


def test_critical_path_refuses_truncated():
    from repro.sim.trace import TraceTruncated

    tr = Tracer(enabled=True, max_records=1)
    tr.add_span(0.0, 1.0, "host0", "a")
    tr.add_span(1.0, 2.0, "host0", "b")
    with pytest.raises(TraceTruncated):
        critical_path(tr, 0.0, 2.0)


def test_critical_path_rejects_bad_window():
    with pytest.raises(ValueError):
        critical_path(Tracer(enabled=True), 2.0, 1.0)


# ----------------------------------------------------------------------
# Integration: real 16-node barriers, both networks
# ----------------------------------------------------------------------
def _traced_run(network, barrier):
    tracer = Tracer(enabled=True)
    if network == "quadrics":
        cluster = build_quadrics_cluster(nodes=16, tracer=tracer)
    else:
        cluster = build_myrinet_cluster(nodes=16, tracer=tracer)
    result = run_barrier_experiment(cluster, barrier, iterations=3, warmup=2)
    return tracer, result


@pytest.mark.parametrize(
    "network,barrier",
    [("quadrics", "nic-chained"), ("myrinet", "nic-collective"), ("myrinet", "host")],
)
def test_span_balance_and_nesting(network, barrier):
    tracer, _ = _traced_run(network, barrier)
    assert tracer.spans, "instrumentation emitted no spans"
    assert all(s.end >= s.start for s in tracer.spans)
    assert not tracer.truncated
    # Nesting: hardware-unit lanes are capacity-1 resources, so their
    # spans must never overlap (wire lanes are per directed pair and the
    # "run" lane is an annotation, both excluded).
    by_lane = {}
    for span in tracer.spans:
        if span.lane == "run" or span.lane.startswith("wire"):
            continue
        by_lane.setdefault(span.lane, []).append(span)
    for lane, spans in by_lane.items():
        spans.sort(key=lambda s: (s.start, s.end))
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start >= prev.end - 1e-9, (
                f"overlapping spans on {lane}: {prev} vs {cur}"
            )


@pytest.mark.parametrize(
    "network,barrier",
    [("quadrics", "nic-chained"), ("myrinet", "nic-collective")],
)
def test_critical_path_sums_to_iteration_latency(network, barrier):
    tracer, result = _traced_run(network, barrier)
    t0, t1 = result.iteration_window(-1)
    path = critical_path(tracer, t0, t1)
    assert path.total == pytest.approx(t1 - t0, abs=1e-9)
    assert sum(path.by_component().values()) == pytest.approx(t1 - t0, abs=0.01)
    assert sum(s.duration for s in path.steps) == pytest.approx(t1 - t0, abs=0.01)
    # The decomposition must attribute most of the latency to real work.
    assert path.by_component().get("wait", 0.0) < 0.5 * path.total


def test_chrome_trace_roundtrip_real_run(tmp_path):
    tracer, _ = _traced_run("quadrics", "nic-chained")
    path = tmp_path / "q.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(x) == len(tracer.spans)
    tids = {e["tid"] for e in x}
    named = {
        e["tid"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert tids <= named
