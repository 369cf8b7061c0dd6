"""Tests for the wire-traffic inspection tools."""

import pytest

from repro.collectives import NicCollectiveBarrierEngine, ProcessGroup, nic_barrier
from repro.sim import Tracer, TraceTruncated
from repro.tools import message_flow, wire_sequence_diagram
from repro.tools.flow import wire_events
from tests.myrinet.conftest import MyrinetTestCluster


def _barrier(tracer):
    cluster = MyrinetTestCluster(n=4, tracer=tracer)
    group = ProcessGroup([0, 1, 2, 3])
    for rank in range(4):
        NicCollectiveBarrierEngine(cluster.nics[rank], group, rank)

    def prog(node):
        yield from nic_barrier(cluster.ports[node], group, 0)

    procs = [cluster.sim.process(prog(i)) for i in range(4)]
    cluster.sim.run()
    for proc in procs:
        assert proc.completion.processed
    return cluster, tracer


@pytest.fixture
def traced_barrier():
    return _barrier(Tracer(enabled=True))


def test_wire_events_decoded(traced_barrier):
    _, tracer = traced_barrier
    events = wire_events(tracer)
    # Dissemination, N=4: 2 rounds x 4 ranks = 8 barrier messages.
    assert len(events) == 8
    assert all(ev.kind == "barrier" for ev in events)
    assert all(ev.latency > 0 for ev in events)
    assert [ev.time for ev in events] == sorted(ev.time for ev in events)


def test_time_window_filter(traced_barrier):
    _, tracer = traced_barrier
    all_events = wire_events(tracer)
    mid = all_events[4].time
    early = wire_events(tracer, t1=mid)
    late = wire_events(tracer, t0=mid)
    boundary = sum(1 for ev in all_events if ev.time == mid)
    assert len(early) == sum(1 for ev in all_events if ev.time <= mid)
    assert len(late) == sum(1 for ev in all_events if ev.time >= mid)
    assert len(early) + len(late) == len(all_events) + boundary


def test_message_flow_format(traced_barrier):
    _, tracer = traced_barrier
    text = message_flow(tracer)
    assert "barrier" in text
    assert "->" in text
    assert len(text.splitlines()) == 1 + 8  # header + events


def test_sequence_diagram(traced_barrier):
    _, tracer = traced_barrier
    diagram = wire_sequence_diagram(tracer, nodes=4)
    assert "n0" in diagram and "n3" in diagram
    assert "B" in diagram  # barrier glyph
    assert "*" in diagram  # sender marker


def test_sequence_diagram_counts_the_packets_it_cuts(traced_barrier):
    _, tracer = traced_barrier
    lines = wire_sequence_diagram(tracer, nodes=4, max_rows=5).splitlines()
    # header, rule, 5 of the 8 packets, the cut line, the legend
    assert len(lines) == 2 + 5 + 2
    assert lines[-2] == "(… 3 more packets not shown)"


def test_wire_views_refuse_a_truncated_trace():
    _, tracer = _barrier(Tracer(enabled=True, max_records=5))
    assert tracer.truncated
    with pytest.raises(TraceTruncated, match="spans dropped"):
        wire_events(tracer)
    with pytest.raises(TraceTruncated):
        wire_sequence_diagram(tracer, nodes=4)
    with pytest.raises(TraceTruncated):
        message_flow(tracer)


def test_sequence_diagram_empty():
    tracer = Tracer(enabled=True)
    assert "no wire traffic" in wire_sequence_diagram(tracer, nodes=2)


def test_disabled_tracer_yields_nothing():
    tracer = Tracer(enabled=False)
    cluster = MyrinetTestCluster(n=2, tracer=tracer)
    group = ProcessGroup([0, 1])
    for rank in range(2):
        NicCollectiveBarrierEngine(cluster.nics[rank], group, rank)

    def prog(node):
        yield from nic_barrier(cluster.ports[node], group, 0)

    for i in range(2):
        cluster.sim.process(prog(i))
    cluster.sim.run()
    assert wire_events(tracer) == []
