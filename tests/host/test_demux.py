"""The poller-seat demux shared by GM and Elanlib ports."""

import pytest

from repro.cluster import build_cluster


def _gm(cluster, node):
    port = cluster.ports[node]
    return port.nic.recv_event_queue, port.recv_matching, port.poll_matching


def _elan_host_events(cluster, node):
    port = cluster.ports[node]
    return port.nic.host_events, port.recv_matching, port.poll_matching


PORTS = {
    "gm": ("lanai_xp_xeon2400", _gm),
    "elan": ("elan3_piii700", _elan_host_events),
}


@pytest.mark.parametrize("kind", sorted(PORTS))
def test_concurrent_waiters_each_get_their_own_event(kind):
    """Two waiters park on one port; the NIC posts their events in
    reverse order of waiting.  Each waiter still receives exactly its
    own event, and nothing is left buffered."""
    profile, open_port = PORTS[kind]
    cluster = build_cluster(profile, 2)
    sim = cluster.sim
    queue, recv, _poll = open_port(cluster, 0)
    got = {}

    def waiter(name):
        event = yield from recv(lambda ev, name=name: ev == ("word", name))
        got[name] = (event, sim.now)

    def nic():
        yield 10.0
        queue.post(("word", "b"))
        yield 10.0
        queue.post(("word", "a"))

    procs = [
        sim.process(waiter("a"), name="waiter-a"),
        sim.process(waiter("b"), name="waiter-b"),
        sim.process(nic(), name="nic"),
    ]
    sim.run()
    assert all(p.completion.processed for p in procs)
    assert got["a"][0] == ("word", "a")
    assert got["b"][0] == ("word", "b")
    assert got["b"][1] > 10.0 and got["a"][1] > 20.0
    assert len(queue) == 0
    demux = cluster.ports[0]._events if kind == "gm" else cluster.ports[0]._host_events
    assert demux.pending == []


@pytest.mark.parametrize("kind", sorted(PORTS))
def test_poll_buffers_unmatched_events_for_later_waiters(kind):
    profile, open_port = PORTS[kind]
    cluster = build_cluster(profile, 2)
    sim = cluster.sim
    queue, recv, poll = open_port(cluster, 0)
    seen = []

    def program():
        queue.post(("word", "x"))
        queue.post(("word", "y"))
        first = yield from poll(lambda ev: ev == ("word", "y"))
        missing = yield from poll(lambda ev: ev == ("word", "z"))
        second = yield from recv(lambda ev: ev == ("word", "x"))
        seen.extend([first, missing, second])

    sim.process(program(), name="poller")
    sim.run()
    assert seen == [("word", "y"), None, ("word", "x")]
