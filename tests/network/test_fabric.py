"""Unit tests for the wormhole fabric."""

import random

import pytest

from repro.network import Fabric, FaultInjector, Packet, PacketKind, WireParams
from repro.network.faults import FaultDecision
from repro.sim import Simulator
from repro.sim import resources
from repro.sim.resources import ArbitratedResource, ArbitrationDomain
from repro.topology import ClosTopology, QuaternaryFatTree

PARAMS = WireParams(
    inject_us=0.1,
    switch_latency_us=0.3,
    propagation_us=0.05,
    bandwidth_bytes_per_us=250.0,
)


def make_fabric(n=4, topo_cls=ClosTopology, faults=None, params=PARAMS):
    sim = Simulator()
    fabric = Fabric(sim, topo_cls(n), params, faults=faults)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        fabric.attach(i, lambda p, i=i: inboxes[i].append(p))
    return sim, fabric, inboxes


def test_wire_params_validation():
    with pytest.raises(ValueError):
        WireParams(0.1, 0.3, 0.05, 0.0)
    with pytest.raises(ValueError):
        WireParams(-0.1, 0.3, 0.05, 100.0)


def test_delivery_latency_single_crossbar():
    sim, fabric, inboxes = make_fabric()
    pkt = Packet(0, 1, PacketKind.BARRIER, size_bytes=25)
    fabric.transmit(pkt)
    sim.run()
    # inject 0.1 + 1 switch * 0.3 + 2 links * 0.05 + 25/250
    assert pkt.latency == pytest.approx(0.1 + 0.3 + 0.1 + 0.1)
    assert inboxes[1] == [pkt]


def test_delivery_records_timestamps():
    sim, fabric, _ = make_fabric()
    pkt = Packet(0, 2, PacketKind.DATA, 100)
    sim.schedule(5.0, fabric.transmit, pkt)
    sim.run()
    assert pkt.sent_at == 5.0
    assert pkt.delivered_at > 5.0


def test_unattached_port_rejected():
    sim = Simulator()
    fabric = Fabric(sim, ClosTopology(4), PARAMS)
    with pytest.raises(ValueError):
        fabric.transmit(Packet(0, 1, PacketKind.DATA, 8))


def test_double_attach_rejected():
    sim, fabric, _ = make_fabric()
    with pytest.raises(ValueError):
        fabric.attach(0, lambda p: None)


def test_link_contention_serializes():
    """Two packets on the same directional link queue up."""
    sim, fabric, inboxes = make_fabric()
    big = Packet(0, 1, PacketKind.DATA, size_bytes=2500)  # 10us serialization
    small = Packet(0, 1, PacketKind.DATA, size_bytes=25)
    fabric.transmit(big)
    fabric.transmit(small)
    sim.run()
    # The small packet can't claim the nic0->xbar0 link until big drains.
    assert small.delivered_at > big.delivered_at


def test_disjoint_paths_do_not_interact():
    sim, fabric, inboxes = make_fabric()
    a = Packet(0, 1, PacketKind.DATA, 2500)
    b = Packet(2, 3, PacketKind.DATA, 2500)
    fabric.transmit(a)
    fabric.transmit(b)
    sim.run()
    assert a.delivered_at == pytest.approx(b.delivered_at)


def test_dropped_packet_never_arrives():
    fi = FaultInjector()
    fi.drop_nth_matching(lambda p: True)
    sim, fabric, inboxes = make_fabric(faults=fi)
    fabric.transmit(Packet(0, 1, PacketKind.BARRIER, 8))
    sim.run()
    assert inboxes[1] == []
    assert fi.dropped == 1


def test_counters():
    sim, fabric, _ = make_fabric()
    tracer = fabric.tracer
    fabric.transmit(Packet(0, 1, PacketKind.BARRIER, 8))
    fabric.transmit(Packet(1, 2, PacketKind.ACK, 8))
    sim.run()
    assert tracer.counters["wire.packets"] == 2
    assert tracer.counters["wire.barrier"] == 1
    assert tracer.counters["wire.ack"] == 1
    assert fabric.delivered_count == 2


class _DuplicateEverything:
    """A fault injector stub: every packet gets a wire duplicate."""

    def inspect(self, packet):
        return FaultDecision(duplicate=True)


def test_transmit_numbers_wire_ids_per_fabric():
    """The fabric numbers ``wire_id``s at transmit: every transmitted
    packet, duplicate and broadcast gets a distinct id, counted from
    zero in each fabric, so a second run in one process traces the
    same ids as the first."""
    for _ in range(2):
        sim, fabric, inboxes = make_fabric(
            n=16, topo_cls=QuaternaryFatTree, faults=_DuplicateEverything()
        )
        a = Packet(0, 1, PacketKind.DATA, 64)
        b = Packet(0, 1, PacketKind.DATA, 64)
        bcast = Packet(0, 0, PacketKind.BCAST, 8)
        assert a.wire_id == b.wire_id == -1  # unnumbered until sent
        fabric.transmit(a)
        fabric.transmit(b)
        fabric.broadcast(bcast, targets=range(16))
        sim.run()
        assert (a.wire_id, b.wire_id, bcast.wire_id) == (0, 2, 4)
        # Port 1 receives both packets, both duplicates and the
        # broadcast: five distinct ids.
        assert sorted(p.wire_id for p in inboxes[1]) == [0, 1, 2, 3, 4]


def test_fat_tree_farther_nodes_take_longer():
    sim, fabric, _ = make_fabric(n=16, topo_cls=QuaternaryFatTree)
    near = Packet(0, 1, PacketKind.RDMA, 8)   # same leaf: 1 switch
    far = Packet(0, 15, PacketKind.RDMA, 8)   # via root: 3 switches
    fabric.transmit(near)
    fabric.transmit(far)
    sim.run()
    assert far.latency > near.latency


def test_hardware_broadcast_reaches_all_simultaneously():
    sim, fabric, inboxes = make_fabric(n=16, topo_cls=QuaternaryFatTree)
    pkt = Packet(0, 0, PacketKind.BCAST, 8)
    fabric.broadcast(pkt, targets=range(16))
    sim.run()
    assert all(len(inboxes[i]) == 1 for i in range(16))
    assert pkt.delivered_at is not None


def test_hardware_broadcast_rejected_on_clos():
    sim, fabric, _ = make_fabric(n=4, topo_cls=ClosTopology)
    with pytest.raises(TypeError):
        fabric.broadcast(Packet(0, 0, PacketKind.BCAST, 8), targets=range(4))


def test_broadcast_requires_attached_targets():
    sim = Simulator()
    fabric = Fabric(sim, QuaternaryFatTree(4), PARAMS)
    fabric.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        fabric.broadcast(Packet(0, 0, PacketKind.BCAST, 8), targets=[0, 1])


def test_same_instant_contention_is_transmit_order_independent():
    # Two NICs inject to the same destination at the same microsecond;
    # they contend for the destination's last link.  The arbiter grants
    # in canonical packet order, so per-packet latencies must not depend
    # on which transmit() call the scheduler happened to pop first.
    def run(order):
        sim, fabric, _ = make_fabric(4)
        pkts = {src: Packet(src, 2, PacketKind.BARRIER, 25) for src in (0, 1)}
        for src in order:
            sim.schedule(1.0, fabric.transmit, pkts[src])
        sim.run()
        return {src: p.latency for src, p in pkts.items()}

    forward = run((0, 1))
    assert forward == run((1, 0))
    # They genuinely contended: one of them queued behind the other.
    assert forward[0] != forward[1]


def test_arbitration_adds_no_simulated_time_when_uncontended():
    sim, fabric, _ = make_fabric(4)
    lone = Packet(0, 1, PacketKind.BARRIER, 25)
    fabric.transmit(lone)
    sim.run()
    assert lone.latency == pytest.approx(0.1 + 0.3 + 0.1 + 0.1)


def test_same_phase_link_decisions_share_one_kernel_event():
    """The arbitration domain pools every same-(instant, phase) link
    decision under a single scheduled call — the event-count win that
    makes 16k-node sweeps affordable — without changing grant results.
    A resource built without a domain has one of its own, so its pass
    stays its own kernel event."""
    sim = Simulator()
    domain = ArbitrationDomain(sim)
    a = ArbitratedResource(sim, 1, "a", domain=domain)
    b = ArbitratedResource(sim, 1, "b", domain=domain)
    granted = []
    base = sim.events_scheduled
    a.request(("k",)).add_callback(lambda _: granted.append("a"))
    b.request(("k",)).add_callback(lambda _: granted.append("b"))
    # Two same-phase requests on two links arm exactly one decision event.
    assert sim.events_scheduled == base + 1
    sim.run()
    assert granted == ["a", "b"]

    c = ArbitratedResource(sim, 1, "c")
    d = ArbitratedResource(sim, 1, "d")
    base = sim.events_scheduled
    c.request(("k",))
    d.request(("k",))
    assert sim.events_scheduled == base + 2


def test_pooled_pass_still_grants_in_canonical_order_per_link():
    sim = Simulator()
    link = ArbitratedResource(sim, 1, "l", domain=ArbitrationDomain(sim))
    granted = []
    link.request(("z",)).add_callback(lambda _: granted.append("z"))
    link.request(("a",)).add_callback(lambda _: granted.append("a"))
    sim.run()
    assert granted == ["a"]  # canonical key wins; "z" waits for release
    link.release()
    sim.run()
    assert granted == ["a", "z"]


def test_observe_tx_multiple_observers_all_see_every_tx():
    # Regression: observe_tx used to hold one callback per port, so a
    # second subscriber silently replaced the first.  Both the tracer
    # hook and the cross-traffic accounting must coexist.
    sim, fabric, _ = make_fabric()
    first, second = [], []
    fabric.observe_tx(0, lambda dst, now: first.append(dst))
    fabric.observe_tx(0, lambda dst, now: second.append(dst))
    fabric.transmit(Packet(0, 1, PacketKind.DATA, 8, seq=1))
    fabric.transmit(Packet(0, 2, PacketKind.DATA, 8, seq=2))
    sim.run()
    assert first == [1, 2]
    assert second == [1, 2]


def test_observe_tx_invoked_in_registration_order():
    sim, fabric, _ = make_fabric()
    calls = []
    fabric.observe_tx(0, lambda dst, now: calls.append("a"))
    fabric.observe_tx(0, lambda dst, now: calls.append("b"))
    fabric.transmit(Packet(0, 1, PacketKind.DATA, 8))
    sim.run()
    assert calls == ["a", "b"]


def test_attach_sink_intercepts_kind_before_nic_delivery():
    sim, fabric, inboxes = make_fabric()
    sunk = []
    fabric.attach_sink(1, PacketKind.XTRAFFIC, sunk.append)
    fabric.transmit(Packet(0, 1, PacketKind.XTRAFFIC, 64, seq=0))
    fabric.transmit(Packet(0, 1, PacketKind.DATA, 64, seq=1))
    sim.run()
    # The xtraffic packet terminates at the sink; data still reaches
    # the port handler.
    assert [p.kind for p in sunk] == [PacketKind.XTRAFFIC]
    assert [p.kind for p in inboxes[1]] == [PacketKind.DATA]


def test_attach_sink_rejects_double_attach():
    sim, fabric, _ = make_fabric()
    fabric.attach_sink(1, PacketKind.XTRAFFIC, lambda p: None)
    with pytest.raises(ValueError):
        fabric.attach_sink(1, PacketKind.XTRAFFIC, lambda p: None)


def test_flow_counters_attribute_by_group_and_flow_label():
    class _Grouped:
        def __init__(self, group_id):
            self.group_id = group_id

    class _Flow:
        def __init__(self, flow):
            self.flow = flow

    sim, fabric, _ = make_fabric()
    fabric.transmit(Packet(0, 1, PacketKind.BARRIER, 8, payload=_Grouped(7)))
    fabric.transmit(Packet(1, 2, PacketKind.BARRIER, 8, payload=_Grouped(7)))
    fabric.transmit(Packet(2, 3, PacketKind.XTRAFFIC, 64, payload=_Flow("xtraffic")))
    fabric.transmit(Packet(3, 0, PacketKind.ACK, 4))
    sim.run()
    flows = fabric.flow_counters()
    assert flows["group:7"]["packets"] == 2
    assert flows["group:7"]["bytes"] == 16
    assert flows["flow:xtraffic"]["packets"] == 1
    assert flows["kind:ack"]["packets"] == 1


def test_broadcast_reads_a_generator_of_targets_once():
    sim, fabric, inboxes = make_fabric(n=16, topo_cls=QuaternaryFatTree)
    fabric.broadcast(Packet(0, 0, PacketKind.BCAST, 8), (p for p in range(16)))
    sim.run()
    assert all(len(inboxes[i]) == 1 for i in range(16))


def test_elided_route_schedules_one_event_per_link_decision():
    """A lone worm 0 -> 63 on a 64-node fat tree climbs three stages:
    its injection link, two elided up-edges (two delta phases, no
    event), three arbitrated descent links, then the drain — five
    kernel events, at the unelided latency."""
    sim, fabric, inboxes = make_fabric(n=64, topo_cls=QuaternaryFatTree)
    pkt = Packet(0, 63, PacketKind.RDMA, 25)
    base = sim.events_scheduled
    fabric.transmit(pkt)
    sim.run()
    assert sim.events_scheduled - base == 5
    assert pkt.latency == PARAMS.head_latency(5, 6) + PARAMS.serialization(25)
    assert inboxes[63] == [pkt]


class _PassLog(Simulator):
    """Logs ``(now, phase)`` of every decision pass an arbitration
    domain schedules."""

    def __init__(self):
        super().__init__()
        self.passes = []

    def schedule_phase(self, phase, fn, *args):
        if isinstance(getattr(fn, "__self__", None), ArbitrationDomain):
            self.passes.append((self.now, phase))
        super().schedule_phase(phase, fn, *args)


def _unit(kind):
    """A capacity-1 unit and ``claim(key, tag, hold_us)``, made at the
    current instant and phase, that keeps the unit ``hold_us``.  The log
    gets ``(tag, grant instant)``.  A ``"link"`` is a link in a shared
    domain whose request's grant schedules its release; a ``"cpu"`` is
    a standalone processor given a task by ``call``, the callback form
    of ``hold``, whose completion logs the grant."""
    sim = _PassLog()
    log = []
    if kind == "link":
        unit = ArbitratedResource(sim, 1, "l", domain=ArbitrationDomain(sim))

        def claim(key, tag, hold_us):
            def granted(_event):
                log.append((tag, sim.now))
                sim.schedule(hold_us, unit.release)

            unit.request(key).add_callback(granted)
    else:
        unit = ArbitratedResource(sim, 1, "cpu")

        def claim(key, tag, hold_us):
            unit.call(key, hold_us, lambda: log.append((tag, sim.now - hold_us)))

    return sim, unit, claim, log


@pytest.mark.parametrize("kind", ["link", "cpu"])
def test_request_on_full_link_schedules_nothing_until_release(kind):
    """A claim on a full unit arms no pass: the release that frees the
    unit arms the one that grants it.  The CPU takes its first task as
    an express grant, with no pass at all."""
    sim, _, claim, log = _unit(kind)
    claim(("a",), "a", 1.0)
    sim.schedule(0.5, claim, ("b",), "b", 0.25)
    sim.run()
    assert log == [("a", 0.0), ("b", 1.0)]
    first = [(0.0, 1)] if kind == "link" else []
    assert sim.passes == first + [(1.0, 1)]


@pytest.mark.parametrize("kind", ["link", "cpu"])
def test_leftover_request_is_decided_at_its_birth_phase_without_walking(kind):
    """A request born at phase 5 of an earlier instant on a full unit is
    granted after the release at phase 6, by the one pass that can
    grant it (a pass at every phase 1..6 used to walk up to it)."""
    sim, _, claim, log = _unit(kind)
    claim(("a",), "a", 1.0)
    sim.schedule_phase(5, claim, ("b",), "b", 0.25)
    sim.run()
    assert log == [("a", 0.0), ("b", 1.0)]
    first = [(0.0, 1)] if kind == "link" else []
    assert sim.passes == first + [(1.0, 6)]


def test_cross_instant_births_compare_as_bare_phases():
    """Today's rule, pinned: births are phase numbers compared across
    instants, so a worm waiting since t=1 (born at phase 5, smaller
    key) loses the freed link at t=2 to a newcomer born at phase 2.
    Changing this moves simulated results; see DESIGN.md section 12."""
    sim, link, claim, log = _unit("link")
    claim(("holder",), "holder", 2.0)
    sim.schedule(1.0, sim.schedule_phase, 5, claim, ("a",), "waiter", 1.0)
    sim.schedule(2.0, sim.schedule_phase, 2, claim, ("b",), "newcomer", 1.0)
    sim.run(until=2.5)
    assert log == [("holder", 0.0), ("newcomer", 2.0)]
    # The release arms the waiter's pass at phase 6; the newcomer's
    # pass at phase 3 supersedes it, and it returns without deciding.
    assert sim.passes == [(0.0, 1), (2.0, 6), (2.0, 3)]
    assert link._pending[0][:2] == (5, ("a",))


def _record_worms(monkeypatch):
    """Log every worm's claims (link by link, in order) and, at its
    drain, the links it releases with its latency and skip, keyed by
    the packet's wire id."""
    claims, drains = {}, {}
    push, drain = ArbitratedResource._push, resources._drain_worm

    def logged_push(self, birth, key, waiter, cost, args):
        if waiter is None:
            claims.setdefault(args[0].wire_id, []).append(self)
        push(self, birth, key, waiter, cost, args)

    def logged_drain(worm):
        drains[worm[0].wire_id] = (list(worm[1]), worm[2], worm[4])
        drain(worm)

    monkeypatch.setattr(ArbitratedResource, "_push", logged_push)
    monkeypatch.setattr(resources, "_drain_worm", logged_drain)
    return claims, drains


@pytest.mark.parametrize("reference", [True, False])
def test_fat_tree_route_entries_follow_the_topology_route(reference, monkeypatch):
    """A worm's route, cut per packet from the per-port link chains, is
    the topology's switch route, link for link: every pair at N=64 and
    a seeded sample at N=1024 and N=4096.  Elision drops exactly the
    up-edges between switch stages and re-adds one delta phase per
    edge; the head latency is the route's."""
    claims, drains = _record_worms(monkeypatch)
    rng = random.Random(33)
    for n in (64, 1024, 4096):
        topo = QuaternaryFatTree(n)
        sim = Simulator()
        fabric = Fabric(sim, topo, PARAMS, reference=reference)
        for port in range(n):
            fabric.attach(port, lambda p: None)
        if n == 64:
            pairs = [(s, d) for s in range(n) for d in range(n)]
        else:
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
        packets = [Packet(s, d, PacketKind.RDMA, 0) for s, d in pairs]
        claims.clear()
        drains.clear()
        for packet in packets:
            fabric.transmit(packet)
        sim.run()
        for packet in packets:
            src, dst = packet.src, packet.dst
            route = topo.route(src, dst)
            nodes = [f"nic{src}", *route.hops, f"nic{dst}"]
            want = [fabric._link(a, b) for a, b in zip(nodes, nodes[1:])]
            skip = 0 if reference else max(topo.lca_level(src, dst) - 1, 0)
            links, head, worm_skip = drains[packet.wire_id]
            assert worm_skip == skip
            assert claims[packet.wire_id] == [want[0], *want[1 + skip:]]
            assert links == [want[0], *want[1 + skip:]]
            assert head == PARAMS.head_latency(route.switch_count, route.link_count)


def test_fat_tree_fabric_state_does_not_grow_with_distinct_pairs():
    """Fat-tree routes are not memoized per pair: once a barrier's
    traffic (dissemination, 256 ports) has touched every port, worms
    between a thousand new pairs leave every fabric container the same
    size, and the Clos-only route memo stays empty."""
    n = 256
    sim, fabric, inboxes = make_fabric(n=n, topo_cls=QuaternaryFatTree)
    for step in range(8):
        for src in range(n):
            fabric.transmit(Packet(src, (src + (1 << step)) % n, PacketKind.RDMA, 0))
        sim.run()

    def sizes():
        return {
            name: len(value) for name, value in vars(fabric).items()
            if isinstance(value, (dict, list))
        }

    before = sizes()
    rng = random.Random(33)
    for _ in range(1000):
        src = rng.randrange(n)
        dst = (src + rng.randrange(1, n)) % n
        fabric.transmit(Packet(src, dst, PacketKind.RDMA, 0))
    sim.run()
    assert sum(map(len, inboxes.values())) == 8 * n + 1000
    assert sizes() == before
    assert before["_route_cache"] == 0
