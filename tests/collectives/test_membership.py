"""Membership views and the NIC failure detector.

Covers the three evidence paths that feed :class:`MembershipView`:

* piggybacked liveness from ordinary collective traffic (no heartbeats
  sent while links stay chatty),
* active heartbeat probing and suspicion timeout on both networks,
* retry-exhaustion escalation from the Myrinet ACK path, unified into
  the same typed :class:`PeerDead` vocabulary.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import get_profile
from repro.collectives import BarrierFailure
from repro.collectives.failures import classify_reason
from repro.collectives.membership import (
    MembershipView,
    PeerDead,
    enable_failure_detector,
)
from repro.mpi import create_communicators
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.simlint import check_quiescent


class TestMembershipView:
    def test_observe_alive_is_monotonic(self):
        view = MembershipView(node_id=0)
        view.observe_alive(1, 10.0)
        view.observe_alive(1, 5.0)  # stale evidence must not rewind
        assert view.last_heard[1] == 10.0

    def test_self_observations_ignored(self):
        view = MembershipView(node_id=0)
        view.observe_alive(0, 10.0)
        assert 0 not in view.last_heard

    def test_declare_dead_idempotent_first_wins(self):
        view = MembershipView(node_id=0)
        first = view.declare_dead(2, 100.0, "heartbeat-timeout")
        second = view.declare_dead(2, 150.0, "retry-exhaustion")
        assert isinstance(first, PeerDead)
        assert second is None
        assert view.dead[2].detected_at == 100.0
        assert view.dead[2].origin == "heartbeat-timeout"

    def test_dead_peers_stop_accumulating_liveness(self):
        view = MembershipView(node_id=0)
        view.declare_dead(2, 100.0, "external")
        view.observe_alive(2, 200.0)  # late packet from a zombie
        assert 2 not in view.last_heard
        assert view.is_dead(2)

    def test_callbacks_fire_exactly_once_per_verdict(self):
        # First evidence wins: a second verdict for the same node is
        # dropped and the recorded one keeps its origin.
        view = MembershipView(node_id=0)
        assert view.declare_dead(3, 50.0, "heartbeat-timeout") is not None
        assert view.declare_dead(3, 60.0, "retry-exhaustion") is None
        assert view.dead[3].origin == "heartbeat-timeout"

    def test_alive_peers_excludes_self_and_dead(self):
        view = MembershipView(node_id=1)
        view.declare_dead(3, 10.0, "external")
        assert view.alive_peers(range(4)) == [0, 2]

    def test_silent_for_uses_default_for_never_heard(self):
        view = MembershipView(node_id=0)
        assert view.silent_for(5, now=400.0, since_default=100.0) == 300.0
        view.observe_alive(5, 350.0)
        assert view.silent_for(5, now=400.0, since_default=100.0) == 50.0


def _detector_cluster(profile_name, n, seed):
    sim = Simulator()
    sim.track_processes()
    faults = FaultInjector()
    profile = get_profile(profile_name)
    cluster = build_cluster(profile, n, faults=faults, sim=sim)
    rng = DeterministicRng(seed, "membership-test")
    for node in range(n):
        enable_failure_detector(
            cluster.nics[node], range(n), rng=rng, period_us=50.0,
            timeout_us=150.0, horizon_us=2000.0)
    return sim, faults, cluster


@pytest.mark.parametrize(
    "profile_name,counter",
    [("lanai_xp_xeon2400", "gm.peer_dead_hb"),
     ("elan3_piii700", "elan.peer_dead_hb")],
    ids=["myrinet", "quadrics"],
)
class TestHeartbeatDetection:
    def test_crash_is_convicted_by_every_survivor(self, profile_name, counter):
        n = 4
        sim, faults, cluster = _detector_cluster(profile_name, n, seed=11)
        victim = 2
        faults.kill_node(victim, at_us=100.0)

        def killer():
            yield 100.0
            cluster.nics[victim].crashed = True

        sim.process(killer(), name="killer")
        sim.run()
        survivors = [node for node in range(n) if node != victim]
        for s in survivors:
            view = cluster.nics[s].membership
            assert view.is_dead(victim), f"node {s} never convicted {victim}"
            verdict = view.dead[victim]
            assert verdict.origin == "heartbeat-timeout"
            # Suspicion needs a full timeout of silence since the
            # victim's last beat, which lands at most one period before
            # the kill at t=100.
            assert verdict.detected_at >= 100.0 - 50.0 + 150.0
            # And no survivor convicted another survivor.
            assert view.alive_peers(range(n)) == [
                p for p in survivors if p != s
            ]
        assert cluster.tracer.counters[counter] == len(survivors)

    def test_healthy_cluster_convicts_nobody(self, profile_name, counter):
        n = 4
        sim, _faults, cluster = _detector_cluster(profile_name, n, seed=12)
        sim.run()
        for node in range(n):
            assert not cluster.nics[node].membership.dead
        assert cluster.tracer.counters[counter] == 0

    def test_detector_drains_at_horizon(self, profile_name, counter):
        sim, _faults, cluster = _detector_cluster(profile_name, 4, seed=13)
        sim.run()  # would hang (or loop forever) without the horizon bound
        assert sim.now <= 2000.0 + 50.0
        report = check_quiescent(cluster)
        assert not report.findings


@pytest.mark.parametrize(
    "profile_name", ["lanai_xp_xeon2400", "elan3_piii700"],
    ids=["myrinet", "quadrics"],
)
def test_shared_detector_convicts_and_never_probes_busy_links(profile_name):
    """One detector on both NICs, N=8, one node killed at t=100.

    The survivors run back-to-back barriers among themselves, so every
    schedule link carries protocol traffic far more often than once a
    period: none of them may carry a probe while that traffic flows.
    Every survivor convicts the victim within timeout + one period.
    """
    n, victim, kill_at = 8, 6, 100.0
    period, timeout = 50.0, 150.0
    sim, faults, cluster = _detector_cluster(profile_name, n, seed=17)
    faults.kill_node(victim, at_us=kill_at)
    survivors = [node for node in range(n) if node != victim]
    comms = create_communicators(cluster, nodes=survivors)
    sent = []
    transmit = cluster.fabric.transmit

    def recording_transmit(packet):
        sent.append((sim.now, packet.src, packet.dst, packet.kind))
        transmit(packet)

    cluster.fabric.transmit = recording_transmit
    window = {}

    def killer():
        yield kill_at
        cluster.nics[victim].crashed = True

    def program(comm):
        for _ in range(60):
            yield from comm.barrier()
            window.setdefault("start", sim.now)
        window["end"] = min(window.get("end", sim.now), sim.now)

    sim.process(killer(), name="killer")
    for comm in comms:
        sim.process(program(comm), name=f"rank@{comm.node}")
    sim.run()

    for s in survivors:
        verdict = cluster.nics[s].membership.dead[victim]
        assert verdict.origin == "heartbeat-timeout"
        assert kill_at < verdict.detected_at <= kill_at + timeout + period
    schedule = comms[0]._ctx.barrier_group.collective_schedule("barrier")
    busy = {
        (survivors[rank], survivors[op.peer])
        for rank in range(len(survivors))
        for op in schedule.ops(rank)
        if op.kind == "send"
    }
    probes = [(t, src, dst) for t, src, dst, kind in sent if kind == "heartbeat"]
    assert probes, "the detector never probed an idle link"
    start, end = window["start"] + period, window["end"]
    assert end - start > 4 * period
    on_busy = [p for p in probes if (p[1], p[2]) in busy and start <= p[0] <= end]
    assert on_busy == []


class TestPiggybackedLiveness:
    def test_collective_traffic_refreshes_last_heard(self):
        """Ordinary barrier packets count as liveness evidence — no
        detector enabled, no heartbeats sent, yet every node has heard
        from its schedule peers."""
        sim = Simulator()
        sim.track_processes()
        profile = get_profile("lanai_xp_xeon2400")
        cluster = build_cluster(profile, 4, sim=sim)
        comms = create_communicators(cluster)

        def program(comm):
            yield from comm.barrier()

        for comm in comms:
            sim.process(program(comm), name=f"rank@{comm.node}")
        sim.run()
        assert cluster.tracer.counters["gm.heartbeat_tx"] == 0
        for node in range(4):
            view = cluster.nics[node].membership
            assert view.last_heard, f"node {node} heard nobody"
            assert all(peer != node for peer in view.last_heard)


class TestRetryExhaustionUnification:
    def test_ack_budget_escalates_to_peer_dead(self):
        """With the detector off, a blackholed peer is still convicted:
        the Myrinet timeout loop exhausts its ACK retry budget and
        reports through the same declare_dead path, and the in-flight
        direct-scheme barrier fails typed instead of hanging."""
        from repro.collectives import NicDirectBarrierEngine, nic_barrier
        from tests.collectives.conftest import (
            install_engines,
            make_group,
            run_all,
        )
        from tests.myrinet.conftest import TEST_GM, MyrinetTestCluster

        faults = FaultInjector()
        victim = 3
        faults.drop_all_matching(
            lambda p: victim in (p.src, p.dst), label=f"dead:{victim}"
        )
        gm = replace(TEST_GM, ack_timeout_us=20.0, max_retries=2)
        cluster = MyrinetTestCluster(n=4, gm=gm, faults=faults)
        cluster.sim.track_processes()
        group = make_group(cluster)
        install_engines(cluster, group, engine_cls=NicDirectBarrierEngine)
        failures = {}

        def prog(node):
            try:
                yield from nic_barrier(cluster.ports[node], group, 0)
            except BarrierFailure as exc:
                failures[node] = exc

        survivors = [node for node in range(4) if node != victim]
        run_all(cluster, [prog(node) for node in group.node_ids])
        # Every survivor whose schedule sent to the victim convicted it
        # via retry exhaustion; at least one must have.
        verdicts = [
            cluster.nics[s].membership.dead[victim]
            for s in survivors
            if cluster.nics[s].membership.is_dead(victim)
        ]
        assert verdicts, "no survivor escalated retry exhaustion"
        for verdict in verdicts:
            assert verdict.origin == "retry-exhaustion"
            assert "p2p seq" in verdict.detail
        # The in-flight barrier failed typed (peer-dead escalation or
        # the watchdog), never hung, and the reason classifies.
        assert failures
        for exc in failures.values():
            assert classify_reason(exc.reason) in ("PEER_DEAD", "BARRIER_DEADLINE")
        assert cluster.tracer.counters["gm.peer_dead"] >= 1
        report = check_quiescent(cluster)
        assert report.ok, report.render()
