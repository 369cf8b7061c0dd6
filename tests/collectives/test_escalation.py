"""Retry-exhaustion escalation: typed failures, no hangs, no leaks.

A permanently dead link (or a crashed NIC) must surface a
:class:`BarrierFailure` with a typed reason once the (shrunk) retry
budget is spent — within a bounded sim time, with every rank's program
finishing, and with the quiescence audit finding zero leaked packets,
records, engine states or timers afterwards.
"""

from dataclasses import replace

from repro.collectives import (
    BarrierFailure,
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    nic_barrier,
)
from repro.network import FaultInjector
from repro.tools.simlint import check_quiescent
from tests.collectives.conftest import install_engines, make_group, run_all
from tests.myrinet.conftest import TEST_GM, MyrinetTestCluster

# Budgets shrunk so a dead peer exhausts them within a few hundred
# microseconds instead of the production-scale timeout horizon.
FAST_EXHAUST = replace(
    TEST_GM,
    ack_timeout_us=20.0,
    max_retries=2,
    nack_timeout_us=30.0,
    nack_max_rounds=3,
)


class _Profile:
    name = "test"


def escalation_cluster(faults, n=4, gm=FAST_EXHAUST):
    cluster = MyrinetTestCluster(n=n, gm=gm, faults=faults)
    cluster.faults = faults
    cluster.profile = _Profile()
    cluster.sim.track_processes()
    return cluster


def run_barriers_catching(cluster, group, iterations=1):
    """Per-rank programs that record one outcome per seq and never hang."""
    outcomes = {node: [] for node in group.node_ids}

    def prog(node):
        for seq in range(iterations):
            try:
                yield from nic_barrier(cluster.ports[node], group, seq)
            except BarrierFailure as failure:
                assert failure.seq == seq
                assert failure.node == node
                outcomes[node].append(failure.reason)
            else:
                outcomes[node].append("ok")

    run_all(cluster, [prog(node) for node in group.node_ids])
    return outcomes


DIRECT_REASONS = {"peer-declared-dead", "barrier-deadline-exceeded"}


def test_direct_dead_link_escalates_without_hang_or_leak():
    faults = FaultInjector()
    hole = faults.drop_all_matching(
        lambda p: p.src in (2, 3) and p.dst in (2, 3), label="dead:2<->3"
    )
    cluster = escalation_cluster(faults)
    group = make_group(cluster)
    install_engines(cluster, group, engine_cls=NicDirectBarrierEngine)

    outcomes = run_barriers_catching(cluster, group)

    reasons = {r for record in outcomes.values() for r in record if r != "ok"}
    assert reasons and reasons <= DIRECT_REASONS
    assert hole.dropped > 0
    # Bounded escalation: the whole run ends within a few deadline
    # horizons, not at some production-scale timeout.
    assert cluster.sim.now < 5 * FAST_EXHAUST.direct_barrier_deadline_us
    report = check_quiescent(cluster)
    assert report.ok, report.render()
    for nic in cluster.nics:
        assert nic.send_records == {}
        assert len(nic.packet_pool) == nic.params.send_packet_count


def test_collective_dead_link_exhausts_nack_budget():
    faults = FaultInjector()
    faults.drop_all_matching(
        lambda p: p.src in (2, 3) and p.dst in (2, 3), label="dead:2<->3"
    )
    cluster = escalation_cluster(faults)
    group = make_group(cluster)
    install_engines(cluster, group, engine_cls=NicCollectiveBarrierEngine)

    outcomes = run_barriers_catching(cluster, group)

    reasons = {r for record in outcomes.values() for r in record if r != "ok"}
    assert reasons == {"nack-retry-budget-exhausted"}
    assert cluster.tracer.counters["coll.barrier_failed"] >= 1
    report = check_quiescent(cluster)
    assert report.ok, report.render()
    for nic in cluster.nics:
        for engine in nic.engines.values():
            assert engine.states == {}


def test_crashed_nic_fails_in_flight_barrier_and_rejoins():
    # NIC 1 crashes mid-run and restarts: its in-flight barrier fails
    # with a typed reason on every rank, the volatile state is wiped,
    # and a barrier entered after the restart completes everywhere.
    faults = FaultInjector()
    crash_at, restart_delay = 5.0, 60.0
    faults.crash_window(1, crash_at, crash_at + restart_delay)
    # Extra NACK rounds so the survivors' backed-off budget spans the
    # restart skew: recovery, not a failure cascade, after the rejoin.
    cluster = escalation_cluster(
        faults, gm=replace(FAST_EXHAUST, nack_max_rounds=6)
    )
    cluster.nics[1].schedule_crash(crash_at, restart_delay)
    group = make_group(cluster)
    install_engines(cluster, group, engine_cls=NicCollectiveBarrierEngine)

    outcomes = run_barriers_catching(cluster, group, iterations=4)

    flat = [r for record in outcomes.values() for r in record]
    assert any(r != "ok" for r in flat), "the crash window hit no barrier"
    allowed = {"ok", "nack-retry-budget-exhausted", "nic-restart"}
    assert set(flat) <= allowed
    assert "nic-restart" in outcomes[1]
    # The final barrier starts well after the restart: full recovery.
    assert [record[-1] for record in outcomes.values()] == ["ok"] * 4
    assert cluster.tracer.counters["gm.nic_crash"] == 1
    assert cluster.tracer.counters["gm.nic_restart"] == 1
    report = check_quiescent(cluster)
    assert report.ok, report.render()


def _crash_nic1_and_run(install, step, iterations=3):
    """The barrier crash window above, under another collective: NIC 1
    crashes at 5 us and restarts at 65 us while ``iterations``
    sequences run; returns each rank's per-seq outcomes."""
    faults = FaultInjector()
    faults.crash_window(1, 5.0, 65.0)
    cluster = escalation_cluster(
        faults, gm=replace(FAST_EXHAUST, nack_max_rounds=6, max_retries=6)
    )
    cluster.nics[1].schedule_crash(5.0, 60.0)
    from repro.collectives import ProcessGroup

    group = ProcessGroup(list(range(4)))
    for rank, node in enumerate(group.node_ids):
        install(cluster.nics[node], group, rank)
    outcomes = {node: [] for node in group.node_ids}

    def prog(node):
        for seq in range(iterations):
            try:
                verdict = yield from step(cluster.ports[node], group, node, seq)
            except BarrierFailure as failure:
                verdict = failure.reason
            outcomes[node].append(verdict)

    run_all(cluster, [prog(node) for node in group.node_ids])
    report = check_quiescent(cluster)
    assert report.ok, report.render()
    return outcomes


def test_crashed_nic_fails_in_flight_allreduce():
    # A restart wipes every engine's SRAM, not only the barrier's: the
    # crashed NIC's in-flight allreduce fails typed instead of
    # completing from state that no longer exists.
    from repro.collectives import NicAllreduceEngine, nic_allreduce

    def step(port, group, node, seq):
        return (yield from nic_allreduce(port, group, seq, node + 1, "sum"))

    outcomes = _crash_nic1_and_run(NicAllreduceEngine, step)
    assert outcomes[1][0] == "nic-restart"
    assert set(r for record in outcomes.values() for r in record) <= {
        10, "nic-restart", "datacoll-retry-budget-exhausted",
    }


def test_crashed_nic_fails_in_flight_broadcast():
    from repro.collectives import (
        NicBroadcastEngine,
        nic_broadcast_recv,
        nic_broadcast_root,
    )

    def step(port, group, node, seq):
        if node == 0:
            done = yield from nic_broadcast_root(port, group, seq, 4096, ("b", seq))
        else:
            done = yield from nic_broadcast_recv(port, group, seq)
        return done.payload

    outcomes = _crash_nic1_and_run(NicBroadcastEngine, step)
    assert outcomes[1][0] == "nic-restart"
    assert outcomes[0] == [("b", seq) for seq in range(3)]


def test_failed_barriers_are_pruned():
    # A failed barrier retires into the same bounded archive a completed
    # one does: per-sequence bookkeeping never outgrows the archive.
    faults = FaultInjector()
    faults.drop_all_matching(lambda p: p.src == 1, label="mute:1")
    cluster = escalation_cluster(faults, n=2)
    group = make_group(cluster)
    engine, _ = install_engines(cluster, group)
    depth = FAST_EXHAUST.coll_archive_depth
    reasons = []

    def prog():
        for seq in range(depth + 4):
            try:
                yield from nic_barrier(cluster.ports[0], group, seq)
            except BarrierFailure as failure:
                reasons.append(failure.reason)

    run_all(cluster, [prog()])
    assert reasons == ["nack-retry-budget-exhausted"] * (depth + 4)
    assert engine.states == {}
    assert len(engine.archive) <= depth
    assert engine.done_floor == 3


def test_healed_blackhole_recovers_with_retransmissions():
    # A link flap long enough to force backed-off retries but shorter
    # than the budget: the barrier completes once the hole heals.
    faults = FaultInjector()
    hole = faults.flap_link(0, 1, 2.0, 45.0)
    cluster = escalation_cluster(faults)
    group = make_group(cluster)
    install_engines(cluster, group, engine_cls=NicCollectiveBarrierEngine)

    outcomes = run_barriers_catching(cluster, group)

    assert all(record == ["ok"] for record in outcomes.values())
    assert hole.dropped > 0
    assert cluster.tracer.counters["coll.nack_retransmit"] >= 1
    assert check_quiescent(cluster).ok


def test_heal_mid_nack_recovery_delivers_exactly_once():
    """Regression for Blackhole.heal() mid-NACK-recovery semantics:
    healing must only affect packets injected from the heal time on.
    Drops stay dropped, the post-heal NACK round's retransmission gets
    through, and the extra copies a healed-plus-duplicating link
    produces are suppressed by the receive engine (rx_duplicate), never
    re-applied — the allreduce sum is exact."""
    from repro.collectives import NicAllreduceEngine, nic_allreduce
    from repro.network.packet import PacketKind
    from repro.sim import DeterministicRng

    # Duplicate nearly every *delivered* packet so the healed link's
    # late retransmissions provably arrive more than once.
    faults = FaultInjector(rng=DeterministicRng(5), duplicate_probability=0.99)
    hole = faults.drop_all_matching(
        lambda p: p.src == 0 and p.dst == 1 and p.kind == PacketKind.BCAST,
        label="dead:0->1:data",
    )
    # The data engine's NACK rounds are bounded by max_retries; leave
    # enough budget that the heal (one to two rounds in) wins the race.
    cluster = escalation_cluster(
        faults, gm=replace(FAST_EXHAUST, nack_timeout_us=40.0, max_retries=8)
    )
    from repro.collectives import ProcessGroup

    group = ProcessGroup(list(range(4)))
    for rank, node in enumerate(group.node_ids):
        NicAllreduceEngine(cluster.nics[node], group, rank)
    results = {}

    def prog(node):
        result = yield from nic_allreduce(
            cluster.ports[node], group, 0, value=node + 1, op="sum"
        )
        results[node] = result

    def retransmissions():
        # The sender may have completed locally and archived the
        # message by the time the NACK lands — both branches are
        # NACK-driven retransmissions.
        counters = cluster.tracer.counters
        return (
            counters["allreduce.nack_retransmit"]
            + counters["allreduce.nack_stale_resend"]
        )

    def healer():
        # Heal strictly mid-recovery: after the original send AND at
        # least one NACK-driven retransmission have been swallowed.
        for _ in range(200):
            if hole.dropped >= 2 and retransmissions() >= 1:
                break
            yield 5.0
        hole.heal(cluster.sim.now)

    run_all(cluster, [prog(node) for node in range(4)] + [healer()])

    assert results == {node: 10 for node in range(4)}
    assert hole.healed and hole.healed_at is not None
    assert hole.dropped >= 2, "heal fired before any retransmit was dropped"
    assert retransmissions() >= 2
    assert cluster.tracer.counters["allreduce.rx_duplicate"] >= 1
    report = check_quiescent(cluster)
    assert report.ok, report.render()
