"""Fault-injection tests: receiver-driven NACK retransmission (§6.3)."""


from repro.collectives import (
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    nic_barrier,
)
from repro.network import FaultInjector, PacketKind
from repro.sim import DeterministicRng
from tests.collectives.conftest import install_engines, make_group, run_all
from tests.myrinet.conftest import MyrinetTestCluster


def lossy_cluster(n=8, drop_probability=0.0, seed=1):
    faults = FaultInjector(
        rng=DeterministicRng(seed, "faults") if drop_probability else None,
        drop_probability=drop_probability,
    )
    cluster = MyrinetTestCluster(n=n, faults=faults)
    cluster.faults = faults
    return cluster


def run_barriers(cluster, group, iterations=1, until=None):
    def prog(node):
        for seq in range(iterations):
            yield from nic_barrier(cluster.ports[node], group, seq)

    run_all(cluster, [prog(node) for node in group.node_ids], until=until)


class TestNackRecovery:
    def test_single_lost_barrier_message_recovered(self):
        cluster = lossy_cluster()
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER and p.dst == 3, occurrence=1
        )
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group)
        counters = cluster.tracer.counters
        assert counters["coll.nack_sent"] >= 1
        assert counters["coll.nack_retransmit"] >= 1
        assert counters["coll.barrier_complete"] == 8

    def test_lost_first_phase_message(self):
        cluster = lossy_cluster()
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER, occurrence=1
        )
        group = make_group(cluster, "pairwise-exchange")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8

    def test_multiple_losses_same_barrier(self):
        cluster = lossy_cluster()
        for occ in (1, 2, 3):
            cluster.faults.drop_nth_matching(
                lambda p: p.kind == PacketKind.BARRIER, occurrence=occ
            )
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8

    def test_lost_nack_itself_recovered_by_rearmed_timer(self):
        cluster = lossy_cluster()
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER, occurrence=1
        )
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.NACK, occurrence=1
        )
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8
        assert cluster.tracer.counters["coll.nack_sent"] >= 2

    def test_lost_retransmission_retried(self):
        cluster = lossy_cluster()
        # Drop the original AND the first retransmission.
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER and p.dst == 2, occurrence=1
        )
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER and p.dst == 2, occurrence=2
        )
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8

    def test_random_loss_many_iterations(self):
        """2% random loss: every barrier still completes."""
        cluster = lossy_cluster(drop_probability=0.02, seed=7)
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group, iterations=20)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8 * 20
        assert cluster.faults.dropped > 0

    def test_clean_run_sends_no_nacks(self):
        cluster = lossy_cluster()
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        run_barriers(cluster, group, iterations=5)
        assert cluster.tracer.counters.get("coll.nack_sent", 0) == 0


class TestDirectSchemeReliability:
    def test_ack_timeout_recovers_direct_barrier(self):
        """The direct scheme leans on GM's sender-side retransmission."""
        cluster = lossy_cluster()
        cluster.faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BARRIER, occurrence=2
        )
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicDirectBarrierEngine)
        run_barriers(cluster, group)
        counters = cluster.tracer.counters
        assert counters["coll.barrier_complete"] == 8
        assert counters["gm.retransmit"] >= 1

    def test_random_loss_direct(self):
        cluster = lossy_cluster(drop_probability=0.02, seed=11)
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicDirectBarrierEngine)
        run_barriers(cluster, group, iterations=10)
        assert cluster.tracer.counters["coll.barrier_complete"] == 8 * 10


class TestDuplicateArrival:
    @staticmethod
    def _skewed_barrier(duplicate: bool):
        """N=4 dissemination, node 3 entering 20us late.  With
        ``duplicate``, node 1 gets node 0's phase-0 message twice at
        the same instant — while its barrier is still live, waiting on
        the late node."""
        cluster = MyrinetTestCluster(n=4)
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, NicCollectiveBarrierEngine)
        if duplicate:
            deliver = cluster.fabric._handlers[1]
            sent = []

            def deliver_twice(packet):
                deliver(packet)
                if packet.kind == PacketKind.BARRIER and not sent:
                    sent.append(packet)
                    deliver(packet.clone())

            cluster.fabric._handlers[1] = deliver_twice
        exits = {}

        def prog(node):
            if node == 3:
                yield 20.0
            yield from nic_barrier(cluster.ports[node], group, 0)
            exits[node] = cluster.sim.now

        run_all(cluster, [prog(node) for node in group.node_ids])
        return cluster.tracer.counters, exits

    def test_duplicate_on_live_sequence_is_counted_and_harmless(self):
        clean_counters, clean_exits = self._skewed_barrier(duplicate=False)
        counters, exits = self._skewed_barrier(duplicate=True)
        assert clean_counters.get("coll.rx_duplicate", 0) == 0
        assert counters["coll.rx_duplicate"] == 1
        assert counters["coll.barrier_complete"] == 4
        assert exits == clean_exits
