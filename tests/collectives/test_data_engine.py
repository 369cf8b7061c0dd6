"""Unit-level tests of the shared data-collective engine machinery."""

import pytest

from repro.collectives import ProcessGroup
from repro.collectives.allgather import NicAllgatherEngine, nic_allgather
from repro.collectives.engine import SequenceLayout, SequenceState
from repro.network import FaultInjector, Packet, PacketKind
from tests.collectives.conftest import run_all
from tests.myrinet.conftest import MyrinetTestCluster


class TestDataState:
    def test_initial(self):
        state = SequenceState(3, SequenceLayout(()))
        assert state.seq == 3
        assert not state.started and not state.complete
        assert state.pending == {} and state.sent_messages == {}

    def test_cancel_timer_noop(self):
        SequenceState(0, SequenceLayout(())).cancel_timers()


class TestEngineGuards:
    def test_wrong_node_rejected(self):
        cluster = MyrinetTestCluster(n=2)
        group = ProcessGroup([0, 1])
        with pytest.raises(ValueError):
            NicAllgatherEngine(cluster.nics[0], group, rank=1)

    def test_unknown_command(self):
        cluster = MyrinetTestCluster(n=2)
        group = ProcessGroup([0, 1])
        NicAllgatherEngine(cluster.nics[0], group, 0)
        cluster.nics[0].post_engine_command((group.group_id, "frobnicate", 0))
        with pytest.raises(ValueError, match="unknown engine command"):
            cluster.sim.run()

    def test_barrier_packet_rejected(self):
        cluster = MyrinetTestCluster(n=2)
        group = ProcessGroup([0, 1])
        engine = NicAllgatherEngine(cluster.nics[0], group, 0)
        packet = Packet(1, 0, PacketKind.BARRIER, 8, payload=None)
        with pytest.raises(TypeError):
            list(engine.on_packet(packet))


class TestDuplicateSuppression:
    def test_duplicate_in_flight_message_ignored(self):
        """A retransmission racing the original must merge only once."""
        cluster = MyrinetTestCluster(n=4)
        group = ProcessGroup([0, 1, 2, 3])
        engines = [
            NicAllgatherEngine(cluster.nics[i], group, i) for i in range(4)
        ]
        # Duplicate every allgather data packet on the wire.
        original = cluster.fabric.transmit

        def duplicating(packet):
            original(packet)
            if packet.kind == PacketKind.BCAST:
                clone = Packet(
                    packet.src, packet.dst, packet.kind,
                    packet.size_bytes, payload=packet.payload,
                )
                original(clone)

        cluster.fabric.transmit = duplicating

        def prog(node):
            gathered = yield from nic_allgather(cluster.ports[node], group, 0, node)
            assert gathered == {r: r for r in range(4)}

        run_all(cluster, [prog(i) for i in range(4)])
        assert cluster.tracer.counters["allgather.rx_duplicate"] >= 1
        assert all(e.completed == 1 for e in engines)

    def test_archive_bounded(self):
        cluster = MyrinetTestCluster(n=2)
        group = ProcessGroup([0, 1])
        engines = [NicAllgatherEngine(cluster.nics[i], group, i) for i in range(2)]

        def prog(node):
            for seq in range(12):
                yield from nic_allgather(cluster.ports[node], group, seq, node)

        run_all(cluster, [prog(i) for i in range(2)])
        assert all(len(e.archive) <= 8 for e in engines)
        # Retirement is archive-aligned: the last 8 sequences sit in
        # the archive, everything older is below the pruned floor.
        assert all(sorted(e.archive) == list(range(4, 12)) for e in engines)
        assert all(e.done_floor == 3 for e in engines)
        assert all(e._retired(s) for e in engines for s in range(12))
        assert not any(e._retired(12) for e in engines)


class TestGiveUp:
    def test_dead_sender_fails_typed_instead_of_hanging(self):
        """Black-holing a peer: ranks stuck behind it exhaust the NACK
        retry budget and their hosts get a *typed* CollectiveFailure —
        the regression for the hang where `_on_nack_timeout` only
        counted `gave_up` and left the state (and the host's
        recv_matching) dangling forever."""
        import dataclasses

        from repro.collectives.engine import RETRY_BUDGET_EXHAUSTED
        from repro.collectives.messages import CollectiveFailure
        from tests.myrinet.conftest import TEST_GM

        gm = dataclasses.replace(TEST_GM, max_retries=3, nack_timeout_us=50.0)
        faults = FaultInjector()
        faults.drop_all_matching(lambda p: p.src == 1)  # rank 1 mute
        cluster = MyrinetTestCluster(n=4, gm=gm, faults=faults)
        group = ProcessGroup([0, 1, 2, 3])
        engines = [NicAllgatherEngine(cluster.nics[i], group, i) for i in range(4)]

        failures = []

        def prog(node):
            try:
                yield from nic_allgather(cluster.ports[node], group, 0, node)
            except CollectiveFailure as exc:
                failures.append((node, exc.reason))

        procs = [cluster.sim.process(prog(i)) for i in range(4)]
        cluster.sim.run()  # MUST terminate
        assert cluster.tracer.counters["allgather.gave_up"] >= 1
        # Every host unblocked: the stuck ranks raised typed failures
        # instead of hanging in recv_matching.
        assert all(p.completion.processed for p in procs)
        assert failures
        assert all(reason == RETRY_BUDGET_EXHAUSTED for _, reason in failures)
        # No dangling per-sequence state on any NIC.
        assert all(not e.states for e in engines)
