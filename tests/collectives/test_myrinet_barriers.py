"""End-to-end tests: host-based, direct, and collective NIC barriers."""

import pytest

from repro.collectives import (
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    host_barrier,
    nic_barrier,
)
from tests.collectives.conftest import install_engines, make_group, run_all
from tests.myrinet.conftest import MyrinetTestCluster


# ----------------------------------------------------------------------
# Host-based barrier
# ----------------------------------------------------------------------
class TestHostBarrier:
    @pytest.mark.parametrize("algorithm", ["dissemination", "pairwise-exchange", "gather-broadcast"])
    def test_completes(self, mcluster, algorithm):
        group = make_group(mcluster, algorithm)
        done = {}

        def prog(node):
            yield from host_barrier(mcluster.ports[node], group, 0)
            done[node] = mcluster.sim.now

        run_all(mcluster, [prog(i) for i in range(8)])
        assert set(done) == set(range(8))

    def test_no_early_exit(self, mcluster):
        group = make_group(mcluster)
        entries, exits = {}, {}

        def prog(node, delay):
            yield delay
            entries[node] = mcluster.sim.now
            yield from host_barrier(mcluster.ports[node], group, 0)
            exits[node] = mcluster.sim.now

        run_all(mcluster, [prog(i, float(i * 3)) for i in range(8)])
        assert min(exits.values()) >= max(entries.values())

    def test_consecutive_barriers(self, mcluster):
        group = make_group(mcluster)
        counts = {i: 0 for i in range(8)}

        def prog(node):
            for seq in range(5):
                yield from host_barrier(mcluster.ports[node], group, seq)
                counts[node] += 1

        run_all(mcluster, [prog(i) for i in range(8)])
        assert all(c == 5 for c in counts.values())

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8])
    def test_odd_group_sizes(self, n):
        cluster = MyrinetTestCluster(n=n)
        group = make_group(cluster, "pairwise-exchange")
        done = []

        def prog(node):
            yield from host_barrier(cluster.ports[node], group, 0)
            done.append(node)

        run_all(cluster, [prog(i) for i in range(n)])
        assert sorted(done) == list(range(n))


# ----------------------------------------------------------------------
# NIC-based barriers (both engines)
# ----------------------------------------------------------------------
ENGINES = [NicCollectiveBarrierEngine, NicDirectBarrierEngine]


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("algorithm", ["dissemination", "pairwise-exchange"])
class TestNicBarriers:
    def test_completes(self, mcluster, engine_cls, algorithm):
        group = make_group(mcluster, algorithm)
        install_engines(mcluster, group, engine_cls)
        done = {}

        def prog(node):
            ev = yield from nic_barrier(mcluster.ports[node], group, 0)
            done[node] = ev.seq

        run_all(mcluster, [prog(i) for i in range(8)])
        assert all(done[i] == 0 for i in range(8))

    def test_no_early_exit(self, mcluster, engine_cls, algorithm):
        group = make_group(mcluster, algorithm)
        install_engines(mcluster, group, engine_cls)
        entries, exits = {}, {}

        def prog(node, delay):
            yield delay
            entries[node] = mcluster.sim.now
            yield from nic_barrier(mcluster.ports[node], group, 0)
            exits[node] = mcluster.sim.now

        run_all(mcluster, [prog(i, float(i * 5)) for i in range(8)])
        assert min(exits.values()) >= max(entries.values())

    def test_many_consecutive_barriers(self, mcluster, engine_cls, algorithm):
        group = make_group(mcluster, algorithm)
        engines = install_engines(mcluster, group, engine_cls)

        def prog(node):
            for seq in range(10):
                yield from nic_barrier(mcluster.ports[node], group, seq)

        run_all(mcluster, [prog(i) for i in range(8)])
        assert all(e.completed == 10 for e in engines)
        # State must be pruned after completion (no leak).
        assert all(e.states == {} for e in engines)


class TestSchemeDifferences:
    """The measurable claims of §3/§6: fewer packets, fewer PCI crossings."""

    def _run(self, engine_cls, iterations=5):
        cluster = MyrinetTestCluster(n=8)
        group = make_group(cluster, "dissemination")
        install_engines(cluster, group, engine_cls)

        def prog(node):
            for seq in range(iterations):
                yield from nic_barrier(cluster.ports[node], group, seq)

        run_all(cluster, [prog(i) for i in range(8)])
        return cluster

    def test_collective_scheme_sends_no_acks(self):
        cluster = self._run(NicCollectiveBarrierEngine)
        assert cluster.tracer.counters.get("wire.ack", 0) == 0
        assert cluster.tracer.counters["wire.barrier"] == 8 * 3 * 5

    def test_direct_scheme_acks_every_message(self):
        """ACK-based reliability doubles the packet count (§6.3)."""
        cluster = self._run(NicDirectBarrierEngine)
        barriers = cluster.tracer.counters["wire.barrier"]
        acks = cluster.tracer.counters["wire.ack"]
        assert barriers == 8 * 3 * 5
        assert acks == barriers

    def test_collective_faster_than_direct(self):
        fast = self._run(NicCollectiveBarrierEngine)
        slow = self._run(NicDirectBarrierEngine)
        assert fast.sim.now < slow.sim.now

    def test_host_based_slowest(self):
        nic = self._run(NicCollectiveBarrierEngine)
        cluster = MyrinetTestCluster(n=8)
        group = make_group(cluster, "dissemination")

        def prog(node):
            for seq in range(5):
                yield from host_barrier(cluster.ports[node], group, seq)

        run_all(cluster, [prog(i) for i in range(8)])
        assert nic.sim.now < cluster.sim.now

    def test_nic_barrier_minimal_pci_traffic(self):
        """NIC-based: one PIO + one completion DMA per node per barrier."""
        cluster = self._run(NicCollectiveBarrierEngine)
        # 5 barriers: each node: 5 PIO doorbells (plus preposting setup).
        pio = cluster.pcis[0].pio_count
        dma = cluster.pcis[0].dma_count
        assert pio <= 5 + 1
        assert dma == 5  # one completion event per barrier


class TestMixedGroupMapping:
    def test_permuted_node_order(self, mcluster):
        """Rank order independent of node ids (random permutation runs)."""
        group = make_group(mcluster, nodes=[5, 2, 7, 0, 3, 6, 1, 4])
        install_engines(mcluster, group)
        done = []

        def prog(node):
            yield from nic_barrier(mcluster.ports[node], group, 0)
            done.append(node)

        run_all(mcluster, [prog(i) for i in range(8)])
        assert sorted(done) == list(range(8))

    def test_subgroup_of_cluster(self, mcluster):
        group = make_group(mcluster, nodes=[1, 3, 5])
        install_engines(mcluster, group)
        done = []

        def prog(node):
            yield from nic_barrier(mcluster.ports[node], group, 0)
            done.append(node)

        run_all(mcluster, [prog(i) for i in (1, 3, 5)])
        assert sorted(done) == [1, 3, 5]

    def test_engine_wrong_node_rejected(self, mcluster):
        group = make_group(mcluster)
        with pytest.raises(ValueError):
            NicCollectiveBarrierEngine(mcluster.nics[0], group, rank=3)
