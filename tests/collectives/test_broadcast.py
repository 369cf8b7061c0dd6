"""End-to-end tests for the NIC-based broadcast (§9 extension)."""

import pytest

from repro.collectives import (
    NicBroadcastEngine,
    ProcessGroup,
    nic_broadcast_recv,
    nic_broadcast_root,
)
from repro.collectives.algorithms import binomial_children, binomial_parent
from repro.network import FaultInjector, PacketKind
from tests.collectives.conftest import run_all
from tests.myrinet.conftest import MyrinetTestCluster


class TestBinomialTree:
    def test_root_children(self):
        assert binomial_children(0, 8) == [1, 2, 4]
        assert binomial_children(0, 5) == [1, 2, 4]

    def test_interior_children(self):
        assert binomial_children(1, 8) == [3, 5]
        assert binomial_children(2, 8) == [6]

    def test_leaf_children(self):
        assert binomial_children(7, 8) == []

    def test_parent(self):
        assert binomial_parent(0, 8) is None
        assert binomial_parent(1, 8) == 0
        assert binomial_parent(3, 8) == 1
        assert binomial_parent(6, 8) == 2
        assert binomial_parent(7, 8) == 3

    @pytest.mark.parametrize("size", range(2, 33))
    def test_tree_is_consistent(self, size):
        for rank in range(1, size):
            parent = binomial_parent(rank, size)
            assert rank in binomial_children(parent, size)
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for child in binomial_children(node, size):
                assert child not in reached
                reached.add(child)
                frontier.append(child)
        assert reached == set(range(size))


def setup(cluster, n=8, nodes=None):
    nodes = list(range(n)) if nodes is None else nodes
    group = ProcessGroup(nodes)
    engines = [
        NicBroadcastEngine(cluster.nics[node], group, rank)
        for rank, node in enumerate(group.node_ids)
    ]
    return group, engines


class TestBroadcast:
    def test_payload_reaches_everyone(self, mcluster=None):
        cluster = MyrinetTestCluster(n=8)
        group, engines = setup(cluster)
        got = {}

        def root():
            done = yield from nic_broadcast_root(
                cluster.ports[0], group, 0, size_bytes=256, payload="blob"
            )
            got[0] = done.payload

        def leaf(node):
            done = yield from nic_broadcast_recv(cluster.ports[node], group, 0)
            got[node] = done.payload

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 8)])
        assert got == {i: "blob" for i in range(8)}
        assert all(e.completed == 1 for e in engines)
        assert all(e.states == {} for e in engines)

    def test_message_count_is_n_minus_one(self):
        cluster = MyrinetTestCluster(n=8)
        group, _ = setup(cluster)

        def root():
            yield from nic_broadcast_root(cluster.ports[0], group, 0, 64, "x")

        def leaf(node):
            yield from nic_broadcast_recv(cluster.ports[node], group, 0)

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 8)])
        assert cluster.tracer.counters["wire.bcast"] == 7
        assert cluster.tracer.counters.get("wire.ack", 0) == 0

    def test_consecutive_broadcasts(self):
        cluster = MyrinetTestCluster(n=4)
        group, engines = setup(cluster, n=4)
        got = {i: [] for i in range(4)}

        def root():
            for seq in range(5):
                done = yield from nic_broadcast_root(
                    cluster.ports[0], group, seq, 32, payload=seq * 100
                )
                got[0].append(done.payload)

        def leaf(node):
            for seq in range(5):
                done = yield from nic_broadcast_recv(cluster.ports[node], group, seq)
                got[node].append(done.payload)

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 4)])
        for node in range(4):
            assert got[node] == [0, 100, 200, 300, 400]

    def test_interior_nodes_forward_without_host(self):
        """Only the delivery DMA touches each non-root host."""
        cluster = MyrinetTestCluster(n=8)
        group, _ = setup(cluster)

        def root():
            yield from nic_broadcast_root(cluster.ports[0], group, 0, 128, "x")

        def leaf(node):
            yield from nic_broadcast_recv(cluster.ports[node], group, 0)

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 8)])
        # Node 1 is interior (forwards to 3 and 5): its PCI traffic is
        # one join PIO + one payload DMA + one event DMA — no per-child
        # crossings.
        assert cluster.pcis[1].dma_count == 2

    def test_lost_hop_recovered_by_nack(self):
        faults = FaultInjector()
        faults.drop_nth_matching(
            lambda p: p.kind == PacketKind.BCAST and p.dst == 2, occurrence=1
        )
        cluster = MyrinetTestCluster(n=8, faults=faults)
        group, _ = setup(cluster)
        got = {}

        def root():
            yield from nic_broadcast_root(cluster.ports[0], group, 0, 64, "safe")
            got[0] = True

        def leaf(node):
            done = yield from nic_broadcast_recv(cluster.ports[node], group, 0)
            got[node] = done.payload == "safe"

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 8)])
        assert all(got.values())
        resends = (
            cluster.tracer.counters.get("bcast.nack_retransmit", 0)
            + cluster.tracer.counters.get("bcast.nack_stale_resend", 0)
        )
        assert resends >= 1

    def test_random_loss_many_broadcasts(self):
        from repro.sim import DeterministicRng

        faults = FaultInjector(rng=DeterministicRng(3), drop_probability=0.05)
        cluster = MyrinetTestCluster(n=8, faults=faults)
        group, engines = setup(cluster)

        def root():
            for seq in range(10):
                yield from nic_broadcast_root(cluster.ports[0], group, seq, 64, seq)

        def leaf(node):
            for seq in range(10):
                done = yield from nic_broadcast_recv(cluster.ports[node], group, seq)
                assert done.payload == seq

        run_all(cluster, [root()] + [leaf(i) for i in range(1, 8)])
        assert all(e.completed == 10 for e in engines)

    def test_permuted_group(self):
        cluster = MyrinetTestCluster(n=8)
        nodes = [4, 1, 6, 0, 7, 3, 2, 5]
        group, _ = setup(cluster, nodes=nodes)
        got = {}

        def root():  # rank 0 lives on node 4
            yield from nic_broadcast_root(cluster.ports[4], group, 0, 32, "p")
            got[4] = True

        def leaf(node):
            done = yield from nic_broadcast_recv(cluster.ports[node], group, 0)
            got[node] = done.payload == "p"

        run_all(cluster, [root()] + [leaf(n) for n in nodes if n != 4])
        assert all(got.values()) and len(got) == 8

    def test_wrong_node_rejected(self):
        cluster = MyrinetTestCluster(n=4)
        group = ProcessGroup([0, 1, 2, 3])
        with pytest.raises(ValueError):
            NicBroadcastEngine(cluster.nics[0], group, rank=2)
