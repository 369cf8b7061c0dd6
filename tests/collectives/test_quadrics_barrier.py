"""End-to-end tests for the chained-RDMA barrier on Quadrics (§7)."""

import pytest

from repro.collectives import ProcessGroup, QuadricsChainedBarrier
from repro.quadrics import elan_gsync
from tests.collectives.conftest import run_all
from tests.quadrics.conftest import QuadricsTestCluster


def make_drivers(qc, algorithm="dissemination", nodes=None):
    nodes = list(range(len(qc.nics))) if nodes is None else nodes
    group = ProcessGroup(nodes, algorithm=algorithm)
    drivers = {node: QuadricsChainedBarrier(qc.ports[node], group) for node in nodes}
    return group, drivers


@pytest.mark.parametrize("algorithm", ["dissemination", "pairwise-exchange", "gather-broadcast"])
def test_completes_all_ranks(qcluster8, algorithm):
    qc = qcluster8
    group, drivers = make_drivers(qc, algorithm)
    done = {}

    def prog(node):
        yield from drivers[node].barrier(0)
        done[node] = qc.sim.now

    run_all(qc, [prog(i) for i in range(8)])
    assert set(done) == set(range(8))


def test_no_early_exit(qcluster8):
    qc = qcluster8
    group, drivers = make_drivers(qc)
    entries, exits = {}, {}

    def prog(node, delay):
        yield delay
        entries[node] = qc.sim.now
        yield from drivers[node].barrier(0)
        exits[node] = qc.sim.now

    run_all(qc, [prog(i, float(i * 4)) for i in range(8)])
    assert min(exits.values()) >= max(entries.values())


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
@pytest.mark.parametrize("algorithm", ["dissemination", "pairwise-exchange"])
def test_odd_sizes(n, algorithm):
    qc = QuadricsTestCluster(n=n)
    group, drivers = make_drivers(qc, algorithm)
    done = []

    def prog(node):
        yield from drivers[node].barrier(0)
        done.append(node)

    run_all(qc, [prog(i) for i in range(n)])
    assert sorted(done) == list(range(n))


def test_consecutive_barriers_cumulative_events(qcluster8):
    """Back-to-back barriers reuse event words with growing thresholds."""
    qc = qcluster8
    group, drivers = make_drivers(qc)

    def prog(node):
        for seq in range(10):
            yield from drivers[node].barrier(seq)

    run_all(qc, [prog(i) for i in range(8)])
    assert all(d.barriers_completed == 10 for d in drivers.values())


def test_skewed_entries_overlap_safely(qcluster8):
    """A fast rank's next-barrier RDMA may land before a slow rank has

    armed its chain — cumulative event counters must absorb it."""
    qc = qcluster8
    group, drivers = make_drivers(qc)

    def prog(node):
        for seq in range(5):
            # Rank-dependent compute skew between barriers.
            yield float((node * 7) % 3)
            yield from drivers[node].barrier(seq)

    run_all(qc, [prog(i) for i in range(8)])
    assert all(d.barriers_completed == 5 for d in drivers.values())


def test_host_uninvolved_between_start_and_completion(qcluster8):
    """NIC offload: only the trigger command and the completion event

    touch the host bus per barrier (no per-phase crossings)."""
    qc = qcluster8
    group, drivers = make_drivers(qc)

    def prog(node):
        yield from drivers[node].barrier(0)

    run_all(qc, [prog(i) for i in range(8)])
    # Host->NIC: one command PIO; NIC->host: one 8-byte event DMA.
    assert qc.pcis[0].pio_count == 1
    assert qc.tracer.counters.get("pci0.dma.nic_to_host", 0) == 1


def test_faster_than_gsync(qcluster8):
    """The headline Quadrics claim: NIC barrier beats the tree barrier."""
    qc = qcluster8
    group, drivers = make_drivers(qc)
    spans = {"nic": 0.0, "gsync": 0.0}

    def prog(node):
        start = qc.sim.now
        yield from drivers[node].barrier(0)
        spans["nic"] = max(spans["nic"], qc.sim.now - start)
        mid = qc.sim.now
        yield from elan_gsync(qc.ports[node], list(range(8)), 0)
        spans["gsync"] = max(spans["gsync"], qc.sim.now - mid)

    run_all(qc, [prog(i) for i in range(8)])
    assert spans["nic"] < spans["gsync"]


def test_permuted_nodes(qcluster8):
    qc = qcluster8
    group, drivers = make_drivers(qc, nodes=[3, 0, 6, 1, 7, 4, 2, 5])
    done = []

    def prog(node):
        yield from drivers[node].barrier(0)
        done.append(node)

    run_all(qc, [prog(i) for i in range(8)])
    assert sorted(done) == list(range(8))


def test_prearmed_chain_state_does_not_grow_with_iterations():
    """Prearming arms one stride entry per (event, action): the armed
    heap entries over every NIC event are the same for 3 and for 30
    iterations, while the firings they hold scale with the count."""
    from repro.cluster import build_cluster
    from repro.collectives import prearm_chained_group

    def armed(iterations):
        cluster = build_cluster("elan3_piii700", 64)
        group = ProcessGroup(range(64), algorithm="dissemination")
        drivers = {
            node: QuadricsChainedBarrier(cluster.ports[node], group)
            for node in range(64)
        }
        assert prearm_chained_group(drivers, iterations)
        events = [ev for nic in cluster.nics for ev in nic._events.values()]
        return (
            sum(len(ev._armed) for ev in events),
            sum(ev.armed_count for ev in events),
        )

    entries3, firings3 = armed(3)
    entries30, firings30 = armed(30)
    assert entries3 == entries30 == 64 * 7  # six wait links + the done word
    assert firings30 == 10 * firings3
