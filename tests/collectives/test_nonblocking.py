"""Non-blocking collectives: requests, overlap, out-of-order completion.

Covers the MPI-3-style ``i``-collective layer on both networks:

- the out-of-order-completion regression (a retired high seq must not
  swallow live lower-seq traffic — per-seq retirement, not a
  watermark);
- several sequences genuinely in flight per group, waited out of
  order, bit-identical to the blocking runs;
- ``test()`` polling as an alternative to ``wait()``;
- measured latency hiding from overlapping a barrier with an
  allreduce, against the back-to-back blocking baseline;
- the Quadrics chained-barrier request handles.
"""

from repro.collectives import (
    NicAllreduceEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    ProcessGroup,
    QuadricsChainedBarrier,
    nic_allreduce,
    nic_barrier,
    nic_iallgather,
    nic_iallreduce,
    nic_ibarrier,
    nic_ibcast,
    nic_ireduce,
    nic_reduce,
)
from repro.collectives.allgather import NicAllgatherEngine
from repro.collectives.reduce import NicReduceEngine
from tests.collectives.conftest import run_all
from tests.myrinet.conftest import MyrinetTestCluster
from tests.quadrics.conftest import QuadricsTestCluster


def install(cluster, engine_cls, **kwargs):
    group = ProcessGroup(list(range(len(cluster.nics))))
    engines = [
        engine_cls(cluster.nics[node], group, rank, **kwargs)
        for rank, node in enumerate(group.node_ids)
    ]
    return group, engines


# ----------------------------------------------------------------------
# Out-of-order completion (the done_through watermark regression)
# ----------------------------------------------------------------------
def test_retired_high_seq_does_not_swallow_live_low_seq():
    """Seq 1 retires everywhere before rank 0 even *starts* seq 0.

    Under the old single-watermark duplicate filter, every rank that
    finished seq 1 would then drop rank 0's live seq-0 messages as
    duplicates (and the NACK-recovery retransmits with them), ending in
    retry-budget exhaustion.  Per-seq retirement keeps seq 0 alive.
    """
    n = 4
    cluster = MyrinetTestCluster(n=n)
    group, engines = install(cluster, NicAllgatherEngine)
    results = {}

    def straggler(node):
        # Rank 0 completes seq 1 before contributing to seq 0 at all.
        req1 = yield from nic_iallgather(cluster.ports[node], group, 1, node + 100)
        r1 = yield from req1.wait()
        req0 = yield from nic_iallgather(cluster.ports[node], group, 0, node)
        r0 = yield from req0.wait()
        results[node] = (r0, r1)

    def prompt(node):
        req0 = yield from nic_iallgather(cluster.ports[node], group, 0, node)
        req1 = yield from nic_iallgather(cluster.ports[node], group, 1, node + 100)
        r1 = yield from req1.wait()
        r0 = yield from req0.wait()
        results[node] = (r0, r1)

    run_all(cluster, [straggler(0)] + [prompt(i) for i in range(1, n)])
    want0 = {rank: rank for rank in range(n)}
    want1 = {rank: rank + 100 for rank in range(n)}
    assert results == {i: (want0, want1) for i in range(n)}
    # Nothing gave up, nothing was mistaken for a duplicate.
    assert "datacoll.gave_up" not in cluster.tracer.counters
    assert "datacoll.rx_duplicate" not in cluster.tracer.counters
    assert all(e.states == {} for e in engines)
    # Both sequences are retired per-seq; the archive holds them both.
    assert all(sorted(e.archive) == [0, 1] for e in engines)


# ----------------------------------------------------------------------
# Multiple sequences in flight, waited out of order
# ----------------------------------------------------------------------
def test_four_in_flight_allreduces_match_blocking():
    depth = 4

    def blocking_totals():
        cluster = MyrinetTestCluster(n=4)
        group, _ = install(cluster, NicAllreduceEngine)
        got = {}

        def prog(node):
            totals = []
            for seq in range(depth):
                total = yield from nic_allreduce(
                    cluster.ports[node], group, seq, node * 3 + seq
                )
                totals.append(total)
            got[node] = totals

        run_all(cluster, [prog(i) for i in range(4)])
        return got

    cluster = MyrinetTestCluster(n=4)
    group, engines = install(cluster, NicAllreduceEngine)
    got = {}

    def prog(node):
        requests = []
        for seq in range(depth):
            req = yield from nic_iallreduce(
                cluster.ports[node], group, seq, node * 3 + seq
            )
            requests.append(req)
        # Wait newest-first: completions consumed out of posting order.
        totals = [None] * depth
        for seq in reversed(range(depth)):
            totals[seq] = yield from requests[seq].wait()
        got[node] = totals

    run_all(cluster, [prog(i) for i in range(4)])
    expected = [sum(node * 3 + seq for node in range(4)) for seq in range(depth)]
    assert all(totals == expected for totals in got.values())
    assert got == blocking_totals()
    assert all(e.completed == depth and e.states == {} for e in engines)


def test_request_test_polls_to_completion():
    cluster = MyrinetTestCluster(n=4)
    group, _ = install(cluster, NicAllgatherEngine)
    polls = {}

    def prog(node):
        req = yield from nic_iallgather(cluster.ports[node], group, 0, node)
        count = 0
        while not (yield from req.test()):
            count += 1
            yield 1.0  # host does something else between polls
        polls[node] = count
        assert req.done
        assert req.result == {rank: rank for rank in range(4)}
        # wait() after a successful test returns the stored result.
        again = yield from req.wait()
        assert again == req.result

    run_all(cluster, [prog(i) for i in range(4)])
    # The collective takes real simulated time: nobody's first poll wins.
    assert all(count > 0 for count in polls.values())


def test_overlap_hides_latency_vs_blocking():
    """ibarrier + iallreduce posted together beat the blocking sum."""

    def build():
        cluster = MyrinetTestCluster(n=8)
        barrier_group = ProcessGroup(list(range(8)))
        reduce_group = ProcessGroup(list(range(8)))
        for rank in range(8):
            NicCollectiveBarrierEngine(cluster.nics[rank], barrier_group, rank)
            NicAllreduceEngine(cluster.nics[rank], reduce_group, rank)
        return cluster, barrier_group, reduce_group

    cluster, barrier_group, reduce_group = build()

    def blocking(node):
        yield from nic_barrier(cluster.ports[node], barrier_group, 0)
        yield from nic_allreduce(cluster.ports[node], reduce_group, 0, node)

    run_all(cluster, [blocking(i) for i in range(8)])
    blocking_us = cluster.sim.now

    cluster, barrier_group, reduce_group = build()

    def overlapped(node):
        barrier_req = yield from nic_ibarrier(
            cluster.ports[node], barrier_group, 0
        )
        reduce_req = yield from nic_iallreduce(
            cluster.ports[node], reduce_group, 0, node
        )
        yield from reduce_req.wait()
        yield from barrier_req.wait()

    run_all(cluster, [overlapped(i) for i in range(8)])
    overlapped_us = cluster.sim.now

    assert overlapped_us < blocking_us, (
        f"overlap hid nothing: {overlapped_us} !< {blocking_us}"
    )


# ----------------------------------------------------------------------
# The other starters
# ----------------------------------------------------------------------
def test_ibcast_delivers_payload_everywhere():
    cluster = MyrinetTestCluster(n=8)
    group, _ = install(cluster, NicBroadcastEngine)
    got = {}

    def prog(node):
        req = yield from nic_ibcast(
            cluster.ports[node], group, 0, size_bytes=256,
            payload=b"tuned" if node == 0 else None,
        )
        done = yield from req.wait()
        got[node] = done.payload

    run_all(cluster, [prog(i) for i in range(8)])
    assert got == {i: b"tuned" for i in range(8)}


def test_ireduce_result_lands_at_root_only():
    cluster = MyrinetTestCluster(n=4)
    group, _ = install(cluster, NicReduceEngine)
    got = {}

    def prog(node):
        req = yield from nic_ireduce(cluster.ports[node], group, 0, node + 1, op="prod")
        got[node] = yield from req.wait()

    run_all(cluster, [prog(i) for i in range(4)])
    assert got[0] == 1 * 2 * 3 * 4
    assert all(got[i] is None for i in range(1, 4))


def test_reduce_result_lands_at_the_engines_root():
    # The root is fixed when the engines are installed; the host call
    # returns whatever its engine delivered.
    cluster = MyrinetTestCluster(n=4)
    group, _ = install(cluster, NicReduceEngine, root=2)
    got = {}

    def prog(node):
        got[node] = yield from nic_reduce(cluster.ports[node], group, 0, node + 1)

    run_all(cluster, [prog(i) for i in range(4)])
    assert got == {0: None, 1: None, 2: 1 + 2 + 3 + 4, 3: None}


# ----------------------------------------------------------------------
# Quadrics chained-barrier requests
# ----------------------------------------------------------------------
def test_quadrics_ibarrier_two_in_flight_waited_in_reverse():
    cluster = QuadricsTestCluster(n=8)
    nodes = list(range(8))
    group = ProcessGroup(nodes)
    drivers = {
        node: QuadricsChainedBarrier(cluster.ports[node], group)
        for node in nodes
    }

    def prog(node):
        driver = drivers[node]
        req0 = yield from driver.ibarrier(0)
        req1 = yield from driver.ibarrier(1)
        yield from req1.wait()
        yield from req0.wait()

    run_all(cluster, [prog(node) for node in nodes])
    assert all(d.barriers_completed == 2 for d in drivers.values())


def test_quadrics_ibarrier_test_polls_to_completion():
    cluster = QuadricsTestCluster(n=8)
    nodes = list(range(8))
    group = ProcessGroup(nodes)
    drivers = {
        node: QuadricsChainedBarrier(cluster.ports[node], group)
        for node in nodes
    }
    polls = {}

    def prog(node):
        req = yield from drivers[node].ibarrier(0)
        count = 0
        while not (yield from req.test()):
            count += 1
            yield 0.5
        polls[node] = count

    run_all(cluster, [prog(node) for node in nodes])
    assert all(d.barriers_completed == 1 for d in drivers.values())
    assert all(count > 0 for count in polls.values())
