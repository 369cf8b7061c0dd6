"""The one request contract, on both networks.

``comm.ibarrier()`` returns a
:class:`~repro.collectives.messages.CollectiveRequest` on a Myrinet
communicator (the NIC-collective engine) and on a Quadrics one (the
chained-RDMA barrier).  The same handle promises the same things on
both: ``spin()`` returns what ``wait()`` returns, a typed failure
re-raises from every later call without touching the host queue, and
a chain with nothing to wait for settles at once.
"""

import pytest

from repro.cluster import build_cluster
from repro.collectives import CollectiveRequest, Revoked
from repro.mpi import create_communicators

PROFILES = {"myrinet": "lanai_xp_xeon2400", "quadrics": "elan3_piii700"}


def _comms(network, n=4, nodes=None):
    cluster = build_cluster(PROFILES[network], n)
    return cluster, create_communicators(cluster, nodes=nodes)


def _run(cluster, programs):
    procs = [cluster.sim.process(p, name=f"p{i}") for i, p in enumerate(programs)]
    cluster.sim.run()
    for proc in procs:
        assert proc.completion.processed, f"hang: {proc.name}"


def _forbid_host_queue(port):
    """Make any further host-queue access by ``port`` fail the test."""
    def touched(matches):
        raise AssertionError("a settled request touched the host queue")

    port.recv_matching = port.poll_matching = port.spin_matching = touched


@pytest.mark.parametrize("network", sorted(PROFILES))
def test_spin_returns_what_wait_returns(network):
    def results(how):
        cluster, comms = _comms(network)
        got = {}

        def rank(comm):
            for _ in range(3):
                request = yield from comm.ibarrier()
                assert isinstance(request, CollectiveRequest)
                result = yield from getattr(request, how)()
                # Once settled, every call hands back the same result.
                assert (yield from request.wait()) is result
                assert (yield from request.spin()) is result
                got.setdefault(comm.rank, []).append(
                    (type(result).__name__, result.group_id, result.seq)
                )

        _run(cluster, [rank(c) for c in comms])
        return got

    waited = results("wait")
    assert waited == results("spin")
    assert all(
        [seq for _, _, seq in done] == [0, 1, 2] for done in waited.values()
    )


@pytest.mark.parametrize("network", sorted(PROFILES))
def test_revoked_request_reraises_without_touching_the_queue(network):
    cluster, comms = _comms(network)
    sim = cluster.sim
    seen = []

    def waiter(comm):
        request = yield from comm.ibarrier()
        with pytest.raises(Revoked) as first:
            yield from request.wait()
        assert request.done and request.failure is first.value
        _forbid_host_queue(comm._port)
        now = sim.now
        for call in (request.test, request.wait, request.spin):
            with pytest.raises(Revoked) as again:
                yield from call()
            assert again.value is first.value
        assert sim.now == now
        seen.append(comm.rank)

    def revoke():
        # The last rank never joins, so the barrier is still in flight.
        yield 30.0
        comms[0]._ctx.revoke_epoch()

    _run(cluster, [waiter(c) for c in comms[:-1]] + [revoke()])
    assert sorted(seen) == [0, 1, 2]


def test_one_node_quadrics_chain_settles_at_once():
    cluster, (comm,) = _comms("quadrics", n=2, nodes=[0])
    # The empty chain settles at its post: no call reaches the queue.
    _forbid_host_queue(comm._port)
    got = []

    def rank():
        request = yield from comm.ibarrier()
        assert request.done and request.result is None
        got.append((yield from request.test()))
        request = yield from comm.ibarrier()
        got.append((yield from request.spin()))
        got.append((yield from comm.barrier()))

    _run(cluster, [rank()])
    assert got == [True, None, None]
    assert cluster.sim.now == pytest.approx(2.01, abs=1e-9)
    assert comm._ctx.drivers[0].barriers_completed == 3
