"""Kernel-event ceilings on the golden barrier points and a data path.

Wall time is too noisy on shared CI runners to gate the simulator's
speed, but the number of kernel events a run schedules is exact and
deterministic, and host time follows it.  Each golden point (seed 0)
must reproduce its latency bit for bit and stay at or under its event
ceiling; so must a communicator mixing every Myrinet NIC collective.
The N=4096 Quadrics point is the scale gate: the fat tree at four
times the paper's largest model point, on the iteration schedule the
scale command uses.  The ceilings are today's
counts: a change that brings back an event per processor task (an
arbitrated request → sleep → release instead of a hold), or a link
decision pass that cannot grant (a phase walk, a pass on a full link,
a phase-burn event for elided up-edges), fails here.
Lower a ceiling when a change removes events; raise one only with a
change that must add them, and say why.
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_barrier_experiment

# name: (profile, barrier, nodes, (iterations, warm-up),
#        mean latency in µs, event ceiling)
GOLDEN_POINTS = {
    "lanai91_16": (
        "lanai91_piii700", "nic-collective", 16, (20, 5),
        25.737714285714436, 23_512,
    ),
    "myrinet64": (
        "lanai_xp_xeon2400", "nic-collective", 64, (20, 5),
        34.26825714285718, 151_062,
    ),
    "quadrics128": (
        "elan3_piii700", "nic-chained", 128, (20, 5),
        13.521357142857122, 195_378,
    ),
    # The prior work's direct scheme: GM send tokens and per-packet ACKs.
    "lanai91_16_direct": (
        "lanai91_piii700", "nic-direct", 16, (20, 5),
        46.51571428571404, 60_512,
    ),
    "quadrics4096": (
        "elan3_piii700", "nic-chained", 4096, (3, 1),
        24.646190476190487, 889_704,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_golden_point_latency_and_event_ceiling(name):
    profile, barrier, nodes, (iterations, warmup), latency_us, ceiling = (
        GOLDEN_POINTS[name]
    )
    cluster = build_cluster(profile, nodes)
    result = run_barrier_experiment(
        cluster, barrier, iterations=iterations, warmup=warmup, seed=0
    )
    assert result.mean_latency_us == latency_us
    events = cluster.sim.events_scheduled
    assert events <= ceiling, (
        f"{name}: {events:,} kernel events, ceiling {ceiling:,}"
    )


def test_data_path_end_time_and_event_ceiling():
    """Five rounds of allreduce, broadcast (rotating root), allgather,
    alltoall and barrier on one N=16 communicator: every NIC collective
    engine on one clock."""
    from repro.mpi import create_communicators

    cluster = build_cluster("lanai_xp_xeon2400", 16)
    comms = create_communicators(cluster)

    def program(comm):
        for r in range(5):
            total = yield from comm.allreduce(comm.rank + 1)
            assert total == 136
            value = yield from comm.bcast(
                value=("v", r), size_bytes=64, root=r % comm.size
            )
            assert value == ("v", r)
            gathered = yield from comm.allgather(comm.rank)
            assert gathered == {rank: rank for rank in range(comm.size)}
            blocks = yield from comm.alltoall(
                {dst: (comm.rank, dst) for dst in range(comm.size)}
            )
            assert blocks == {src: (src, comm.rank) for src in range(comm.size)}
            yield from comm.barrier()

    procs = [cluster.sim.process(program(comm)) for comm in comms]
    cluster.sim.run()
    assert all(proc.completion.processed for proc in procs)
    assert cluster.sim.now == 611.4720000000005
    events = cluster.sim.events_scheduled
    assert events <= 24_653, f"data path: {events:,} kernel events, ceiling 24,653"
