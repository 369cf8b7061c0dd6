"""Kernel-event ceilings on the golden barrier points and a data path.

Wall time is too noisy on shared CI runners to gate the simulator's
speed, but the number of kernel events a run schedules is exact and
deterministic, and host time follows it.  Each golden point (seed 0)
must reproduce its latency bit for bit and stay at or under its event
ceiling; so must a communicator mixing every Myrinet NIC collective.
The N=4096 Quadrics point is the scale gate: the fat tree at four
times the paper's largest model point, on the iteration schedule the
scale command uses.  The four N=16 chaos-fuzz cases the benchmark runs
gate the express spin: their survivors poll ibarrier requests while a
dead peer is being detected.  The ceilings are today's
counts: a change that brings back an event per processor task (an
arbitrated request → sleep → release instead of a hold, or a pass for
an uncontended hold or call), an event on a NIC or host queue hand-off
(a put event, a get hop, a send packet buffer claimed by request), a
decision pass that cannot grant on any arbitrated unit — a link, the
LANai, a host CPU, the PCI bus or an Elan unit — (a phase walk, a pass
on a busy unit, a phase-burn event for elided up-edges), or an event
per empty host poll, fails here.
Lower a ceiling when a change removes events; raise one only with a
change that must add them, and say why.
"""

import hashlib
import json

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_barrier_experiment

# name: (profile, barrier, nodes, (iterations, warm-up),
#        mean latency in µs, event ceiling)
GOLDEN_POINTS = {
    "lanai91_16": (
        "lanai91_piii700", "nic-collective", 16, (20, 5),
        25.737714285714436, 11_112,
    ),
    "myrinet64": (
        "lanai_xp_xeon2400", "nic-collective", 64, (20, 5),
        34.26825714285718, 86_071,
    ),
    "quadrics128": (
        "elan3_piii700", "nic-chained", 128, (20, 5),
        13.521357142857122, 176_178,
    ),
    # The prior work's direct scheme: GM send tokens and per-packet ACKs.
    "lanai91_16_direct": (
        "lanai91_piii700", "nic-direct", 16, (20, 5),
        46.51571428571404, 32_112,
    ),
    "quadrics4096": (
        "elan3_piii700", "nic-chained", 4096, (3, 1),
        24.646190476190487, 791_400,
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
    assert events <= 13_140, f"data path: {events:,} kernel events, ceiling 13,140"


# (network, fuzz plan seed): (end time in µs, sha256 of the outcomes'
# JSON, first 16 hex digits, event ceiling).  Before the express spin
# the ceilings read 103,701 / 82,223 / 131,100 / 182,708, and before
# express grants 79,461 / 81,131 / 64,718 / 81,910, and before the
# host words moved to post/take 67,509 / 69,276 / 63,918 / 78,845, and
# before processors took the links' arming rule 67,416 / 68,997 /
# 63,638 / 77,573, and before up-edge elision stayed on under fault
# injection 66,551 / 67,906 / 63,630 / 77,566 (the two Quadrics cases
# run on the fat tree; the Myrinet Clos has no up-edges to elide).
FUZZ_CASES = {
    ("myrinet", 0): (6432.693379705693, "a1ac0f7f834c3fea", 66_551),
    ("myrinet", 1): (6592.005047665537, "6b61424de404c0e5", 67_906),
    ("quadrics", 0): (6253.186349092473, "557c6e242c7167fe", 53_807),
    ("quadrics", 1): (6810.035294733892, "be746b55aac8443f", 67_010),
}


@pytest.mark.parametrize("case", sorted(FUZZ_CASES), ids="{0[0]}-plan{0[1]}".format)
def test_fuzz_case_end_outcomes_and_event_ceiling(case):
    from repro.sim import Simulator
    from repro.tools.chaos import make_fuzz_plan, run_plan

    end_us, outcomes, ceiling = FUZZ_CASES[case]
    sim = Simulator()
    result = run_plan(make_fuzz_plan(*case, nodes=16), sim=sim)
    assert result.ok, (result.violations, result.quiescence)
    assert result.end_us == end_us
    digest = hashlib.sha256(json.dumps(result.outcomes).encode()).hexdigest()
    assert digest[:16] == outcomes
    events = sim.events_scheduled
    assert events <= ceiling, f"{case}: {events:,} kernel events, ceiling {ceiling:,}"
