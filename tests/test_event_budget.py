"""Kernel-event ceilings on the three golden barrier points.

Wall time is too noisy on shared CI runners to gate the simulator's
speed, but the number of kernel events a run schedules is exact and
deterministic, and host time follows it.  Each golden point (20 timed
+ 5 warm-up iterations, seed 0) must reproduce its latency bit for bit
and stay at or under its event ceiling.  The ceilings are today's
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

# name: (profile, barrier, nodes, mean latency in µs, event ceiling)
GOLDEN_POINTS = {
    "lanai91_16": (
        "lanai91_piii700", "nic-collective", 16, 25.737714285714436, 23_512,
    ),
    "myrinet64": (
        "lanai_xp_xeon2400", "nic-collective", 64, 34.26825714285718, 151_062,
    ),
    "quadrics128": (
        "elan3_piii700", "nic-chained", 128, 13.521357142857122, 195_378,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_golden_point_latency_and_event_ceiling(name):
    profile, barrier, nodes, latency_us, ceiling = GOLDEN_POINTS[name]
    cluster = build_cluster(profile, nodes)
    result = run_barrier_experiment(
        cluster, barrier, iterations=20, warmup=5, seed=0
    )
    assert result.mean_latency_us == latency_us
    events = cluster.sim.events_scheduled
    assert events <= ceiling, (
        f"{name}: {events:,} kernel events, ceiling {ceiling:,}"
    )
