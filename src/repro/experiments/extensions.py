"""Extension collectives (§9): NIC-based broadcast and Allgather.

Scaling curves for the two future-work collectives built on the same
collective protocol, alongside the barrier for reference.  No paper
anchors exist (the paper proposes these); the structural expectations
are: log2-shaped scaling, exactly N-1 wire messages per broadcast,
N*ceil(log2 N) per allgather, zero ACKs everywhere.
"""

from __future__ import annotations

from functools import partial

from repro.cluster import build_myrinet_cluster, run_barrier_experiment
from repro.collectives import (
    NicBroadcastEngine,
    ProcessGroup,
    nic_broadcast_recv,
    nic_broadcast_root,
)
from repro.experiments.common import (
    ExperimentResult,
    Series,
    op_latency,
    parallel_map,
    print_experiment,
)
from repro.tools.runcache import RunCache

PROFILE = "lanai_xp_xeon2400"


def _broadcast_point(n: int, size_bytes: int, repeats: int) -> float:
    cluster = build_myrinet_cluster(PROFILE, nodes=n)
    group = ProcessGroup(list(range(n)))
    for rank in range(n):
        NicBroadcastEngine(cluster.nics[rank], group, rank)
    finish = []

    def root():
        for seq in range(repeats):
            yield from nic_broadcast_root(cluster.ports[0], group, seq, size_bytes, 0)
        finish.append(cluster.sim.now)

    def leaf(node):
        for seq in range(repeats):
            yield from nic_broadcast_recv(cluster.ports[node], group, seq)
        finish.append(cluster.sim.now)

    cluster.sim.process(root())
    for node in range(1, n):
        cluster.sim.process(leaf(node))
    cluster.sim.run()
    return max(finish) / repeats


def _allgather_point(n: int, repeats: int) -> float:
    cluster = build_myrinet_cluster(PROFILE, nodes=n)
    return op_latency(cluster, ProcessGroup(list(range(n))), "allgather", repeats)


def _alltoall_point(n: int, repeats: int) -> float:
    cluster = build_myrinet_cluster(PROFILE, nodes=n)
    return op_latency(cluster, ProcessGroup(list(range(n))), "alltoall", repeats)


def _barrier_point(n: int, repeats: int) -> float:
    return run_barrier_experiment(
        build_myrinet_cluster(PROFILE, nodes=n),
        "nic-collective",
        iterations=repeats,
        warmup=5,
    ).mean_latency_us


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    repeats = iterations or (15 if quick else 40)
    n_values = [2, 4, 8] if quick else [2, 4, 8, 16, 32]

    def series(label, point, **kwargs):
        calls = [partial(point, n, repeats=repeats, **kwargs) for n in n_values]
        return Series(label, n_values, parallel_map(calls, jobs=jobs, cache=cache))

    barrier = series("barrier", _barrier_point)
    bcast_small = series("bcast-64B", _broadcast_point, size_bytes=64)
    bcast_large = series("bcast-4KB", _broadcast_point, size_bytes=4096)
    allgather = series("allgather-4B", _allgather_point)
    alltoall = series("alltoall-4B", _alltoall_point)
    return ExperimentResult(
        exp_id="extensions",
        title="§9 extension collectives on the collective protocol (LANai-XP)",
        series=[barrier, bcast_small, bcast_large, allgather, alltoall],
        paper_anchors={},
        measured_anchors={},
        notes=[
            "broadcast: N-1 messages on a binomial NIC tree, no ACKs",
            "allgather: dissemination with payload doubling per round — "
            "costlier than the barrier on the same pattern",
            "alltoall: Bruck — same message pattern, ~N/2 blocks moved "
            "per rank per round",
            "all collectives share the fast path: these curves are the "
            "'Allgather or Alltoall' answer the paper asks for in §9",
        ],
    )


if __name__ == "__main__":
    print_experiment(run())
