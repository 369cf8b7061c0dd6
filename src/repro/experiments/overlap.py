"""Non-blocking overlap: latency hiding from concurrent collectives.

The NIC engines run every sequence as independent state, so a host
that posts a barrier and an allreduce together (MPI-3 style
``i``-collectives) pays close to the *maximum* of the two latencies
instead of their sum — the NICs pipeline both protocols while the host
waits once.  This experiment measures that hiding directly:

- ``blocking``   — each round runs ``nic_barrier`` then
  ``nic_allreduce`` back-to-back (two full host round-trips);
- ``overlapped`` — each round posts ``nic_ibarrier`` +
  ``nic_iallreduce`` (two doorbells), then waits for both.

Both use one barrier group and one allreduce group over the same
nodes (a group object is dedicated to one collective, as GM dedicates
ports).  No paper anchor exists — the paper's §9 proposes the data
collectives; the non-blocking API is the natural next step — so the
expectation is structural: overlapped ≈ max(barrier, allreduce) + one
doorbell, clearly under the blocking sum.
"""

from __future__ import annotations

from functools import partial

from repro.cluster import build_myrinet_cluster
from repro.collectives import (
    NicAllreduceEngine,
    NicCollectiveBarrierEngine,
    ProcessGroup,
    nic_allreduce,
    nic_barrier,
    nic_iallreduce,
    nic_ibarrier,
)
from repro.experiments.common import (
    ExperimentResult,
    Series,
    parallel_map,
    print_experiment,
)
from repro.tools.runcache import RunCache

PROFILE = "lanai_xp_xeon2400"


def _build(n: int):
    cluster = build_myrinet_cluster(PROFILE, nodes=n)
    barrier_group = ProcessGroup(list(range(n)))
    allreduce_group = ProcessGroup(list(range(n)))
    for rank in range(n):
        NicCollectiveBarrierEngine(cluster.nics[rank], barrier_group, rank)
        NicAllreduceEngine(cluster.nics[rank], allreduce_group, rank)
    return cluster, barrier_group, allreduce_group


def _blocking_point(n: int, repeats: int) -> float:
    cluster, barrier_group, allreduce_group = _build(n)
    finish = []

    def prog(node):
        for seq in range(repeats):
            yield from nic_barrier(cluster.ports[node], barrier_group, seq)
            yield from nic_allreduce(
                cluster.ports[node], allreduce_group, seq, node
            )
        finish.append(cluster.sim.now)

    for node in range(n):
        cluster.sim.process(prog(node))
    cluster.sim.run()
    return max(finish) / repeats


def _overlap_point(n: int, repeats: int) -> float:
    cluster, barrier_group, allreduce_group = _build(n)
    finish = []

    def prog(node):
        port = cluster.ports[node]
        for seq in range(repeats):
            barrier_req = yield from nic_ibarrier(port, barrier_group, seq)
            reduce_req = yield from nic_iallreduce(
                port, allreduce_group, seq, node
            )
            yield from reduce_req.wait()
            yield from barrier_req.wait()
        finish.append(cluster.sim.now)

    for node in range(n):
        cluster.sim.process(prog(node))
    cluster.sim.run()
    return max(finish) / repeats


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    repeats = iterations or (15 if quick else 40)
    n_values = [2, 4, 8] if quick else [2, 4, 8, 16, 32]
    blocking = Series(
        "blocking", n_values,
        parallel_map([partial(_blocking_point, n, repeats) for n in n_values],
                     jobs=jobs, cache=cache),
    )
    overlapped = Series(
        "overlapped", n_values,
        parallel_map([partial(_overlap_point, n, repeats) for n in n_values],
                     jobs=jobs, cache=cache),
    )
    hidings = [
        100.0 * (b - o) / b
        for b, o in zip(blocking.latencies, overlapped.latencies)
    ]
    return ExperimentResult(
        exp_id="overlap",
        title="non-blocking overlap: barrier + allreduce per round (LANai-XP)",
        series=[blocking, overlapped],
        paper_anchors={},
        measured_anchors={},
        notes=[
            "blocking: nic_barrier then nic_allreduce, two host round-trips",
            "overlapped: nic_ibarrier + nic_iallreduce posted together, "
            "one combined wait — the NIC pipelines both sequences",
            "latency hidden by overlap: "
            + ", ".join(
                f"{h:.0f}% @ N={n}" for n, h in zip(n_values, hidings)
            ),
        ],
    )


if __name__ == "__main__":
    print_experiment(run())
