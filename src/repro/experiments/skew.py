"""Skew sensitivity — why `elan_hgsync` needs synchronized callers.

Not a numbered figure, but a quantified claim of §8.2: "the hardware
barrier performs better but it requires that the involving processes be
well synchronized.  This is hardly the case for parallel programs over
large size clusters."

We inject per-rank compute jitter before each barrier and measure the
*barrier cost* (exit time minus the moment the last rank arrived) for
the hardware test-and-set barrier vs the chained-RDMA NIC barrier.  The
hardware barrier burns probe retries while stragglers are missing; the
NIC barrier's event counters absorb early arrivals for free.
"""

from __future__ import annotations

from functools import partial

from repro.cluster import build_quadrics_cluster
from repro.collectives import ProcessGroup, QuadricsChainedBarrier
from repro.experiments.common import (
    ExperimentResult,
    Series,
    parallel_map,
    print_experiment,
)
from repro.quadrics import elan_hgsync
from repro.sim import DeterministicRng
from repro.tools.runcache import RunCache

NODES = 8
PAPER_ANCHORS = {}  # qualitative claim; no numeric anchor in the paper


def _measure_hgsync(skew_us: float, iterations: int, seed: int = 0):
    cluster = build_quadrics_cluster(nodes=NODES)
    group = ProcessGroup(list(range(NODES)))
    hw = cluster.hardware_barrier(group.node_ids)
    rng = DeterministicRng(seed, f"skew/{skew_us}")
    last_arrival = {}
    exits = {}

    def prog(node):
        for seq in range(iterations):
            yield rng.uniform(0.0, skew_us) if skew_us else 0.0
            last_arrival[seq] = max(last_arrival.get(seq, 0.0), cluster.sim.now)
            yield from elan_hgsync(cluster.ports[node], hw, group.node_ids, seq)
            exits[seq] = max(exits.get(seq, 0.0), cluster.sim.now)

    for node in range(NODES):
        cluster.sim.process(prog(node))
    cluster.sim.run()
    cost = sum(exits[s] - last_arrival[s] for s in exits) / iterations
    return cost, hw.retries


def _measure_nic(skew_us: float, iterations: int, seed: int = 0):
    cluster = build_quadrics_cluster(nodes=NODES)
    group = ProcessGroup(list(range(NODES)))
    drivers = {
        node: QuadricsChainedBarrier(cluster.ports[node], group)
        for node in range(NODES)
    }
    rng = DeterministicRng(seed, f"skew-nic/{skew_us}")
    last_arrival = {}
    exits = {}

    def prog(node):
        for seq in range(iterations):
            yield rng.uniform(0.0, skew_us) if skew_us else 0.0
            last_arrival[seq] = max(last_arrival.get(seq, 0.0), cluster.sim.now)
            yield from drivers[node].barrier(seq)
            exits[seq] = max(exits.get(seq, 0.0), cluster.sim.now)

    for node in range(NODES):
        cluster.sim.process(prog(node))
    cluster.sim.run()
    cost = sum(exits[s] - last_arrival[s] for s in exits) / iterations
    return cost


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (20 if quick else 60)
    skews = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0]

    hw_points = parallel_map(
        [partial(_measure_hgsync, skew, iters) for skew in skews],
        jobs=jobs, cache=cache,
    )
    nic_costs = parallel_map(
        [partial(_measure_nic, skew, iters) for skew in skews],
        jobs=jobs, cache=cache,
    )
    hw_costs = [cost for cost, _ in hw_points]
    hw_retries = [retries / iters for _, retries in hw_points]
    # Abuse the N axis as "skew in us" for the table/plot.
    series = [
        Series("hgsync-cost", [int(s) for s in skews], hw_costs),
        Series("hgsync-retries/iter", [int(s) for s in skews], hw_retries),
        Series("NIC-chained-cost", [int(s) for s in skews], nic_costs),
    ]
    crossover = next(
        (skew for skew, hw, nic in zip(skews, hw_costs, nic_costs) if hw > nic),
        None,
    )
    notes = [
        "x-axis is SKEW in us (uniform per-rank jitter before each barrier), "
        "not node count",
        "cost = exit time minus last arrival: the barrier's own overhead",
    ]
    if crossover is not None:
        notes.append(
            f"with >= {crossover:.0f}us skew the NIC barrier beats the "
            "hardware barrier — the paper's argument for why hgsync's edge "
            "evaporates on real (unsynchronized) applications"
        )
    return ExperimentResult(
        exp_id="skew",
        title="elan_hgsync vs chained-RDMA barrier under caller skew (8 nodes)",
        series=series,
        paper_anchors=PAPER_ANCHORS,
        measured_anchors={},
        notes=notes,
    )


if __name__ == "__main__":
    print_experiment(run())
