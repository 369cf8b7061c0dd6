"""The barrier experiment runner (the paper's measurement loop, §8).

Mirrors the paper's methodology: the processes execute consecutive
barrier operations; a warm-up prefix is discarded; the latency is the
average over the timed iterations.  Node order is randomly permuted by
default ("to avoid any possible impact from the network topology and
the allocation of nodes, our tests were performed with random
permutation of the nodes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.builder import MyrinetCluster, QuadricsCluster
from repro.collectives import (
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    ProcessGroup,
    QuadricsChainedBarrier,
    host_barrier,
    nic_barrier,
    prearm_chained_group,
)
from repro.quadrics import elan_gsync, elan_hgsync
from repro.sim import DeterministicRng

MYRINET_BARRIERS = ("host", "nic-direct", "nic-collective")
QUADRICS_BARRIERS = ("gsync", "hgsync", "nic-chained")


@dataclass
class BarrierResult:
    """Outcome of one barrier experiment (one point on a paper figure)."""

    profile: str
    barrier: str
    algorithm: str
    nodes: int
    iterations: int
    warmup: int
    mean_latency_us: float
    min_iteration_us: float
    max_iteration_us: float
    total_us: float
    node_permutation: tuple[int, ...] = ()
    #: Traffic over all ``counted_barriers`` barriers, warm-up included:
    #: consecutive barriers overlap, so no snapshot can split them.
    counters: dict[str, int] = field(default_factory=dict)
    counted_barriers: int = 0
    # When each timed iteration's last rank exited its barrier, plus the
    # timed-region start: the windows the trace tools decompose.
    timed_start_us: float = 0.0
    iteration_ends_us: tuple[float, ...] = ()

    def iteration_window(self, index: int = -1) -> tuple[float, float]:
        """The ``[start, end]`` sim-time window of one timed iteration."""
        ends = (self.timed_start_us, *self.iteration_ends_us)
        if not self.iteration_ends_us:
            raise ValueError("no timed iterations recorded")
        index = range(len(self.iteration_ends_us))[index]  # normalize
        return ends[index], ends[index + 1]

    def __str__(self) -> str:
        return (
            f"{self.profile}/{self.barrier}/{self.algorithm} "
            f"N={self.nodes}: {self.mean_latency_us:.2f}us "
            f"({self.iterations} iters)"
        )


class LastRankOut:
    """When the last of ``ranks`` ranks finished each of ``ops`` ops.

    Every rank reports each op it finishes (:meth:`rank_done`) or, if it
    dies, the first op it will never finish (:meth:`rank_dead`).  An op
    completes when its last live rank reports it; ``end[seq]`` is that
    sim time (0.0 until then).  Shared by the barrier runner, the
    workload driver and the chaos runner.
    """

    def __init__(self, sim, ranks: int, ops: int, anchor_us: float = 0.0):
        self.sim = sim
        self.pending = [ranks] * ops
        self.end = [0.0] * ops
        self.anchor_us = anchor_us

    def rank_done(self, seq: int) -> bool:
        """One rank finished op ``seq``; True when it was the last."""
        self.pending[seq] -= 1
        if self.pending[seq]:
            return False
        self.end[seq] = self.sim.now
        return True

    def rank_dead(self, from_seq: int) -> None:
        """A rank died; op ``from_seq`` and later will never see it."""
        for seq in range(from_seq, len(self.pending)):
            if self.pending[seq] > 0:
                self.pending[seq] -= 1

    def completed(self) -> int:
        """Leading ops every live rank finished."""
        count = 0
        for pending, end in zip(self.pending, self.end):
            if pending or end <= 0.0:
                break
            count += 1
        return count

    def latencies(self) -> list[float]:
        """Consecutive completion deltas of the completed ops, the first
        anchored at ``anchor_us``."""
        ends = self.end[:self.completed()]
        return [end - start for start, end in zip([self.anchor_us, *ends], ends)]


def _barrier_step(
    cluster,
    kind: str,
    group: ProcessGroup,
    drivers,
    hw,
    node: int,
    seq: int,
    hw_fallback: bool = True,
):
    """One barrier call at one node, by experiment kind."""
    if kind == "host":
        yield from host_barrier(cluster.ports[node], group, seq)
    elif kind in ("nic-direct", "nic-collective"):
        yield from nic_barrier(cluster.ports[node], group, seq)
    elif kind == "gsync":
        yield from elan_gsync(cluster.ports[node], group.node_ids, seq)
    elif kind == "hgsync":
        yield from elan_hgsync(
            cluster.ports[node], hw, group.node_ids, seq, fallback=hw_fallback
        )
    elif kind == "nic-chained":
        yield from drivers[node].barrier(seq)
    else:  # pragma: no cover - guarded earlier
        raise ValueError(kind)


def _setup_scheme(cluster, barrier: str, group: ProcessGroup):
    """Instantiate the per-scheme machinery (engines / drivers / HW
    barrier) for one experiment; returns ``(drivers, hw)`` for
    :func:`_barrier_step`."""
    drivers = None
    hw = None
    if barrier == "nic-collective":
        for rank, node in enumerate(group.node_ids):
            NicCollectiveBarrierEngine(cluster.nics[node], group, rank)
    elif barrier == "nic-direct":
        for rank, node in enumerate(group.node_ids):
            NicDirectBarrierEngine(cluster.nics[node], group, rank)
    elif barrier == "nic-chained":
        drivers = {
            node: QuadricsChainedBarrier(cluster.ports[node], group)
            for node in group.node_ids
        }
    elif barrier == "hgsync":
        hw = cluster.hardware_barrier(group.node_ids)
    return drivers, hw


def run_barrier_experiment(
    cluster,
    barrier: str,
    algorithm: str = "dissemination",
    iterations: int = 200,
    warmup: int = 30,
    permute_nodes: bool = True,
    seed: int = 0,
    nodes: Optional[int] = None,
) -> BarrierResult:
    """Run consecutive barriers and measure the average latency.

    Parameters mirror the paper's loop: ``warmup`` discarded
    iterations, then ``iterations`` timed ones.  ``nodes`` restricts
    the barrier to the first N nodes of the cluster (after
    permutation), letting one cluster serve a whole sweep.
    """
    if isinstance(cluster, MyrinetCluster):
        valid = MYRINET_BARRIERS
    elif isinstance(cluster, QuadricsCluster):
        valid = QUADRICS_BARRIERS
    else:
        raise TypeError(f"not a cluster: {cluster!r}")
    if barrier not in valid:
        raise ValueError(f"barrier {barrier!r} invalid for this cluster; use {valid}")
    if warmup < 1:
        raise ValueError("need at least one warm-up iteration")
    if iterations < 1:
        raise ValueError("need at least one timed iteration")

    n = cluster.n if nodes is None else nodes
    if not 1 < n <= cluster.n:
        raise ValueError(f"nodes must be in [2, {cluster.n}], got {n}")

    rng = DeterministicRng(seed, f"runner/{cluster.profile.name}/{barrier}/{n}")
    order = rng.permutation(cluster.n)[:n] if permute_nodes else list(range(n))
    group = ProcessGroup(
        order,
        algorithm=algorithm,
        id_allocator=getattr(cluster, "group_ids", None),
    )

    drivers, hw = _setup_scheme(cluster, barrier, group)

    total = warmup + iterations
    if drivers is not None and not getattr(cluster, "reference", False):
        # Homogeneous-phase batching: arm every iteration's chain for
        # all ranks in one setup pass (bit-identical whenever it
        # applies; see prearm_chained_group).  Reference clusters keep
        # the per-iteration arm loop for the equivalence tests.
        prearm_chained_group(drivers, total)
    tracer = cluster.tracer
    counter_base = tracer.counters.copy()
    tracker = LastRankOut(cluster.sim, n, total)

    def program(node: int):
        for seq in range(total):
            yield from _barrier_step(cluster, barrier, group, drivers, hw, node, seq)
            if tracker.rank_done(seq) and tracer.enabled:
                start = tracker.end[seq - 1] if seq > 0 else 0.0
                tracer.add_span(
                    start, tracker.end[seq], "run", f"barrier[{seq}]", seq=seq
                )

    procs = [
        cluster.sim.process(program(node), name=f"bench@{node}")
        for node in group.node_ids
    ]
    cluster.sim.run()
    for proc in procs:
        if not proc.completion.processed:
            raise RuntimeError(f"{proc.name} never finished its barriers")

    timed_start = tracker.end[warmup - 1]
    timed = tracker.end[warmup:]
    durations = tracker.latencies()[warmup:]
    return BarrierResult(
        profile=cluster.profile.name,
        barrier=barrier,
        algorithm=algorithm,
        nodes=n,
        iterations=iterations,
        warmup=warmup,
        mean_latency_us=(timed[-1] - timed_start) / iterations,
        min_iteration_us=min(durations),
        max_iteration_us=max(durations),
        total_us=timed[-1] - timed_start,
        node_permutation=tuple(order),
        counters=dict(tracer.counters - counter_base),
        counted_barriers=total,
        timed_start_us=timed_start,
        iteration_ends_us=tuple(timed),
    )
