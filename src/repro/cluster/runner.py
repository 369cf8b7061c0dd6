"""The barrier experiment runner (the paper's measurement loop, §8).

Mirrors the paper's methodology: the processes execute consecutive
barrier operations; a warm-up prefix is discarded; the latency is the
average over the timed iterations.  Node order is randomly permuted by
default ("to avoid any possible impact from the network topology and
the allocation of nodes, our tests were performed with random
permutation of the nodes").

It also holds the one op table every driver runs its ops from: the
barrier runner, the chaos runner, the workload driver and the tuner
(:func:`scheme_step` for a scheme's engines, :func:`comm_op` for a
communicator handle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.builder import MyrinetCluster, QuadricsCluster
from repro.collectives import (
    NicAllgatherEngine,
    NicAllreduceEngine,
    NicAlltoallEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    ProcessGroup,
    QuadricsChainedBarrier,
    host_barrier,
    nic_allgather,
    nic_allreduce,
    nic_alltoall,
    nic_barrier,
    nic_broadcast_recv,
    nic_broadcast_root,
    nic_ibarrier,
    prearm_chained_group,
)
from repro.quadrics import elan_gsync, elan_hgsync
from repro.sim import DeterministicRng

MYRINET_BARRIERS = ("host", "nic-direct", "nic-collective")
QUADRICS_BARRIERS = ("gsync", "hgsync", "nic-chained")
#: BarrierResult fields that must be bit-identical under perturbation.
_COMPARED_FIELDS = (
    "mean_latency_us",
    "min_iteration_us",
    "max_iteration_us",
    "total_us",
    "timed_start_us",
    "iteration_ends_us",
    "node_permutation",
    "counters",
)


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

    def comparable(self) -> dict:
        """The observables that must be bit-identical under tie-break
        perturbation of the event schedule, by field name."""
        return {name: getattr(self, name) for name in _COMPARED_FIELDS}

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


# ----------------------------------------------------------------------
# The op table.  A step is a generator that runs one op at one node and
# returns its verdict, ``ok:<op>`` or ``wrong:<op>:<value>``; a typed
# failure raises.  Data ops verify the value they compute, so a fault
# that double-applies a contribution shows up as a wrong result.
# ----------------------------------------------------------------------
def _verdict(op: str, expected, result) -> str:
    return f"ok:{op}" if result == expected else f"wrong:{op}:{result!r}"


def _barrier(call):
    """The step that runs the barrier ``call(node, seq)``."""

    def step(node: int, seq: int):
        yield from call(node, seq)
        return "ok:barrier"

    return step


def _port_barrier(barrier):
    """Setup of a scheme whose node call is ``barrier(port, group, seq)``."""

    def setup(cluster, group, prearm, hw_fallback):
        ports = cluster.ports
        return _barrier(lambda node, seq: barrier(ports[node], group, seq))

    return setup


def _gsync(cluster, group, prearm, hw_fallback):
    ports, ranks = cluster.ports, group.node_ids
    return _barrier(lambda node, seq: elan_gsync(ports[node], ranks, seq))


def _hgsync(cluster, group, prearm, hw_fallback):
    ports, ranks = cluster.ports, group.node_ids
    hw = cluster.hardware_barrier(ranks)
    return _barrier(lambda node, seq: elan_hgsync(
        ports[node], hw, ranks, seq, fallback=hw_fallback
    ))


def _chained(cluster, group, prearm, hw_fallback):
    drivers = {
        node: QuadricsChainedBarrier(cluster.ports[node], group)
        for node in group.node_ids
    }
    if prearm and not getattr(cluster, "reference", False):
        # Homogeneous-phase batching: arm every iteration's chain for
        # all ranks in one setup pass (bit-identical whenever it
        # applies; see prearm_chained_group).  Reference clusters keep
        # the per-iteration arm loop for the equivalence tests.
        prearm_chained_group(drivers, prearm)
    return _barrier(lambda node, seq: drivers[node].barrier(seq))


def _ibarrier(cluster, group, prearm, hw_fallback):
    ports = cluster.ports

    def step(node: int, seq: int):
        request = yield from nic_ibarrier(ports[node], group, seq)
        # A few non-blocking polls first (the overlap pattern the API
        # exists for), then the blocking wait.
        for _ in range(3):
            if (yield from request.test()):
                return "ok:ibarrier"
        yield from request.wait()
        return "ok:ibarrier"

    return step


def _allreduce(cluster, group, prearm, hw_fallback):
    ports = cluster.ports
    expected = sum(node + 1 for node in group.node_ids)

    def step(node: int, seq: int):
        result = yield from nic_allreduce(ports[node], group, seq, node + 1, "sum")
        return _verdict("allreduce", expected, result)

    return step


def _allgather(cluster, group, prearm, hw_fallback):
    ports = cluster.ports
    expected = dict(enumerate(group.node_ids))

    def step(node: int, seq: int):
        result = yield from nic_allgather(ports[node], group, seq, node)
        return _verdict("allgather", expected, result)

    return step


def _alltoall(cluster, group, prearm, hw_fallback):
    ports, nodes = cluster.ports, group.node_ids

    def step(node: int, seq: int):
        result = yield from nic_alltoall(
            ports[node], group, seq, {dst: (node, peer) for dst, peer in enumerate(nodes)}
        )
        expected = {src: (peer, node) for src, peer in enumerate(nodes)}
        return _verdict("alltoall", expected, result)

    return step


def _bcast(cluster, group, prearm, hw_fallback):
    ports = cluster.ports
    root = group.node_ids[0]

    def step(node: int, seq: int):
        if node == root:
            done = yield from nic_broadcast_root(
                ports[node], group, seq, 64, payload=("blob", seq)
            )
        else:
            done = yield from nic_broadcast_recv(ports[node], group, seq)
        return _verdict("bcast", ("blob", seq), done.payload)

    return step


#: ``(scheme, op) -> (NIC engine built per rank or None, setup)``.
#: ``setup(cluster, group, prearm, hw_fallback)`` builds the rest of the
#: scheme's machinery and returns the step.
SCHEME_OPS = {
    ("host", "barrier"): (None, _port_barrier(host_barrier)),
    ("nic-direct", "barrier"): (NicDirectBarrierEngine, _port_barrier(nic_barrier)),
    ("nic-collective", "barrier"): (NicCollectiveBarrierEngine, _port_barrier(nic_barrier)),
    ("nic-collective", "ibarrier"): (NicCollectiveBarrierEngine, _ibarrier),
    ("nic-collective", "allreduce"): (NicAllreduceEngine, _allreduce),
    ("nic-collective", "allgather"): (NicAllgatherEngine, _allgather),
    ("nic-collective", "alltoall"): (NicAlltoallEngine, _alltoall),
    ("nic-collective", "bcast"): (NicBroadcastEngine, _bcast),
    ("gsync", "barrier"): (None, _gsync),
    ("hgsync", "barrier"): (None, _hgsync),
    ("nic-chained", "barrier"): (None, _chained),
}


def scheme_step(
    cluster,
    scheme: str,
    group: ProcessGroup,
    op: str = "barrier",
    prearm: int = 0,
    bytes_per_value: Optional[int] = None,
    hw_fallback: bool = True,
):
    """Build ``scheme``'s machinery for ``op`` on ``group`` and return
    its step, ``step(node, seq)``.

    ``prearm`` batch-arms that many chained-barrier iterations up front,
    ``bytes_per_value`` sizes a data engine's values, and
    ``hw_fallback=False`` makes an exhausted ``hgsync`` probe budget fail
    instead of falling back to the software tree.
    """
    engine, setup = SCHEME_OPS[scheme, op]
    if engine is not None:
        sized = {} if bytes_per_value is None else {"bytes_per_value": bytes_per_value}
        for rank, node in enumerate(group.node_ids):
            engine(cluster.nics[node], group, rank, **sized)
    return setup(cluster, group, prearm, hw_fallback)


def comm_op(comm, op: str, size_bytes: int, tag):
    """Run one op on a communicator rank handle and return its verdict.

    Expected values are derived from node ids (``comm.rank`` is stale
    until the collective call itself resyncs the epoch) with no yield
    between derivation and call, so they always describe the epoch the
    op actually runs on.  A broadcast sends ``(tag, epoch)`` as a
    ``size_bytes`` message from the epoch's first node.
    """
    ctx = comm._ctx
    nodes, me = ctx.nodes, comm.node
    if op == "barrier":
        yield from comm.barrier()
        return "ok:barrier"
    if op == "ibarrier":
        # Request-handle form, polled until it resolves (spin() is the
        # test() loop with its empty polls fast-forwarded).
        request = yield from comm.ibarrier()
        yield from request.spin()
        return "ok:ibarrier"
    if op == "bcast":
        expected = (tag, ctx.epoch)
        result = yield from comm.bcast(
            expected if me == nodes[0] else None, size_bytes
        )
    elif op == "allreduce":
        expected = sum(node + 1 for node in nodes)
        result = yield from comm.allreduce(me + 1)
    elif op == "allgather":
        expected = dict(enumerate(nodes))
        result = yield from comm.allgather(me)
    elif op == "alltoall":
        expected = {src: (node, me) for src, node in enumerate(nodes)}
        result = yield from comm.alltoall(
            {dst: (me, node) for dst, node in enumerate(nodes)}
        )
    else:
        raise ValueError(f"unsupported collective {op!r}")
    return _verdict(op, expected, result)


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

    total = warmup + iterations
    step = scheme_step(cluster, barrier, group, prearm=total)
    tracer = cluster.tracer
    counter_base = tracer.counters.copy()
    tracker = LastRankOut(cluster.sim, n, total)

    def program(node: int):
        for seq in range(total):
            yield from step(node, seq)
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
