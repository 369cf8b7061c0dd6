"""Counter audit: measured traffic vs protocol-derived expectations.

The paper's architectural arguments are counting arguments — the
NIC-based barrier sends exactly one packet per rank per dissemination
round and crosses the PCI bus exactly twice per rank per barrier (one
PIO doorbell in, one completion DMA out), while the host-based GM
barrier pays per-*message* PIO/DMA crossings and a software ACK for
every packet.  This module derives those closed-form counts from the
protocol definitions and checks the simulator's measured counters
against them, so a model regression that silently added (or dropped)
traffic fails loudly instead of shifting a latency curve by an
unexplained constant.

All expectations are *full-run* totals over ``warmup + iterations``
barriers on a fresh cluster: ranks race ahead of the iteration
boundary (rank i can enter barrier k+1 while rank j still finishes k),
so per-iteration counter windows are not well-defined, but the totals
from t=0 are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

_PER_NODE = re.compile(r"^(pci)\d+\.(.+)$")

#: Barrier kinds with closed-form expected counters (dissemination).
AUDITABLE_BARRIERS = ("host", "nic-direct", "nic-collective", "nic-chained")

#: Schemes whose wire packets carry a ``group_id`` (BarrierMsg / data
#: engine messages / tagged RdmaDescriptor), so per-group fabric flow
#: accounting attributes every packet exactly.  The direct and host
#: schemes ride the GM p2p path, whose ACKs carry no group tag.
GROUP_AUDITABLE = ("nic-collective", "nic-chained")


def aggregate_counters(counters: dict[str, int]) -> dict[str, int]:
    """Sum per-node counters into per-class totals.

    ``pci3.pio`` + ``pci5.pio`` ... -> ``pci.pio``; everything else
    passes through unchanged.
    """
    out: dict[str, int] = {}
    for name, value in counters.items():
        m = _PER_NODE.match(name)
        if m is not None:
            name = f"{m.group(1)}.{m.group(2)}"
        out[name] = out.get(name, 0) + value
    return out


def _messages_per_barrier(nodes: int) -> int:
    """Wire messages one dissemination barrier sends, read off the
    compiled schedule IR — the same op lists the engines replay — so
    audit expectations can never drift from what actually runs.  The
    §5.1 closed form (N * ceil(log2 N)) survives only as a cross-check
    assertion here and in simlint SL204; if the compiled pattern and
    the formula ever disagree, this raises instead of silently trusting
    either side.
    """
    from repro.collectives.algorithms import closed_form_message_count
    from repro.collectives.schedule_ir import compile_schedule

    from_ir = compile_schedule("barrier", "dissemination", nodes).total_messages()
    closed = closed_form_message_count("dissemination", nodes)
    if from_ir != closed:
        raise AssertionError(
            f"schedule IR carries {from_ir} messages/barrier at N={nodes} "
            f"but the closed form says {closed}; run "
            "`python -m repro lint --ir` to locate the drift"
        )
    return from_ir


def expected_counters(barrier: str, nodes: int, barriers: int) -> dict[str, int]:
    """Closed-form full-run counter totals for ``barriers`` consecutive
    dissemination barriers over ``nodes`` ranks.

    Derivations (r = ceil(log2 N) rounds, M = N*r messages/barrier;
    M is read from the compiled schedule IR, see
    :func:`_messages_per_barrier`):

    - every scheme sends one message per rank per round: M wire
      packets per barrier (the paper's Table: "log N steps, one message
      each");
    - **nic-collective** (receiver-driven): no ACKs, no NACKs in a
      fault-free run — reliability costs traffic only on loss;
    - **nic-direct** (sender-driven): a software ACK per packet doubles
      the wire traffic;
    - **host** (GM p2p): ACK per packet, plus per-*message* host
      involvement — 2 PIOs (send doorbell + recv dequeue), 1 host-to-NIC
      DMA (payload fetch) and 2 NIC-to-host DMAs (payload + recv event)
      per message;
    - every NIC-based scheme crosses the PCI bus exactly twice per rank
      per barrier: 1 PIO doorbell in, 1 completion DMA out —
      independent of N, which is the scalability claim;
    - **nic-chained** (Quadrics): each message is one chained RDMA that
      fires one remote event.
    """
    if nodes < 2:
        raise ValueError("barrier needs at least two ranks")
    msgs = _messages_per_barrier(nodes) * barriers  # whole-run wire messages
    per_rank = nodes * barriers  # once-per-rank-per-barrier events

    if barrier == "nic-collective":
        return {
            "wire.barrier": msgs,
            "wire.packets": msgs,
            "wire.ack": 0,
            "wire.nack": 0,
            "wire.dropped": 0,
            "coll.barrier_complete": per_rank,
            "coll.nack_retransmit": 0,
            "pci.pio": per_rank,
            "pci.dma": per_rank,
            "pci.dma.nic_to_host": per_rank,
        }
    if barrier == "nic-direct":
        return {
            "wire.barrier": msgs,
            "wire.ack": msgs,
            "wire.packets": 2 * msgs,
            "wire.nack": 0,
            "wire.dropped": 0,
            "coll.barrier_complete": per_rank,
            "pci.pio": per_rank,
            "pci.dma": per_rank,
            "pci.dma.nic_to_host": per_rank,
        }
    if barrier == "host":
        return {
            "wire.data": msgs,
            "wire.ack": msgs,
            "wire.packets": 2 * msgs,
            "wire.nack": 0,
            "wire.dropped": 0,
            "gm.retransmit": 0,
            "pci.pio": 2 * msgs,
            "pci.dma": 3 * msgs,
            "pci.dma.host_to_nic": msgs,
            "pci.dma.nic_to_host": 2 * msgs,
        }
    if barrier == "nic-chained":
        return {
            "wire.rdma": msgs,
            "wire.packets": msgs,
            "elan.rdma_issued": msgs,
            "elan.event_fired": msgs,
            "pci.pio": per_rank,
            "pci.dma": per_rank,
            "pci.dma.nic_to_host": per_rank,
        }
    raise ValueError(
        f"no closed-form counter model for barrier {barrier!r}; "
        f"auditable: {AUDITABLE_BARRIERS}"
    )


@dataclass(frozen=True)
class CounterCheck:
    """One expected-vs-measured comparison."""

    name: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class CounterAudit:
    """The full audit for one experiment run."""

    profile: str
    barrier: str
    nodes: int
    barriers: int  # warmup + timed iterations
    checks: tuple[CounterCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[CounterCheck]:
        return [check for check in self.checks if not check.ok]

    def table(self) -> str:
        lines = [
            f"counter audit: {self.profile}/{self.barrier} N={self.nodes} "
            f"({self.barriers} barriers)",
            f"  {'counter':<24} {'expected':>9} {'actual':>9}",
        ]
        for check in self.checks:
            mark = "ok" if check.ok else "FAIL"
            lines.append(
                f"  {check.name:<24} {check.expected:>9} {check.actual:>9}  {mark}"
            )
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def audit_counters(
    counters: dict[str, int],
    barrier: str,
    nodes: int,
    barriers: int,
    profile: str = "?",
) -> CounterAudit:
    """Check measured full-run ``counters`` against the closed form."""
    expected = expected_counters(barrier, nodes, barriers)
    measured = aggregate_counters(counters)
    checks = tuple(
        CounterCheck(name, want, measured.get(name, 0))
        for name, want in expected.items()
    )
    return CounterAudit(profile, barrier, nodes, barriers, checks)


@dataclass(frozen=True)
class GroupFlowCheck:
    """Expected-vs-measured wire packets for one collective of one group."""

    group_id: int
    collective: str
    algorithm: str
    nodes: int
    count: int
    expected_packets: int
    actual_packets: int
    dropped: int

    @property
    def ok(self) -> bool:
        return self.expected_packets == self.actual_packets


def audit_group_flows(fabric, specs) -> list[GroupFlowCheck]:
    """Audit per-group fabric flow counters against the schedule IR.

    The whole-machine closed forms in :func:`expected_counters` assume
    one collective owns the machine — under concurrent groups the
    global ``wire.*`` totals sum every job's traffic and the single-job
    expectation false-fails (or, worse, two wrong jobs cancel out and
    it silently passes).  This audit scopes the check per group id
    using :meth:`Fabric.flow_counters`, which attributes each packet by
    its payload's ``group_id`` — exact for the :data:`GROUP_AUDITABLE`
    schemes.

    ``specs`` is an iterable of ``(group, collective, count)`` or
    ``(group, collective, count, payload_bytes)`` tuples, where
    ``group`` is a :class:`~repro.collectives.ProcessGroup`; expected
    packets come from that group's own compiled schedule.
    """
    flows = fabric.flow_counters()
    checks = []
    for spec in specs:
        group, collective, count = spec[0], spec[1], spec[2]
        payload_bytes = spec[3] if len(spec) > 3 else 0
        if collective == "bcast":
            # The broadcast engine forwards down a tree: every non-root
            # member receives the payload exactly once — N-1 messages
            # per bcast, independent of the group's barrier algorithm.
            algorithm = "tree"
            expected = (group.size - 1) * count
        else:
            schedule = group.collective_schedule(
                collective, payload_bytes=payload_bytes
            )
            algorithm = schedule.algorithm
            expected = schedule.total_messages() * count
        measured = flows.get(
            f"group:{group.group_id}", {"packets": 0, "bytes": 0, "dropped": 0}
        )
        checks.append(
            GroupFlowCheck(
                group_id=group.group_id,
                collective=collective,
                algorithm=algorithm,
                nodes=group.size,
                count=count,
                expected_packets=expected,
                actual_packets=measured["packets"],
                dropped=measured["dropped"],
            )
        )
    return checks


def run_counter_audit(
    barrier: str,
    nodes: int = 16,
    profile: Optional[str] = None,
    iterations: int = 20,
    warmup: int = 5,
    seed: int = 0,
) -> CounterAudit:
    """Run a fresh experiment and audit its full-run counters.

    A fresh cluster is mandatory — the expectations count from t=0.
    """
    from repro.cluster import build_cluster, get_profile, run_barrier_experiment

    if profile is None:
        profile = "elan3_piii700" if barrier in ("nic-chained",) else "lanai_xp_xeon2400"
    resolved = get_profile(profile)
    cluster = build_cluster(resolved, nodes)
    run_barrier_experiment(
        cluster, barrier, iterations=iterations, warmup=warmup, seed=seed
    )
    return audit_counters(
        dict(cluster.tracer.counters),
        barrier,
        nodes,
        warmup + iterations,
        profile=resolved.name,
    )
