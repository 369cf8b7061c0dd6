#!/usr/bin/env python
"""Watch the protocol on the wire: sequence diagrams of one barrier.

Renders what §3/§6 describe, packet by packet:

1. one dissemination barrier under the collective protocol — only
   ``B`` (barrier) packets, three rounds for 8 nodes;
2. the same barrier under the prior-work direct scheme — every ``B``
   answered by an ``a`` (ACK): twice the traffic;
3. a lossy run — the dropped hop recovered by an ``N`` (NACK) and a
   retransmitted ``B``;
4. the same barrier as a *span timeline* — per-component lanes (LANai
   CPU, PCI bus, wire hops) plus the critical path that attributes
   every microsecond of the barrier's latency to a protocol step.

Run:  python examples/protocol_trace.py
"""

from repro.cluster import build_myrinet_cluster
from repro.collectives import (
    NicCollectiveBarrierEngine,
    NicDirectBarrierEngine,
    ProcessGroup,
    nic_barrier,
)
from repro.network import FaultInjector, PacketKind
from repro.sim import Tracer
from repro.tools import ascii_timeline, critical_path, wire_sequence_diagram

NODES = 8


def one_barrier(engine_cls, faults=None, nack_timeout=None):
    tracer = Tracer(enabled=True)
    cluster = build_myrinet_cluster(
        "lanai_xp_xeon2400", nodes=NODES, tracer=tracer, faults=faults
    )
    group = ProcessGroup(list(range(NODES)))
    for rank in range(NODES):
        engine_cls(cluster.nics[rank], group, rank)

    def prog(node):
        yield from nic_barrier(cluster.ports[node], group, 0)

    for node in range(NODES):
        cluster.sim.process(prog(node))
    cluster.sim.run()
    return cluster, tracer


def main() -> None:
    print("=" * 70)
    print("1. Collective protocol: one 8-node dissemination barrier")
    print("=" * 70)
    cluster, tracer = one_barrier(NicCollectiveBarrierEngine)
    print(wire_sequence_diagram(tracer, nodes=NODES))
    print(f"-> {tracer.counters['wire.packets']} packets, "
          f"{tracer.counters.get('wire.ack', 0)} ACKs\n")

    print("=" * 70)
    print("2. Direct scheme (prior work): same barrier over the p2p path")
    print("=" * 70)
    cluster, tracer = one_barrier(NicDirectBarrierEngine)
    print(wire_sequence_diagram(tracer, nodes=NODES))
    print(f"-> {tracer.counters['wire.packets']} packets, "
          f"{tracer.counters.get('wire.ack', 0)} ACKs "
          f"(exactly one per barrier message)\n")

    print("=" * 70)
    print("3. Collective protocol with a dropped message (NACK recovery)")
    print("=" * 70)
    faults = FaultInjector()
    faults.drop_nth_matching(
        lambda p: p.kind == PacketKind.BARRIER and p.dst == 5, occurrence=1
    )
    cluster, tracer = one_barrier(NicCollectiveBarrierEngine, faults=faults)
    print(wire_sequence_diagram(tracer, nodes=NODES))
    print(f"-> dropped {faults.dropped}, NACKs "
          f"{tracer.counters.get('wire.nack', 0)}, barrier still completed "
          f"at t={cluster.sim.now:.1f}us (one NACK timeout on the critical path)\n")

    print("=" * 70)
    print("4. The same barrier as a span timeline + critical path")
    print("=" * 70)
    cluster, tracer = one_barrier(NicCollectiveBarrierEngine)
    t1 = cluster.sim.now
    print(ascii_timeline(tracer, 0.0, t1, width=56))
    path = critical_path(tracer, 0.0, t1)
    print("\ncritical path (what the last rank was waiting on):")
    print(path.table())
    print()
    print(path.summary())
    print("\n(For the interactive version: `python -m repro trace`, then "
          "load trace.json at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
