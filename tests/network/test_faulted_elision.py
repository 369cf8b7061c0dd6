"""Up-edge elision under fault injection: the elided fat tree against
the reference (unelided) one.

Elision stays on with a :class:`FaultInjector` because its proof only
needs one worm per capacity-1 injection link at a time, and no fault
breaks that: a duplicate's clone claims the injection link before any
other link, a delayed worm claims it first too, just later, and a
dropped packet claims no link.  These tests hold every fault class to
the reference fabric packet for packet, and a delay-faulted barrier to
its reference run.
"""

import random

import pytest

from repro.cluster import build_cluster, run_barrier_experiment
from repro.network import Fabric, FaultInjector, Packet, PacketKind, WireParams
from repro.sim import DeterministicRng, Simulator
from repro.topology import QuaternaryFatTree

PARAMS = WireParams(
    inject_us=0.1,
    switch_latency_us=0.3,
    propagation_us=0.05,
    bandwidth_bytes_per_us=250.0,
)

FAULT_CASES = {
    "drop": dict(drop_probability=0.2),
    "corrupt": dict(corrupt_probability=0.3),
    "duplicate": dict(duplicate_probability=0.3),
    "delay": dict(delay_probability=0.4, delay_jitter_us=3.0),
    "blackhole": {},
}

KINDS = (PacketKind.BARRIER, PacketKind.HEARTBEAT, PacketKind.RDMA, PacketKind.ACK)


def _packet_stream(n, seed, count=400):
    """``count`` sends ``(time, src, dst, kind, size, seq)`` in bursts
    on a few instants, so many worms meet on shared links."""
    rng = random.Random(seed)
    sends = []
    for seq in range(count):
        src = rng.randrange(n)
        dst = rng.choice([p for p in range(n) if p != src])
        time = float(rng.randrange(12)) * rng.choice((0.5, 1.0))
        sends.append((time, src, dst, rng.choice(KINDS), rng.choice((8, 64, 600)), seq))
    return sends


def _run_fabric(n, case, seed, reference):
    sim = Simulator()
    faults = FaultInjector(rng=DeterministicRng(seed, "faulted-elision"),
                           **FAULT_CASES[case])
    if case == "blackhole":
        faults.blackhole_window(lambda p: p.src % 3 == 0, 2.0, 4.5, label="flap")
    fabric = Fabric(sim, QuaternaryFatTree(n), PARAMS, faults=faults,
                    reference=reference)
    log = []

    def deliver(packet):
        log.append((packet.wire_id, packet.src, packet.dst,
                    packet.delivered_at, packet.corrupted))

    for port in range(n):
        fabric.attach(port, deliver)
    for time, src, dst, kind, size, seq in _packet_stream(n, seed):
        sim.schedule(time, fabric.transmit, Packet(src, dst, kind, size, seq=seq))
    sim.run()
    return sorted(log), faults.stats(), fabric.flow_counters()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_faulted_fabric_matches_reference(case, n, seed):
    elided = _run_fabric(n, case, seed, reference=False)
    reference = _run_fabric(n, case, seed, reference=True)
    assert elided == reference
    log, stats, _ = elided
    assert log, "no packet was delivered"
    if case != "blackhole":
        counted = {"drop": "dropped", "corrupt": "corrupted",
                   "duplicate": "duplicated", "delay": "delayed"}[case]
        assert stats[counted] > 0
    else:
        assert stats["blackholes"][0]["dropped"] > 0


def _barrier(n, reference):
    faults = FaultInjector(
        rng=DeterministicRng(0, "faulted-elision/barrier"),
        delay_probability=0.2, delay_jitter_us=5.0,
    )
    cluster = build_cluster("elan3_piii700", n, faults=faults, reference=reference)
    result = run_barrier_experiment(
        cluster, "nic-chained", iterations=3, warmup=1, seed=0
    )
    return (
        result.mean_latency_us,
        tuple(result.iteration_ends_us),
        result.counters,
        cluster.fabric.delivered_count,
        faults.stats(),
    )


@pytest.mark.parametrize("n", [16, 64, 256])
def test_delay_faulted_chained_barrier_matches_reference(n):
    elided = _barrier(n, reference=False)
    assert elided == _barrier(n, reference=True)
    assert elided[4]["delayed"] > 0
