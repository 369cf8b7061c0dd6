"""Degradation report: barrier latency under sustained fault load.

The chaos campaign (:mod:`repro.tools.chaos`) answers "does the
protocol survive"; this report answers "what does surviving cost".  It
sweeps sustained fault rates against every barrier scheme and tabulates
mean latency next to the clean baseline, so the retransmission
machinery's price is a number, not an anecdote:

- **loss sweep** (Myrinet): 0 / 1 / 2 / 5 % probabilistic packet loss —
  ACK-timeout recovery for the p2p schemes, receiver-driven NACKs for
  the collective protocol;
- **corruption sweep** (Myrinet): same rates, delivered-but-CRC-failed —
  identical recovery paths, but the wire time is spent;
- **delay jitter** (both networks): 20% of packets held up to 5 µs —
  no retransmissions, pure reordering/straggling tolerance.

Output is a markdown document (the ``--report`` file of ``python -m
repro chaos``).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import DEFAULT_PROFILE, get_profile
from repro.cluster.runner import MYRINET_BARRIERS, QUADRICS_BARRIERS
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng

LOSS_RATES = (0.0, 0.01, 0.02, 0.05)
JITTER_PROBABILITY = 0.2
JITTER_US = 5.0


def _faulted_latency(
    network: str,
    barrier: str,
    nodes: int,
    iterations: int,
    warmup: int,
    seed: int,
    drop_probability: float = 0.0,
    corrupt_probability: float = 0.0,
    delay_probability: float = 0.0,
    delay_jitter_us: float = 0.0,
) -> tuple[float, dict[str, int]]:
    """Mean latency (µs) and recovery counters for one faulted sweep point."""
    from repro.cluster.runner import run_barrier_experiment

    faults: Optional[FaultInjector] = None
    if drop_probability or corrupt_probability or delay_probability:
        faults = FaultInjector(
            rng=DeterministicRng(seed, "chaos/degradation"),
            drop_probability=drop_probability,
            corrupt_probability=corrupt_probability,
            delay_probability=delay_probability,
            delay_jitter_us=delay_jitter_us,
        )
    cluster = build_cluster(get_profile(DEFAULT_PROFILE[network]), nodes, faults=faults)
    result = run_barrier_experiment(
        cluster, barrier, iterations=iterations, warmup=warmup, seed=seed
    )
    recovery = {
        key: count
        for key, count in cluster.tracer.counters.items()
        if key in (
            "gm.retransmit", "gm.rx_crc_drop", "coll.nack_timeout",
            "coll.nack_retransmit", "wire.dropped", "wire.corrupted",
            "wire.delayed",
        ) and count
    }
    return result.mean_latency_us, recovery


def _sweep_table(
    title: str,
    network: str,
    barriers: tuple[str, ...],
    fault_kw: str,
    rates: tuple[float, ...],
    nodes: int,
    iterations: int,
    warmup: int,
    seed: int,
) -> list[str]:
    lines = [f"### {title}", ""]
    header = "| scheme | " + " | ".join(
        "clean" if rate == 0.0 else f"{rate:.0%}" for rate in rates
    ) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(rates) + 1))
    for barrier in barriers:
        cells = []
        clean = None
        for rate in rates:
            latency, _ = _faulted_latency(
                network, barrier, nodes, iterations, warmup, seed,
                **{fault_kw: rate},
            )
            if clean is None:
                clean = latency
                cells.append(f"{latency:.2f} us")
            else:
                cells.append(f"{latency:.2f} us ({latency / clean:.2f}x)")
        lines.append(f"| {barrier} | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def degradation_report(
    nodes: int = 16,
    iterations: int = 40,
    warmup: int = 5,
    seed: int = 0,
) -> str:
    """The full degradation document (markdown)."""
    lines = [
        "## Degradation under sustained faults",
        "",
        f"N={nodes}, {iterations} timed barriers per point ({warmup} "
        "warm-up), dissemination algorithm.  Each cell is the mean "
        "barrier latency; the parenthesized factor is the slowdown "
        "against that scheme's clean baseline.",
        "",
    ]
    lines += _sweep_table(
        "Packet loss (Myrinet)", "myrinet", MYRINET_BARRIERS,
        "drop_probability", LOSS_RATES, nodes, iterations, warmup, seed,
    )
    lines += _sweep_table(
        "Packet corruption (Myrinet)", "myrinet", MYRINET_BARRIERS,
        "corrupt_probability", LOSS_RATES, nodes, iterations, warmup, seed,
    )
    # Delay jitter: a pure timing fault, legal on both networks.  The
    # hgsync scheme sends no wire packets on the hardware path, so the
    # Quadrics row set is the two software/NIC schemes.
    lines.append("### Delay jitter (both networks, "
                 f"p={JITTER_PROBABILITY:.0%}, up to {JITTER_US:.0f} us)")
    lines.append("")
    lines.append("| network | scheme | clean | jittered |")
    lines.append("|---|---|---|---|")
    jitter_rows = [("myrinet", b) for b in MYRINET_BARRIERS] + [
        ("quadrics", b) for b in QUADRICS_BARRIERS if b != "hgsync"
    ]
    for network, barrier in jitter_rows:
        clean, _ = _faulted_latency(
            network, barrier, nodes, iterations, warmup, seed
        )
        jittered, _ = _faulted_latency(
            network, barrier, nodes, iterations, warmup, seed,
            delay_probability=JITTER_PROBABILITY, delay_jitter_us=JITTER_US,
        )
        lines.append(
            f"| {network} | {barrier} | {clean:.2f} us | "
            f"{jittered:.2f} us ({jittered / clean:.2f}x) |"
        )
    lines.append("")
    return "\n".join(lines)
