"""Design-choice sensitivity ablations.

Four sweeps that stress the design decisions the paper argues for,
by perturbing one protocol constant at a time (the profiles are frozen
dataclasses; each point uses ``dataclasses.replace``):

1. **NACK timeout** — §6.3 picks receiver-driven retransmission; a
   too-short timeout fires spurious NACKs on a clean wire (wasted
   packets), a long one only delays recovery under loss.
2. **Send-packet pool size** — §6.2's static packet replaces the p2p
   path's pool allocation; the sweep shows barrier traffic keeps at
   most one packet outstanding per destination, so even a one-slot
   pool never blocks — the static packet's saving is the *allocation
   processing*, not pool contention.
3. **Host poll interval** — host-based barriers pay the polling lag on
   every step; NIC-based only at completion, so host-based latency
   grows ~log2(N) times faster with the interval.
4. **Wire loss rate** — latency degradation of the collective scheme
   as drops increase: barriers still complete, paying one
   ``nack_timeout`` per loss on the critical path.
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.cluster import build_myrinet_cluster, get_profile, run_barrier_experiment
from repro.cluster.profiles import HardwareProfile
from repro.experiments.common import (
    ExperimentResult,
    Series,
    parallel_map,
    print_experiment,
)
from repro.network import FaultInjector
from repro.sim import DeterministicRng
from repro.tools.runcache import RunCache

BASE = "lanai91_piii700"
NODES = 8


def _with_gm(profile: HardwareProfile, **gm_overrides) -> HardwareProfile:
    return dataclasses.replace(profile, gm=dataclasses.replace(profile.gm, **gm_overrides))


def _with_host(profile: HardwareProfile, **host_overrides) -> HardwareProfile:
    return dataclasses.replace(
        profile, host=dataclasses.replace(profile.host, **host_overrides)
    )


def _latency(profile, barrier, iterations, faults=None):
    cluster = build_myrinet_cluster(profile, nodes=NODES, faults=faults)
    result = run_barrier_experiment(
        cluster, barrier, "dissemination", iterations=iterations, warmup=10
    )
    return result, cluster


def _nack_point(timeout: float, iterations: int) -> tuple[float, int]:
    profile = _with_gm(get_profile(BASE), nack_timeout_us=timeout)
    result, cluster = _latency(profile, "nic-collective", iterations)
    return (
        result.mean_latency_us,
        cluster.tracer.counters.get("coll.nack_sent", 0),
    )


def _pool_point(size: int, iterations: int) -> tuple[float, float]:
    profile = _with_gm(get_profile(BASE), send_packet_count=size)
    return (
        _latency(profile, "nic-direct", iterations)[0].mean_latency_us,
        _latency(profile, "nic-collective", iterations)[0].mean_latency_us,
    )


def _poll_point(interval: float, iterations: int) -> tuple[float, float]:
    profile = _with_host(get_profile(BASE), poll_interval_us=interval)
    return (
        _latency(profile, "host", iterations)[0].mean_latency_us,
        _latency(profile, "nic-collective", iterations)[0].mean_latency_us,
    )


def _loss_point(rate: float, iterations: int) -> float:
    faults = (
        FaultInjector(rng=DeterministicRng(1, f"loss{rate}"), drop_probability=rate)
        if rate
        else None
    )
    result, _ = _latency(get_profile(BASE), "nic-collective", iterations, faults=faults)
    return result.mean_latency_us


def nack_timeout_sweep(
    iterations: int, jobs: int = 1, cache: RunCache | None = None
) -> tuple[Series, Series, list[str]]:
    timeouts = [20.0, 50.0, 100.0, 500.0, 1500.0]
    points = parallel_map(
        [partial(_nack_point, t, iterations) for t in timeouts],
        jobs=jobs, cache=cache,
    )
    latencies = [lat for lat, _ in points]
    spurious = [n for _, n in points]
    notes = [
        f"clean wire, NACK timeout {timeouts} us -> spurious NACKs {spurious}",
    ]
    return (
        Series("latency-vs-nack-timeout", [int(t) for t in timeouts], latencies),
        Series("spurious-nacks", [int(t) for t in timeouts], [float(s) for s in spurious]),
        notes,
    )


def pool_size_sweep(
    iterations: int, jobs: int = 1, cache: RunCache | None = None
) -> tuple[Series, Series, list[str]]:
    sizes = [1, 2, 4, 8]
    points = parallel_map(
        [partial(_pool_point, s, iterations) for s in sizes],
        jobs=jobs, cache=cache,
    )
    direct = [d for d, _ in points]
    collective = [c for _, c in points]
    notes = [
        "pool size does not move either scheme: barrier traffic keeps "
        "<= 1 packet outstanding per peer, so the static packet's win "
        "is the per-send allocation *processing*, not pool contention",
    ]
    return (
        Series("direct-vs-pool", sizes, direct),
        Series("collective-vs-pool", sizes, collective),
        notes,
    )


def poll_interval_sweep(
    iterations: int, jobs: int = 1, cache: RunCache | None = None
) -> tuple[Series, Series, list[str]]:
    intervals = [0.2, 0.6, 1.2, 2.4, 4.8]
    points = parallel_map(
        [partial(_poll_point, i, iterations) for i in intervals],
        jobs=jobs, cache=cache,
    )
    host = [h for h, _ in points]
    nic = [n for _, n in points]
    host_slope = (host[-1] - host[0]) / (intervals[-1] - intervals[0])
    nic_slope = (nic[-1] - nic[0]) / (intervals[-1] - intervals[0])
    notes = [
        f"latency growth per us of poll interval: host {host_slope:.2f}, "
        f"NIC-based {nic_slope:.2f} (host pays the lag per step, "
        "NIC-based once per barrier)",
    ]
    return (
        Series("host-vs-poll-interval", [int(i * 10) for i in intervals], host),
        Series("nic-vs-poll-interval", [int(i * 10) for i in intervals], nic),
        notes,
    )


def loss_rate_sweep(
    iterations: int, jobs: int = 1, cache: RunCache | None = None
) -> tuple[Series, list[str]]:
    rates = [0.0, 0.005, 0.01, 0.02, 0.05]
    latencies = parallel_map(
        [partial(_loss_point, r, iterations) for r in rates],
        jobs=jobs, cache=cache,
    )
    notes = [
        "all barriers complete under loss; each lost message costs about "
        "one NACK timeout on that iteration's critical path",
    ]
    return Series("latency-vs-loss(x1000)", [int(r * 1000) for r in rates], latencies), notes


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (20 if quick else 60)
    series: list[Series] = []
    notes: list[str] = []
    s1, s2, n1 = nack_timeout_sweep(iters, jobs=jobs, cache=cache)
    s3, s4, n2 = pool_size_sweep(iters, jobs=jobs, cache=cache)
    s5, s6, n3 = poll_interval_sweep(iters, jobs=jobs, cache=cache)
    s7, n4 = loss_rate_sweep(iters, jobs=jobs, cache=cache)
    series.extend([s1, s2, s3, s4, s5, s6, s7])
    notes.extend(n1 + n2 + n3 + n4)
    notes.append("x-axes differ per series (us / pool slots / 0.1us / loss x1000)")
    return ExperimentResult(
        exp_id="sensitivity",
        title="Design-choice sensitivity (LANai 9.1 cluster, 8 nodes)",
        series=series,
        paper_anchors={},
        measured_anchors={},
        notes=notes,
    )


if __name__ == "__main__":
    print_experiment(run())
