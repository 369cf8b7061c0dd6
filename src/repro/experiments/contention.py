"""Contention: multi-job workloads and cross-traffic on a shared fabric.

The paper benchmarks every barrier on a silent, single-job machine.
The clusters that motivated its protocol do not run that way: several
jobs hold overlapping allocations and background point-to-point
traffic shares the same links.  This experiment measures what that
does to the tail: a skewed two-job trace (one large job plus one small
late-arriving job, allocations overlapping) runs with seeded Poisson
cross-traffic, and the large job's p99 barrier latency is compared
against its silent-machine mean, on both networks, across machine
sizes.

Expectations are structural (no paper anchor exists for this setting):

- contended p99 must sit measurably above the silent mean on both
  networks — the shared links are never free;
- Quadrics should degrade *less* than Myrinet: the chained-RDMA
  barrier crosses the NIC-local event unit, not the host, so it only
  queues behind cross-traffic on the wire, while GM's host-driven
  sends also contend for the host CPU;
- Jain fairness over per-job slowdowns should stay near 1: the
  dissemination/chained schedules give neither job a structural
  advantage on shared links.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.tools.runcache import RunCache
from repro.workload import CrossTrafficSpec, generate_trace, run_workload_cached

NETWORKS = ("myrinet", "quadrics")
XTRAFFIC = CrossTrafficSpec(rate_per_ms=50.0, size_bytes=512)


def _measure(network: str, nodes: int, iterations: int, cache):
    jobs = generate_trace(
        "skewed", 2, nodes, seed=0, iterations=iterations, payload_bytes=64
    )
    return run_workload_cached(
        network, nodes, jobs, seed=0, xtraffic=XTRAFFIC, cache=cache,
    )


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (8 if quick else 16)
    n_values = [16, 32] if quick else [16, 32, 64]

    series = []
    notes = [
        "two-job skewed trace: job0 holds 3N/4 nodes from t=0, job1 holds "
        "N/4 overlapping nodes and arrives late; cross-traffic is seeded "
        f"Poisson p2p at {XTRAFFIC.rate_per_ms:.0f} pkt/ms x "
        f"{XTRAFFIC.size_bytes}B over the same links",
        "p99 is the nearest-rank tail over job0's timed iterations; "
        "'silent' is the same job alone on an idle machine",
    ]
    for network in NETWORKS:
        contended, silent, fairness = [], [], []
        for nodes in n_values:
            result = _measure(network, nodes, iters, cache)
            job0 = result["jobs"][0]
            contended.append(job0["p99_us"])
            silent.append(job0["silent_mean_us"])
            fairness.append(result["fairness"])
            bad = [
                a for a in result["group_audit"]
                if a["expected_packets"] != a["actual_packets"]
            ]
            if bad or result["violations"] or result["quiescence"]:
                notes.append(
                    f"AUDIT FAILED {network} N={nodes}: "
                    f"{bad or result['violations'] or result['quiescence']}"
                )
        series.append(Series(f"{network} job0 p99 contended", n_values, contended))
        series.append(Series(f"{network} job0 silent mean", n_values, silent))
        worst = max(
            (c / s, n) for c, s, n in zip(contended, silent, n_values)
        )
        notes.append(
            f"{network}: worst contended-p99/silent-mean ratio "
            f"{worst[0]:.2f}x at N={worst[1]}; Jain fairness "
            f"{min(fairness):.3f}-{max(fairness):.3f}"
        )
    return ExperimentResult(
        exp_id="contention",
        title="Multi-job contention: overlapping jobs + cross-traffic "
              "vs the silent machine",
        series=series,
        notes=notes,
    )


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.common import print_experiment

    print_experiment(run(quick=True))
