"""Tail-latency metrics for multi-job workloads.

Per-job iteration latencies roll up into nearest-rank percentiles
(p50/p99/p999 — at small sample counts the high quantiles degenerate
to the max, which is deterministic and stated in the table), a
slowdown against the job's silent-machine baseline, and Jain's
fairness index over the per-job slowdowns (1.0 = perfectly even
suffering; 1/k = one of k jobs absorbs all the contention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    if not values:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    import math

    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2)."""
    xs = [x for x in values if x > 0]
    if not xs:
        return 1.0
    square_of_sum = sum(xs) ** 2
    sum_of_squares = sum(x * x for x in xs)
    return square_of_sum / (len(xs) * sum_of_squares)


@dataclass
class JobMetrics:
    """Tail statistics for one job's timed iterations."""

    name: str
    n_nodes: int
    arrival_us: float
    iterations: int  # timed iterations the stats cover
    mean_us: float
    p50_us: float
    p99_us: float
    p999_us: float
    max_us: float
    end_us: float  # sim time the job's last iteration completed
    status: str = "completed"
    silent_mean_us: Optional[float] = None
    silent_p99_us: Optional[float] = None
    slowdown: Optional[float] = None
    p99_ratio: Optional[float] = None

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def summarize_job(
    name: str,
    n_nodes: int,
    arrival_us: float,
    latencies: Sequence[float],
    end_us: float,
    status: str = "completed",
) -> JobMetrics:
    """Roll one job's timed iteration latencies into a JobMetrics."""
    if not latencies:
        raise ValueError(f"job {name}: no timed iterations to summarize")
    return JobMetrics(
        name=name,
        n_nodes=n_nodes,
        arrival_us=arrival_us,
        iterations=len(latencies),
        mean_us=sum(latencies) / len(latencies),
        p50_us=percentile(latencies, 50),
        p99_us=percentile(latencies, 99),
        p999_us=percentile(latencies, 99.9),
        max_us=max(latencies),
        end_us=end_us,
        status=status,
    )


def attach_baseline(metrics: JobMetrics, silent: JobMetrics) -> None:
    """Fill the slowdown-vs-silent fields from the baseline run."""
    metrics.silent_mean_us = silent.mean_us
    metrics.silent_p99_us = silent.p99_us
    if silent.mean_us > 0:
        metrics.slowdown = metrics.mean_us / silent.mean_us
    if silent.p99_us > 0:
        metrics.p99_ratio = metrics.p99_us / silent.p99_us


def format_job_table(jobs: Sequence[JobMetrics], fairness: float) -> str:
    """The per-job tail-latency + slowdown table, fixed-point formatted
    (bit-identical output for bit-identical metrics)."""
    header = (
        f"  {'job':<8} {'N':>4} {'arrive':>9} {'iters':>6} "
        f"{'p50us':>9} {'p99us':>9} {'p999us':>9} "
        f"{'silent':>9} {'slowdn':>7}  status"
    )
    lines = [header]
    for m in jobs:
        silent = f"{m.silent_mean_us:.2f}" if m.silent_mean_us is not None else "-"
        slowdown = f"{m.slowdown:.3f}" if m.slowdown is not None else "-"
        lines.append(
            f"  {m.name:<8} {m.n_nodes:>4} {m.arrival_us:>9.2f} "
            f"{m.iterations:>6} {m.p50_us:>9.2f} {m.p99_us:>9.2f} "
            f"{m.p999_us:>9.2f} {silent:>9} {slowdown:>7}  {m.status}"
        )
    lines.append(f"  fairness (Jain, over slowdowns): {fairness:.4f}")
    return "\n".join(lines)
