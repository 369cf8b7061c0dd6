"""Tuned vs fixed algorithm selection (the auto-tuner's payoff figure).

``python -m repro tune`` sweeps every candidate algorithm over the
``(collective, N, payload)`` grid and writes the winners into a
decision table that ``ProcessGroup(algorithm="auto")`` consults.  This
experiment renders what that buys: per collective, the latency of the
paper's fixed default (dissemination) against the latency of the
table's per-shape winner.

The sweep is the *same* cached grid the tuner measures
(:func:`repro.tools.tune.measure_point` under the same run-cache
keys), so after one ``repro tune`` this figure costs zero simulations
— and vice versa.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    ExperimentResult,
    Series,
    parallel_map,
    print_experiment,
)
from repro.tools.runcache import RunCache
from repro.tools.tune import candidate_points, measure_point


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    repeats = iterations or (10 if quick else 30)
    n_values = [4, 6, 8] if quick else [4, 6, 8, 12, 16, 24, 32]
    payloads = [4, 1024] if quick else [4, 256, 4096]
    points = candidate_points(n_values, payloads, repeats)
    latencies = parallel_map(
        [partial(measure_point, p) for p in points], jobs=jobs, cache=cache
    )
    by_point = dict(zip(points, latencies))

    def shape_latencies(collective: str, payload: int):
        fixed, tuned, winners = [], [], []
        for n in n_values:
            candidates = {
                p.algorithm: latency
                for p, latency in by_point.items()
                if p.collective == collective
                and p.n == n
                and p.payload_bytes == payload
            }
            # Allreduce at non-powers-of-two has no dissemination
            # candidate (not reduce-safe); the fixed default then runs
            # what normalize_algorithm substitutes: pairwise-exchange.
            fixed.append(
                candidates.get("dissemination", candidates.get("pairwise-exchange"))
            )
            winner = min(candidates, key=candidates.get)
            tuned.append(candidates[winner])
            winners.append(winner)
        return fixed, tuned, winners

    # One payload regime per collective: the barrier is payload-free,
    # allreduce moves one value (+ contributor bitmap), allgather is
    # shown at the largest swept payload, where the pattern choice
    # moves the most bytes.
    shapes = [
        ("barrier", 0),
        ("allreduce", 4),
        ("allgather", payloads[-1]),
    ]
    series = []
    notes = [
        "fixed: the paper's default pattern (dissemination) everywhere",
        "tuned: the decision-table winner per (collective, N, payload) — "
        "what ProcessGroup(algorithm=\"auto\") picks under "
        "REPRO_TUNING_TABLE",
    ]
    for collective, payload in shapes:
        fixed, tuned, winners = shape_latencies(collective, payload)
        tag = f"{collective}" + (f"-{payload}B" if payload else "")
        series.append(Series(f"{tag}-fixed", n_values, fixed))
        series.append(Series(f"{tag}-tuned", n_values, tuned))
        notes.append(
            f"{tag} winners: "
            + ", ".join(f"{w} @ N={n}" for n, w in zip(n_values, winners))
        )
    return ExperimentResult(
        exp_id="tuned",
        title="auto-tuned vs fixed algorithm selection (LANai-XP)",
        series=series,
        paper_anchors={},
        measured_anchors={},
        notes=notes,
    )


if __name__ == "__main__":
    print_experiment(run())
