"""Auto-tuner: measure algorithms over the grid, emit a decision table.

Usage::

    python -m repro tune [--out tuning_table.json] [--quick]
                         [--jobs N] [--repeats R] [--no-cache]

Barchet-Estefanel & Mounié's approach to collective selection: run
every candidate algorithm at every ``(collective, N, payload)`` grid
point once, record the winner, and let the runtime consult the table
instead of a hard-coded heuristic.  Here each grid point is one
deterministic simulation, so the sweep composes with the run cache —
re-tuning on an unchanged tree executes **zero** simulations (the CI
``tuner-smoke`` job asserts exactly that), and a code change re-runs
only the affected points.

The emitted JSON (:data:`~repro.collectives.tuning.TABLE_FORMAT`) is
what :func:`~repro.collectives.tuning.pick_algorithm` loads;
``ProcessGroup(algorithm="auto")`` — the default — then resolves each
collective's message pattern through it.  Point it at a run with::

    export REPRO_TUNING_TABLE=tuning_table.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.collectives.schedule_ir import reduce_safe
from repro.collectives.tuning import TABLE_ENV, Decision, DecisionTable
from repro.tools.runcache import RunCache, atomic_write_text, resolve_cache

#: The tuner measures on the paper's primary testbed profile.
PROFILE = "lanai_xp_xeon2400"

ALGORITHMS = ("dissemination", "pairwise-exchange", "gather-broadcast")

#: Collectives with a free algorithm choice.  Alltoall is excluded:
#: Bruck only works on the dissemination pattern (``forced_algorithm``).
COLLECTIVES = ("barrier", "allgather", "allreduce")


@dataclass(frozen=True)
class TunePoint:
    """One measurement: an algorithm candidate at one grid point."""

    collective: str
    algorithm: str
    n: int
    payload_bytes: int
    repeats: int


def candidate_points(
    n_values: Sequence[int],
    payloads: Sequence[int],
    repeats: int,
) -> list[TunePoint]:
    """The full candidate grid, invalid combinations excluded."""
    points = []
    for collective in COLLECTIVES:
        sizes = [0] if collective == "barrier" else payloads
        for n in n_values:
            for payload in sizes:
                for algorithm in ALGORITHMS:
                    if collective == "allreduce" and not reduce_safe(algorithm, n):
                        # normalize_algorithm would silently substitute
                        # pairwise-exchange — measuring it twice under
                        # two names would only distort the table.
                        continue
                    points.append(
                        TunePoint(collective, algorithm, n, payload, repeats)
                    )
    return points


def measure_point(point: TunePoint) -> float:
    """Mean per-operation latency (µs) of one candidate.  Module-level
    so :func:`~repro.experiments.common.parallel_map` can ship it to
    worker processes."""
    from repro.cluster import build_myrinet_cluster, run_barrier_experiment

    if point.collective == "barrier":
        return run_barrier_experiment(
            build_myrinet_cluster(PROFILE, nodes=point.n),
            "nic-collective",
            algorithm=point.algorithm,
            iterations=point.repeats,
            warmup=5,
        ).mean_latency_us

    from repro.collectives import ProcessGroup
    from repro.experiments.common import op_latency

    return op_latency(
        build_myrinet_cluster(PROFILE, nodes=point.n),
        ProcessGroup(list(range(point.n)), algorithm=point.algorithm),
        point.collective, point.repeats, bytes_per_value=point.payload_bytes,
    )


def run_tuner(
    quick: bool = False,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    repeats: Optional[int] = None,
    n_values: Optional[Sequence[int]] = None,
    payloads: Optional[Sequence[int]] = None,
    verbose: bool = True,
) -> DecisionTable:
    """Sweep the grid and build the winners' decision table."""
    from repro.collectives.algorithms import configure_schedule_cache
    from repro.experiments.common import parallel_map

    repeats = repeats or (10 if quick else 30)
    if n_values is None:
        # Non-powers-of-two are where the choice is real: dissemination
        # stays at ceil(log2 N) steps but is not reduce-safe there,
        # while pairwise-exchange pays its two extra pre/post steps.
        n_values = [4, 6, 8] if quick else [4, 6, 8, 12, 16, 24, 32]
    if payloads is None:
        payloads = [4, 1024] if quick else [4, 256, 4096]
    points = candidate_points(n_values, payloads, repeats)

    # The sweep touches |algorithms| x |N| distinct message patterns;
    # size the schedule cache to hold the whole working set instead of
    # thrashing the default (satellite of the schedule-IR work).
    configure_schedule_cache(max(len(ALGORITHMS) * len(n_values) * 2, 8))

    if verbose:
        print(
            f"tuning {len(points)} points "
            f"({len(COLLECTIVES)} collectives, N in {list(n_values)}, "
            f"payloads {list(payloads)}, {repeats} repeats) ...",
            file=sys.stderr,
        )
    latencies = parallel_map(
        [partial(measure_point, p) for p in points], jobs=jobs, cache=cache
    )

    # Ties (e.g. dissemination vs pairwise-exchange at powers of two)
    # resolve to the first candidate in ALGORITHMS order; compare raw
    # latencies — rounding only the stored figure, never the compared
    # one, keeps the tie-break deterministic.
    winners: dict[tuple, Decision] = {}
    best_raw: dict[tuple, float] = {}
    for point, latency in zip(points, latencies):
        shape = (point.collective, point.n, point.payload_bytes)
        if shape in winners and latency >= best_raw[shape]:
            continue
        best_raw[shape] = latency
        winners[shape] = Decision(
            collective=point.collective,
            network="myrinet",
            n=point.n,
            payload_bytes=point.payload_bytes,
            algorithm=point.algorithm,
            latency_us=round(latency, 4),
        )
    table = DecisionTable(
        entries=tuple(winners[shape] for shape in sorted(winners)),
        source="repro.tools.tune",
        meta={
            "profile": PROFILE,
            "repeats": repeats,
            "n_values": list(n_values),
            "payloads": list(payloads),
            "points_measured": len(points),
        },
    )
    if verbose:
        for entry in table.entries:
            print(
                f"  {entry.collective:<10} n={entry.n:<4} "
                f"payload={entry.payload_bytes:<5} -> {entry.algorithm} "
                f"({entry.latency_us} us)",
                file=sys.stderr,
            )
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="tuning_table.json",
                        help="decision-table output path ('-' prints to stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="small grid (2 sizes, 2 payloads, 10 repeats)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid points (1 = serial)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="operations per grid point (default 30, quick 10)")
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="serve unchanged grid points from the run cache "
        "(--no-cache: re-simulate everything)",
    )
    args = parser.parse_args(argv)
    cache = resolve_cache("auto" if args.cache else None)

    table = run_tuner(
        quick=args.quick, jobs=args.jobs, cache=cache, repeats=args.repeats
    )
    text = table.to_json()
    if args.out == "-":
        print(text, end="")
    else:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out} ({len(table)} decisions)", file=sys.stderr)
        print(f"use it: export {TABLE_ENV}={args.out}", file=sys.stderr)
    if cache is not None:
        print(
            f"run cache: {cache.hits} hits, {cache.misses} misses",
            file=sys.stderr,
        )
        cache.write_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
