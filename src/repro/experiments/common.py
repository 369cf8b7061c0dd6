"""Shared experiment plumbing: sweeps, tables, ASCII plots.

Sweeps fan out over worker processes when ``jobs > 1``.  Every figure
point is an independent simulation (fresh simulator, deterministic
seed), so the parallel path returns bit-identical latencies to the
serial one — the only thing that changes is wall-clock time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.cluster import (
    build_myrinet_cluster,
    build_quadrics_cluster,
    run_barrier_experiment,
)
from repro.cluster.runner import scheme_step
from repro.collectives import ProcessGroup
from repro.tools.runcache import RunCache


@dataclass
class Series:
    """One line on a figure: latency (µs) as a function of node count."""

    label: str
    n_values: list[int]
    latencies: list[float]

    def at(self, n: int) -> float:
        try:
            index = self.n_values.index(n)
        except ValueError:
            raise KeyError(
                f"series {self.label!r} has no point at N={n} "
                f"(available: {self.n_values})"
            ) from None
        return self.latencies[index]


@dataclass
class ExperimentResult:
    """Everything an experiment produced, ready for printing."""

    exp_id: str
    title: str
    series: list[Series]
    paper_anchors: dict[str, float] = field(default_factory=dict)
    measured_anchors: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def anchor_table(self) -> str:
        lines = [
            f"{'anchor':<44} {'paper':>8} {'ours':>8} {'ratio':>6}",
            "-" * 70,
        ]
        for key, paper in self.paper_anchors.items():
            ours = self.measured_anchors.get(key)
            if ours is None:
                lines.append(f"{key:<44} {paper:>8.2f} {'--':>8} {'--':>6}")
            else:
                lines.append(
                    f"{key:<44} {paper:>8.2f} {ours:>8.2f} {ours / paper:>6.2f}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def parallel_map(
    calls: Iterable[Callable[[], Any]],
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    decode: Optional[Callable[[Any], Any]] = None,
) -> list:
    """Order-preserving ``[call() for call in calls]``, fanned out over
    worker processes.

    Each call is a module-level function or a :func:`functools.partial`
    of one, so it pickles to the workers and keys the cache.  Each must
    be an independent computation — for figure points that holds by
    construction (fresh simulator per point, deterministic seed), which
    makes the parallel result bit-identical to the serial one.
    ``jobs <= 1`` runs inline.

    With ``cache`` set, each call's entry is probed first and only the
    misses are shipped to the pool; hits merge back in call order.
    Workers never touch the cache — keys are computed and entries
    written in the parent, so no cross-process locking is needed.
    ``decode`` rebuilds a hit's JSON payload into the call's value.
    """
    calls = list(calls)
    if cache is not None:
        results: list = []
        miss_slots = []
        for slot, call in enumerate(calls):
            payload = cache.get(call)
            if payload is None:
                miss_slots.append(slot)
            elif decode is not None:
                payload = decode(payload)
            results.append(payload)
        computed = parallel_map([calls[s] for s in miss_slots], jobs=jobs)
        for slot, value in zip(miss_slots, computed):
            cache.put(calls[slot], value)
            results[slot] = value
        return results
    if jobs > 1 and len(calls) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            return list(pool.map(_invoke, calls))
    return [call() for call in calls]


def _invoke(call: Callable[[], Any]) -> Any:
    return call()


def sweep_point(
    network: str,
    profile: str,
    barrier: str,
    algorithm: str,
    n: int,
    iterations: int = 100,
    warmup: int = 20,
    seed: int = 0,
) -> float:
    """One figure point: build a fresh cluster, run, return the mean
    barrier latency in µs.  Module-level so sweeps can ship it to
    worker processes."""
    if network == "myrinet":
        cluster = build_myrinet_cluster(profile, nodes=n)
    else:
        cluster = build_quadrics_cluster(profile, nodes=n)
    result = run_barrier_experiment(
        cluster,
        barrier,
        algorithm,
        iterations=iterations,
        warmup=warmup,
        seed=seed,
    )
    return result.mean_latency_us


def op_latency(
    cluster, group: ProcessGroup, op: str, repeats: int,
    bytes_per_value: Optional[int] = None,
) -> float:
    """Mean latency (µs) of ``repeats`` back-to-back ``op``s on the NIC
    collective engines: the last rank's finish time over ``repeats``."""
    step = scheme_step(
        cluster, "nic-collective", group, op, bytes_per_value=bytes_per_value
    )
    finish = []

    def program(node: int):
        for seq in range(repeats):
            yield from step(node, seq)
        finish.append(cluster.sim.now)

    for node in group.node_ids:
        cluster.sim.process(program(node))
    cluster.sim.run()
    return max(finish) / repeats


def sweep(
    network: str,
    profile: str,
    barrier: str,
    algorithm: str,
    n_values: Iterable[int],
    label: Optional[str] = None,
    iterations: int = 100,
    warmup: int = 20,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
) -> Series:
    """Measure one barrier flavour across node counts.

    Every point gets a fresh cluster (fresh simulator), exactly like
    re-running the paper's benchmark per configuration.  ``jobs > 1``
    measures the points in parallel worker processes; latencies are
    bit-identical to the serial sweep.  With ``cache`` set, previously
    measured points are served from disk and only the misses simulate.
    """
    ns = list(n_values)
    calls = [
        partial(
            sweep_point, network, profile, barrier, algorithm, n,
            iterations=iterations, warmup=warmup, seed=seed,
        )
        for n in ns
    ]
    lats = parallel_map(calls, jobs=jobs, cache=cache)
    return Series(label or f"{barrier}-{algorithm}", ns, lats)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def latency_table(series: Sequence[Series]) -> str:
    """A column-per-series latency table (rows = node counts)."""
    all_n = sorted({n for s in series for n in s.n_values})
    header = f"{'N':>5} " + " ".join(f"{s.label:>16}" for s in series)
    lines = [header, "-" * len(header)]
    for n in all_n:
        cells = []
        for s in series:
            if n in s.n_values:
                cells.append(f"{s.at(n):>16.2f}")
            else:
                cells.append(f"{'--':>16}")
        lines.append(f"{n:>5} " + " ".join(cells))
    return "\n".join(lines)


def ascii_plot(
    series: Sequence[Series],
    width: int = 64,
    height: int = 18,
    title: str = "",
) -> str:
    """A terminal scatter of latency vs N (marker per series)."""
    markers = "ox+*#@%&"
    points = [
        (n, lat)
        for s in series
        for n, lat in zip(s.n_values, s.latencies)
    ]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    grid = [[" "] * width for _ in range(height)]

    def cell(n: float, lat: float) -> tuple[int, int]:
        fx = 0.0 if x_hi == x_lo else (n - x_lo) / (x_hi - x_lo)
        fy = 0.0 if y_hi == y_lo else (lat - y_lo) / (y_hi - y_lo)
        col = min(width - 1, int(fx * (width - 1)))
        row = min(height - 1, height - 1 - int(fy * (height - 1)))
        return row, col

    for idx, s in enumerate(series):
        mark = markers[idx % len(markers)]
        for n, lat in zip(s.n_values, s.latencies):
            row, col = cell(n, lat)
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:8.1f} +" + "-" * width)
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row))
    lines.append(f"{y_lo:8.1f} +" + "-" * width)
    lines.append(" " * 10 + f"N={x_lo}" + " " * (width - 12) + f"N={x_hi}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def print_experiment(result: ExperimentResult) -> None:
    print("=" * 72)
    print(f"{result.exp_id}: {result.title}")
    print("=" * 72)
    print(latency_table(result.series))
    print()
    print(ascii_plot(result.series, title=f"[{result.exp_id}] latency (us) vs nodes"))
    print()
    if result.paper_anchors:
        print(result.anchor_table())
    for note in result.notes:
        print(f"note: {note}")
    print()
