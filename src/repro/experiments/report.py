"""Run every experiment and regenerate ``EXPERIMENTS.md``.

Usage::

    python -m repro.experiments.report [--quick] [--jobs N] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from functools import partial

from repro.experiments import (
    ablation,
    contention,
    extensions,
    fig5,
    fig6,
    fig7,
    fig8,
    headline,
    overlap,
    sensitivity,
    skew,
    tuned,
)
from repro.experiments.common import (
    ExperimentResult,
    ascii_plot,
    latency_table,
    print_experiment,
)
from repro.tools.runcache import (
    RunCache,
    atomic_write_text,
    cached_call,
    resolve_cache,
)

EXPERIMENTS = [
    fig5, fig6, fig7, fig8, headline, ablation, skew, extensions, overlap,
    tuned, sensitivity, contention,
]

#: (barrier, nodes) points audited in every report run.  Small N keeps
#: the cost negligible next to the figure sweeps; the counts are
#: N-exact so small N loses no generality.
AUDIT_POINTS = [
    ("nic-chained", 8),
    ("nic-chained", 16),
    ("nic-collective", 8),
    ("nic-collective", 16),
    ("nic-direct", 8),
    ("host", 8),
]


def run_counter_audits(points=AUDIT_POINTS, cache: RunCache | None = None):
    """The protocol counter audits reported alongside the figures."""
    from repro.tools import CounterAudit, CounterCheck, run_counter_audit

    def decode(payload: dict) -> CounterAudit:
        checks = tuple(CounterCheck(**check) for check in payload.pop("checks"))
        return CounterAudit(checks=checks, **payload)

    return [
        cached_call(
            cache,
            partial(run_counter_audit, barrier, nodes=nodes, iterations=10, warmup=3),
            decode=decode,
        )
        for barrier, nodes in points
    ]


def render_audit_section(audits) -> str:
    out = io.StringIO()
    out.write("## Counter audit: measured traffic vs protocol-derived counts\n\n")
    out.write(
        "Full-run totals checked against closed-form dissemination-barrier\n"
        "expectations (r = ceil(log2 N) rounds, one message per rank per\n"
        "round; NIC schemes cross PCI twice per rank per barrier).  Any\n"
        "mismatch means the model's traffic changed, not just its timing.\n\n"
    )
    out.write("```text\n")
    for audit in audits:
        out.write(audit.table())
        out.write("\n\n")
    out.write("```\n\n")
    return out.getvalue()


def render_markdown(
    results: list[ExperimentResult], elapsed_s: float, audits=None
) -> str:
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs simulation\n\n")
    out.write(
        "Regenerated by `python -m repro.experiments.report`.  All values in\n"
        "microseconds unless noted.  \"ratio\" is ours/paper: 1.00 is a\n"
        "perfect match; the reproduction targets the *shape* (who wins, by\n"
        "what factor, where curves bend), not exact absolutes — see\n"
        "DESIGN.md §1 for the substitution argument.\n\n"
    )
    for result in results:
        out.write(f"## {result.exp_id}: {result.title}\n\n")
        out.write("```text\n")
        out.write(latency_table(result.series))
        out.write("\n\n")
        out.write(ascii_plot(result.series, title=f"[{result.exp_id}] latency (us) vs nodes"))
        out.write("\n")
        if result.paper_anchors:
            out.write("\n")
            out.write(result.anchor_table())
            out.write("\n")
        out.write("```\n\n")
        for note in result.notes:
            out.write(f"- {note}\n")
        out.write("\n")
    if audits:
        out.write(render_audit_section(audits))
    out.write(f"_Total generation time: {elapsed_s:.1f}s (simulated hardware, not wall-clock of the original testbeds)._\n")
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer points/iterations")
    parser.add_argument("--out", default="EXPERIMENTS.md", help="output markdown path")
    parser.add_argument(
        "--print-only", action="store_true", help="print to stdout, do not write"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep points (1 = serial)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="serve unchanged points from the run cache (--no-cache: "
        "re-simulate everything)",
    )
    args = parser.parse_args(argv)
    cache = resolve_cache("auto" if args.cache else None)

    start = time.time()
    results = []
    for module in EXPERIMENTS:
        print(f"running {module.__name__} ...", file=sys.stderr)
        result = module.run(quick=args.quick, jobs=args.jobs, cache=cache)
        print_experiment(result)
        results.append(result)
    print("running counter audits ...", file=sys.stderr)
    audits = run_counter_audits(cache=cache)
    for audit in audits:
        if not audit.passed:
            print(f"COUNTER AUDIT FAILED:\n{audit.table()}", file=sys.stderr)
    elapsed = time.time() - start

    markdown = render_markdown(results, elapsed, audits=audits)
    if args.print_only:
        print(markdown)
    else:
        atomic_write_text(args.out, markdown)
        print(f"wrote {args.out} ({elapsed:.1f}s)", file=sys.stderr)
    if cache is not None:
        cache.write_stats()
        stats = cache.stats()
        print(
            f"run cache: {stats['hits']} hits, {stats['misses']} misses "
            f"({cache.root})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
