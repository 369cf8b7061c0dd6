"""The simulator's benchmark.

Run from the repository root::

    python -m bench run [--workload NAME ...] [--seed S] [--repeats R]
                        [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]
    python -m bench compare PARENT.json CHANGE.json

``run`` prints every end-to-end metric per workload and, as its last
line, a one-line JSON summary (``correct``, ``attempted``, ``failed``,
``metrics``); ``--trace`` adds one traced repeat per workload and the
per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.compare import compare_files
from bench.compare import render as render_rows
from bench.harness import (
    OUT_DIR,
    HarnessError,
    load_benchmark,
    render,
    run,
    summary_line,
)


def main(argv=None) -> int:
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the workloads and print metrics")
    p_run.add_argument("--workload", action="append", choices=names,
                       help="repeatable; default: all workloads")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--repeats", type=int, default=5,
                       help="untraced repeats per workload (default 5)")
    p_run.add_argument("--seconds", type=float, default=None,
                       help="instead of --repeats: repeat while the next "
                       "repeat fits in this many seconds (at least two)")
    p_run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                       choices=(0, 1),
                       help="add one traced repeat per workload and report "
                       "the per-layer metrics")
    p_run.add_argument("--smoke", action="store_true",
                       help="tiny sizes, for the harness's own test")
    p_run.add_argument("--out", type=Path, default=OUT_DIR / "result.json",
                       help="result file for `compare` (default %(default)s)")
    p_cmp = sub.add_parser("compare", help="compare two result files")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        rows = compare_files(args.parent, args.change, spec)
        print(render_rows(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    try:
        doc = run(
            seed=args.seed,
            workloads=args.workload or names,
            repeats=args.repeats,
            seconds=args.seconds,
            trace=bool(args.trace),
            size="smoke" if args.smoke else "full",
            spec=spec,
        )
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(render(doc, spec))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    line = summary_line(doc, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
