"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``         — one barrier experiment (profile, scheme, algorithm,
  node count, iterations), printing the measured latency and counters.
- ``profiles``    — list the calibrated hardware profiles.
- ``experiment``  — run one named experiment harness (fig5, fig6, fig7,
  fig8, headline, ablation, skew, extensions, sensitivity).
- ``report``      — regenerate EXPERIMENTS.md (delegates to
  :mod:`repro.experiments.report`).
- ``trace``       — run a small traced experiment; write Chrome-trace
  JSON (open at https://ui.perfetto.dev), print an ASCII timeline, the
  critical path of one barrier iteration, and the counter audit.
- ``lint``        — simlint: static protocol-invariant analysis of the
  simulator sources (exit 0 clean / 1 findings / 2 internal error);
  ``--perturb`` adds the runtime model checks (tie-break perturbation
  across every barrier scheme plus a seeded fault run).
- ``chaos``       — the fault-injection campaign: every chaos scenario
  (loss, corruption, duplication, jitter, link flap, NIC crash, link
  death, host slowdown, HW-barrier degradation) against every
  applicable barrier scheme, with per-run invariant checks, quiescence
  audits, and tie-break determinism rounds (exit 0 pass / 1 fail);
  ``--report`` additionally writes the markdown degradation report;
  ``--fuzz`` runs seeded kill/flap/corrupt/jitter plans with epoch
  repair through the same runner instead.
- ``tune``        — auto-tune collective algorithm selection: sweep
  algorithm x N x payload through the run cache and write the winners'
  decision table (point ``REPRO_TUNING_TABLE`` at it to have
  ``ProcessGroup(algorithm="auto")`` consult it).
- ``workload``    — multi-job workload on one shared fabric: a job
  trace (generated or ``--jobs-trace``) runs several jobs with
  overlapping allocations plus seeded p2p cross-traffic, and reports
  per-job p50/p99/p999 barrier latency, slowdown vs a silent-machine
  baseline, and Jain fairness; ``--check N`` gates bit-identical
  results across N tie-break permutations, ``--kill-node`` composes
  with the chaos layer (mid-workload node kill + epoch repair).
- ``cache``       — inspect/maintain the persistent run cache
  (``stats``, ``gc``, ``clear``).  ``report``/``experiment``/``trace``/
  ``chaos`` take ``--cache/--no-cache``; ``REPRO_CACHE=0`` disables
  caching globally and ``REPRO_CACHE_DIR`` moves the cache root.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._version import __version__


class _UsageError(Exception):
    """An argument the parser took but the command cannot use: reported
    as an argparse usage error (one ``error:`` line, exit 2)."""


def _check_fits(profile_name: str, nodes: int, flag: str):
    """The profile named, after checking ``nodes`` fits its machine."""
    from repro.cluster import get_profile

    profile = get_profile(profile_name)
    if nodes > profile.max_nodes:
        raise _UsageError(
            f"argument {flag}: profile {profile.name} supports at most "
            f"{profile.max_nodes} nodes, got {nodes}"
        )
    return profile


def _check_barrier(profile, barrier: str) -> None:
    """Refuse a barrier scheme the profile's network does not offer."""
    from repro.cluster.runner import MYRINET_BARRIERS, QUADRICS_BARRIERS

    valid = MYRINET_BARRIERS if profile.network == "myrinet" else QUADRICS_BARRIERS
    if barrier not in valid:
        raise _UsageError(
            f"argument --barrier: {barrier!r} is not a {profile.network} "
            f"barrier (profile {profile.name}); choose from {', '.join(valid)}"
        )


def _cmd_profiles(args: argparse.Namespace) -> int:
    from repro.cluster import PROFILES

    for name, profile in PROFILES.items():
        print(f"{name:<22} [{profile.network:<8}] {profile.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.cluster import build_cluster, run_barrier_experiment

    profile = _check_fits(args.profile, args.nodes, "--nodes")
    _check_barrier(profile, args.barrier)
    cluster = build_cluster(profile, args.nodes)
    result = run_barrier_experiment(
        cluster,
        args.barrier,
        args.algorithm,
        iterations=args.iterations,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(result)
    print(f"  mean  : {result.mean_latency_us:.2f} us")
    print(f"  min   : {result.min_iteration_us:.2f} us")
    print(f"  max   : {result.max_iteration_us:.2f} us")
    if args.counters:
        print(f"  counters over all {result.counted_barriers} barriers "
              f"({result.warmup} warm-up + {result.iterations} timed):")
        for key in sorted(result.counters):
            print(f"  {key:<24} {result.counters[key]}")
    return 0


_TRACE_DEFAULT_BARRIER = {"quadrics": "nic-chained", "myrinet": "nic-collective"}


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cluster import build_cluster, run_barrier_experiment
    from repro.cluster.profiles import DEFAULT_PROFILE
    from repro.sim import Tracer
    from repro.tools import (
        ascii_timeline,
        audit_counters,
        critical_path,
        write_chrome_trace,
    )
    from functools import partial

    from repro.experiments.common import sweep_point
    from repro.tools.runcache import resolve_cache

    profile = _check_fits(
        args.profile or DEFAULT_PROFILE[args.network], args.nodes,
        "-n/--nodes",
    )
    if profile.network != args.network:
        raise _UsageError(
            f"argument --profile: profile {profile.name} is not a "
            f"{args.network} profile"
        )
    barrier = args.barrier or _TRACE_DEFAULT_BARRIER[args.network]
    _check_barrier(profile, barrier)

    tracer = Tracer(enabled=True)
    cluster = build_cluster(profile, args.nodes, tracer=tracer)
    result = run_barrier_experiment(
        cluster,
        barrier,
        iterations=args.iterations,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(result)

    # A traced run can never be *served* from the cache (the spans are
    # the product), but tracing is bit-identical to the untraced run,
    # so the cache still stores and cross-checks the point's latency —
    # a warm mismatch is a determinism regression, caught here.
    cache = resolve_cache("auto" if args.cache else None)
    if cache is not None:
        point = partial(
            sweep_point, args.network, profile.name, barrier, "dissemination",
            args.nodes, iterations=args.iterations, warmup=args.warmup,
            seed=args.seed,
        )
        cached = cache.get(point)
        if cached is None:
            cache.put(point, result.mean_latency_us)
            print("run cache: cold (latency stored)", file=sys.stderr)
        elif cached != result.mean_latency_us:
            print(
                f"run cache: WARM MISMATCH — cached {cached}us != measured "
                f"{result.mean_latency_us}us under the same source digest",
                file=sys.stderr,
            )
            return 1
        else:
            print("run cache: warm (latency verified)", file=sys.stderr)
        cache.write_stats()

    write_chrome_trace(tracer, args.out)
    print(f"wrote {args.out} ({len(tracer.spans)} spans; open at https://ui.perfetto.dev)")

    t0, t1 = result.iteration_window(-1)
    print(f"\n--- timeline, last timed iteration [{t0:.3f}..{t1:.3f}us] ---")
    print(ascii_timeline(tracer, t0, t1))

    path = critical_path(tracer, t0, t1)
    print("\n--- critical path ---")
    print(path.table())
    print()
    print(path.summary())

    print("\n--- counter audit ---")
    try:
        audit = audit_counters(
            dict(tracer.counters),
            barrier,
            args.nodes,
            args.warmup + args.iterations,
            profile=profile.name,
        )
    except ValueError as exc:
        print(f"(skipped: {exc})")
        return 0
    print(audit.table())
    return 0 if audit.passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.tools.simlint import run_lint

    return run_lint(
        root=Path(args.path) if args.path else None,
        perturb=args.perturb,
        perturb_nodes=args.perturb_nodes,
        perturb_rounds=args.perturb_rounds,
        perturb_iterations=args.perturb_iterations,
        seed=args.seed,
        ir=args.ir,
        ir_grid=args.grid,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import warnings

    from repro.tools.chaos import catalogue, make_fuzz_plan, run_block
    from repro.tools.runcache import atomic_write_text, resolve_cache

    cache = resolve_cache("auto" if args.cache else None)
    networks = (
        ("myrinet", "quadrics") if args.network == "both" else (args.network,)
    )
    # A plan checks its own size: the fuzzer's floor, the nodes the
    # catalogue's faults name, the network's largest machine.
    try:
        if args.fuzz:
            plans = [
                make_fuzz_plan(network, seed, nodes=args.nodes)
                for network in networks
                for seed in range(args.seed, args.seed + args.fuzz_seeds)
            ]
            header = (
                f"chaos fuzz: N={args.nodes}, {len(plans)} case(s), "
                f"{args.rounds} tie-break permutation(s)/case"
            )
        else:
            plans = catalogue(networks, args.nodes, args.iterations, args.seed)
            header = (
                f"chaos campaign: N={args.nodes}, {args.iterations} barriers/run, "
                f"{args.rounds} tie-break permutations/run"
            )
    except ValueError as exc:
        raise _UsageError(f"argument -n/--nodes: {exc}") from None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_block(plans, args.rounds, header, cache=cache)
    print(report.render())
    if args.report:
        from repro.experiments.chaos import degradation_report

        document = (
            "# Chaos campaign\n\n```\n" + report.render() + "\n```\n\n"
            + degradation_report(nodes=args.nodes, seed=args.seed)
        )
        atomic_write_text(args.report, document)
        print(f"degradation report written to {args.report}")
    if cache is not None:
        cache.write_stats()
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    from repro.experiments.common import print_experiment
    from repro.tools.runcache import resolve_cache

    cache = resolve_cache("auto" if args.cache else None)
    module = importlib.import_module(f"repro.experiments.{args.name}")
    print_experiment(module.run(quick=args.quick, jobs=args.jobs, cache=cache))
    if cache is not None:
        cache.write_stats()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import main as report_main

    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    if not args.cache:
        forwarded.append("--no-cache")
    forwarded.extend(["--out", args.out, "--jobs", str(args.jobs)])
    return report_main(forwarded)


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tools.tune import main as tune_main

    forwarded = ["--out", args.out, "--jobs", str(args.jobs)]
    if args.quick:
        forwarded.append("--quick")
    if args.repeats is not None:
        forwarded.extend(["--repeats", str(args.repeats)])
    if not args.cache:
        forwarded.append("--no-cache")
    return tune_main(forwarded)


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload import (
        CrossTrafficSpec,
        JobMetrics,
        KillSpec,
        dump_trace,
        format_job_table,
        generate_trace,
        load_trace,
        run_workload_cached,
        verify_workload_determinism,
    )
    from repro.cluster.profiles import DEFAULT_PROFILE

    networks = (
        ("myrinet", "quadrics") if args.network == "both" else (args.network,)
    )
    for network in networks:
        _check_fits(DEFAULT_PROFILE[network], args.nodes, "-n/--nodes")
    xtraffic = None
    if args.xtraffic and args.xtraffic_rate > 0:
        xtraffic = CrossTrafficSpec(
            rate_per_ms=args.xtraffic_rate, size_bytes=args.xtraffic_bytes
        )
    kill = None
    if args.kill_node is not None:
        kill = KillSpec(node=args.kill_node, at_us=args.kill_at)
        if xtraffic is not None:
            print("chaos mode: cross-traffic disabled (needs a fixed horizon)",
                  file=sys.stderr)
            xtraffic = None

    failed = False
    for network in networks:
        if args.jobs_trace:
            jobs = load_trace(args.jobs_trace)
        else:
            try:
                jobs = generate_trace(
                    args.pattern,
                    args.jobs,
                    args.nodes,
                    seed=args.seed,
                    iterations=args.iterations,
                    payload_bytes=args.payload_bytes,
                )
            except ValueError as exc:  # the generator's own size floor
                raise _UsageError(f"argument -n/--nodes: {exc}") from None
        if args.write_trace:
            dump_trace(jobs, args.write_trace)
            print(f"trace written to {args.write_trace}")
        report = None
        if args.check > 0:
            report = verify_workload_determinism(
                network, args.nodes, jobs, seed=args.seed,
                xtraffic=xtraffic, rounds=args.check, kill=kill,
            )
            # The check's stock run is this workload's run.
            result = report.baseline
        else:
            result = run_workload_cached(
                network,
                args.nodes,
                jobs,
                seed=args.seed,
                xtraffic=xtraffic,
                kill=kill,
                cache="auto" if args.cache else None,
            )
        metrics = [JobMetrics(**job) for job in result["jobs"]]
        print(f"\n=== workload: {network} ({result['profile']}) "
              f"N={args.nodes}, {len(jobs)} jobs, seed={args.seed} ===")
        print(format_job_table(metrics, result["fairness"]))
        if result["xtraffic"] is not None:
            xt = result["xtraffic"]
            print(f"  cross-traffic: {xt['injected']} injected / "
                  f"{xt['delivered']} delivered over "
                  f"{result['xtraffic_horizon_us']:.0f}us")
        audited = result["group_audit"]
        if audited:
            bad = [a for a in audited
                   if a["expected_packets"] != a["actual_packets"]]
            print(f"  group flow audit: {len(audited) - len(bad)}/"
                  f"{len(audited)} exact")
        if result["violations"]:
            failed = True
            for violation in result["violations"]:
                print(f"  VIOLATION: {violation}")
        if result["quiescence"]:
            failed = True
            for finding in result["quiescence"]:
                print(f"  QUIESCENCE: {finding}")
        if report is not None:
            if report.findings:
                failed = True
                for finding in report.findings:
                    print(f"  DETERMINISM: {finding.render()}")
            else:
                print(f"  determinism: bit-identical across {args.check} "
                      "tie-break permutations")
    return 1 if failed else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.tools.runcache import RunCache, cache_enabled, default_root

    cache = RunCache(args.dir or default_root())
    if args.action == "stats":
        print(f"cache root   : {cache.root}")
        print(f"enabled      : {cache_enabled()}")
        print(f"entries      : {cache.entry_count()}")
        print(f"total bytes  : {cache.total_bytes()}")
        last = cache.read_last_run_stats()
        if last is None:
            print("last run     : (no recorded run)")
        else:
            print(
                f"last run     : {last.get('hits', 0)} hits, "
                f"{last.get('misses', 0)} misses, "
                f"{last.get('stores', 0)} stores, "
                f"{last.get('corrupt', 0)} corrupt"
            )
    elif args.action == "gc":
        removed, kept = cache.gc()
        print(f"gc: removed {removed} stale entries, kept {kept}")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"clear: removed {removed} entries")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _node_count(text: str) -> int:
    """argparse type: a barrier needs at least two nodes."""
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"a barrier needs at least 2 nodes, got {text!r}")
    return value


def _profile_name(text: str) -> str:
    """argparse type: a name ``get_profile`` resolves (kept as given)."""
    from repro.cluster import get_profile

    try:
        get_profile(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


EXPERIMENT_NAMES = [
    "fig5", "fig6", "fig7", "fig8", "headline",
    "ablation", "skew", "extensions", "overlap", "tuned", "sensitivity",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NIC-based collective protocol reproduction (Yu et al., IPPS 2004)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profiles", help="list calibrated hardware profiles")

    run_parser = sub.add_parser("run", help="run one barrier experiment")
    run_parser.add_argument("--profile", type=_profile_name,
                            default="lanai_xp_xeon2400")
    run_parser.add_argument(
        "--barrier",
        default="nic-collective",
        choices=["host", "nic-direct", "nic-collective", "gsync", "hgsync", "nic-chained"],
    )
    run_parser.add_argument(
        "--algorithm",
        default="dissemination",
        choices=["dissemination", "pairwise-exchange", "gather-broadcast"],
    )
    run_parser.add_argument("--nodes", type=_node_count, default=8)
    run_parser.add_argument("--iterations", type=_positive_int, default=200)
    run_parser.add_argument("--warmup", type=_positive_int, default=30)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--counters", action="store_true",
                            help="print traffic counters")

    cache_flag = dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="serve unchanged points from the run cache "
        "(--no-cache: re-simulate everything)",
    )

    exp_parser = sub.add_parser("experiment", help="run one experiment harness")
    exp_parser.add_argument("name", choices=EXPERIMENT_NAMES)
    exp_parser.add_argument("--quick", action="store_true")
    exp_parser.add_argument("--jobs", type=_positive_int, default=1,
                            help="worker processes for sweep points (1 = serial)")
    exp_parser.add_argument("--cache", **cache_flag)

    trace_parser = sub.add_parser(
        "trace",
        help="trace one experiment: Perfetto JSON + timeline + critical path + audit",
    )
    trace_parser.add_argument("--network", default="quadrics",
                              choices=["quadrics", "myrinet"])
    trace_parser.add_argument("--profile", type=_profile_name, default=None,
                              help="hardware profile (default: per network)")
    trace_parser.add_argument(
        "--barrier", default=None,
        choices=["host", "nic-direct", "nic-collective", "gsync", "hgsync", "nic-chained"],
        help="default: nic-chained (quadrics) / nic-collective (myrinet)",
    )
    trace_parser.add_argument("-n", "--nodes", type=_node_count, default=16)
    trace_parser.add_argument("--iterations", type=_positive_int, default=5)
    trace_parser.add_argument("--warmup", type=_positive_int, default=2)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--out", default="trace.json",
                              help="Chrome-trace JSON output path")
    trace_parser.add_argument("--cache", **cache_flag)

    lint_parser = sub.add_parser(
        "lint",
        help="simlint: static invariant analysis (+ --perturb model checks)",
    )
    lint_parser.add_argument(
        "--path", default=None,
        help="file or directory to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--perturb", action="store_true",
        help="also run tie-break perturbation over every barrier scheme",
    )
    lint_parser.add_argument("--perturb-nodes", type=int, default=16)
    lint_parser.add_argument("--perturb-rounds", type=int, default=20)
    lint_parser.add_argument("--perturb-iterations", type=int, default=5)
    lint_parser.add_argument("--seed", type=int, default=0)
    lint_parser.add_argument(
        "--ir", action="store_true",
        help="also verify every compiled CollectiveSchedule in the grid "
             "(SL201-SL206) and model-check the sequence automaton "
             "(SL207-SL208)",
    )
    lint_parser.add_argument(
        "--grid", choices=("tuner", "quick"), default="tuner",
        help="--ir grid: 'tuner' = the full auto-tuner universe incl. "
             "non-pow2 N (default); 'quick' = the CI smoke subset",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection campaign: scenarios x schemes + invariants",
    )
    chaos_parser.add_argument("--network", default="both",
                              choices=["myrinet", "quadrics", "both"])
    chaos_parser.add_argument("-n", "--nodes", type=_node_count, default=16)
    chaos_parser.add_argument("--iterations", type=_positive_int, default=4,
                              help="consecutive barriers per run")
    chaos_parser.add_argument("--rounds", type=int, default=20,
                              help="tie-break determinism permutations per run")
    chaos_parser.add_argument("--seed", type=int, default=0)
    # The degradation report sweeps the catalogue's fault classes, so it
    # has nothing to add to a fuzz block.
    chaos_mode = chaos_parser.add_mutually_exclusive_group()
    chaos_mode.add_argument("--report", default=None,
                            help="also write the markdown degradation report here")
    chaos_mode.add_argument("--fuzz", action="store_true",
                            help="run the randomized failure fuzzer "
                                 "(kill/flap/corrupt/jitter schedules with "
                                 "epoch repair) instead of the scenario "
                                 "catalogue")
    chaos_parser.add_argument("--fuzz-seeds", type=int, default=4,
                              help="seeds per network in the fuzz block "
                                   "(seed, seed+1, ...)")
    chaos_parser.add_argument("--cache", **cache_flag)

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("--quick", action="store_true")
    report_parser.add_argument("--out", default="EXPERIMENTS.md")
    report_parser.add_argument("--jobs", type=_positive_int, default=1,
                               help="worker processes for sweep points (1 = serial)")
    report_parser.add_argument("--cache", **cache_flag)

    tune_parser = sub.add_parser(
        "tune",
        help="auto-tune algorithm selection; write the decision table",
    )
    tune_parser.add_argument("--out", default="tuning_table.json",
                             help="decision-table output path")
    tune_parser.add_argument("--quick", action="store_true",
                             help="small grid (2 sizes, 2 payloads)")
    tune_parser.add_argument("--jobs", type=_positive_int, default=1,
                             help="worker processes for grid points (1 = serial)")
    tune_parser.add_argument("--repeats", type=int, default=None,
                             help="operations per grid point")
    tune_parser.add_argument("--cache", **cache_flag)

    workload_parser = sub.add_parser(
        "workload",
        help="multi-job workload: overlapping jobs + cross-traffic + "
             "tail-latency metrics on one shared fabric",
    )
    workload_parser.add_argument("--network", default="both",
                                 choices=["myrinet", "quadrics", "both"])
    workload_parser.add_argument("-n", "--nodes", type=_node_count, default=64)
    workload_parser.add_argument("--jobs", type=_positive_int, default=4,
                                 help="jobs in the generated trace")
    workload_parser.add_argument("--pattern", default="skewed",
                                 choices=["uniform", "bursty", "skewed"],
                                 help="synthetic trace shape")
    workload_parser.add_argument("--jobs-trace", default=None,
                                 help="JSON-lines job trace to run "
                                      "(instead of generating one)")
    workload_parser.add_argument("--write-trace", default=None,
                                 help="write the generated trace here")
    workload_parser.add_argument("--iterations", type=int, default=20,
                                 help="timed iterations per job")
    workload_parser.add_argument("--payload-bytes", type=int, default=64)
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.add_argument(
        "--xtraffic", action=argparse.BooleanOptionalAction, default=True,
        help="stream seeded p2p cross-traffic over the same links",
    )
    workload_parser.add_argument("--xtraffic-rate", type=float, default=50.0,
                                 help="aggregate cross-traffic packets/ms")
    workload_parser.add_argument("--xtraffic-bytes", type=int, default=512)
    workload_parser.add_argument("--check", type=int, default=0,
                                 help="also verify bit-identical results "
                                      "across this many tie-break "
                                      "permutations")
    workload_parser.add_argument("--kill-node", type=int, default=None,
                                 help="chaos composition: kill this node "
                                      "mid-workload")
    workload_parser.add_argument("--kill-at", type=float, default=600.0,
                                 help="kill time (us)")
    workload_parser.add_argument("--cache", **cache_flag)

    cache_parser = sub.add_parser(
        "cache", help="inspect/maintain the persistent run cache"
    )
    cache_parser.add_argument(
        "action", choices=["stats", "gc", "clear"],
        help="stats: entry count/bytes/last-run counters; gc: drop "
        "entries from older source trees; clear: drop everything",
    )
    cache_parser.add_argument(
        "--dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "profiles": _cmd_profiles,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "chaos": _cmd_chaos,
        "tune": _cmd_tune,
        "workload": _cmd_workload,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
