"""One benchmark repeat in a fresh interpreter.

The harness starts one of these per repeat::

    python -m bench.child --workload NAME --seed S --size full|smoke \\
        --t0 T --result FILE [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process.  The child writes one JSON record to ``--result``: the
end-to-end measurements, the simulated outputs and work counts, and,
with ``--trace``, the per-layer data.  Untraced children run the speed
probe of ``bench/speed.py``: ``wall_s`` and ``setup_s`` are as measured
(less the probe's own time), and ``slowdown`` and ``setup_slowdown``
are the probe's readings over the same two intervals, for the harness
to divide by.  An exception raised by the workload is recorded (its
ops then count as failed); any other error exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from bench.speed import SpeedProbe

    speed = SpeedProbe()
    profiler = None
    if not args.trace:
        speed.start()
    else:
        import cProfile

        # Profile from before the repo is imported, so the layers' self
        # times add up to the whole traced interval.  Builtins are not
        # profiled: their time counts toward the Python function that
        # called them (a heappush in the kernel is kernel time), and
        # the traced repeat runs about a fifth faster.
        profiler = cProfile.Profile(builtins=False)
        profile_start = time.perf_counter()
        profiler.enable()

    from bench.probes import Probe, physics
    from bench.workloads import WORKLOADS

    probe = Probe(trace=args.trace)
    outcome = error = None
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.size)
    except Exception:  # noqa: BLE001 - recorded as failed ops
        error = traceback.format_exc()
    returned_at = time.monotonic()
    speed.stop()
    if profiler is not None:
        profiler.disable()
        profile_wall = time.perf_counter() - profile_start
    probe.finish()

    setup_end = probe.first_run_at or returned_at
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "wall_s": returned_at - args.t0 - speed.overhead(returned_at),
        "slowdown": speed.slowdown(returned_at),
        "setup_s": setup_end - args.t0 - speed.overhead(setup_end),
        "setup_slowdown": speed.slowdown(setup_end),
        # ru_maxrss is KiB on Linux: this child's own high-water mark.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events_total": probe.events_total,
        "error": error,
    }
    if outcome is not None:
        record.update(
            outputs=outcome.outputs,
            problems=outcome.problems,
            latencies=outcome.latencies,
            physics=physics(probe.counters(), outcome.xtraffic),
        )
    if profiler is not None:
        from repro.collectives.algorithms import schedule_cache_stats

        cache = schedule_cache_stats()
        lookups = cache["hits"] + cache["misses"]
        record["trace"] = {
            "profile_wall_s": profile_wall,
            "self_s": probe.layer_self_times(profiler),
            "events": dict(probe.events),
            "spans": probe.span_records(),
            "collectives.schedule_cache_hit_rate": (
                cache["hits"] / lookups if lookups else 0.0
            ),
            **probe.span_metrics(),
        }
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
