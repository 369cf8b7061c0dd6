"""``python -m bench run``: repeats in fresh children, checks, metrics.

Every repeat is its own ``python -m bench.child`` process, started one
at a time, with the run cache off and a private ``REPRO_CACHE_DIR``, so
each starts with empty run and schedule caches as a user's fresh
command does and ``peak_rss_mb`` is that repeat's own.  Each host time
is divided by the speed probe's slowdown over the same interval
(``bench/speed.py``).  This process never imports the simulator.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.probes import LAYERS, OTHER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: A child that runs longer than this is killed and the run aborted.
CHILD_TIMEOUT_S = 120

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def unit_of(metric: str, spec: dict) -> str:
    """A metric's unit as ``BENCHMARK.json`` lists it; the few reported
    metrics it does not list are counts."""
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == metric:
            return m["unit"]
    return "count"


def summarize(values: list[float]) -> dict:
    """Median, extremes and (from four values up) quartiles."""
    out = {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }
    if len(values) >= 4:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


@dataclass
class OpTally:
    """Checked ops: one per simulated result per repeat."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_records(records: list[dict], expected: dict | None) -> OpTally:
    """Fail every op that did not complete, broke an invariant, differs
    from its expected output, or whose repeat differs from the first
    good repeat in outputs, event count or physics counts."""
    tally = OpTally()
    good = [r for r in records if r["error"] is None]
    reference = good[0] if good else None
    n_ops = len(reference["outputs"]) if reference else 1
    for index, rec in enumerate(records):
        where = f"repeat {index}{' (traced)' if rec['traced'] else ''}"
        if rec["error"] is not None:
            tally.attempted += n_ops
            tally.failed += n_ops
            last = rec["error"].strip().splitlines()[-1]
            tally.notes.append(f"{where}: workload raised {last}")
            continue
        drift = [
            key for key in ("events_total", "physics")
            if rec[key] != reference[key]
        ]
        for op, output in rec["outputs"].items():
            tally.attempted += 1
            reasons = list(rec["problems"][op])
            if expected is not None and output != expected.get(op):
                reasons.append(
                    f"output {output!r} != expected {expected.get(op)!r}"
                )
            if output != reference["outputs"].get(op):
                reasons.append("output differs from repeat 0")
            reasons += [f"{key} differs from repeat 0" for key in drift]
            if reasons:
                tally.failed += 1
                tally.notes.append(f"{where} {op}: " + "; ".join(reasons))
    return tally


class Harness:
    """Starts children and keeps the temporary directory they share."""

    def __init__(self, size: str):
        if not (ROOT / "src" / "repro").is_dir():
            raise HarnessError(f"no simulator sources under {ROOT / 'src'}")
        self.size = size
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(dict.fromkeys(_THREAD_VARS, "1"))
        env["REPRO_CACHE"] = "0"
        env["REPRO_CACHE_DIR"] = str(self.tmp / "cache")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, workload: str, seed: int, trace: bool = False) -> dict:
        """One child, traced or not; returns its record."""
        self._count += 1
        result = self.tmp / f"{self._count}-{workload}.json"
        cmd = [
            sys.executable, "-m", "bench.child", "--workload", workload,
            "--seed", str(seed), "--size", self.size, "--result", str(result),
        ] + (["--trace"] if trace else [])
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(
                f"{workload} child ran over {CHILD_TIMEOUT_S}s and was killed"
            ) from exc
        if proc.returncode != 0:
            raise HarnessError(
                f"{workload} child exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(result.read_text())

    def repeats(self, workload: str, seed: int, repeats: int,
                seconds: float | None) -> list[dict]:
        """Untraced repeats: ``repeats`` of them, or with ``seconds``
        set, as many as fit in that budget (at least two)."""
        records = []
        start = time.monotonic()
        while True:
            records.append(self.child(workload, seed))
            done = len(records)
            if seconds is None:
                if done >= repeats:
                    return records
            else:
                elapsed = time.monotonic() - start
                if done >= 2 and elapsed + elapsed / done > seconds:
                    return records


def layer_metrics(traced: dict, untraced: list[dict], wall_s: float) -> dict:
    """Per-layer metrics from the traced repeat; ``untraced`` are the
    untraced records and ``wall_s`` their median, for the two ratios
    that need them."""
    trace = traced["trace"]
    metrics = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_s"] = trace["self_s"][layer]
        metrics[f"{layer}.events"] = trace["events"].get(layer, 0)
    events = traced["events_total"]
    metrics["sim.events_total"] = events
    metrics["sim.host_us_per_event"] = wall_s / events * 1e6 if events else 0.0
    for key, value in trace.items():
        if key not in ("self_s", "events", "spans", "profile_wall_s"):
            metrics[key] = value
    metrics.update(traced["physics"])
    # The traced repeat runs without the speed probe: compare as measured.
    metrics["trace_overhead"] = traced["wall_s"] / statistics.median(
        r["wall_s"] for r in untraced
    )
    return metrics


def measure_workload(harness: Harness, name: str, seed: int, repeats: int,
                     seconds: float | None, trace: bool,
                     expected: dict | None, spec: dict) -> dict:
    """All repeats of one workload, checked and summarized."""
    records = harness.repeats(name, seed, repeats, seconds)
    untraced = list(records)
    if trace:
        records.append(harness.child(name, seed, trace=True))
    samples = {
        "wall_s": [r["wall_s"] / r["slowdown"] for r in untraced],
        "setup_s": [r["setup_s"] / r["setup_slowdown"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    tally = check_records(records, expected)
    summary = {
        "repeats": len(untraced),
        "metrics": {
            m: {"unit": unit_of(m, spec), **summarize(values)}
            for m, values in samples.items()
        },
        "slowdown": summarize([r["slowdown"] for r in untraced]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.fail_ratio,
        "problems": tally.notes,
    }
    reference = next((r for r in records if r["error"] is None), None)
    if reference is not None:
        summary.update(
            outputs=reference["outputs"],
            latencies=reference["latencies"],
            events_total=reference["events_total"],
            physics=reference["physics"],
        )
    traced = records[-1] if trace else None
    if traced is not None and traced["error"] is None:
        summary["layers"] = layer_metrics(
            traced, untraced, summary["metrics"]["wall_s"]["median"]
        )
        write_trace(name, seed, traced, summary["layers"])
    return summary


def write_trace(name: str, seed: int, traced: dict, layers: dict) -> None:
    """The traced repeat's spans and per-layer table, for later study."""
    trace = traced["trace"]
    doc = {
        "workload": name,
        "seed": seed,
        "profile_wall_s": trace["profile_wall_s"],
        "trace_overhead": layers["trace_overhead"],
        "layers": {
            layer: {
                "self_s": trace["self_s"][layer],
                "share": trace["self_s"][layer] / trace["profile_wall_s"],
                "events": trace["events"].get(layer, 0),
            }
            for layer in LAYERS + (OTHER,)
        },
        "metrics": layers,
        "spans": trace["spans"],
    }
    (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


def preflight(harness: Harness, expected: dict) -> dict:
    """Golden and headline points, required bit-exact."""
    record = harness.child("preflight", 0)
    tally = check_records([record], expected)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.notes,
        "outputs": record.get("outputs", {}),
        "latencies": record.get("latencies", []),
    }


def run(seed: int, workloads: list[str], repeats: int, seconds: float | None,
        trace: bool, size: str, spec: dict) -> dict:
    """Preflight, then every selected workload; returns the result doc."""
    expected = load_expected()
    harness = Harness(size)
    try:
        doc = {
            "schema": "bench-result/1",
            "seed": seed,
            "size": size,
            "trace": trace,
            "preflight": preflight(harness, expected["preflight"]),
            "workloads": {},
        }
        for name in workloads:
            want = None
            if size == "full":
                want = expected["workloads"][name].get(str(seed))
            doc["workloads"][name] = measure_workload(
                harness, name, seed, repeats, seconds, trace, want, spec
            )
    finally:
        harness.close()
    return doc


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}" if abs(value) < 1e-3 and value else f"{value:.4f}"


def render(doc: dict, spec: dict) -> str:
    """Human-readable report: every metric by name with its unit."""
    lines = []
    pre = doc["preflight"]
    lines.append(
        f"preflight: {pre['attempted'] - pre['failed']}/{pre['attempted']} "
        "golden/headline points bit-exact"
    )
    for op, value in pre["outputs"].items():
        lines.append(f"  {op:<22} {value!r} us")
    for label, n, sim_us, paper_us in pre["latencies"]:
        err = (sim_us - paper_us) / paper_us * 100
        lines.append(
            f"  {label:<22} {sim_us:.4f} us vs paper {paper_us:.2f} us "
            f"(N={n}): paper_err_pct {err:+.2f}"
        )
    lines += [f"  FAILED {note}" for note in pre["problems"]]
    for name, wl in doc["workloads"].items():
        lines.append("")
        lines.append(
            f"{name}: seed {doc['seed']}, {wl['repeats']} untraced repeat(s), "
            "one fresh child each"
        )
        for metric, s in wl["metrics"].items():
            lines.append(
                f"  {metric:<16} {_fmt(s['median'])} {s['unit']:<3} "
                f"(median; min {_fmt(s['min'])}, max {_fmt(s['max'])}, "
                f"R={s['n']})"
            )
        lines.append(
            f"  {'fail_ratio':<16} {_fmt(wl['fail_ratio'])} 1   "
            f"({wl['failed']} of {wl['attempted']} ops failed)"
        )
        slow = wl["slowdown"]
        lines.append(
            f"  host times divided by the speed probe's slowdown: median "
            f"{slow['median']:.3f} (min {slow['min']:.3f}, max {slow['max']:.3f})"
        )
        for label, n, sim_us, paper_us in wl.get("latencies", []):
            text = f"  {label:<16} {sim_us:.4f} us"
            if paper_us:
                err = (sim_us - paper_us) / paper_us * 100
                text += (
                    f"   paper model {paper_us:.2f} us at N={n}: "
                    f"paper_err_pct {err:+.2f}"
                )
            lines.append(text)
        lines += [f"  FAILED {note}" for note in wl["problems"]]
        layers = wl.get("layers")
        if layers:
            lines.append(
                f"  per layer (traced repeat, trace_overhead "
                f"{layers['trace_overhead']:.2f}x):"
            )
            lines.append(f"    {'layer':<12} {'self_s':>9} {'events':>10}")
            tabled = set()
            for layer in LAYERS + (OTHER,):
                tabled |= {f"{layer}.self_s", f"{layer}.events"}
                lines.append(
                    f"    {layer:<12} {layers[f'{layer}.self_s']:>9.4f} "
                    f"{layers[f'{layer}.events']:>10}"
                )
            for metric, value in layers.items():
                if metric not in tabled:
                    lines.append(
                        f"    {metric:<38} {_fmt(value)} {unit_of(metric, spec)}"
                    )
    return "\n".join(lines)


def summary_line(doc: dict, spec: dict) -> dict:
    """The one-line JSON summary: end-to-end medians untraced, or the
    per-layer metrics when traced.  Metric names carry a
    ``<workload>/`` prefix when more than one workload ran."""
    wanted = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    several = len(doc["workloads"]) > 1
    attempted = doc["preflight"]["attempted"]
    failed = doc["preflight"]["failed"]
    metrics = {}
    for name, wl in doc["workloads"].items():
        attempted += wl["attempted"]
        failed += wl["failed"]
        for m in wanted:
            if doc["trace"]:
                value = wl.get("layers", {}).get(m["name"])
            else:
                value = wl["metrics"][m["name"]]["median"]
            if value is not None:
                key = f"{name}/{m['name']}" if several else m["name"]
                metrics[key] = {"value": value, "unit": m["unit"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
