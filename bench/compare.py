"""``python -m bench compare PARENT.json CHANGE.json``.

For every (workload, end-to-end metric) row: both medians with their
spread and a verdict against the bound fixed in ``BENCHMARK.json``:

- ``unresolved``: the parent's own spread is wider than the bound, so
  the runs cannot tell, unless every change run beats every parent run
  (``better``) or is worse than every parent run by more than the
  bound (``worse``);
- otherwise ``worse`` or ``better`` when the medians differ by more
  than the bound, else ``unchanged``;
- always ``unchanged`` for identical runs.

A ``better`` here is not a claimed gain: that takes the paired
protocol in ``bench/README.md``.

``fail_ratio`` has an absolute bound of zero: any increase is worse.
A difference in the simulated-machine work counts is flagged as
"physics changed", and one in the simulated outputs as "outputs
changed": a simulator-only change must show neither.
"""

from __future__ import annotations

import json


def spread(summary: dict) -> float:
    """Interquartile distance from four values up, else the range."""
    if "q1" in summary:
        return summary["q3"] - summary["q1"]
    return summary["max"] - summary["min"]


def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    if change["values"] == parent["values"]:
        return "unchanged"  # the same runs: nothing to resolve
    sign = 1.0 if better == "lower" else -1.0
    base = parent["median"]
    worse_by = sign * (change["median"] - base) / base
    parent_spread = spread(parent) / base
    p_vals = [sign * v for v in parent["values"]]
    c_vals = [sign * v for v in change["values"]]
    all_better = max(c_vals) < min(p_vals)
    all_worse = min(c_vals) > max(p_vals)
    if parent_spread > bound:
        if all_better:
            return "better"
        return "worse" if all_worse and worse_by > bound else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) present in both result docs, plus
    one ``physics``/``outputs`` row per workload."""
    rows = []
    for name, p_wl in parent["workloads"].items():
        c_wl = change["workloads"].get(name)
        if c_wl is None:
            continue
        for m in spec["end_to_end"]:
            p, c = p_wl["metrics"][m["name"]], c_wl["metrics"][m["name"]]
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "parent": p, "change": c,
                "delta": (c["median"] - p["median"]) / p["median"],
                "verdict": verdict(p, c, m["bound"], m["better"]),
            })
        pf, cf = p_wl["fail_ratio"], c_wl["fail_ratio"]
        rows.append({
            "workload": name, "metric": "fail_ratio", "unit": "1",
            "parent": pf, "change": cf,
            "verdict": "worse" if cf > pf else "better" if cf < pf else "unchanged",
        })
        for key, label in (("physics", "physics changed"),
                           ("outputs", "outputs changed")):
            before, after = p_wl.get(key), c_wl.get(key)
            diffs = []
            if isinstance(before, dict) and isinstance(after, dict):
                diffs = [
                    f"{k}: {before.get(k)!r} -> {after.get(k)!r}"
                    for k in sorted(set(before) | set(after))
                    if before.get(k) != after.get(k)
                ]
            elif before != after:
                diffs = [f"{before!r} -> {after!r}"]
            rows.append({
                "workload": name, "metric": key,
                "verdict": label if diffs else "unchanged", "diffs": diffs,
            })
        rows.append({
            "workload": name, "metric": "sim.events_total",
            "parent": p_wl.get("events_total"), "change": c_wl.get("events_total"),
            "verdict": "info",
        })
    return rows


def _summary(s: dict, unit: str) -> str:
    lo, hi = (s["q1"], s["q3"]) if "q1" in s else (s["min"], s["max"])
    return f"{s['median']:.4f} {unit} [{lo:.4f}..{hi:.4f}]"


def render(rows: list[dict]) -> str:
    lines = []
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            lines.append(f"{workload}")
            lines.append(
                f"  {'metric':<16} {'parent median [spread]':<32} "
                f"{'change median [spread]':<32} {'delta':>8}  verdict"
            )
        metric = row["metric"]
        if metric in ("physics", "outputs"):
            lines.append(f"  {metric:<16} {row['verdict']}")
            lines += [f"    {diff}" for diff in row["diffs"]]
        elif metric == "sim.events_total":
            lines.append(f"  {metric:<16} {row['parent']} -> {row['change']}")
        elif metric == "fail_ratio":
            lines.append(
                f"  {metric:<16} {row['parent']:<32} {row['change']:<32} "
                f"{'':>8}  {row['verdict']}"
            )
        else:
            lines.append(
                f"  {metric:<16} {_summary(row['parent'], row['unit']):<32} "
                f"{_summary(row['change'], row['unit']):<32} "
                f"{row['delta']:>+8.2%}  {row['verdict']}"
            )
    return "\n".join(lines)


def compare_files(parent_path: str, change_path: str, spec: dict) -> list[dict]:
    with open(parent_path) as fh:
        parent = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    return compare(parent, change, spec)
