"""Smoke test of the benchmark harness: ``pytest bench -q`` (well under 60 s).

One ``--smoke --trace`` run of every workload, checked against the
benchmark's documented behaviour: metrics printed with units, no failed ops,
per-layer events and self times that add up, well-formed spans, and a
result file that compares as unchanged against itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench.compare import compare
from bench.harness import OUT_DIR, ROOT, load_benchmark
from bench.probes import LAYERS, OTHER

SPEC = load_benchmark()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--trace",
         "--repeats", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout, json.loads(out.read_text())


def _section(stdout: str, name: str) -> str:
    start = stdout.index(f"\n{name}: seed")
    end = stdout.find("\n\n", start + 1)
    return stdout[start:end if end != -1 else None]


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    stdout, _doc = smoke
    for name in NAMES:
        section = _section(stdout, name)
        for m in SPEC["end_to_end"]:
            pattern = rf"^\s+{re.escape(m['name'])}\s+[0-9.]+ {re.escape(m['unit'])}\s"
            assert re.search(pattern, section, re.M), (name, m["name"])
        assert re.search(r"^\s+fail_ratio\s+[0-9.]+ 1\s", section, re.M)


def test_no_op_fails(smoke):
    stdout, doc = smoke
    assert doc["preflight"]["attempted"] == 5
    assert doc["preflight"]["failed"] == 0, doc["preflight"]["problems"]
    for name in NAMES:
        wl = doc["workloads"][name]
        assert wl["attempted"] > 0
        assert wl["fail_ratio"] == 0, wl["problems"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 5


def test_layer_events_sum_to_the_kernel_total(smoke):
    _stdout, doc = smoke
    for name in NAMES:
        layers = doc["workloads"][name]["layers"]
        owned = sum(layers[f"{layer}.events"] for layer in LAYERS + (OTHER,))
        assert owned == layers["sim.events_total"] > 0, name
        assert layers["sim.events_total"] == doc["workloads"][name]["events_total"]


def test_every_per_layer_metric_is_reported(smoke):
    stdout, doc = smoke
    last = json.loads(stdout.strip().splitlines()[-1])
    for name in NAMES:
        layers = doc["workloads"][name]["layers"]
        for m in SPEC["per_layer"]:
            assert m["name"] in layers, (name, m["name"])
            assert f"{name}/{m['name']}" in last["metrics"], (name, m["name"])


def _trace(name: str) -> dict:
    return json.loads((OUT_DIR / f"trace-{name}.json").read_text())


def test_self_times_sum_to_the_traced_wall_time(smoke):
    for name in NAMES:
        trace = _trace(name)
        total = sum(row["self_s"] for row in trace["layers"].values())
        assert total == pytest.approx(trace["profile_wall_s"], rel=0.05), name
        assert trace["trace_overhead"] > 0


def test_every_span_has_a_valid_parent(smoke):
    for name in NAMES:
        spans = _trace(name)["spans"]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        roots = [span for span in spans if span["parent"] is None]
        assert [root["name"] for root in roots] == ["child"]
        names = set()
        for span in spans:
            names.add(span["name"])
            assert span["end"] is not None and span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        assert {"build_cluster", "Simulator.run"} <= names, name


def test_peak_rss_is_per_repeat(smoke):
    # A process-lifetime reading would make a later, smaller workload
    # report the earlier, larger one's high-water mark.
    _stdout, doc = smoke
    rss = {n: doc["workloads"][n]["metrics"]["peak_rss_mb"]["median"] for n in NAMES}
    assert rss["chaos-fuzz"] < rss["barrier-quadrics"] - 2.0, rss


def test_compare_against_itself_is_unchanged(smoke):
    _stdout, doc = smoke
    rows = compare(doc, doc, SPEC)
    assert rows
    for row in rows:
        assert row["verdict"] in ("unchanged", "info"), row
