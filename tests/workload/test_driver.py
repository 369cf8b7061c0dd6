"""Workload driver tests: overlapping allocations on a shared fabric,
tie-break determinism, warm-cache bit-identity, and chaos composition."""

import pytest

from repro.tools.runcache import RunCache
from repro.workload import (
    CrossTrafficSpec,
    JobSpec,
    KillSpec,
    run_workload,
    run_workload_cached,
    verify_workload_determinism,
)

#: Two jobs sharing nodes 6..9 of a 16-node machine, mixed collectives.
OVERLAP_JOBS = [
    JobSpec(
        name="a",
        arrival_us=0.0,
        nodes=tuple(range(0, 10)),
        mix=(("barrier", 3), ("bcast", 1)),
        payload_bytes=64,
        iterations=6,
        warmup=1,
    ),
    JobSpec(
        name="b",
        arrival_us=7.0,
        nodes=tuple(range(6, 16)),
        mix=(("barrier", 3), ("bcast", 1)),
        payload_bytes=64,
        iterations=6,
        warmup=1,
    ),
]

XT = CrossTrafficSpec(rate_per_ms=100.0, size_bytes=256)


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
def test_overlapping_jobs_complete_clean(network):
    result = run_workload(network, 16, OVERLAP_JOBS, seed=1, xtraffic=XT)
    assert [j["status"] for j in result["jobs"]] == ["completed", "completed"]
    assert [j["iterations"] for j in result["jobs"]] == [6, 6]
    assert result["violations"] == []
    assert result["quiescence"] == []
    assert result["group_audit"], "expected per-group audit entries"
    assert all(
        check["actual_packets"] == check["expected_packets"]
        for check in result["group_audit"]
    )
    stats = result["xtraffic"]
    assert stats["injected"] == stats["delivered"] == stats["scheduled"] > 0
    # Every job carries a silent baseline and a slowdown.
    assert all(j["slowdown"] is not None for j in result["jobs"])


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
def test_overlapping_jobs_bit_identical_across_20_permutations(network):
    findings = verify_workload_determinism(
        network, 16, OVERLAP_JOBS, seed=1, xtraffic=XT, rounds=20
    ).findings
    assert findings == [], "\n".join(f.render() for f in findings)


def test_determinism_check_runs_each_silent_baseline_once(monkeypatch):
    """A 3-round check of a 2-job trace runs each job's silent baseline
    once, the contended run once stock and once per round — and the
    CLI prints the check's stock run instead of running it again."""
    import repro.workload.driver as driver
    from repro.cli import main

    calls = []
    real = driver._execute

    def counting(network, cluster_nodes, jobs, *args, **kwargs):
        calls.append(len(jobs))
        return real(network, cluster_nodes, jobs, *args, **kwargs)

    monkeypatch.setattr(driver, "_execute", counting)
    report = verify_workload_determinism(
        "quadrics", 16, OVERLAP_JOBS, seed=1, xtraffic=XT, rounds=3
    )
    assert report.findings == []
    assert calls == [1, 1, 2, 2, 2, 2]  # 2 silent, 1 stock, 3 replays
    assert report.baseline == run_workload(
        "quadrics", 16, OVERLAP_JOBS, seed=1, xtraffic=XT
    )

    calls.clear()
    argv = ["workload", "--network", "quadrics", "-n", "16", "--jobs", "2",
            "--iterations", "3", "--check", "3", "--no-cache"]
    assert main(argv) == 0
    assert calls == [1, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
def test_warm_cache_rerun_is_bit_identical(network, tmp_path):
    cache = RunCache(tmp_path)
    cold = run_workload_cached(
        network, 16, OVERLAP_JOBS, seed=1, xtraffic=XT, cache=cache
    )
    warm = run_workload_cached(
        network, 16, OVERLAP_JOBS, seed=1, xtraffic=XT, cache=cache
    )
    assert cache.hits == 1 and cache.misses == 1
    assert warm == cold


def test_contention_shows_up_in_the_tail():
    # The shared-node run must be measurably slower than silent.
    result = run_workload("myrinet", 16, OVERLAP_JOBS, seed=1, xtraffic=XT)
    stretched = [
        j for j in result["jobs"] if j["p99_us"] > j["silent_mean_us"]
    ]
    assert stretched, "no job's contended p99 exceeded its silent mean"
    assert 0.0 < result["fairness"] <= 1.0


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
def test_node_kill_repairs_victim_and_spares_bystander(network):
    # Node 2 belongs to the victim only; the jobs still share nodes 6..9.
    victim = JobSpec(
        name="victim",
        arrival_us=0.0,
        nodes=tuple(range(0, 10)),
        mix=(("barrier", 1),),
        iterations=40,
        warmup=1,
    )
    bystander = JobSpec(
        name="bystander",
        arrival_us=3.0,
        nodes=tuple(range(6, 16)),
        mix=(("barrier", 1),),
        iterations=40,
        warmup=1,
    )
    kill = KillSpec(node=2, at_us=60.0)
    result = run_workload(
        network, 16, [victim, bystander], seed=2, kill=kill, baseline=False
    )
    status = {j["name"]: j["status"] for j in result["jobs"]}
    assert status["victim"] == "repaired"
    assert status["bystander"] == "completed"
    done = {j["name"]: j["iterations"] for j in result["jobs"]}
    assert done["bystander"] == 40
    assert 0 < done["victim"] < 40
    assert result["violations"] == []
    assert result["quiescence"] == []
    assert result["kill"] == kill.to_json()
