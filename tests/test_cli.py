"""Tests for the command-line interface."""

import json

import pytest

from repro._version import __version__
from repro.cli import main


def test_profiles_lists_all(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "lanai_xp_xeon2400" in out
    assert "lanai91_piii700" in out
    assert "elan3_piii700" in out


def test_run_default(capsys):
    assert main(["run", "--iterations", "10", "--warmup", "2", "--nodes", "4"]) == 0
    out = capsys.readouterr().out
    assert "mean" in out
    assert "nic-collective" in out


def test_run_quadrics(capsys):
    code = main([
        "run", "--profile", "elan3_piii700", "--barrier", "nic-chained",
        "--nodes", "4", "--iterations", "5", "--warmup", "2",
    ])
    assert code == 0
    assert "nic-chained" in capsys.readouterr().out


def test_run_with_counters(capsys):
    main([
        "run", "--nodes", "4", "--iterations", "5", "--warmup", "2", "--counters",
    ])
    out = capsys.readouterr().out
    assert "wire.barrier" in out
    assert "counters over all 7 barriers (2 warm-up + 5 timed)" in out


def test_run_rejects_bad_barrier():
    with pytest.raises(SystemExit):
        main(["run", "--barrier", "magic"])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.slow
def test_experiment_subcommand(capsys):
    assert main(["experiment", "ablation", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "ablation" in out


def test_experiment_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_trace_quadrics(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "trace", "--network", "quadrics", "-n", "8",
        "--iterations", "3", "--warmup", "1", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "critical path" in printed
    assert "counter audit" in printed
    assert "PASS" in printed
    import json

    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_trace_myrinet(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "trace", "--network", "myrinet", "-n", "8",
        "--iterations", "3", "--warmup", "1", "--out", str(out),
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_trace_rejects_profile_network_mismatch(tmp_path):
    code = main([
        "trace", "--network", "myrinet", "--profile", "elan3_piii700",
        "--out", str(tmp_path / "t.json"),
    ])
    assert code == 2


def test_cache_stats_empty(capsys):
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out
    assert "0" in out


def test_cache_stats_counts_entries(tmp_path, capsys):
    from repro.tools.runcache import RunCache, run_request

    cache_dir = tmp_path / "cache"
    RunCache(cache_dir).put(run_request("t", n=1), 1.0)
    assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries      : 1" in out
    assert str(cache_dir) in out


def test_cache_gc_and_clear(tmp_path, capsys):
    from repro.tools.runcache import RunCache, run_request

    cache_dir = tmp_path / "cache"
    cache = RunCache(cache_dir)
    cache.put(run_request("t", n=1), 1.0)
    stale = dict(run_request("t", n=2), source_digest="deadbeef")
    cache.put(stale, 2.0)

    assert main(["cache", "gc", "--dir", str(cache_dir)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert cache.entry_count() == 1

    assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert cache.entry_count() == 0


def test_trace_warm_run_verifies_cached_latency(tmp_path, capsys):
    argv = [
        "trace", "--network", "myrinet", "-n", "4",
        "--iterations", "2", "--warmup", "1",
        "--out", str(tmp_path / "t.json"),
    ]
    assert main(argv) == 0
    assert "run cache: cold" in capsys.readouterr().err
    assert main(argv) == 0
    assert "run cache: warm" in capsys.readouterr().err


def test_trace_warm_mismatch_is_a_determinism_violation(tmp_path, capsys):
    """A cached latency that disagrees with the re-measured one under
    the same source digest fails the run: the cross-check is live."""
    argv = [
        "trace", "--network", "myrinet", "-n", "4",
        "--iterations", "2", "--warmup", "1",
        "--out", str(tmp_path / "t.json"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    (entry_path,) = (tmp_path / "run-cache" / "objects").rglob("*.json")
    entry = json.loads(entry_path.read_text())
    entry["payload"] += 1
    entry_path.write_text(json.dumps(entry))
    assert main(argv) == 1
    assert "WARM MISMATCH" in capsys.readouterr().err


def test_trace_no_cache_stays_silent(tmp_path, capsys):
    code = main([
        "trace", "--network", "myrinet", "-n", "4",
        "--iterations", "2", "--warmup", "1", "--no-cache",
        "--out", str(tmp_path / "t.json"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "run cache" not in captured.out + captured.err


def test_workload_smoke_both_networks(capsys):
    code = main([
        "workload", "-n", "8", "--jobs", "2", "--pattern", "uniform",
        "--iterations", "3", "--seed", "1", "--no-cache",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "workload: myrinet" in out
    assert "workload: quadrics" in out
    assert "fairness" in out
    assert "cross-traffic" in out
    assert "group flow audit" in out
    assert "VIOLATION" not in out and "QUIESCENCE" not in out


def test_workload_trace_write_and_reload(tmp_path, capsys):
    trace_path = tmp_path / "jobs.jsonl"
    code = main([
        "workload", "--network", "myrinet", "-n", "8", "--jobs", "2",
        "--iterations", "2", "--no-xtraffic", "--no-cache",
        "--write-trace", str(trace_path),
    ])
    assert code == 0
    assert trace_path.exists()
    capsys.readouterr()
    code = main([
        "workload", "--network", "myrinet", "-n", "8",
        "--jobs-trace", str(trace_path), "--no-xtraffic", "--no-cache",
    ])
    assert code == 0
    assert "workload: myrinet" in capsys.readouterr().out


def test_workload_chaos_disables_xtraffic(capsys):
    code = main([
        "workload", "--network", "quadrics", "-n", "8", "--jobs", "2",
        "--pattern", "uniform", "--iterations", "12", "--no-cache",
        "--kill-node", "0", "--kill-at", "30",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "cross-traffic disabled" in captured.err
    assert "repaired" in captured.out


@pytest.mark.parametrize("command", ["experiment", "report", "tune"])
@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_must_be_positive(command, jobs, capsys):
    argv = [command, "--jobs", jobs]
    if command == "experiment":
        argv.insert(1, "fig7")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["run", "--nodes", "0"], "--nodes"),
    (["run", "--nodes", "-3"], "--nodes"),
    (["run", "--nodes", "1"], "--nodes"),
    (["run", "--iterations", "0"], "--iterations"),
    (["run", "--warmup", "-1"], "--warmup"),
    (["trace", "-n", "1"], "-n/--nodes"),
    (["trace", "--warmup", "0"], "--warmup"),
    (["trace", "--iterations", "0"], "--iterations"),
])
def test_bad_sizes_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "trace"])
def test_unknown_profile_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--profile", "no_such_nic"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --profile: unknown profile 'no_such_nic'" in err
    assert "Traceback" not in err


def test_profile_name_variants_still_accepted(capsys):
    code = main([
        "run", "--profile", "Elan3-PIII700", "--barrier", "nic-chained",
        "--nodes", "4", "--iterations", "3", "--warmup", "1",
    ])
    assert code == 0
    assert "nic-chained" in capsys.readouterr().out


def test_chaos_fuzz_report_is_a_usage_error(tmp_path, capsys):
    report = tmp_path / "chaos.md"
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--fuzz", "--report", str(report)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not report.exists()
