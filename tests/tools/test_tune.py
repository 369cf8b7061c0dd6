"""The auto-tuner and its decision tables."""

import json

import pytest

from repro.collectives import ProcessGroup
from repro.collectives.tuning import (
    TABLE_ENV,
    Decision,
    DecisionTable,
    current_decision_table,
    install_decision_table,
    pick_algorithm,
)
from repro.tools.runcache import RunCache
from repro.tools.tune import candidate_points, main as tune_main, run_tuner


@pytest.fixture(autouse=True)
def no_table():
    """Tests control the installed table explicitly."""
    install_decision_table(None)
    yield
    install_decision_table(None)


def table_fixture():
    return DecisionTable(
        entries=(
            Decision("allreduce", "myrinet", 8, 4, "dissemination", 10.0),
            Decision("allreduce", "myrinet", 8, 4096, "gather-broadcast", 40.0),
            Decision("allreduce", "myrinet", 32, 4, "pairwise-exchange", 20.0),
            Decision("barrier", "any", 16, 0, "pairwise-exchange", 15.0),
        ),
    )


# ----------------------------------------------------------------------
# DecisionTable lookup and persistence
# ----------------------------------------------------------------------
def test_pick_snaps_to_nearest_measured_point():
    table = table_fixture()
    assert table.pick("allreduce", 8, 4) == "dissemination"
    assert table.pick("allreduce", 8, 4096) == "gather-broadcast"
    # N distance (in log2) dominates payload distance...
    assert table.pick("allreduce", 32, 4096) == "pairwise-exchange"
    # ...and unmeasured shapes snap to the nearest grid point.
    assert table.pick("allreduce", 12, 4) == "dissemination"
    assert table.pick("allreduce", 24, 64) == "pairwise-exchange"
    assert table.pick("alltoall", 8, 4) is None
    # Network filter: "any" rows answer for both networks.
    assert table.pick("barrier", 16, network="quadrics") == "pairwise-exchange"
    assert table.pick("allreduce", 8, 4, network="quadrics") is None


def test_json_roundtrip(tmp_path):
    table = table_fixture()
    path = tmp_path / "table.json"
    path.write_text(table.to_json())
    loaded = DecisionTable.load(path)
    assert loaded.entries == table.entries
    assert loaded.source == str(path)
    with pytest.raises(ValueError, match="not a tuning table"):
        DecisionTable.from_json(json.dumps({"format": "something-else"}))


def test_env_table_loads_once(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(table_fixture().to_json())
    monkeypatch.setenv(TABLE_ENV, str(path))
    install_decision_table(None)
    # install(None) marks the env as already probed...
    assert current_decision_table() is None
    # ...so force a fresh probe the way a new process would see it.
    import repro.collectives.tuning as tuning

    monkeypatch.setattr(tuning, "_loaded", False)
    monkeypatch.setattr(tuning, "_table", None)
    table = current_decision_table()
    assert table is not None and len(table) == 4
    assert pick_algorithm("barrier", 16) == "pairwise-exchange"


def test_pick_algorithm_defaults_without_table():
    assert pick_algorithm("barrier", 16) == "dissemination"
    assert pick_algorithm("allgather", 8, default="gather-broadcast") == (
        "gather-broadcast"
    )


def test_auto_group_consults_installed_table():
    install_decision_table(table_fixture())
    group = ProcessGroup(list(range(16)))  # algorithm="auto" is the default
    assert group.requested_algorithm == "auto"
    assert group.algorithm == "pairwise-exchange"
    schedule = group.collective_schedule("allreduce", payload_bytes=4)
    assert schedule.algorithm == "dissemination"  # nearest: n=8 row
    # Explicit algorithms bypass the table entirely.
    fixed = ProcessGroup(list(range(16)), algorithm="gather-broadcast")
    assert fixed.algorithm == "gather-broadcast"
    assert fixed.collective_schedule("allreduce").algorithm == "gather-broadcast"


def test_auto_group_barrier_keeps_the_algorithm_it_was_built_with():
    # The group fixes its barrier algorithm at construction; a table
    # installed afterwards changes only the data collectives it asks
    # about, never the barrier the group reports running.
    group = ProcessGroup(list(range(8)))
    install_decision_table(table_fixture())
    assert table_fixture().pick("barrier", 8) == "pairwise-exchange"
    assert group.algorithm == "dissemination"
    assert group.collective_schedule("barrier").algorithm == "dissemination"
    allreduce = group.collective_schedule("allreduce", payload_bytes=4096)
    assert allreduce.algorithm == "gather-broadcast"


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def test_candidate_grid_excludes_unsafe_reductions():
    points = candidate_points([6, 8], [4], repeats=1)
    allreduce = {(p.algorithm, p.n) for p in points if p.collective == "allreduce"}
    assert ("dissemination", 8) in allreduce
    assert ("dissemination", 6) not in allreduce
    assert ("pairwise-exchange", 6) in allreduce


def test_tiny_sweep_emits_winners_and_recaches(tmp_path):
    cache = RunCache(tmp_path / "cache")
    grid = dict(n_values=[2], payloads=[4], repeats=2, verbose=False)
    table = run_tuner(cache=cache, **grid)
    assert cache.misses > 0 and cache.hits == 0
    # One winner per (collective, shape); every latency is positive.
    shapes = {(e.collective, e.n, e.payload_bytes) for e in table.entries}
    assert len(shapes) == len(table.entries) == 3
    assert all(e.latency_us > 0 for e in table.entries)
    # A warm re-run simulates nothing and reproduces the table exactly.
    warm_cache = RunCache(tmp_path / "cache")
    warm = run_tuner(cache=warm_cache, **grid)
    assert warm_cache.misses == 0 and warm_cache.hits == cache.misses
    assert warm.entries == table.entries


def test_cli_writes_table_and_reports_cache(tmp_path, capsys, monkeypatch):
    import repro.tools.runcache as runcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runcache, "_default_caches", {})
    out = tmp_path / "table.json"
    assert tune_main(["--quick", "--repeats", "1", "--out", str(out)]) == 0
    table = DecisionTable.load(out)
    assert len(table) > 0
    assert table.meta["points_measured"] > len(table)
    err = capsys.readouterr().err
    assert "0 hits" in err
    # The warm re-run is all hits — the tuner-smoke CI contract.  A
    # fresh default-cache map stands in for the fresh CI process.
    monkeypatch.setattr(runcache, "_default_caches", {})
    assert tune_main(["--quick", "--repeats", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert " 0 misses" in err
