"""Tests for the content-addressed run cache.

Covers the contract the sweeps rely on: a cached point is a call keyed
by its function, bound arguments, source digest and installed decision
table; hit after store, miss on any input change (params, seed, source
digest, decision table), corrupted entries treated as misses,
order-preserving merge in ``parallel_map``, and warm re-runs performing
*zero* simulations with bit-identical output.
"""

import dataclasses
import json
from functools import partial

import pytest

from repro.cluster import get_profile
from repro.collectives import tuning
from repro.collectives.tuning import Decision, DecisionTable
from repro.experiments import common, extensions, fig6, fig8, headline
from repro.experiments import report as report_mod
from repro.experiments.common import parallel_map, sweep, sweep_point
from repro.sim import Simulator
from repro.tools import runcache
from repro.tools.runcache import (
    RunCache,
    atomic_write_text,
    cached_call,
    jsonable,
    resolve_cache,
    run_request,
    source_digest,
)


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


def forbid_simulation(monkeypatch):
    """Any simulator run from here on fails the test."""

    def boom(*args, **kwargs):
        raise AssertionError("a warm run must not simulate")

    monkeypatch.setattr(Simulator, "run", boom)


def stock_point(**overrides):
    fields = dict(
        network="myrinet", profile="lanai_xp_xeon2400", barrier="nic-collective",
        algorithm="dissemination", n=8, iterations=5, warmup=2, seed=0,
    )
    fields.update(overrides)
    return partial(sweep_point, **fields)


EXECUTED = []


def times_ten(item):
    EXECUTED.append(item)
    return item * 10


def pair(item):
    EXECUTED.append(item)
    return (item, item + 0.5)


@pytest.fixture(autouse=True)
def fresh_executed():
    EXECUTED.clear()


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "out.txt"
        atomic_write_text(target, "first")
        assert target.read_text() == "first"
        atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_no_tmp_litter(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "original")
        monkeypatch.setattr(
            runcache.os, "replace",
            lambda *a: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            atomic_write_text(target, "replacement")
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestRequests:
    def test_jsonable_expands_dataclasses(self):
        params = get_profile("lanai_xp_xeon2400")
        expanded = jsonable(params)
        assert isinstance(expanded, dict)
        # Nested params dataclasses are expanded field-by-field.
        assert isinstance(expanded["wire"], dict)
        json.dumps(expanded)  # fully JSON-serializable

    def test_jsonable_preserves_dict_order(self):
        # Payloads may be repr-compared against live results (chaos
        # fault_stats); insertion order must survive the round trip.
        assert list(jsonable({"b": 1, "a": 2})) == ["b", "a"]

    def test_jsonable_rejects_opaque_objects(self):
        with pytest.raises(TypeError, match="plain data"):
            jsonable(object())

    def test_key_ignores_dict_order_but_not_values(self):
        a = {"kind": "x", "n": 8, "seed": 0}
        b = {"seed": 0, "n": 8, "kind": "x"}
        assert RunCache.key_digest(a) == RunCache.key_digest(b)
        assert RunCache.key_digest(a) != RunCache.key_digest({**a, "n": 16})

    def test_request_embeds_source_digest(self):
        request = run_request(stock_point())
        assert request["source_digest"] == source_digest()
        assert request["call"] == "repro.experiments.common.sweep_point"

    def test_point_request_snapshots_full_params(self):
        request = run_request(stock_point(profile=get_profile("lanai_xp_xeon2400")))
        assert request["args"]["profile"]["name"] == "lanai_xp_xeon2400"
        assert "wire" in request["args"]["profile"]

    def test_positional_keyword_and_default_bind_to_one_key(self):
        spellings = [
            partial(sweep_point, "myrinet", "lanai_xp_xeon2400",
                    "nic-collective", "dissemination", 8),
            partial(sweep_point, "myrinet", "lanai_xp_xeon2400",
                    "nic-collective", "dissemination", 8, 100, 20, 0),
            partial(sweep_point, "myrinet", "lanai_xp_xeon2400",
                    "nic-collective", algorithm="dissemination", n=8,
                    seed=0, warmup=20),
            stock_point(iterations=100, warmup=20),
        ]
        keys = {RunCache.key_digest(run_request(call)) for call in spellings}
        assert len(keys) == 1
        assert run_request(spellings[0])["args"]["iterations"] == 100

    def test_lambda_and_closure_are_refused(self):
        def closure():
            return 1.0

        for call in (lambda: 1.0, closure, partial(closure)):
            with pytest.raises(TypeError, match="module-level function"):
                run_request(call)

    def test_sweep_fig8_and_headline_give_a_point_one_key(self, monkeypatch):
        """The Myrinet-XP nic-collective N=8 point at 40 iterations is
        measured by a sweep, by fig8's series and by the headline
        table; all three must build the same call key."""
        keys = {}

        class Captured(Exception):
            pass

        def capture(name):
            def fake(calls, **kwargs):
                for call in calls:
                    request = run_request(call)
                    args = request["args"]
                    if (args["profile"], args["barrier"], args["n"]) == (
                        "lanai_xp_xeon2400", "nic-collective", 8
                    ):
                        keys.setdefault(name, set()).add(
                            RunCache.key_digest(request)
                        )
                raise Captured

            return fake

        monkeypatch.setattr(common, "parallel_map", capture("sweep"))
        monkeypatch.setattr(fig8, "parallel_map", capture("fig8"))
        monkeypatch.setattr(headline, "parallel_map", capture("headline"))
        with pytest.raises(Captured):
            sweep("myrinet", "lanai_xp_xeon2400", "nic-collective",
                  "dissemination", [8], iterations=40, warmup=20)
        with pytest.raises(Captured):
            fig8.run(quick=True, iterations=40)
        with pytest.raises(Captured):
            headline.run(quick=True, iterations=40)
        assert set(keys) == {"sweep", "fig8", "headline"}
        assert len(set.union(*keys.values())) == 1


class TestDecisionTableKey:
    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        monkeypatch.setattr(tuning, "_table", None)
        monkeypatch.setattr(tuning, "_loaded", True)

    def test_installed_table_enters_the_key(self):
        call = stock_point()
        assert "decision_table" not in run_request(call)
        table = DecisionTable(
            entries=(Decision("barrier", "any", 8, 0, "pairwise-exchange", 1.0),)
        )
        tuning.install_decision_table(table)
        assert run_request(call)["decision_table"] == jsonable(table.entries)

    def test_warm_cache_under_a_new_table_misses(self, cache):
        """A point cached without a table must not be served once a
        table changes the algorithm its ``"auto"`` groups run."""
        call = partial(extensions._allgather_point, 8, repeats=3)
        untuned = cached_call(cache, call)
        tuning.install_decision_table(DecisionTable(entries=(
            Decision("barrier", "any", 8, 0, "dissemination", 1.0),
            Decision("allgather", "any", 8, 4, "gather-broadcast", 1.0),
        )))
        warm = cached_call(cache, call)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2
        assert warm == call()
        assert warm != untuned


class TestHitMissInvalidation:
    def test_miss_then_hit(self, cache):
        request = stock_point()
        assert cache.get(request) is None
        cache.put(request, 12.5)
        assert cache.get(request) == 12.5
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_none_payload_rejected(self, cache):
        with pytest.raises(ValueError, match="must not be None"):
            cache.put(stock_point(), None)

    def test_param_change_misses(self, cache):
        cache.put(stock_point(), 12.5)
        perturbed = dataclasses.replace(
            get_profile("lanai_xp_xeon2400"),
            gm=dataclasses.replace(
                get_profile("lanai_xp_xeon2400").gm, nack_timeout_us=999.0
            ),
        )
        assert cache.get(stock_point(profile=perturbed)) is None

    def test_seed_change_misses(self, cache):
        cache.put(stock_point(seed=0), 12.5)
        assert cache.get(stock_point(seed=1)) is None

    def test_n_change_misses(self, cache):
        cache.put(stock_point(n=8), 12.5)
        assert cache.get(stock_point(n=16)) is None

    def test_source_digest_change_misses(self, cache, monkeypatch):
        cache.put(stock_point(), 12.5)
        monkeypatch.setattr(runcache, "source_digest", lambda: "deadbeef")
        assert cache.get(stock_point()) is None

    def test_corrupted_entry_is_miss_and_pruned(self, cache):
        request = stock_point()
        cache.put(request, 12.5)
        path = cache.entry_path(request)
        path.write_text('{"schema": "repro.runcache/1", "trunca')
        assert cache.get(request) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_unknown_schema_is_miss(self, cache):
        request = stock_point()
        cache.put(request, 12.5)
        path = cache.entry_path(request)
        entry = json.loads(path.read_text())
        entry["schema"] = "repro.runcache/99"
        path.write_text(json.dumps(entry))
        assert cache.get(request) is None

    def test_gc_drops_stale_digests(self, cache, monkeypatch):
        cache.put(stock_point(n=8), 1.0)
        cache.put(stock_point(n=16), 2.0)
        assert cache.gc() == (0, 2)
        # Entries minted under another digest are stale.
        monkeypatch.setattr(runcache, "source_digest", lambda: "deadbeef")
        assert cache.gc() == (2, 0)
        assert cache.entry_count() == 0

    def test_clear_removes_everything(self, cache):
        cache.put(stock_point(), 1.0)
        cache.write_stats()
        assert cache.clear() == 1
        assert cache.entry_count() == 0
        assert cache.read_last_run_stats() is None


class TestResolve:
    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache("auto") is None

    def test_explicit_off(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_passthrough(self, cache):
        assert resolve_cache(cache) is cache

    def test_auto_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        resolved = resolve_cache("auto")
        assert resolved is not None
        assert resolved.root == tmp_path / "elsewhere"

    def test_cached_call_roundtrip(self, cache):
        call = partial(times_ten, 3)
        assert cached_call(cache, call) == 30
        assert cached_call(cache, call) == 30
        assert EXECUTED == [3]
        # Uncached path always computes.
        assert cached_call(None, call) == 30
        assert EXECUTED == [3, 3]


class TestParallelMapCaching:
    def test_only_misses_execute_and_order_is_preserved(self, cache):
        cache.put(partial(times_ten, 2), 20)
        cache.put(partial(times_ten, 4), 40)
        out = parallel_map(
            [partial(times_ten, i) for i in [1, 2, 3, 4, 5]], cache=cache
        )
        assert out == [10, 20, 30, 40, 50]
        assert EXECUTED == [1, 3, 5]

    def test_decode_encode_roundtrip(self, cache):
        calls = [partial(pair, 1), partial(pair, 2)]
        out1 = parallel_map(calls, cache=cache, decode=tuple)
        out2 = parallel_map(calls, cache=cache, decode=tuple)
        assert out1 == out2 == [(1, 1.5), (2, 2.5)]
        assert EXECUTED == [1, 2]  # the warm pass ran nothing

    def test_parallel_workers_fill_the_cache(self, cache):
        calls = [partial(times_ten, i) for i in range(4)]
        assert parallel_map(calls, jobs=2, cache=cache) == [0, 10, 20, 30]
        assert parallel_map(calls, jobs=2, cache=cache) == [0, 10, 20, 30]
        assert cache.stats()["hits"] == 4


NS = [2, 4]
SWEEP_ARGS = dict(
    network="myrinet", profile="lanai_xp_xeon2400", barrier="nic-collective",
    algorithm="dissemination", n_values=NS, iterations=4, warmup=1,
)


class TestSweepWarm:
    def test_warm_sweep_runs_zero_simulations(self, cache, monkeypatch):
        cold = sweep(**SWEEP_ARGS, cache=cache)
        assert cache.stats()["misses"] == len(NS)

        forbid_simulation(monkeypatch)
        warm = sweep(**SWEEP_ARGS, cache=cache)
        assert warm == cold
        assert cache.stats()["hits"] == len(NS)

    def test_no_cache_still_simulates(self, monkeypatch):
        live = sweep(**SWEEP_ARGS, cache=None)
        assert len(live.latencies) == len(NS)

    def test_warm_equals_cold_bit_for_bit(self, cache):
        cold = sweep(**SWEEP_ARGS, cache=cache)
        warm = sweep(**SWEEP_ARGS, cache=cache)
        assert [lat.hex() for lat in warm.latencies] == [
            lat.hex() for lat in cold.latencies
        ]


@pytest.mark.slow
class TestReportWarm:
    def test_warm_report_identical_and_simulation_free(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance criterion: a warm report re-runs zero
        simulations and renders byte-identical output (modulo the
        wall-clock timing line)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        monkeypatch.setattr(report_mod, "EXPERIMENTS", [fig6])
        monkeypatch.setattr(report_mod, "AUDIT_POINTS", [("nic-collective", 8)])

        def strip_timing(text: str) -> str:
            return "\n".join(
                line for line in text.splitlines()
                if not line.startswith("_Total generation time")
            )

        cold_out = tmp_path / "cold.md"
        assert report_mod.main(["--quick", "--out", str(cold_out)]) == 0
        capsys.readouterr()

        forbid_simulation(monkeypatch)
        # The process-wide cache instance survives across main() calls
        # (real CLI runs are separate processes); zero the counters so
        # the warm run's stats stand alone.
        shared = resolve_cache("auto")
        shared.hits = shared.misses = shared.stores = shared.corrupt = 0
        warm_out = tmp_path / "warm.md"
        assert report_mod.main(["--quick", "--out", str(warm_out)]) == 0
        err = capsys.readouterr().err
        assert "0 misses" in err
        assert strip_timing(warm_out.read_text()) == strip_timing(
            cold_out.read_text()
        )


class TestChaosCache:
    def test_baseline_cached_and_comparable(self, cache):
        from repro.tools.chaos import catalogue, run_plan

        plan = catalogue(("myrinet",), nodes=8, iterations=2)[0]
        cold = run_plan(plan, cache=cache)
        assert cache.stats()["stores"] == 1
        warm = run_plan(plan, cache=cache)
        assert cache.stats()["hits"] == 1
        assert warm.comparable() == cold.comparable()

    def test_fuzz_plan_warm_read_equals_cold(self, cache):
        from repro.tools.chaos import make_fuzz_plan, run_plan

        plan = make_fuzz_plan("quadrics", 0, nodes=8)
        cold = run_plan(plan, cache=cache)
        warm = run_plan(plan, cache=cache)
        assert cache.stats()["stores"] == 1
        assert cache.stats()["hits"] == 1
        assert warm == cold
