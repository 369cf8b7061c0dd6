"""Tests for the content-addressed run cache (PR 5 tentpole).

Covers the contract the sweeps rely on: hit after store, miss on any
request-field change (params, seed, source digest), corrupted entries
treated as misses, order-preserving merge in ``parallel_map``, warm
re-runs performing *zero* simulations with bit-identical output, and
the perfbench warm cross-check.
"""

import dataclasses
import json

import pytest

from repro.cluster import get_profile
from repro.experiments import fig6
from repro.experiments import report as report_mod
from repro.experiments.common import parallel_map, sweep
from repro.tools import runcache
from repro.tools.runcache import (
    RunCache,
    atomic_write_text,
    cached_call,
    jsonable,
    point_request,
    resolve_cache,
    run_request,
    source_digest,
)


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


def stock_request(**overrides):
    fields = dict(
        network="myrinet", profile="lanai_xp_xeon2400", barrier="nic-collective",
        algorithm="dissemination", n=8, iterations=5, warmup=2, seed=0,
    )
    fields.update(overrides)
    return point_request(**fields)


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
        request = run_request("x", n=8)
        assert request["source_digest"] == source_digest()

    def test_point_request_snapshots_full_params(self):
        request = stock_request()
        assert request["params"]["name"] == "lanai_xp_xeon2400"
        assert "wire" in request["params"]


class TestHitMissInvalidation:
    def test_miss_then_hit(self, cache):
        request = stock_request()
        assert cache.get(request) is None
        cache.put(request, 12.5)
        assert cache.get(request) == 12.5
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_none_payload_rejected(self, cache):
        with pytest.raises(ValueError, match="must not be None"):
            cache.put(stock_request(), None)

    def test_param_change_misses(self, cache):
        cache.put(stock_request(), 12.5)
        perturbed = dataclasses.replace(
            get_profile("lanai_xp_xeon2400"),
            gm=dataclasses.replace(
                get_profile("lanai_xp_xeon2400").gm, nack_timeout_us=999.0
            ),
        )
        assert cache.get(stock_request(profile=perturbed)) is None

    def test_seed_change_misses(self, cache):
        cache.put(stock_request(seed=0), 12.5)
        assert cache.get(stock_request(seed=1)) is None

    def test_n_change_misses(self, cache):
        cache.put(stock_request(n=8), 12.5)
        assert cache.get(stock_request(n=16)) is None

    def test_source_digest_change_misses(self, cache, monkeypatch):
        cache.put(stock_request(), 12.5)
        monkeypatch.setattr(runcache, "source_digest", lambda: "deadbeef")
        assert cache.get(stock_request()) is None

    def test_corrupted_entry_is_miss_and_pruned(self, cache):
        request = stock_request()
        cache.put(request, 12.5)
        path = cache.entry_path(request)
        path.write_text('{"schema": "repro.runcache/1", "trunca')
        assert cache.get(request) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_unknown_schema_is_miss(self, cache):
        request = stock_request()
        cache.put(request, 12.5)
        path = cache.entry_path(request)
        entry = json.loads(path.read_text())
        entry["schema"] = "repro.runcache/99"
        path.write_text(json.dumps(entry))
        assert cache.get(request) is None

    def test_gc_drops_stale_digests(self, cache, monkeypatch):
        cache.put(stock_request(n=8), 1.0)
        cache.put(stock_request(n=16), 2.0)
        assert cache.gc() == (0, 2)
        # Entries minted under another digest are stale.
        monkeypatch.setattr(runcache, "source_digest", lambda: "deadbeef")
        assert cache.gc() == (2, 0)
        assert cache.entry_count() == 0

    def test_clear_removes_everything(self, cache):
        cache.put(stock_request(), 1.0)
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
        calls = []

        def compute():
            calls.append(1)
            return {"v": 3}

        request = run_request("t", n=1)
        assert cached_call(cache, request, compute) == {"v": 3}
        assert cached_call(cache, request, compute) == {"v": 3}
        assert len(calls) == 1
        # Uncached path always computes.
        assert cached_call(None, request, compute) == {"v": 3}
        assert len(calls) == 2


class TestParallelMapCaching:
    def test_only_misses_execute_and_order_is_preserved(self, cache):
        executed = []

        def fn(item):
            executed.append(item)
            return item * 10

        def key_fn(item):
            return run_request("pm-test", item=item)

        cache.put(key_fn(2), 20)
        cache.put(key_fn(4), 40)
        out = parallel_map(fn, [1, 2, 3, 4, 5], cache=cache, key_fn=key_fn)
        assert out == [10, 20, 30, 40, 50]
        assert executed == [1, 3, 5]

    def test_decode_encode_roundtrip(self, cache):
        def key_fn(item):
            return run_request("pm-pair", item=item)

        out1 = parallel_map(
            lambda i: (i, i + 0.5), [1, 2], cache=cache, key_fn=key_fn,
            decode=lambda p: (p[0], p[1]),
        )
        out2 = parallel_map(
            lambda i: (_ for _ in ()).throw(AssertionError("warm must not run")),
            [1, 2], cache=cache, key_fn=key_fn, decode=lambda p: (p[0], p[1]),
        )
        assert out1 == out2 == [(1, 1.5), (2, 2.5)]


NS = [2, 4]
SWEEP_ARGS = dict(
    network="myrinet", profile="lanai_xp_xeon2400", barrier="nic-collective",
    algorithm="dissemination", n_values=NS, iterations=4, warmup=1,
)


class TestSweepWarm:
    def test_warm_sweep_runs_zero_simulations(self, cache, monkeypatch):
        cold = sweep(**SWEEP_ARGS, cache=cache)
        assert cache.stats()["misses"] == len(NS)

        def boom(*args, **kwargs):
            raise AssertionError("warm sweep must not simulate")

        monkeypatch.setattr("repro.experiments.common.sweep_point", boom)
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

        def boom(*args, **kwargs):
            raise AssertionError("warm report must not simulate")

        monkeypatch.setattr("repro.experiments.common.sweep_point", boom)
        monkeypatch.setattr("repro.tools.run_counter_audit", boom)
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


class TestPerfbenchCache:
    SPEC = None  # set lazily to keep import costs at module level low

    def _spec(self):
        from repro.tools.perfbench import PointSpec

        return PointSpec(
            "tiny", "lanai91_piii700", "nic-collective", 8,
            iterations=3, warmup=1,
        )

    def _request(self, spec):
        return run_request(
            "bench-point", params=get_profile(spec.profile),
            barrier=spec.barrier, nodes=spec.nodes,
            iterations=spec.iterations, warmup=spec.warmup, seed=0,
        )

    def test_cold_then_warm(self, cache):
        from repro.tools.perfbench import bench_point

        spec = self._spec()
        cold = bench_point(spec, trials=1, cache=cache)
        assert cold["cache"] == "cold"
        warm = bench_point(spec, trials=1, cache=cache)
        assert warm["cache"] == "warm"
        assert warm["events_scheduled"] == cold["events_scheduled"]
        assert warm["mean_latency_us"] == cold["mean_latency_us"]

    def test_cache_off_by_default(self):
        from repro.tools.perfbench import bench_point

        assert bench_point(self._spec(), trials=1)["cache"] == "off"

    def test_schedule_cache_hit_rate_surfaced(self):
        from repro.collectives.algorithms import SCHEDULE_CACHE
        from repro.tools.perfbench import bench_point

        SCHEDULE_CACHE.clear()
        row = bench_point(self._spec(), trials=2)
        sched = row["schedule_cache"]
        # Trial 1 compiles the message pattern, trial 2 replays it.
        assert sched["misses"] >= 1
        assert sched["hits"] >= 1
        assert 0 < sched["hit_rate"] < 1

    def test_warm_mismatch_is_determinism_violation(self, cache):
        from repro.tools.perfbench import bench_point

        spec = self._spec()
        row = bench_point(spec, trials=1, cache=cache)
        request = self._request(spec)
        cache.put(
            request,
            {
                "events_scheduled": row["events_scheduled"] + 1,
                "mean_latency_us": row["mean_latency_us"],
            },
        )
        with pytest.raises(RuntimeError, match="determinism violation"):
            bench_point(spec, trials=1, cache=cache)


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
