"""Cross-cutting determinism and conservation properties.

A reproducible simulator is the foundation of every number in
EXPERIMENTS.md: identical builds + identical seeds must give identical
traces, and no packet may be silently lost unless fault injection ate
it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    build_myrinet_cluster,
    build_quadrics_cluster,
    run_barrier_experiment,
)
from repro.network import FaultInjector
from repro.sim import DeterministicRng


@pytest.mark.parametrize("barrier", ["host", "nic-direct", "nic-collective"])
def test_myrinet_experiments_bit_identical(barrier):
    def run():
        cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=4)
        result = run_barrier_experiment(
            cluster, barrier, iterations=10, warmup=3, seed=11
        )
        return (result.mean_latency_us, result.total_us, tuple(sorted(result.counters.items())))

    assert run() == run()


@pytest.mark.parametrize("barrier", ["gsync", "hgsync", "nic-chained"])
def test_quadrics_experiments_bit_identical(barrier):
    def run():
        cluster = build_quadrics_cluster(nodes=4)
        result = run_barrier_experiment(
            cluster, barrier, iterations=10, warmup=3, seed=11
        )
        return (result.mean_latency_us, result.total_us)

    assert run() == run()


def test_lossy_experiments_bit_identical():
    def run():
        faults = FaultInjector(rng=DeterministicRng(9, "f"), drop_probability=0.02)
        cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=4, faults=faults)
        result = run_barrier_experiment(
            cluster, "nic-collective", iterations=15, warmup=3, seed=2
        )
        return (result.mean_latency_us, faults.dropped)

    assert run() == run()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_determinism_across_arbitrary_seeds(seed):
    def run():
        cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=3)
        result = run_barrier_experiment(
            cluster, "nic-collective", iterations=4, warmup=2, seed=seed
        )
        return result.mean_latency_us

    assert run() == run()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    algo=st.sampled_from(["dissemination", "pairwise-exchange"]),
)
def test_packet_conservation_clean_wire(n, algo):
    """Without faults, every transmitted packet is delivered."""
    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=n)
    run_barrier_experiment(cluster, "nic-collective", algo, iterations=5, warmup=2)
    sent = cluster.tracer.counters["wire.packets"]
    assert cluster.fabric.delivered_count == sent


def test_packet_conservation_under_loss():
    faults = FaultInjector(rng=DeterministicRng(4, "f"), drop_probability=0.05)
    cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=4, faults=faults)
    run_barrier_experiment(cluster, "nic-collective", iterations=15, warmup=3)
    sent = cluster.tracer.counters["wire.packets"]
    assert cluster.fabric.delivered_count == sent - faults.dropped


def _series_key(result):
    return [
        (s.label, tuple(s.n_values), tuple(s.latencies)) for s in result.series
    ]


@pytest.mark.parametrize("module_name", ["fig5", "fig7"])
def test_parallel_sweep_bit_identical_to_serial(module_name):
    """--jobs fans points out to worker processes; each point is an
    independent simulator with a fixed seed, so the fan-out must not
    change a single bit of any series."""
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    serial = module.run(quick=True, jobs=1)
    parallel = module.run(quick=True, jobs=4)
    assert _series_key(serial) == _series_key(parallel)
    assert serial.measured_anchors == parallel.measured_anchors


def test_parallel_map_preserves_order_and_serial_fallback():
    from functools import partial

    from repro.experiments.common import parallel_map

    calls = [partial(_square, i) for i in range(12)]
    assert parallel_map(calls, jobs=1) == [i * i for i in range(12)]
    assert parallel_map(calls, jobs=3) == [i * i for i in range(12)]
    assert parallel_map([], jobs=3) == []


def _square(x):
    return x * x


def test_different_seeds_permute_differently():
    perms = set()
    for seed in range(6):
        cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=8)
        result = run_barrier_experiment(
            cluster, "nic-collective", iterations=2, warmup=1, seed=seed
        )
        perms.add(result.node_permutation)
    assert len(perms) > 1


def test_permutation_does_not_change_latency_much():
    """The paper: "We observed only negligible variations" across node
    permutations (single-crossbar topologies are symmetric)."""
    latencies = []
    for seed in range(5):
        cluster = build_myrinet_cluster("lanai_xp_xeon2400", nodes=8)
        result = run_barrier_experiment(
            cluster, "nic-collective", iterations=20, warmup=5, seed=seed
        )
        latencies.append(result.mean_latency_us)
    assert max(latencies) - min(latencies) < 0.05 * max(latencies)


@pytest.mark.parametrize(
    "build,barrier",
    [
        (build_quadrics_cluster, "nic-chained"),
        (build_myrinet_cluster, "nic-collective"),
        (build_myrinet_cluster, "host"),
    ],
)
def test_tracing_is_passive(build, barrier):
    """Span instrumentation must be pure observation: enabling the
    tracer cannot move a single event (bit-identical latencies)."""
    from repro.sim import Tracer

    def run(enabled):
        cluster = build(nodes=8, tracer=Tracer(enabled=enabled))
        result = run_barrier_experiment(cluster, barrier, iterations=10, warmup=3)
        return (
            result.mean_latency_us,
            result.total_us,
            result.timed_start_us,
            result.iteration_ends_us,
            tuple(sorted(result.counters.items())),
        )

    assert run(True) == run(False)


def test_tracing_is_passive_on_a_quadrics_fuzz_case(monkeypatch):
    """The same for a fuzz case, whose survivors spin on ibarrier
    requests: with the tracer on the express spin is off, yet outcomes,
    end time and counters match the untraced run."""
    import repro.tools.chaos as chaos
    from repro.sim import Simulator, Tracer

    plan = chaos.make_fuzz_plan("quadrics", 0, nodes=16)

    def run(enabled):
        build = chaos.build_cluster
        monkeypatch.setattr(
            chaos, "build_cluster",
            lambda *args, **kw: build(*args, tracer=Tracer(enabled=enabled), **kw),
        )
        sim = Simulator()
        result = chaos.run_plan(plan, sim=sim)
        monkeypatch.undo()
        assert result.ok, (result.violations, result.quiescence)
        return (
            result.outcomes, result.end_us, result.seq_end_us,
            tuple(sorted(result.counters.items())),
        ), sim.events_scheduled

    traced, traced_events = run(True)
    plain, plain_events = run(False)
    assert traced == plain
    assert traced_events > plain_events  # every empty poll simulated
