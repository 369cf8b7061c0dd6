"""Batched fast-path kernel vs the unbatched reference path.

``build_cluster(..., reference=True)`` disables every whole-experiment
batching fast path — chained-barrier prearming and the fat tree's
up-edge elision — so the run takes the plain per-iteration code.  The
fast paths are only admissible because they are *provably* inert: these
tests pin the proof down empirically by requiring bit-identical
latencies, per-iteration end times, and physics counters at the
verification sizes (the scale points then inherit the guarantee from
the same code path).
"""

import pytest

from repro.cluster import build_cluster, run_barrier_experiment

PHYSICS_COUNTERS = ("wire.packets", "elan.rdma_issued", "elan.event_fired")

CASES = [
    ("elan3_piii700", "nic-chained"),
    ("lanai_xp_xeon2400", "nic-collective"),
]


def _run(profile: str, barrier: str, n: int, reference: bool):
    cluster = build_cluster(profile, n, reference=reference)
    result = run_barrier_experiment(
        cluster, barrier, iterations=10, warmup=3, seed=0
    )
    counters = {
        key: cluster.tracer.counters.get(key, 0) for key in PHYSICS_COUNTERS
    }
    return {
        "mean_latency_us": result.mean_latency_us,
        "iteration_ends_us": tuple(result.iteration_ends_us),
        "delivered": cluster.fabric.delivered_count,
        "counters": counters,
    }


@pytest.mark.parametrize("profile,barrier", CASES)
def test_batched_matches_reference_n16(profile, barrier):
    assert _run(profile, barrier, 16, False) == _run(profile, barrier, 16, True)


@pytest.mark.slow
@pytest.mark.parametrize("profile,barrier", CASES)
def test_batched_matches_reference_n128(profile, barrier):
    assert _run(profile, barrier, 128, False) == _run(profile, barrier, 128, True)


@pytest.mark.slow
def test_sl101_perturbation_clean_at_n128():
    """Tie-break permutations must not move the batched kernel's results.

    The calendar-queue kernel, the arbitration domain's pooled decision
    passes, and the prearmed chains all promise schedule independence;
    N=128 exercises multi-stage fat-tree routes (where up-edge elision
    and the pooled passes actually engage), unlike the N=16 CI smoke.
    """
    from repro.tools.simlint.perturb import perturb_barrier_experiment

    report = perturb_barrier_experiment(
        "elan3_piii700", "nic-chained", nodes=128,
        rounds=3, iterations=3, warmup=1,
    )
    assert report.ok, [str(f) for f in report.findings]


def test_chained_driver_setup_flattens_each_rank_once(monkeypatch):
    """Driver setup is O(N): each rank's chain links are derived from
    the compiled schedule once, in the group's shared layout pass, and
    handed to the rank's own driver — never once per peer.

    The pre-optimization constructors re-flattened every peer's schedule
    inside every driver — O(N^2 log N), 69 of 85 seconds at N=1024.
    """
    import repro.collectives.quadrics_barrier as qb

    real = qb._chain_links
    counts = {}
    for n in (16, 32):
        calls = []

        def counting(ops, calls=calls):
            calls.append(1)
            return real(ops)

        monkeypatch.setattr(qb, "_chain_links", counting)
        cluster = build_cluster("elan3_piii700", n)
        run_barrier_experiment(cluster, "nic-chained", iterations=2, warmup=1, seed=0)
        counts[n] = len(calls)
    assert counts == {16: 16, 32: 32}


def test_collective_states_share_one_layout():
    """Per-iteration receive states derive masks from one shared layout."""
    from repro.collectives import ProcessGroup
    from repro.collectives.engine import NicCollectiveBarrierEngine

    cluster = build_cluster("lanai_xp_xeon2400", 16)
    group = ProcessGroup(range(16), algorithm="dissemination")
    engine = NicCollectiveBarrierEngine(cluster.nics[0], group, 0)
    state_a = engine._state(0)
    state_b = engine._state(1)
    assert state_a._layout is state_b._layout
    assert state_a._layout is engine._layout
