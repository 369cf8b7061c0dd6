"""Golden outputs and a seeded schedule race for the tie-break replay.

The chaos fuzzer, the simlint perturbation matrix and the workload
determinism check each replay their runs under tie-break permutations
of the event schedule.  Their stdout is pinned byte-for-byte with one
replay round, so the permuted runs, not only the baselines, must
survive any restructuring unchanged.  A seeded schedule race must
reach both the chaos report and an SL101 perturbation report.
"""

import hashlib

import pytest

from repro.cli import main
from repro.tools import chaos
from repro.tools.simlint import perturb

GOLDEN = {
    "chaos-fuzz": (
        ["chaos", "--fuzz", "--nodes", "8", "--fuzz-seeds", "2",
         "--rounds", "1"],
        "d11ee2819371fb312d0d67f9f47acd9253fce0a07923e3e3db5e1a7fa8701ed6",
    ),
    "lint-perturb": (
        ["lint", "--perturb", "--perturb-nodes", "4", "--perturb-rounds", "1",
         "--perturb-iterations", "1"],
        "a237aeae0f9fd3a0222ad50b4de6770a0564a747707680d95ba779260761273d",
    ),
    "workload-check": (
        ["workload", "-n", "8", "--jobs", "2", "--iterations", "3",
         "--check", "1", "--no-cache"],
        "c8ccb9f85508a85728eb287d2b2247f10e02a23b24f35dbc96ff183dc63132e4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replayed_stdout_is_pinned(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _race(sim, tracer):
    """Eight same-instant events that count their own pop position: the
    counters depend on tie-break order, a schedule race by construction."""
    order = []

    def arrive(tag):
        order.append(tag)
        tracer.count(f"race.{len(order)}.{tag}")

    for tag in "abcdefgh":
        sim.schedule(1.0, arrive, tag)


def test_a_schedule_race_reaches_the_chaos_report(monkeypatch):
    arrange = chaos._arrange_faults

    def racing(plan, cluster, faults):
        arrange(plan, cluster, faults)
        _race(cluster.sim, cluster.tracer)

    monkeypatch.setattr(chaos, "_arrange_faults", racing)
    plan = chaos.catalogue_plan("drop", "nic-collective", nodes=8, iterations=2)
    report = chaos.run_block([plan], rounds=2, header="race")
    assert not report.ok
    assert "DIVERGED in permutation rounds [0, 1]" in report.render()


def test_a_schedule_race_reaches_a_perturbation_report(monkeypatch):
    run = perturb.run_barrier_experiment

    def racing(cluster, *args, **kwargs):
        _race(cluster.sim, cluster.tracer)
        return run(cluster, *args, **kwargs)

    monkeypatch.setattr(perturb, "run_barrier_experiment", racing)
    report = perturb.perturb_barrier_experiment(
        "lanai_xp_xeon2400", "nic-collective", nodes=4, rounds=2,
        iterations=1, warmup=1,
    )
    assert not report.ok
    assert report.diverged_rounds == (0, 1)
    assert str(report).endswith("2 permutations DIVERGED in rounds [0, 1]")
    assert {f.code for f in report.findings} == {"SL101"}
    assert all("counters differ: race." in f.message for f in report.findings)
