"""Chaos runner: plan plumbing, catalogue and fuzz plans, invariants, SL107."""

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import get_profile
from repro.cluster.runner import run_barrier_experiment
from repro.network import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.chaos import (
    CATALOGUE,
    ChaosPlan,
    catalogue,
    catalogue_plan,
    run_block,
    run_plan,
)
from repro.tools.simlint import check_quiescent
from repro.tools.simlint.perturb import TieBreakSimulator


class TestScenarioValidation:
    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(name="x", network="infiniband", description="")

    def test_unknown_expectation_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(name="x", network="myrinet", description="",
                      expect="explode")

    def test_degrade_needs_a_counter(self):
        with pytest.raises(ValueError):
            ChaosPlan(name="x", network="myrinet", description="",
                      expect="degrade")

    def test_inapplicable_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_plan(catalogue_plan("crash", "host", nodes=4))

    def test_catalogue_covers_every_fault_class(self):
        names = {(s.network, s.name) for s, _schemes in CATALOGUE}
        for required in ("drop", "corrupt", "duplicate", "delay", "flap",
                         "crash", "link-death", "slow-host"):
            assert ("myrinet", required) in names
        for required in ("delay", "slow-host", "hw-degrade", "hw-fail"):
            assert ("quadrics", required) in names
        # Data collectives and the non-blocking barrier each cover a
        # transient (flap) and a terminal (link-death / crash) fault.
        for required in ("allreduce-flap", "allreduce-link-death",
                         "bcast-flap", "bcast-link-death",
                         "ibarrier-flap", "ibarrier-crash"):
            assert ("myrinet", required) in names

    def test_collective_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(name="x", network="myrinet", description="",
                      segments=(("allscatter",),))
        with pytest.raises(ValueError):
            ChaosPlan(name="x", network="quadrics", description="",
                      segments=(("allreduce",),))

    def test_data_collective_scenarios_collapse_to_one_scheme(self):
        assert [p.scheme for p in catalogue(("myrinet",))
                if p.name == "allreduce-flap"] == ["nic-collective"]

    def test_allreduce_link_death_surfaces_typed_failures(self):
        result = run_plan(catalogue_plan(
            "allreduce-link-death", "nic-collective",
            nodes=8, iterations=2,
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures > 0
        reasons = {
            o.split(":", 2)[2]
            for rank in result.outcomes for record in rank for o in record
            if o.startswith("fail:")
        }
        assert reasons == {"datacoll-retry-budget-exhausted"}

    def test_ibarrier_flap_recovers(self):
        result = run_plan(catalogue_plan(
            "ibarrier-flap", "nic-collective", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures == 0

    def test_bcast_flap_delivers_exact_payloads(self):
        result = run_plan(catalogue_plan(
            "bcast-flap", "nic-collective", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert all(o == "ok:bcast" for rank in result.outcomes
                   for record in rank for o in record)


class TestScenarioRuns:
    def test_recover_scenario_recovers(self):
        result = run_plan(catalogue_plan(
            "drop", "nic-collective", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures == 0
        assert result.counters["wire.dropped"] > 0
        assert result.fault_stats["dropped"] == result.counters["wire.dropped"]

    def test_link_death_surfaces_typed_failures(self):
        result = run_plan(catalogue_plan(
            "link-death", "nic-collective", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures > 0
        reasons = {
            o.split(":", 2)[2]
            for rank in result.outcomes for record in rank for o in record
            if o.startswith("fail:")
        }
        assert reasons == {"nack-retry-budget-exhausted"}

    def test_hw_degrade_counts_fallbacks(self):
        result = run_plan(catalogue_plan(
            "hw-degrade", "hgsync", "quadrics", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures == 0
        assert result.counters["elan.hw_fallback"] > 0

    def test_hw_fail_escalates(self):
        result = run_plan(catalogue_plan(
            "hw-fail", "hgsync", "quadrics", nodes=8, iterations=2
        ))
        assert result.ok, (result.violations, result.quiescence)
        assert result.failures > 0

    def test_expectation_violation_is_reported(self):
        # A fault-free scenario that *expects* failures must not pass.
        impossible = ChaosPlan(
            name="nothing-happens",
            network="myrinet",
            description="no faults, yet failures expected",
            expect="fail",
            scheme="host",
            nodes=4,
        )
        result = run_plan(impossible)
        assert not result.ok
        assert any("expected surfaced failures" in v for v in result.violations)

    def test_fault_after_the_last_op_is_vacuous(self):
        """At N=8 two barriers end before NIC 5 crashes: the run tested
        nothing, and the report must say why."""
        result = run_plan(catalogue_plan(
            "crash", "nic-collective", nodes=8, iterations=2
        ))
        assert not result.ok
        assert result.failures == 0
        assert (
            "vacuous: crash n5 at 30.0us after the last op ended at 28.3us"
            in result.violations
        )

    def test_scheme_plans_cannot_repair_kills(self):
        with pytest.raises(ValueError, match="repair kills"):
            ChaosPlan(network="myrinet", scheme="nic-collective",
                      segments=(("barrier",), ("barrier",)),
                      kills=((3, 200.0),))

    def test_a_spin_whose_barrier_never_completes_is_a_hang(self):
        """A dead link cuts two Quadrics chains: ranks n1 and n3 spin on
        an ibarrier whose completion never comes.  The run still drains,
        and both the hang check and the quiescence audit name them."""
        result = run_plan(ChaosPlan(
            "quadrics", nodes=4, segments=(("ibarrier",),), dead_link=(0, 1),
        ))
        assert [o[0] for o in result.outcomes] == [
            ("ok:ibarrier",), (), ("ok:ibarrier",), (),
        ]
        hangs = [v for v in result.violations if v.startswith("HANG")]
        assert hangs == [
            "HANG: chaos@1 never finished", "HANG: chaos@3 never finished",
        ]
        assert len(result.quiescence) == 2
        for node, finding in zip((1, 3), result.quiescence):
            assert finding.startswith(f"elan3_piii700/chaos@{node}: SL102")
            assert f"spinning on queue 'elan{node}.host_events'" in finding

    def test_faulted_run_bit_identical_under_tiebreak(self):
        baseline = run_plan(catalogue_plan(
            "flap", "nic-collective", nodes=8, iterations=2
        ))
        replay = run_plan(
            catalogue_plan("flap", "nic-collective", nodes=8, iterations=2),
            sim=TieBreakSimulator(DeterministicRng(1, "test/tiebreak")),
        )
        assert replay.comparable() == baseline.comparable()


def test_unfired_drop_plan_surfaces_as_sl107():
    # A plan whose flow never carries enough matching packets silently
    # turns the scenario into a fault-free run; the quiescence audit
    # must say so.
    faults = FaultInjector()
    faults.drop_nth_matching(
        lambda p: p.src == 0 and p.dst == 1, occurrence=10_000,
        label="too-greedy",
    )
    sim = Simulator()
    sim.track_processes()
    cluster = build_cluster(
        get_profile("lanai_xp_xeon2400"), 4, faults=faults, sim=sim
    )
    run_barrier_experiment(cluster, "nic-collective", iterations=1, warmup=1)
    report = check_quiescent(cluster)
    assert [f.code for f in report.findings] == ["SL107"]
    assert "too-greedy" in report.findings[0].message


def test_campaign_smoke_quadrics():
    campaign = run_block(
        catalogue(("quadrics",), nodes=8, iterations=2), rounds=1,
        header="chaos campaign",
    )
    assert campaign.ok, campaign.render()
    assert len(campaign.results) == 7  # delay x2, slow-host x3, hw-degrade, hw-fail
    rendered = campaign.render()
    assert rendered.endswith("PASS")
    assert "hw-degrade/hgsync" in rendered


# ----------------------------------------------------------------------
# Randomized chaos fuzzer
# ----------------------------------------------------------------------

from repro.tools.chaos import (  # noqa: E402
    make_fuzz_plan,
    run_fuzz_case,
)


class TestFuzzPlan:
    def test_same_seed_same_plan(self):
        assert make_fuzz_plan("myrinet", 7) == make_fuzz_plan("myrinet", 7)

    def test_networks_draw_independent_plans(self):
        m = make_fuzz_plan("myrinet", 7)
        q = make_fuzz_plan("quadrics", 7)
        assert m.network == "myrinet" and q.network == "quadrics"
        # Quadrics has no CRC/duplication model on the barrier path.
        assert q.corrupt_probability == 0.0
        assert q.duplicate_probability == 0.0

    def test_kills_are_distinct_and_ordered(self):
        for seed in range(8):
            plan = make_fuzz_plan("myrinet", seed)
            victims = [v for v, _ in plan.kills]
            times = [t for _, t in plan.kills]
            assert len(set(victims)) == len(victims)
            assert times == sorted(times)
            assert len(plan.segments) == len(plan.kills) + 1

    def test_final_segment_forces_acceptance_tail(self):
        plan = make_fuzz_plan("myrinet", 3)
        assert plan.segments[-1][-2:] == ("barrier", "allreduce")
        qplan = make_fuzz_plan("quadrics", 3)
        assert qplan.segments[-1][-2:] == ("barrier", "ibarrier")

    def test_flaps_shorter_than_suspicion_timeout(self):
        """A flap must never be convictable as a death."""
        for seed in range(8):
            for network in ("myrinet", "quadrics"):
                plan = make_fuzz_plan(network, seed)
                for _a, _b, start, until in plan.flaps:
                    assert until - start < plan.hb_timeout_us

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            make_fuzz_plan("infiniband", 0)


class TestFuzzCase:
    @pytest.mark.parametrize("network", ["myrinet", "quadrics"])
    def test_single_case_passes(self, network):
        plan = make_fuzz_plan(network, 0)
        result = run_fuzz_case(plan)
        assert result.ok, "\n".join(result.violations + result.quiescence)
        assert result.epochs == len(plan.kills)
        assert len(result.detected_at) == len(plan.kills)

    def test_mid_recovery_kill_handled(self):
        """Seed 1 draws two kills whose second lands inside the first
        kill's detection window — the controller must chain the repairs
        and every survivor still completes the final epoch."""
        plan = make_fuzz_plan("myrinet", 1)
        assert len(plan.kills) == 2
        result = run_fuzz_case(plan)
        assert result.ok, "\n".join(result.violations + result.quiescence)
        assert result.epochs == 2

    def test_tie_break_replay_is_bit_identical(self):
        plan = make_fuzz_plan("quadrics", 2)
        baseline = run_fuzz_case(plan)
        replay = run_fuzz_case(
            plan,
            sim=TieBreakSimulator(DeterministicRng(9, "fuzz-test/tiebreak")),
        )
        assert baseline.ok and replay.ok
        assert replay.comparable() == baseline.comparable()


def test_fuzz_block_smoke():
    report = run_block([make_fuzz_plan("myrinet", 0)], rounds=1,
                       header="chaos fuzz")
    assert report.ok, report.render()
    assert report.render().endswith("PASS")
