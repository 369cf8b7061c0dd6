"""Epoch-based group repair: shrink semantics and the full recovery arc.

The acceptance campaign for the self-healing path: kill one rank
mid-campaign at N=16, let the NIC failure detector convict it, repair
the communicator onto the survivor epoch, and require a barrier AND an
allreduce to complete there with correct results — bit-identical across
tie-break permutations (SL101) and with a clean quiescence audit on the
post-repair epoch (SL102–SL107).
"""

from __future__ import annotations

import warnings

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import get_profile
from repro.collectives import BarrierFailure, Revoked
from repro.collectives.failures import ScheduleVerificationError, classify_reason
from repro.collectives.group import ProcessGroup
from repro.collectives.membership import (
    enable_failure_detector,
    wait_for_conviction,
)
from repro.collectives.quadrics_barrier import _chain_links, _IssueLink
from repro.mpi import create_communicators, repair_communicators
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.simlint import check_quiescent
from repro.tools.simlint.perturb import TieBreakSimulator

_POLL_US = 5.0


class TestShrink:
    def test_survivor_order_preserved(self):
        group = ProcessGroup([4, 9, 2, 7], algorithm="dissemination")
        shrunk = group.shrink([9])
        assert shrunk.node_ids == (4, 2, 7)
        assert [shrunk.rank_of(n) for n in (4, 2, 7)] == [0, 1, 2]

    def test_epoch_and_lineage(self):
        group = ProcessGroup([0, 1, 2, 3])
        shrunk = group.shrink([1])
        assert group.epoch == 0
        assert shrunk.epoch == 1
        assert shrunk.parent_group_id == group.group_id
        assert shrunk.group_id != group.group_id
        again = shrunk.shrink([2])
        assert again.epoch == 2
        assert again.parent_group_id == shrunk.group_id

    def test_membership_digest_distinguishes_epochs(self):
        group = ProcessGroup([0, 1, 2, 3])
        shrunk = group.shrink([3])
        same_nodes = ProcessGroup([0, 1, 2])
        assert group.membership_digest != shrunk.membership_digest
        # Same node set at a different epoch is a different digest too:
        # a revived {0,1,2} must not reuse the survivor schedule cache.
        assert shrunk.membership_digest != same_nodes.membership_digest

    def test_requested_algorithm_carries_over(self):
        group = ProcessGroup([0, 1, 2, 3], algorithm="pairwise-exchange")
        assert group.shrink([0]).requested_algorithm == "pairwise-exchange"
        auto = ProcessGroup([0, 1, 2, 3], algorithm="auto")
        assert auto.shrink([0]).requested_algorithm == "auto"

    def test_unknown_dead_node_rejected(self):
        group = ProcessGroup([0, 1, 2])
        with pytest.raises(ValueError, match="not in group"):
            group.shrink([7])

    def test_zero_survivors_rejected(self):
        group = ProcessGroup([0, 1])
        with pytest.raises(ValueError, match="zero survivors"):
            group.shrink([0, 1])

    def test_repair_verifies_recompiled_schedules(self):
        """repair() = shrink + SL201–SL208 over the survivor compile;
        the survivor schedule is keyed on the membership digest, not the
        pristine range(N) grid."""
        group = ProcessGroup(list(range(8)), algorithm="dissemination")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            shrunk = group.repair([5], collectives=("barrier", "allreduce"))
        assert shrunk.epoch == 1
        schedule = shrunk.collective_schedule("barrier")
        assert schedule.size == 7
        assert schedule.members == shrunk.node_ids

    @pytest.mark.parametrize(
        "algorithm", ["dissemination", "pairwise-exchange", "gather-broadcast"]
    )
    def test_quadrics_repair_rebuilds_chains_from_the_verified_ir(
        self, algorithm
    ):
        """After a Quadrics repair, every rebuilt chained-RDMA driver
        runs the survivor group's compiled barrier schedule — the object
        repair's SL201–SL208 verification proved: its wait events, their
        per-barrier counts and its descriptors' peers and remote events
        are the links derived from that schedule, in order."""
        cluster = build_cluster(get_profile("elan3_piii700"), 13)
        comms = create_communicators(cluster, algorithm=algorithm)
        repair_communicators(comms, [5])
        ctx = comms[0]._ctx
        group = ctx.barrier_group
        assert group.epoch == 1 and group.size == 12
        schedule = group.collective_schedule("barrier")
        gid = group.group_id
        chains = [_chain_links(schedule.ops(r)) for r in range(group.size)]

        def wait_index(rank, src):
            (t,) = [
                t for t, link in enumerate(chains[rank])
                if link.kind == "wait" and src in link.peers
            ]
            return t

        for node, driver in ctx.drivers.items():
            rank = group.rank_of(node)
            nic = cluster.nics[node]
            links = chains[rank]
            waits = [
                (nic.event(f"g{gid}w{t}"), len(link.peers) + (t > 0))
                for t, link in enumerate(links) if link.kind == "wait"
            ]
            *wait_plan, done = driver._plan
            assert [(e, n) for e, n, _ in wait_plan] == waits
            assert done[:2] == (nic.event(f"g{gid}done"), 1)
            descriptors = list(driver._head) + [
                d
                for _, _, action in wait_plan
                if isinstance(action, _IssueLink)
                for d in action.descriptors
            ]
            sends = [
                p for link in links if link.kind == "send" for p in link.peers
            ]
            assert [group.rank_of(d.dst) for d in descriptors] == sends
            assert [d.remote_event for d in descriptors] == [
                f"g{gid}w{wait_index(dst, rank)}" for dst in sends
            ]

    def test_verification_error_is_typed(self):
        err = ScheduleVerificationError("3 findings", findings=["a", "b", "c"])
        assert err.findings == ["a", "b", "c"]


def _run_repair_campaign(network: str, sim=None):
    """One kill -> detect -> shrink -> resume campaign at N=16.

    Returns a comparable tuple — per-rank outcome strings, the
    detection/repair timestamps, the final sim time, and the quiescence
    findings — that must be bit-identical across tie-break permutations
    (SL101) and must show a clean audit (SL102–SL107).
    """
    n = 16
    victim = 5
    kill_at = 100.0
    if sim is None:
        sim = Simulator()
    sim.track_processes()
    faults = FaultInjector()
    profile = get_profile(
        "lanai_xp_xeon2400" if network == "myrinet" else "elan3_piii700"
    )
    cluster = build_cluster(profile, n, faults=faults, sim=sim)
    rng = DeterministicRng(23, f"epoch-repair/{network}")
    for node in range(n):
        enable_failure_detector(
            cluster.nics[node], range(n), rng=rng, period_us=50.0,
            timeout_us=150.0, horizon_us=3000.0)
    faults.kill_node(victim, at_us=kill_at)
    comms = create_communicators(cluster)
    state = {"phase": 0, "detected": 0.0, "repaired": 0.0}

    def controller():
        yield kill_at
        cluster.nics[victim].crashed = True
        yield from wait_for_conviction(cluster, victim, kill_at, _POLL_US)
        state["detected"] = sim.now
        repair_communicators(comms, [victim])
        state["phase"] = 1
        state["repaired"] = sim.now

    outcomes = {node: [] for node in range(n)}

    def program(node):
        # Rank handles survive the repair: the survivors' handles
        # resync onto the new epoch on their next collective call.
        comm = comms[node]
        while state["phase"] == 0:
            try:
                yield from comm.barrier()
                outcomes[node].append("ok:barrier")
            except Revoked:
                outcomes[node].append("revoked")
            except BarrierFailure as failure:
                outcomes[node].append(f"fail:{classify_reason(failure.reason)}")
        if cluster.nics[node].crashed:
            outcomes[node].append("dead")
            return
        yield from comm.barrier()
        outcomes[node].append("ok:barrier")
        if network == "myrinet":
            ctx = comm._ctx
            expected = sum(peer + 1 for peer in ctx.nodes)
            result = yield from comm.allreduce(comm.node + 1)
            outcomes[node].append(
                "ok:allreduce" if result == expected else f"wrong:{result}")
        else:
            request = yield from comm.ibarrier()
            while not (yield from request.test()):
                pass
            outcomes[node].append("ok:ibarrier")

    procs = [sim.process(program(node), name=f"rank@{node}")
             for node in range(n)]
    procs.append(sim.process(controller(), name="controller"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim.run()
    for proc in procs:
        assert proc.completion.processed, f"hang: {proc.name}"
    report = check_quiescent(cluster, must_complete=[p.name for p in procs])
    return (
        {node: tuple(o) for node, o in outcomes.items()},
        state["detected"],
        state["repaired"],
        sim.now,
        tuple(f.render() for f in report.findings),
    )


@pytest.mark.parametrize("network", ["myrinet", "quadrics"])
class TestRepairCampaign:
    def test_kill_detect_shrink_resume(self, network):
        outcomes, detected, repaired, end, findings = _run_repair_campaign(
            network)
        n, victim, kill_at = 16, 5, 100.0
        assert detected > kill_at
        assert repaired >= detected
        second_op = "ok:allreduce" if network == "myrinet" else "ok:ibarrier"
        for node in range(n):
            if node == victim:
                assert outcomes[node][-1] == "dead"
                continue
            # Every survivor finishes the campaign on the survivor
            # epoch: a barrier then a data/non-blocking collective,
            # both correct.
            assert outcomes[node][-2:] == ("ok:barrier", second_op), (
                node, outcomes[node])
            # No survivor saw an untyped or wrong result anywhere.
            assert not any(o.startswith("wrong") for o in outcomes[node])
        # SL102-SL107: the post-repair epoch drains clean — no leaked
        # packets, timers, engine states, or undrained queues.
        assert findings == ()

    def test_tie_break_bit_identity(self, network):
        """SL101 over the full recovery arc: 20 seeded tie-break
        permutations of same-timestamp event order must not change one
        bit of the observable outcome."""
        baseline = _run_repair_campaign(network)
        for perm in range(20):
            replay = _run_repair_campaign(
                network,
                sim=TieBreakSimulator(
                    DeterministicRng(perm, f"epoch-repair/tiebreak/{network}")),
            )
            assert replay == baseline, f"permutation {perm} diverged"
