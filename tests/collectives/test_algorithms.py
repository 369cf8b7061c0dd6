"""Unit + property tests for barrier schedules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    BarrierSchedule,
    Phase,
    dissemination,
    gather_broadcast,
    make_schedule,
    pairwise_exchange,
)


class TestPhase:
    """A phase carries no checks of its own: a repeated peer is caught
    by :meth:`BarrierSchedule.validate`, which every built schedule
    passes through."""

    def test_duplicate_sends_rejected(self):
        schedule = BarrierSchedule("hand-built", 2, (
            (Phase(sends=(1, 1)),),
            (Phase(recvs=(0, 0)),),
        ))
        with pytest.raises(ValueError, match="more than once"):
            schedule.validate()

    def test_duplicate_recvs_rejected(self):
        schedule = BarrierSchedule("hand-built", 3, (
            (Phase(sends=(2,)),),
            (),
            (Phase(recvs=(0, 0)),),
        ))
        with pytest.raises(ValueError, match="do not match"):
            schedule.validate()

    def test_empty(self):
        assert Phase().empty
        assert not Phase(sends=(1,)).empty


class TestDissemination:
    def test_step_count_is_ceil_log2(self):
        for n, steps in [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4)]:
            sched = dissemination(n)
            assert sched.max_steps == steps, n
            # Dissemination is perfectly symmetric: all ranks equal.
            assert all(len(sched.phases(r)) == steps for r in range(n))

    def test_structure_matches_paper(self):
        """Step m: i sends to (i + 2^m) mod N, receives from (i - 2^m) mod N."""
        sched = dissemination(8)
        for i in range(8):
            for m, phase in enumerate(sched.phases(i)):
                assert phase.sends == ((i + 2**m) % 8,)
                assert phase.recvs == ((i - 2**m) % 8,)
                assert phase.send_first

    def test_total_messages(self):
        assert dissemination(8).total_messages() == 8 * 3
        assert dissemination(5).total_messages() == 5 * 3

    def test_single_rank(self):
        sched = dissemination(1)
        assert sched.phases(0) == ()

    def test_validates(self):
        for n in range(1, 20):
            dissemination(n).validate()


class TestPairwiseExchange:
    def test_power_of_two_steps(self):
        for n in (2, 4, 8, 16, 32):
            sched = pairwise_exchange(n)
            assert sched.max_steps == int(math.log2(n))

    def test_non_power_of_two_steps(self):
        """floor(log2 N) + 2 steps for non-powers of two (§5.1)."""
        for n in (3, 5, 6, 7, 9, 12, 15):
            sched = pairwise_exchange(n)
            assert sched.max_steps == math.floor(math.log2(n)) + 2, n

    def test_power_of_two_partners(self):
        sched = pairwise_exchange(8)
        for i in range(8):
            for m, phase in enumerate(sched.phases(i)):
                partner = i ^ (1 << m)
                assert phase.sends == (partner,)
                assert phase.recvs == (partner,)

    def test_extra_ranks_report_then_wait(self):
        sched = pairwise_exchange(6)  # M = 4, extras = ranks 4, 5
        for i in (4, 5):
            phases = sched.phases(i)
            assert len(phases) == 2
            assert phases[0].sends == (i - 4,)
            assert phases[1].recvs == (i - 4,)

    def test_partnered_low_ranks_bracket_the_exchange(self):
        sched = pairwise_exchange(6)
        for i in (0, 1):
            phases = sched.phases(i)
            assert phases[0].recvs == (i + 4,)
            assert phases[-1].sends == (i + 4,)

    def test_validates(self):
        for n in range(1, 40):
            pairwise_exchange(n).validate()


class TestGatherBroadcast:
    def test_two_phases_for_internal_nodes(self):
        sched = gather_broadcast(8, degree=2)
        assert len(sched.phases(0)) == 2  # root: gather + bcast
        assert len(sched.phases(1)) == 2

    def test_leaf_phases(self):
        sched = gather_broadcast(7, degree=2)
        leaf = sched.phases(5)
        assert leaf[0].sends == (2,) and leaf[0].recvs == ()
        assert leaf[1].recvs == (2,) and leaf[1].sends == ()

    def test_root_has_no_parent(self):
        sched = gather_broadcast(8, degree=4)
        for phase in sched.phases(0):
            assert 0 not in phase.sends and 0 not in phase.recvs

    def test_recv_before_send(self):
        sched = gather_broadcast(8)
        for r in range(8):
            assert all(not p.send_first for p in sched.phases(r))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            gather_broadcast(4, degree=1)

    def test_validates(self):
        for n in range(1, 30):
            for d in (2, 3, 4):
                gather_broadcast(n, degree=d).validate()

    def test_message_count_formula(self):
        """GB needs exactly 2*(N-1) messages: one up + one down per edge."""
        for n in (2, 7, 16, 31):
            assert gather_broadcast(n, degree=2).total_messages() == 2 * (n - 1)
            assert gather_broadcast(n, degree=4).total_messages() == 2 * (n - 1)


class TestMakeSchedule:
    def test_by_name(self):
        assert make_schedule("dissemination", 8).algorithm == "dissemination"
        assert make_schedule("pairwise-exchange", 8).algorithm == "pairwise-exchange"
        assert make_schedule("gather-broadcast", 8).algorithm == "gather-broadcast"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_schedule("tournament", 8)

    def test_rank_range_checked(self):
        sched = make_schedule("dissemination", 4)
        with pytest.raises(ValueError):
            sched.phases(4)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
ALGOS = ["dissemination", "pairwise-exchange", "gather-broadcast"]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=200), algo=st.sampled_from(ALGOS))
def test_schedules_always_validate(n, algo):
    make_schedule(algo, n)  # make_schedule() runs validate()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=128), algo=st.sampled_from(ALGOS))
def test_every_rank_participates(n, algo):
    """Every rank both sends and receives at least one message."""
    sched = make_schedule(algo, n)
    for r in range(n):
        sends = [d for p in sched.phases(r) for d in p.sends]
        recvs = [s for p in sched.phases(r) for s in p.recvs]
        assert sends, (algo, n, r)
        assert recvs, (algo, n, r)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=96), algo=st.sampled_from(ALGOS))
def test_barrier_information_flow(n, algo):
    """Causal closure: when the schedule's dependency graph is executed,

    no rank can finish before every rank has started.  We simulate the
    phase ordering abstractly: a rank's phase completes only when all
    its receives' matching sends have completed at the sender."""
    sched = make_schedule(algo, n)
    # known[r] = set of ranks whose start is causally prior to r's finish.
    known = {r: {r} for r in range(n)}
    # Iterate phases in lockstep until a fixpoint: abstract dataflow.
    changed = True
    rounds = 0
    while changed and rounds < 4 * sched.max_steps + 4:
        changed = False
        rounds += 1
        for r in range(n):
            for phase in sched.phases(r):
                for src in phase.recvs:
                    before = len(known[r])
                    known[r] |= known[src]
                    if len(known[r]) != before:
                        changed = True
    for r in range(n):
        assert known[r] == set(range(n)), (algo, n, r)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=64))
def test_dissemination_message_count_formula(n):
    sched = dissemination(n)
    assert sched.total_messages() == n * math.ceil(math.log2(n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), algo=st.sampled_from(ALGOS))
def test_expected_senders_consistent(n, algo):
    sched = make_schedule(algo, n)
    for r in range(n):
        senders = sched.expected_senders(r)
        for s in senders:
            targets = [d for p in sched.phases(s) for d in p.sends]
            assert r in targets
