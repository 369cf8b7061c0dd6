"""Unit + property tests for the collective protocol bookkeeping: the
engine's per-sequence record (send and receive bit vectors)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import SequenceLayout, SequenceState, make_schedule
from repro.collectives.schedule_ir import ScheduleOp, compile_schedule

# One rank's ops for three send-first phases: send to 1 / recv from 3,
# send to 2 / recv from 2, send to 3 / recv from 1.
OPS = (
    ScheduleOp("send", 0, 1), ScheduleOp("recv", 0, 3, 0), ScheduleOp("reduce", 0, 3),
    ScheduleOp("send", 1, 2), ScheduleOp("recv", 1, 2, 1), ScheduleOp("reduce", 1, 2),
    ScheduleOp("send", 2, 3), ScheduleOp("recv", 2, 1, 2), ScheduleOp("reduce", 2, 1),
    ScheduleOp("dma", 3),
)
LAYOUT = SequenceLayout(OPS)


def barrier_layout(algorithm, n, rank):
    return SequenceLayout(compile_schedule("barrier", algorithm, n).ops(rank))


class TestCollectiveSendRecord:
    def test_starts_empty(self):
        rec = SequenceState(0, LAYOUT)
        assert rec.sent_bits == 0
        assert rec.total_slots == 3
        assert not rec.all_sent

    def test_mark_and_query(self):
        rec = SequenceState(0, LAYOUT)
        rec.mark_sent(0, 1)
        assert rec.was_sent(0, 1)
        assert not rec.was_sent(1, 2)

    def test_all_sent(self):
        rec = SequenceState(0, LAYOUT)
        rec.mark_sent(0, 1)
        rec.mark_sent(1, 2)
        assert not rec.all_sent
        rec.mark_sent(2, 3)
        assert rec.all_sent

    def test_was_sent_unknown_slot_false(self):
        rec = SequenceState(0, LAYOUT)
        assert rec.was_sent(7, 9) is False

    def test_mark_unknown_slot_raises(self):
        rec = SequenceState(0, LAYOUT)
        with pytest.raises(KeyError):
            rec.mark_sent(7, 9)

    def test_single_record_replaces_per_packet_records(self):
        """One record regardless of message count (§6.3)."""
        rec = SequenceState(0, barrier_layout("dissemination", 64, 0))
        assert rec.total_slots == 6  # log2(64) sends, one bit each


class TestCollectiveGroupState:
    def test_initial_state(self):
        st_ = SequenceState(5, LAYOUT)
        assert st_.seq == 5
        assert st_.phase == 0
        assert not st_.started and not st_.complete

    def test_mark_arrived(self):
        st_ = SequenceState(0, LAYOUT)
        assert st_.mark_arrived(3) is True
        assert st_.has_arrived(3)
        assert not st_.has_arrived(2)

    def test_unexpected_sender_rejected(self):
        st_ = SequenceState(0, LAYOUT)
        assert st_.mark_arrived(9) is False
        with pytest.raises(KeyError):
            st_.has_arrived(9)

    def test_duplicate_arrival_idempotent(self):
        st_ = SequenceState(0, LAYOUT)
        st_.mark_arrived(3)
        bits = st_.arrived_bits
        st_.mark_arrived(3)
        assert st_.arrived_bits == bits

    def test_phase_recvs_complete(self):
        st_ = SequenceState(0, LAYOUT)
        assert not st_.phase_recvs_complete(0)
        st_.mark_arrived(3)
        assert st_.phase_recvs_complete(0)

    def test_missing_senders_through_current_phase(self):
        st_ = SequenceState(0, LAYOUT)
        st_.phase = 1
        assert st_.missing_senders() == [(0, 3), (1, 2)]
        st_.mark_arrived(3)
        assert st_.missing_senders() == [(1, 2)]

    def test_duplicate_pair_schedule_rejected(self):
        bad = (ScheduleOp("recv", 0, 1, 0), ScheduleOp("recv", 1, 1, 1))
        with pytest.raises(ValueError):
            SequenceLayout(bad)

    def test_cancel_timer_without_timer(self):
        st_ = SequenceState(0, LAYOUT)
        st_.cancel_timers()  # no-op


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    rank_frac=st.floats(min_value=0.0, max_value=0.999),
    algo=st.sampled_from(["dissemination", "pairwise-exchange", "gather-broadcast"]),
)
def test_arrival_bitvector_completeness(n, rank_frac, algo):
    """Marking every expected sender makes every phase complete."""
    sched = make_schedule(algo, n)
    rank = int(rank_frac * n)
    state = SequenceState(0, barrier_layout(algo, n, rank))
    for sender in sched.expected_senders(rank):
        state.mark_arrived(sender)
    for phase_idx in range(len(sched.phases(rank))):
        assert state.phase_recvs_complete(phase_idx)
    state.phase = len(sched.phases(rank))
    assert state.missing_senders() == []


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    data=st.data(),
)
def test_send_record_bits_match_marks(n, data):
    sched = make_schedule("dissemination", n)
    rec = SequenceState(0, barrier_layout("dissemination", n, 0))
    slots = [(m, p.sends[0]) for m, p in enumerate(sched.phases(0))]
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True))
    for phase, dst in chosen:
        rec.mark_sent(phase, dst)
    for phase, dst in slots:
        assert rec.was_sent(phase, dst) == ((phase, dst) in chosen)
    assert rec.all_sent == (len(chosen) == len(slots))
