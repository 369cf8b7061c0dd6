"""Unit tests for Elan event words."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quadrics import ElanEvent


def test_initial_count_zero():
    assert ElanEvent().count == 0


def test_set_event_increments():
    ev = ElanEvent()
    ev.set_event()
    ev.set_event(3)
    assert ev.count == 4


def test_set_event_validation():
    with pytest.raises(ValueError):
        ElanEvent().set_event(0)


def test_arm_threshold_validation():
    with pytest.raises(ValueError):
        ElanEvent().arm(0, lambda: None)


def test_action_fires_at_threshold():
    ev = ElanEvent()
    fired = []
    ev.arm(2, lambda: fired.append("go"))
    ev.set_event()
    assert fired == []
    ev.set_event()
    assert fired == ["go"]


def test_action_fires_immediately_if_count_already_reached():
    """Early set-events accumulate — the property that makes

    back-to-back barriers safe (§7 semantics)."""
    ev = ElanEvent()
    ev.set_event(5)
    fired = []
    ev.arm(3, lambda: fired.append("late-armer"))
    assert fired == ["late-armer"]


def test_action_fires_once():
    ev = ElanEvent()
    fired = []
    ev.arm(1, lambda: fired.append(1))
    ev.set_event()
    ev.set_event()
    assert fired == [1]


def test_multiple_actions_different_thresholds():
    ev = ElanEvent()
    fired = []
    ev.arm(1, lambda: fired.append("a"))
    ev.arm(3, lambda: fired.append("b"))
    ev.set_event()
    assert fired == ["a"]
    ev.set_event(2)
    assert fired == ["a", "b"]


def test_armed_count():
    ev = ElanEvent()
    ev.arm(5, lambda: None)
    ev.arm(6, lambda: None)
    assert ev.armed_count == 2
    ev.set_event(5)
    assert ev.armed_count == 1


def test_cumulative_thresholds_model_consecutive_barriers():
    """Barrier k arms threshold k+1 on the same event word."""
    ev = ElanEvent()
    completions = []
    for k in range(3):
        ev.arm(k + 1, lambda k=k: completions.append(k))
    for _ in range(3):
        ev.set_event()
    assert completions == [0, 1, 2]


def test_waiters_armed_out_of_order_fire_in_threshold_order():
    """The armed set is a threshold min-heap, not an arm-order list.

    Regression guard for the prearmed-chain scan: with one waiter per
    future iteration parked on the head event, a set-event must only
    compare against the *lowest* armed threshold, and a jump that
    crosses several thresholds fires them lowest-first.
    """
    ev = ElanEvent()
    fired = []
    ev.arm(5, lambda: fired.append("c"))
    ev.arm(1, lambda: fired.append("a"))
    ev.arm(3, lambda: fired.append("b"))
    ev.set_event()
    assert fired == ["a"]
    ev.set_event(4)  # crosses 3 and 5 in one increment
    assert fired == ["a", "b", "c"]


def test_equal_thresholds_fire_in_arm_order():
    ev = ElanEvent()
    fired = []
    ev.arm(2, lambda: fired.append("first"))
    ev.arm(2, lambda: fired.append("second"))
    ev.set_event(2)
    assert fired == ["first", "second"]


def test_action_may_rearm_the_same_event():
    """A chained action arming an already-reached threshold fires inline
    (the chained barrier's back-to-back iteration handoff)."""
    ev = ElanEvent()
    fired = []
    ev.arm(1, lambda: ev.arm(1, lambda: fired.append("rearmed")))
    ev.set_event()
    assert fired == ["rearmed"]


def test_action_may_set_the_same_event():
    """A set-event from inside an action wakes later thresholds."""
    ev = ElanEvent()
    fired = []
    ev.arm(1, lambda: ev.set_event())
    ev.arm(2, lambda: fired.append("chained"))
    ev.set_event()
    assert fired == ["chained"]
    assert ev.count == 2
    assert ev.armed_count == 0


def test_stride_entry_fires_several_strides_in_one_set_event():
    """A count that jumps past several strides fires the entry once per
    stride crossed, in threshold order among the other waiters."""
    ev = ElanEvent()
    fired = []
    ev.arm(2, lambda: fired.append(("a", ev.count)), repeat=4, stride=2)
    ev.arm(5, lambda: fired.append(("b", ev.count)))
    assert ev.armed_count == 5
    ev.set_event(7)  # crosses 2, 4, 5 and 6
    assert [tag for tag, _ in fired] == ["a", "a", "b", "a"]
    assert ev.armed_count == 1  # the firing at 8 is left
    ev.set_event()
    assert [tag for tag, _ in fired] == ["a", "a", "b", "a", "a"]
    assert ev.armed_count == 0


def test_stride_entry_armed_when_already_reached():
    """Firings already reached run at arm time; the rest stay armed."""
    ev = ElanEvent()
    ev.set_event(5)
    fired = []
    ev.arm(2, lambda: fired.append(len(fired)), repeat=4, stride=2)
    assert fired == [0, 1]  # thresholds 2 and 4
    assert ev.armed_count == 2  # 6 and 8
    ev.set_event()
    assert fired == [0, 1, 2]
    assert ev.disarm_all() == 1
    ev.set_event(10)
    assert fired == [0, 1, 2]


def test_stride_validation():
    with pytest.raises(ValueError):
        ElanEvent().arm(1, lambda: None, repeat=0)
    with pytest.raises(ValueError):
        ElanEvent().arm(1, lambda: None, repeat=2, stride=-1)


class _ExpandedEvent:
    """Reference model: every firing is its own single-threshold arm
    (the event word as it was before stride entries)."""

    def __init__(self):
        self.count = 0
        self._armed = []
        self._n = 0

    def set_event(self, n=1):
        self.count += n
        if self._armed and self._armed[0][0] <= self.count:
            self._fire_ready()

    def arm(self, threshold, action, repeat=1, stride=0):
        for k in range(repeat):
            self._n += 1
            heappush(self._armed, (threshold + k * stride, self._n, action))
            if threshold + k * stride <= self.count:
                self._fire_ready()

    def _fire_ready(self):
        ready = []
        while self._armed and self._armed[0][0] <= self.count:
            ready.append(heappop(self._armed))
        for _, _, action in ready:
            action()

    def disarm_all(self):
        dropped = len(self._armed)
        self._armed.clear()
        return dropped

    @property
    def armed_count(self):
        return len(self._armed)


_OPS = st.lists(
    st.one_of(
        # (arm, threshold offset from the current count, repeat, stride,
        # what the action does besides logging, that effect's offset):
        # offsets <= 0 arm already-reached thresholds; repeat 1 is a
        # single arm.  An action may set the event once more, or arm a
        # single logging waiter at the count plus the effect's offset.
        st.tuples(
            st.just("arm"),
            st.integers(-4, 6),
            st.integers(1, 4),
            st.integers(0, 3),
            st.sampled_from(["log", "set", "arm"]),
            st.integers(0, 4),
        ),
        st.tuples(st.just("set"), st.integers(1, 6)),
        st.tuples(st.just("disarm")),
    ),
    max_size=30,
)


def _replay(event, ops):
    """Run ``ops`` on ``event``; return everything observable."""
    log, seen = [], []

    def action(tag, effect, offset):
        def fire():
            log.append((tag, event.count))
            if effect == "set":
                event.set_event()
            elif effect == "arm":
                event.arm(
                    max(1, event.count + offset),
                    lambda: log.append((f"{tag}+", event.count)),
                )

        return fire

    for i, op in enumerate(ops):
        if op[0] == "arm":
            _, offset, repeat, stride, effect, effect_offset = op
            threshold = max(1, event.count + offset)
            event.arm(threshold, action(i, effect, effect_offset), repeat, stride)
        elif op[0] == "set":
            event.set_event(op[1])
        else:
            seen.append(("disarmed", event.disarm_all()))
        seen.append((event.count, event.armed_count, len(log)))
    return log, seen


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_stride_entries_match_their_expansion(ops):
    """A stride entry is indistinguishable from ``repeat`` single arms
    made back to back: same action order, counts and disarm totals."""
    assert _replay(ElanEvent(), ops) == _replay(_ExpandedEvent(), ops)
