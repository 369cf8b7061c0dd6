"""Unit tests for events."""

import pytest

from repro.sim import EventAlreadyTriggered, SimEvent, Simulator, Timeout


def test_event_lifecycle():
    sim = Simulator()
    ev = SimEvent(sim)
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered and not ev.processed
    sim.run()
    assert ev.processed
    assert ev.ok is True
    assert ev.value == 42


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = SimEvent(sim)
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_double_succeed_raises():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()


def test_fail_then_succeed_raises():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.fail(ValueError("boom"))
    ev.defuse()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()
    sim.run()


def test_fail_requires_exception():
    sim = Simulator()
    ev = SimEvent(sim)
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callbacks_run_in_order():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    ev.add_callback(lambda e: seen.append(1))
    ev.add_callback(lambda e: seen.append(2))
    ev.succeed()
    sim.run()
    assert seen == [1, 2]


def test_callback_after_processed_still_fires():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed("v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_remove_callback():
    sim = Simulator()
    ev = SimEvent(sim)
    seen = []
    cb = lambda e: seen.append(1)
    ev.add_callback(cb)
    assert ev.remove_callback(cb) is True
    assert ev.remove_callback(cb) is False
    ev.succeed()
    sim.run()
    assert seen == []


def test_unhandled_failure_raises_from_run():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.fail(RuntimeError("handled elsewhere"))
    ev.defuse()
    sim.run()


def test_timeout_fires_at_delay():
    sim = Simulator()
    t = Timeout(sim, 7.5, value="done")
    seen = []
    t.add_callback(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen == [(7.5, "done")]


def test_timeout_negative_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -1.0)


def test_timeout_cannot_be_retriggered():
    sim = Simulator()
    t = Timeout(sim, 1.0)
    with pytest.raises(EventAlreadyTriggered):
        t.succeed()
    sim.run()
