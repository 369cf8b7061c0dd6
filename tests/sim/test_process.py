"""Unit tests for generator-based processes."""

import pytest

from repro.sim import ArbitratedResource, Interrupt, Process, SimEvent, Simulator, Timeout


def test_process_runs_and_returns():
    sim = Simulator()

    def prog():
        yield 5.0
        return "done"

    proc = sim.process(prog())
    sim.run()
    assert proc.completion.processed
    assert proc.completion.value == "done"
    assert sim.now == 5.0


def test_yield_number_sleeps():
    sim = Simulator()
    stamps = []

    def prog():
        stamps.append(sim.now)
        yield 1.5
        stamps.append(sim.now)
        yield 2.5
        stamps.append(sim.now)

    sim.process(prog())
    sim.run()
    assert stamps == [0.0, 1.5, 4.0]


def test_yield_event_receives_value():
    sim = Simulator()
    ev = SimEvent(sim)
    got = []

    def prog():
        got.append((yield ev))

    sim.process(prog())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_yield_already_processed_event():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed("early")
    got = []

    def prog():
        yield 10.0  # let the event be processed long before we wait on it
        got.append((yield ev))

    sim.process(prog())
    sim.run()
    assert got == ["early"]


def test_yield_failed_event_throws_into_process():
    sim = Simulator()
    ev = SimEvent(sim)
    caught = []

    def prog():
        try:
            yield ev
        except ValueError as err:
            caught.append(str(err))

    sim.process(prog())
    sim.schedule(1.0, ev.fail, ValueError("wire fault"))
    sim.run()
    assert caught == ["wire fault"]


def test_join_process():
    sim = Simulator()
    order = []

    def child():
        yield 5.0
        order.append("child")
        return 99

    def parent():
        result = yield sim.process(child())
        order.append(("parent", result, sim.now))

    sim.process(parent())
    sim.run()
    assert order == ["child", ("parent", 99, 5.0)]


def test_process_crash_raises_if_unjoined():
    sim = Simulator()

    def prog():
        yield 1.0
        raise RuntimeError("bug in NIC firmware")

    sim.process(prog())
    with pytest.raises(RuntimeError, match="bug in NIC firmware"):
        sim.run()


def test_process_crash_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def bad():
        yield 1.0
        raise RuntimeError("inner")

    def joiner():
        try:
            yield sim.process(bad())
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(joiner())
    sim.run()
    assert caught == ["inner"]


def test_yield_bad_type_fails_process():
    sim = Simulator()

    def prog():
        yield "not an event"

    proc = sim.process(prog())
    proc.completion.add_callback(lambda e: e.defuse() if not e.ok else None)
    sim.run()
    assert proc.completion.ok is False
    assert isinstance(proc.completion.value, TypeError)


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)


def test_interrupt_waiting_process():
    sim = Simulator()
    seen = []

    def prog():
        try:
            yield Timeout(sim, 100.0)
        except Interrupt as intr:
            seen.append((sim.now, intr.cause))

    proc = sim.process(prog())
    sim.schedule(10.0, proc.interrupt, "timeout-cancelled")
    sim.run()
    assert seen == [(10.0, "timeout-cancelled")]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def prog():
        yield 1.0

    proc = sim.process(prog())
    sim.run()
    assert not proc.alive
    proc.interrupt("late")  # must not raise
    sim.run()


def test_interrupted_process_can_rewait():
    sim = Simulator()
    seen = []

    def prog():
        t = Timeout(sim, 50.0, value="fired")
        try:
            yield t
        except Interrupt:
            seen.append("interrupted")
        seen.append((yield t))  # the original timeout still fires

    proc = sim.process(prog())
    sim.schedule(5.0, proc.interrupt)
    sim.run()
    assert seen == ["interrupted", "fired"]
    assert sim.now == 50.0


def test_interrupt_process_parked_in_hold_raises():
    # The resource owns a held process's resume and its unit: an
    # interrupt would leak the unit and resume the process twice.
    sim = Simulator()
    cpu = ArbitratedResource(sim, name="nic.cpu")

    def task():
        yield from cpu.hold(5.0)

    granted = sim.process(task(), name="a")
    queued = sim.process(task(), name="b")
    sim.run(until=1.0)
    assert granted.waiting_on is None  # mid-hold
    assert queued.waiting_on.name == "nic.cpu.request"
    for proc in (granted, queued):
        with pytest.raises(RuntimeError, match="nic.cpu"):
            proc.interrupt("link down")
    sim.run()
    assert sim.now == 10.0
    assert not granted.alive and not queued.alive
    assert cpu.in_use == 0


def test_alive_property():
    sim = Simulator()

    def prog():
        yield 3.0

    proc = sim.process(prog())
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def prog(name, delay):
        for _ in range(3):
            yield delay
            order.append((sim.now, name))

    sim.process(prog("a", 1.0))
    sim.process(prog("b", 1.0))
    sim.run()
    # Same-time resumptions keep spawn order.
    assert order == [
        (1.0, "a"), (1.0, "b"),
        (2.0, "a"), (2.0, "b"),
        (3.0, "a"), (3.0, "b"),
    ]


def test_process_return_value_none_by_default():
    sim = Simulator()

    def prog():
        yield 1.0

    proc = sim.process(prog())
    sim.run()
    assert proc.completion.value is None


def test_negative_sleep_catchable_inside_process():
    # Regression: the ValueError for a negative sleep used to be raised
    # in Process._step itself, escaping into the simulator's run loop
    # instead of reaching the offending generator.
    sim = Simulator()
    caught = []

    def prog():
        try:
            yield -1.0
        except ValueError as err:
            caught.append(str(err))
        yield 2.0

    proc = sim.process(prog())
    sim.run()
    assert caught and "negative" in caught[0]
    assert proc.completion.ok is True
    assert sim.now == 2.0


def test_negative_sleep_fails_process_not_run_loop():
    sim = Simulator()

    def prog():
        yield -0.5

    proc = sim.process(prog())
    proc.completion.add_callback(lambda e: e.defuse() if not e.ok else None)
    sim.run()
    assert proc.completion.ok is False
    assert isinstance(proc.completion.value, ValueError)


def test_negative_timeout_subclass_also_routed():
    # The numeric-subclass slow path must apply the same guard.
    class Weird(float):
        pass

    sim = Simulator()
    caught = []

    def prog():
        try:
            yield Weird(-3.0)
        except ValueError:
            caught.append(sim.now)

    sim.process(prog())
    sim.run()
    assert caught == [0.0]
