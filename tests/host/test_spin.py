"""The express spin: ``EventDemux.spin`` is ``while poll() is None``.

A spinning host polls an empty queue in back-to-back ``poll_us`` tasks.
The express spin parks once instead and is costed at the one poll whose
outcome can differ, so everything a run shows must match the plain
loop: the item, the instant it is consumed, the CPU's ``busy_us``, its
busy intervals, the grants rivals get, and when each queued item was
popped.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host import HostCpu, HostParams
from repro.host.demux import EventDemux
from repro.myrinet.gm_api import _fire_send_completion
from repro.myrinet.structures import SendToken
from repro.sim import (
    ArbitratedResource,
    DeterministicRng,
    SimEvent,
    Simulator,
    Store,
    Tracer,
)
from repro.tools.simlint.perturb import TieBreakSimulator
from tests.sim.test_resources import _TracedResource


def _params(poll_us):
    return HostParams(
        send_overhead_us=0.8,
        recv_overhead_us=0.5,
        poll_us=poll_us,
        poll_interval_us=0.1,
        barrier_call_us=0.3,
    )


class _TracedCpu(_TracedResource):
    def busy_intervals(self):
        """The trace with same-instant flips merged: a release and a
        re-grant at one instant leave the unit busy."""
        last = {}
        for now, value in self.in_use_trace:
            last[now] = value
        merged = []
        for now in sorted(last):
            if not merged or merged[-1][1] != last[now]:
                merged.append((now, last[now]))
        return merged


def _boundary(start, quantum, k):
    t = start
    for _ in range(k):
        t += quantum
    return t


# An action: (what, when, phase, cost).  ``when`` is ("b", k), the k-th
# poll boundary of an undisturbed spin, or ("t", x), ``start + x``.
_WHEN = st.one_of(
    st.tuples(st.just("b"), st.integers(1, 12)),
    st.tuples(st.just("t"), st.sampled_from([0.0, 0.1, 0.4, 1.0, 1.75, 3.3, 6.0])),
)
_ACTION = st.tuples(
    st.sampled_from(["want", "other", "token", "rival"]),
    _WHEN,
    st.sampled_from([0, 0, 1, 2]),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)


def _run(actions, poll_us, slowdown, start, spinner_name, express, sim,
         traced=False, serial_posts=False, last_at=20.0):
    cpu = HostCpu(sim, _params(poll_us), 0, tracer=Tracer(enabled=traced))
    cpu._cpu = _TracedCpu(sim, 1, name="host0.cpu")
    cpu.slowdown = slowdown
    quantum = poll_us * slowdown
    queue = Store(sim, name="q")
    log = []

    def on_pop(item):
        log.append(("pop", sim.now, _label(item)))
        _fire_send_completion(item)

    demux = EventDemux(sim, cpu, queue, "seat", on_pop=on_pop)

    def matches(item):
        return item == "want"

    def spinner():
        yield start
        if express:
            item = yield from demux.spin(matches)
        else:
            while (item := (yield from demux.poll(matches))) is None:
                pass
        log.append(("got", sim.now, item))

    def rival(name, cost):
        yield from cpu.compute(cost)
        log.append(("rival", sim.now, name))

    def sender(name, token, cost):
        yield token.completion
        log.append(("sent", sim.now, name))
        yield from cpu.compute(cost)
        log.append(("rival", sim.now, name))

    def claim(name, cost):
        # A rival request made at a delta phase >= 1.
        def granted(_event):
            log.append(("grant", sim.now, name))
            sim.schedule(cost, release)

        def release():
            cpu._cpu.release()
            log.append(("release", sim.now, name))

        cpu._cpu.request(key=name).add_callback(granted)

    def act(i, what, cost, phase):
        name = f"r{i}"
        if what in ("want", "other"):
            queue.post(what)
        elif what == "token":
            token = SendToken(dst=1, size_bytes=0, completion=SimEvent(sim))
            sim.process(sender(name, token, cost), name=name)
            queue.post(token)
        elif phase:
            claim(name, cost)
        else:
            sim.process(rival(name, cost), name=name)

    def fire(i, what, cost, phase):
        if phase:
            sim.schedule_phase(phase, act, i, what, cost, phase)
        else:
            act(i, what, cost, phase)

    sim.process(spinner(), name=spinner_name)
    for i, (what, (kind, at), phase, cost) in enumerate(actions):
        time = _boundary(start, quantum, at) if kind == "b" else start + at
        if serial_posts and what != "rival":
            phase = 1 + i
        sim.schedule(time, fire, i, what, cost, phase)
    # The item that ends every spin.
    sim.schedule(start + last_at, fire, len(actions), "want", 0.0, 1 + len(actions))
    sim.run()
    return {
        "log": log,
        "busy_us": cpu.busy_us,
        "busy": cpu._cpu.busy_intervals(),
        "end": sim.now,
        "left": (len(queue), [_label(item) for item in demux.pending]),
    }, sim.events_scheduled


def _label(item):
    return "token" if isinstance(item, SendToken) else item


_SCENARIO = dict(
    actions=st.lists(_ACTION, max_size=6),
    poll_us=st.sampled_from([0.25, 0.5, 0.3, 1.1]),
    slowdown=st.sampled_from([1.0, 3.0, 0.7]),
    start=st.sampled_from([0.1, 2.0, 5.3]),
    spinner_name=st.sampled_from(["a.spin", "z.spin"]),
)


@settings(max_examples=300, deadline=None)
@given(**_SCENARIO)
@example(
    actions=[("want", ("b", 3), 0, 0.0)] * 4
    + [("rival", ("b", 2), 0, 0.0), ("want", ("b", 2), 0, 0.0)],
    poll_us=0.25, slowdown=1.0, start=0.1, spinner_name="a.spin",
)
def test_spin_matches_the_poll_loop(actions, poll_us, slowdown, start, spinner_name):
    """Items mid-quantum, on a boundary and during a rival's hold;
    rivals at the entry instant at phase 0 and later phases, and later;
    send tokens whose completion wakes a sender that then computes; a
    host slowdown; a spin starting before one quantum has elapsed."""
    args = (actions, poll_us, slowdown, start, spinner_name)
    spun, spun_events = _run(*args, express=True, sim=Simulator())
    looped, looped_events = _run(*args, express=False, sim=Simulator())
    assert spun == looped
    assert spun_events <= looped_events


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), **_SCENARIO)
def test_spin_matches_the_poll_loop_under_tie_break(
    seed, actions, poll_us, slowdown, start, spinner_name
):
    """The same under random same-instant order.  Each item lands at a
    phase of its own from 1 on: an item posted at phase 0 exactly on a
    poll boundary races the poll's completion in the plain loop (DESIGN
    §12), and two posts at one instant and phase race each other."""
    args = (actions, poll_us, slowdown, start, spinner_name)
    runs = []
    for express in (True, False):
        run = _run(*args, express=express, serial_posts=True,
                   sim=TieBreakSimulator(DeterministicRng(seed, "spin")))[0]
        # Independent same-instant log lines (two senders woken by one
        # sweep) may be written in either order.
        run["log"].sort()
        runs.append(run)
    assert runs[0] == runs[1]


def test_tracing_turns_the_express_spin_off():
    actions = [("other", ("t", 1.0), 0, 0.0), ("rival", ("b", 3), 0, 0.5)]
    args = (actions, 0.25, 1.0, 2.0, "a.spin")
    traced = _run(*args, express=True, sim=Simulator(), traced=True)
    looped = _run(*args, express=False, sim=Simulator(), traced=True)
    plain = _run(*args, express=True, sim=Simulator())
    assert traced == looped
    assert traced[0] == plain[0]
    assert plain[1] < traced[1]


def test_a_long_spin_is_a_handful_of_events():
    """2,000 empty polls cost one kernel event each in the plain loop
    (an express hold: its completion) and none in the express spin."""
    args = ([], 0.25, 1.0, 2.0, "a.spin")
    spun, spun_events = _run(*args, True, Simulator(), last_at=500.0)
    looped, looped_events = _run(*args, False, Simulator(), last_at=500.0)
    assert spun == looped
    assert looped_events - spun_events >= 1999


def test_a_spin_that_is_never_answered_drains_the_simulator():
    """Nothing is ever posted: the plain loop would schedule polls
    forever; the spinner parks, the run ends, and the parked process
    names the queue it spins on."""
    sim = Simulator()
    cpu = HostCpu(sim, _params(0.25), 0)
    queue = Store(sim, name="q")
    demux = EventDemux(sim, cpu, queue, "seat")

    def spinner():
        yield 1.0
        yield from demux.spin(lambda item: True)

    proc = sim.process(spinner(), name="spinner")
    sim.run()
    assert proc.alive
    assert proc.waiting_on.name == "q.post"
    assert sim.now == 1.25  # the one simulated poll
    with pytest.raises(RuntimeError, match="parked"):
        proc.interrupt()


def test_spin_needs_an_idle_unit_and_store():
    sim = Simulator()
    res = ArbitratedResource(sim, name="cpu")
    store = Store(sim, name="q")
    sim.run(until=1.0)
    assert res.can_spin(0.5)
    assert not res.can_spin(2.0)  # before one quantum has elapsed
    assert not res.can_spin(0.0)
    assert not ArbitratedResource(sim, capacity=2).can_spin(0.5)
    assert store.idle
    store.watch(lambda: None)
    assert not store.idle
    with pytest.raises(RuntimeError, match="watcher"):
        store.watch(lambda: None)
    store.unwatch()
    store.post("x")
    assert not store.idle
