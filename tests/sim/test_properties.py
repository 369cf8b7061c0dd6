"""Property-based tests of the simulation kernel's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ArbitratedResource, PriorityStore, Simulator, Store


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=80))
def test_callbacks_run_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert all(t == d for t, d in fired)


@settings(max_examples=50, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100), min_size=1, max_size=40
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_cancelled_callbacks_never_fire(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(delay, lambda i=i: fired.append(i))
        for i, delay in enumerate(delays)
    ]
    expected = set()
    for i, handle in enumerate(handles):
        if i < len(cancel_mask) and cancel_mask[i]:
            handle.cancel()
        else:
            expected.add(i)
    sim.run()
    assert set(fired) == expected


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_is_fifo(items):
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer():
        for item in items:
            store.post(item)
            yield 1.0

    def consumer():
        for _ in items:
            out.append((yield from store.take()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == items


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=-100, max_value=100), st.integers()),
        min_size=1,
        max_size=50,
    )
)
def test_priority_store_is_stable_heap(pairs):
    sim = Simulator()
    store = PriorityStore(sim)
    for priority, item in pairs:
        store.post_item((priority, item), priority=priority)
    out = []

    def consumer():
        for _ in pairs:
            out.append((yield from store.take()))

    sim.process(consumer())
    sim.run()
    priorities = [p for p, _ in out]
    assert priorities == sorted(priorities)
    # Stability: equal priorities keep insertion order.
    for priority in set(priorities):
        mine = [item for p, item in out if p == priority]
        inserted = [item for p, item in pairs if p == priority]
        assert mine == inserted


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=25),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    resource = ArbitratedResource(sim, capacity=capacity)
    peak = [0]

    def worker(hold):
        yield resource.request()
        peak[0] = max(peak[0], resource.in_use)
        assert resource.in_use <= capacity
        yield hold
        resource.release()

    for hold in holds:
        sim.process(worker(hold))
    sim.run()
    assert resource.in_use == 0
    assert peak[0] <= capacity
    assert peak[0] == min(capacity, len(holds))


@settings(max_examples=30, deadline=None)
@given(
    n_procs=st.integers(min_value=1, max_value=20),
    steps=st.integers(min_value=1, max_value=10),
)
def test_process_completion_accounting(n_procs, steps):
    sim = Simulator()

    def prog(i):
        for _ in range(steps):
            yield 1.0
        return i

    procs = [sim.process(prog(i)) for i in range(n_procs)]
    sim.run()
    assert all(p.completion.processed for p in procs)
    assert [p.completion.value for p in procs] == list(range(n_procs))
    assert sim.now == float(steps)
