"""Unit tests for ArbitratedResource, Store and PriorityStore."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import ArbitratedResource, PriorityStore, Simulator, Store
from repro.sim.process import PARKED


class TestResource:
    """The request → release interface of the one resource primitive,
    for a unit held across arbitrary yields (a poller seat)."""

    def test_serialization_order(self):
        # Granted in key (process-name) order; each waiter gets the
        # unit at its predecessor's release.
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=1)
        spans = {}

        def worker(name, hold):
            yield res.request()
            start = sim.now
            yield hold
            res.release()
            spans[name] = (start, sim.now)

        sim.process(worker("a", 5.0), name="a")
        sim.process(worker("b", 3.0), name="b")
        sim.process(worker("c", 1.0), name="c")
        sim.run()
        assert spans["a"] == (0.0, 5.0)
        assert spans["b"] == (5.0, 8.0)
        assert spans["c"] == (8.0, 9.0)

    def test_grant_within_capacity_is_immediate(self):
        # Within capacity nobody waits: both requests are granted at the
        # instant they are made (one delta phase later).
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=2)
        r1, r2 = res.request(key="a"), res.request(key="b")
        sim.run()
        assert r1.triggered and r2.triggered
        assert sim.now == 0.0
        assert res.in_use == 2

    def test_release_without_request_raises(self):
        # A second release of one granted unit has no request to match.
        sim = Simulator()
        res = ArbitratedResource(sim)
        res.request(key="a")
        sim.run()
        res.release()
        with pytest.raises(RuntimeError, match="without matching request"):
            res.release()

    def test_release_hands_over_to_waiter(self):
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=1)
        res.request(key="a")
        waiting = res.request(key="b")
        sim.run()
        assert not waiting.triggered
        assert res.queue_length == 1
        res.release()
        sim.run()
        assert waiting.triggered
        assert res.in_use == 1


class TestStore:
    def test_put_then_get(self):
        # A queued item is taken at once.
        sim = Simulator()
        store = Store(sim)
        store.post("x")
        got = []

        def consumer():
            got.append((yield from store.take()))

        sim.process(consumer())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer():
            out.append((yield from store.take()))
            out.append(sim.now)

        sim.process(consumer())
        sim.schedule(4.0, store.post, "late-item")
        sim.run()
        assert out == ["late-item", 4.0]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.post(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield from store.take()))

        sim.process(consumer())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_try_get(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.post("z")
        assert store.try_get() == "z"
        assert store.try_get() is None
        sim.run()

    def test_fifo_items_try_get_and_hand_off_on_the_list_store(self):
        """The list-backed FIFO: order, ``items`` snapshots and
        ``try_get`` over more items than any model store holds, then a
        post straight into a parked taker that never touches storage."""
        sim = Simulator()
        store = Store(sim, name="q")
        assert not hasattr(store, "__dict__")  # slotted: no per-store dict
        assert store.idle and store.try_get() is None
        for i in range(12):
            store.post(i)
        assert store.items == tuple(range(12)) and len(store) == 12
        assert [store.try_get() for _ in range(3)] == [0, 1, 2]
        store.post("late")
        assert store.items == (*range(3, 12), "late")
        got = []

        def taker():
            while True:
                got.append((yield from store.take()))

        sim.process(taker(), name="t")
        sim.run()
        assert got == [*range(3, 12), "late"] and store.items == ()
        store.post("handed")  # the taker is parked: a direct hand-off
        assert got[-1] == "handed" and store._items == [] and not store.idle

    def test_len_and_items(self):
        sim = Simulator()
        store = Store(sim)
        assert len(store) == 0
        store.post(1)
        store.post(2)
        assert len(store) == 2
        assert store.items == (1, 2)
        sim.run()


class TestPriorityStore:
    def test_lowest_priority_first(self):
        sim = Simulator()
        ps = PriorityStore(sim)
        ps.post_item("low-urgency", priority=10)
        ps.post_item("urgent", priority=1)
        ps.post_item("medium", priority=5)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield from ps.take()))

        sim.process(consumer())
        sim.run()
        assert out == ["urgent", "medium", "low-urgency"]

    def test_equal_priority_is_fifo(self):
        sim = Simulator()
        ps = PriorityStore(sim)
        for i in range(4):
            ps.post_item(i, priority=0)
        out = []

        def consumer():
            for _ in range(4):
                out.append((yield from ps.take()))

        sim.process(consumer())
        sim.run()
        assert out == [0, 1, 2, 3]

    def test_blocking_get_wakes_on_priority_put(self):
        sim = Simulator()
        ps = PriorityStore(sim)
        out = []

        def consumer():
            out.append((yield from ps.take()))

        sim.process(consumer())
        sim.schedule(1.0, ps.post_item, "item", 3)
        sim.run()
        assert out == ["item"]

    def test_items_sorted_view(self):
        sim = Simulator()
        ps = PriorityStore(sim)
        ps.post_item("c", 3)
        ps.post_item("a", 1)
        ps.post_item("b", 2)
        assert ps.items == ("a", "b", "c")
        sim.run()


class TestStoreHandOff:
    """``post``/``take``: the event-free hand-off of the NIC queues."""

    def test_post_hands_the_item_to_a_parked_taker_at_once(self):
        sim = Simulator()
        store = Store(sim, name="q")
        got = []

        def taker():
            got.append(((yield from store.take()), sim.now))

        def producer():
            yield 4.0
            store.post("late-item")
            # The taker ran inside the post, at the post's instant.
            assert got == [("late-item", 4.0)]

        sim.process(taker(), name="t")
        sim.process(producer(), name="p")
        sim.run()
        assert got == [("late-item", 4.0)]
        assert len(store) == 0

    def test_priority_order_holds_for_queued_items(self):
        sim = Simulator()
        ps = PriorityStore(sim)
        out = []

        def taker():
            for _ in range(4):
                out.append((yield from ps.take()))
                yield 1.0

        def producer():
            yield 0.5  # the taker is parked: the first post is handed over
            for item, priority in (("first", 9), ("low", 5), ("high", 1), ("mid", 3)):
                ps.post_item(item, priority)

        sim.process(taker(), name="t")
        sim.process(producer(), name="p")
        sim.run()
        assert out == ["first", "high", "mid", "low"]

    def test_post_and_take_schedule_no_kernel_event(self):
        sim = Simulator()
        store = Store(sim)
        got = []
        store.post("queued")
        assert sim.events_scheduled == 0

        def taker():
            for _ in range(2):
                before = sim.events_scheduled
                got.append((yield from store.take()))
                got.append(sim.events_scheduled - before)

        sim.process(taker(), name="t")  # start: one event
        sim.schedule(1.0, store.post, "handed")  # the post's own call
        sim.run()
        assert got == ["queued", 0, "handed", 0]
        # Start, the scheduled post, and the completion: nothing else.
        assert sim.events_scheduled == 3

    def test_parked_taker_waits_on_a_get_stand_in(self):
        sim = Simulator()
        store = Store(sim, name="nic.rx")

        def taker():
            yield from store.take()

        proc = sim.process(taker(), name="t")
        sim.run()
        assert proc.alive
        assert proc.waiting_on.name == "nic.rx.get"
        assert not proc.waiting_on.triggered
        store.post("x")
        assert proc.waiting_on is None

    def test_interrupt_refuses_a_parked_taker(self):
        sim = Simulator()
        store = Store(sim, name="nic.rx")
        got = []

        def taker():
            got.append((yield from store.take()))

        proc = sim.process(taker(), name="t")
        sim.run()
        with pytest.raises(RuntimeError, match="nic.rx"):
            proc.interrupt("link down")
        store.post("x")
        sim.run()
        assert got == ["x"] and not proc.alive

    def test_second_taker_raises(self):
        sim = Simulator()
        store = Store(sim, name="q")

        def taker():
            yield from store.take()

        sim.process(taker(), name="a")
        second = sim.process(taker(), name="b")
        second.completion.defuse()
        sim.run()
        assert isinstance(second.completion.value, RuntimeError)
        assert "'a' is parked" in str(second.completion.value)

    def test_post_from_a_later_phase_wakes_the_taker_at_phase_zero(self):
        sim = Simulator()
        store = Store(sim)
        seen = []

        def taker():
            for _ in range(2):
                item = yield from store.take()
                seen.append((item, sim.now, sim.current_phase))

        def post_in_phase(item, phase):
            if phase:
                sim.schedule_phase(phase, store.post, item)
            else:
                store.post(item)

        sim.process(taker(), name="t")
        sim.schedule(1.0, post_in_phase, "late-phase", 2)
        sim.schedule(2.0, post_in_phase, "phase-0", 0)
        sim.run()
        assert seen == [("late-phase", 1.0, 0), ("phase-0", 2.0, 0)]

    def test_post_item_to_a_parked_taker_bypasses_the_heap(self):
        puts = []

        class CountingStore(PriorityStore):
            def _do_put(self, pair):
                puts.append(pair)
                super()._do_put(pair)

        sim = Simulator()
        ps = CountingStore(sim, name="rx")
        got = []

        def taker():
            got.append((yield from ps.take()))

        sim.process(taker(), name="t")
        sim.run()
        ps.post_item("pkt", priority=(1.0, 3))
        assert got == ["pkt"]  # the bare item, not its (priority, item) pair
        assert puts == [] and ps._items == [] and len(ps) == 0
        ps.post_item("queued", priority=0)  # nobody parked: it is stored
        assert puts == [(0, "queued")] and ps.items == ("queued",)

    @pytest.mark.parametrize("store_cls", [Store, PriorityStore])
    def test_hand_off_from_a_later_phase_goes_through_schedule_now(self, store_cls):
        class NowLog(Simulator):
            def __init__(self):
                super().__init__()
                self.now_calls = []

            def schedule_now(self, fn, *args):
                self.now_calls.append((fn.__name__, args[1:]))
                super().schedule_now(fn, *args)

        sim = NowLog()
        store = store_cls(sim)
        seen = []

        def taker():
            seen.append(((yield from store.take()), sim.current_phase))

        item = "x" if store_cls is Store else (5, "x")
        sim.process(taker(), name="t")
        sim.schedule(1.0, sim.schedule_phase, 3, store.post, item)
        sim.run()
        # The resume, then the taker's completion.
        assert sim.now_calls[0] == ("_resume_taker", ("x",))
        assert seen == [("x", 0)] and len(store) == 0

    def test_armed_watch_fires_after_the_hand_off(self):
        sim = Simulator()
        store = Store(sim, name="q")
        order = []

        def taker():
            order.append(("took", (yield from store.take())))

        sim.process(taker(), name="t")
        sim.run()
        store.watch(lambda: order.append(("watched", len(store))))
        store.post("item")
        assert order == [("took", "item"), ("watched", 0)]
        store.post("next")  # one-shot: the watcher is gone
        assert order == [("took", "item"), ("watched", 0)]
        assert store.idle is False and store.items == ("next",)


class TestArbitratedResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ArbitratedResource(sim, capacity=0)

    def test_grant_is_deferred_never_synchronous(self):
        sim = Simulator()
        res = ArbitratedResource(sim)
        req = res.request(key="a")
        assert not req.triggered  # decided one delta phase later
        sim.run()
        assert req.triggered
        assert res.in_use == 1

    def test_request_outside_process_needs_explicit_key(self):
        sim = Simulator()
        res = ArbitratedResource(sim, name="cpu")
        with pytest.raises(RuntimeError):
            res.request()

    def test_key_defaults_to_active_process_name(self):
        sim = Simulator()
        res = ArbitratedResource(sim)
        order = []

        def worker():
            yield res.request()
            order.append(sim.now)
            res.release()

        sim.process(worker(), name="w")
        sim.run()
        assert order == [0.0]

    def test_same_instant_contention_grants_in_key_order(self):
        # Three processes request at t=0; start order is c, a, b but the
        # arbitration key (the process name) decides who runs first.
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=1)
        order = []

        def worker(name):
            yield res.request()
            order.append(name)
            yield 1.0
            res.release()

        for name in ("c", "a", "b"):
            sim.process(worker(name), name=name)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_key_fn_overrides_name_order(self):
        # key_fn inverts the lexicographic order: highest name wins.
        sim = Simulator()
        res = ArbitratedResource(
            sim, key_fn=lambda name: tuple(-ord(ch) for ch in name)
        )
        order = []

        def worker(name):
            yield res.request()
            order.append(name)
            yield 1.0
            res.release()

        for name in ("a", "b", "c"):
            sim.process(worker(name), name=name)
        sim.run()
        assert order == ["c", "b", "a"]

    def test_priority_waiter_overtakes_earlier_lower_priority(self):
        # This is a priority arbiter, not a FIFO: whenever a unit frees
        # up, the best *currently pending* key wins — even if a worse
        # key has been waiting longer (hardware polling-order
        # semantics, exactly how the LANai services its loops).
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield 5.0
            res.release()

        def waiter(name, arrive):
            yield arrive
            yield res.request()
            order.append(name)
            res.release()

        sim.process(holder(), name="h")
        sim.process(waiter("z-first", 1.0), name="z")
        sim.process(waiter("a-second", 2.0), name="a")
        sim.run()
        assert order == ["a-second", "z-first"]

    def test_release_hands_over_in_key_order(self):
        sim = Simulator()
        res = ArbitratedResource(sim, capacity=2)
        order = []

        def worker(name, hold):
            yield res.request()
            order.append((sim.now, name))
            yield hold
            res.release()

        for name, hold in (("d", 5.0), ("c", 3.0), ("b", 1.0), ("a", 2.0)):
            sim.process(worker(name, hold), name=name)
        sim.run()
        # a and b win the initial arbitration; c takes b's unit at t=1,
        # d takes a's at t=2.
        assert order == [(0.0, "a"), (0.0, "b"), (1.0, "c"), (2.0, "d")]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = ArbitratedResource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_queue_length_counts_only_live_waiters(self):
        # Pending entries only: not the holder, not a granted waiter.
        sim = Simulator()
        res = ArbitratedResource(sim)
        res.request(key="a")
        waiters = [res.request(key=f"w{i}") for i in range(4)]
        assert res.queue_length == 5  # all pending until the pass
        sim.run()
        assert res.queue_length == 4
        res.release()
        sim.run()
        assert waiters[0].triggered
        assert res.queue_length == 3


class TestArbitratedHold:
    def test_hold_outside_a_process_raises(self):
        sim = Simulator()
        res = ArbitratedResource(sim, name="cpu")
        with pytest.raises(RuntimeError, match="cpu"):
            next(res.hold(1.0))

    def test_negative_hold_fails_the_process(self):
        sim = Simulator()
        res = ArbitratedResource(sim)

        def task():
            yield from res.hold(-1.0)

        proc = sim.process(task(), name="t")
        proc.completion.defuse()
        sim.run()
        assert isinstance(proc.completion.value, ValueError)
        assert res.in_use == 0

    def test_hold_occupies_the_unit_for_its_cost(self):
        sim = Simulator()
        res = ArbitratedResource(sim)
        seen = []

        def task(cost):
            yield from res.hold(cost)
            seen.append((sim.now, res.in_use))

        sim.process(task(3.0), name="a")
        sim.process(task(2.0), name="b")
        sim.run()
        assert seen == [(3.0, 0), (5.0, 0)]

    def test_hold_is_two_kernel_events(self):
        # A hold the pass decides (here: zero cost, never express) is
        # pass + completion, where request → sleep → release takes the
        # pass, the grant event and the sleep.  An uncontended hold of
        # positive cost is an express grant: the completion alone.
        # Start and finish of the process cost two more either way.
        def events(body, cost):
            sim = Simulator()
            res = ArbitratedResource(sim)
            sim.process(body(res, cost), name="a")
            sim.run()
            assert sim.now == cost
            return sim.events_scheduled - 2

        def hold(res, cost):
            yield from res.hold(cost)

        def request_sleep_release(res, cost):
            yield res.request()
            yield cost
            res.release()

        assert events(hold, 0.0) == 2
        assert events(request_sleep_release, 0.0) == 3
        assert events(hold, 1.0) == 1
        assert events(request_sleep_release, 1.0) == 3

    def test_uncontended_top_key_hold_is_one_kernel_event(self):
        # Any uncontended hold, top key or not, is an express grant:
        # only the completion is scheduled.  A later same-instant rival
        # of higher key queues behind it; one of lower key (the top
        # key, "rx") reverts it, and the pass grants the rival first.
        def run(names):
            sim = Simulator()
            res = ArbitratedResource(sim)
            order = []

            def body():
                yield from res.hold(1.0)
                order.append((sim.now, sim.active_process.name))

            for name in names:
                sim.process(body(), name=name)
            sim.run()
            return order, sim.events_scheduled - 2 * len(names)

        assert run(["rx"]) == ([(1.0, "rx")], 1)
        # rx: completion; sdma, queued on the busy unit, arms no pass:
        # the pass at rx's release, its completion.
        assert run(["rx", "sdma"]) == ([(1.0, "rx"), (2.0, "sdma")], 3)
        # sdma's express completion (voided by the revert), the pass
        # granting rx, rx's completion, the pass at rx's release and
        # sdma's completion.
        assert run(["sdma", "rx"]) == ([(1.0, "rx"), (2.0, "sdma")], 5)

    def test_a_revert_keeps_the_arrival_number(self):
        # a.0 is granted express; a.1 (same key, cost 0) queues behind
        # it; 0.2 (lower key) reverts a.0.  The pass must rank a.0
        # before a.1 as it would have without the express grant: a
        # revert that drew a new arrival number swapped them.
        sim = Simulator()
        res = ArbitratedResource(sim, key_fn=lambda name: name[0])
        order = []

        def body(cost):
            yield from res.hold(cost)
            order.append((sim.now, sim.active_process.name))

        for name, cost in (("a.0", 0.5), ("a.1", 0.0), ("0.2", 0.0)):
            sim.process(body(cost), name=name)
        sim.run()
        assert order == [(0.0, "0.2"), (0.5, "a.0"), (0.5, "a.1")]

    def test_call_runs_its_function_after_the_release(self):
        sim = Simulator()
        res = ArbitratedResource(sim, name="dma")
        seen = []

        def done(tag):
            seen.append((sim.now, tag, res.in_use))

        res.call("x", 2.0, done, "first")  # express
        res.call("y", 1.0, done, "second")  # queued behind it
        sim.run()
        assert seen == [(2.0, "first", 0), (3.0, "second", 0)]
        with pytest.raises(ValueError, match="negative"):
            res.call("x", -1.0, done, "bad")

    def test_key_fn_is_called_once_per_process_name(self):
        sim = Simulator()
        calls = []

        def key_fn(name):
            calls.append(name)
            return name

        res = ArbitratedResource(sim, key_fn=key_fn)

        def task():
            for _ in range(3):
                yield from res.hold(1.0)
            yield res.request()
            res.release()

        sim.process(task(), name="loop")
        sim.run()
        assert calls == ["loop"]


class _TracedResource(ArbitratedResource):
    """Records ``(now, in_use)`` at every change of the unit count."""

    def __init__(self, *args, **kwargs):
        self.in_use_trace = []
        super().__init__(*args, **kwargs)

    @property
    def _in_use(self):
        return self._count

    @_in_use.setter
    def _in_use(self, value):
        self._count = value
        self.in_use_trace.append((self.sim.now, value))


class _GrantLog(Simulator):
    """Logs each grant of a hold or a call by the worker's name: the
    completion call the pass, or an express grant, schedules.  The
    watched resource drops a reverted express grant again."""

    watched = None

    def __init__(self):
        super().__init__()
        self.grants = []

    def schedule_detached(self, delay, fn, *args):
        res = self.watched
        if res is not None:
            if fn == res._finish:
                self.grants.append((self.now, _worker_of(*args)))
            elif fn == res._finish_express:
                express = args[0]
                self.grants.append((self.now, _worker_of(express[2], express[4])))
        super().schedule_detached(delay, fn, *args)


def _worker_of(waiter, args):
    # A hold's waiter is the process; the property test's calls resume
    # their process through its bound ``_step``.
    return waiter.name if args is None else waiter.__self__.name


class _LoggedResource(_TracedResource):
    def _revert(self, express):
        # Nothing is granted between an express grant and its revert
        # (both happen at phase 0 of one instant; passes run later).
        self.sim.grants.pop()
        super()._revert(express)


def _settled(trace):
    """An ``in_use`` trace as the value each instant ends with."""
    last = {}
    for now, value in trace:
        last[now] = value
    return sorted(last.items())


_DELAYS = st.sampled_from([0.0, 0.5, 1.0])
_COSTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_TASKS = st.lists(st.tuples(_DELAYS, _COSTS), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    workers=st.lists(
        st.tuples(st.sampled_from("0abc"), st.booleans(), _TASKS),
        min_size=1, max_size=6,
    ),
    seat=st.none() | st.tuples(_DELAYS, _COSTS),
    capacity=st.sampled_from([1, 2]),
    keyed=st.booleans(),
)
@example(  # a revert that drew a new arrival number swapped the a's
    workers=[
        ("a", False, [(0.0, 0.5)]),
        ("a", False, [(0.0, 0.0)]),
        ("0", False, [(0.0, 0.0)]),
    ],
    seat=None, capacity=1, keyed=True,
)
def test_hold_matches_request_sleep_release(workers, seat, capacity, keyed):
    """``hold(cost)`` and ``call(key, cost, fn)`` are request → sleep
    ``cost`` → release, fused.

    Same grant order, completion times and settled unit-count trace,
    with same-instant contenders of lower, equal and higher key, zero
    costs, duplicate keys (``key_fn`` maps every worker to its letter),
    explicit keys (a call names its key), and a request-holding seat
    sharing the queue.  At capacity 1 an uncontended hold or call of
    positive cost is an express grant, and a same-instant rival of
    lower key (letter ``0`` sorts first) reverts it; the grant log
    drops a reverted grant.  A revert flips ``in_use`` back and forth
    within one instant, so traces are compared as the value each
    instant ends with.  With holds and calls only, each worker also sees
    the same ``in_use`` at its completion.  A seat's sleep draws its
    ``seq`` when the seat resumes, after the pass drew the hold
    completion's, so when both end at one instant the two may run in
    either order (the same-instant tie-break SL101 covers): what a
    worker sees then is not compared.
    """

    def run(fused):
        sim = _GrantLog()
        res = _LoggedResource(
            sim, capacity=capacity, name="cpu",
            key_fn=(lambda name: name[0]) if keyed else None,
        )
        sim.watched = res
        done = []

        def worker(calls, tasks):
            proc = sim.active_process
            name = proc.name
            for delay, cost in tasks:
                yield delay
                if not fused:
                    yield res.request()
                    sim.grants.append((sim.now, name))
                    yield cost
                    res.release()
                elif calls:
                    res.call(name[0] if keyed else name, cost, proc._step, None, None)
                    yield PARKED
                else:
                    yield from res.hold(cost)
                done.append((sim.now, name, res.in_use))

        def seat_holder(delay, span):
            yield delay
            yield res.request()
            yield span
            res.release()

        for i, (letter, calls, tasks) in enumerate(workers):
            sim.process(worker(calls, tasks), name=f"{letter}.{i}")
        if seat is not None:
            sim.process(seat_holder(*seat), name="b.seat")
        sim.run()
        assert res.in_use == 0 and res.queue_length == 0
        return sim.grants, done, _settled(res.in_use_trace)

    fused, reference = run(fused=True), run(fused=False)
    if seat is not None:
        fused, reference = (
            (grants, [entry[:2] for entry in done], trace)
            for grants, done, trace in (fused, reference)
        )
    assert fused == reference
