"""Runtime model checks: delta phases, perturbation, quiescence.

Three kinds of coverage:

- kernel contract tests for :meth:`Simulator.schedule_phase` (the
  arbitration primitive the fabric's deterministic link grants rely on),
  on both the stock kernel and the tie-break-perturbed one;
- injected-violation fixtures: an order-dependent callback must be
  caught as SL101 by :func:`compare_runs`, a leaked pool unit as SL103
  and a deadlocked process as SL102 by :func:`check_quiescent`;
- positive controls: real barrier experiments (including a seeded fault
  run) stay bit-identical under tie-break permutation and audit clean
  at quiescence.
"""

import pytest

from repro.sim import SimEvent, Simulator, Store
from repro.sim.rng import DeterministicRng
from repro.tools.simlint import (
    TieBreakSimulator,
    all_scheme_reports,
    check_quiescent,
    compare_runs,
    perturb_barrier_experiment,
)


# ----------------------------------------------------------------------
# Delta-phase kernel contract
# ----------------------------------------------------------------------
def _phase_ordering_trace(sim):
    order = []

    def arm():
        sim.schedule_phase(2, order.append, "p2")
        sim.schedule_phase(1, order.append, "p1")
        order.append("n1")

    sim.schedule(1.0, arm)
    sim.schedule(1.0, order.append, "n2")
    sim.run()
    return order


def test_schedule_phase_runs_after_all_same_time_phase0_calls():
    # p1/p2 are scheduled *before* n2 exists on the heap, yet every
    # phase-0 call at t=1 runs first — phases order, not arrival.
    assert _phase_ordering_trace(Simulator()) == ["n1", "n2", "p1", "p2"]


def test_tiebreak_simulator_preserves_phase_ordering():
    # The perturbed kernel randomizes same-phase ties only; the
    # delta-phase guarantee holds for every permutation.
    for round_idx in range(5):
        rng = DeterministicRng(7, f"test/tiebreak/{round_idx}")
        order = _phase_ordering_trace(TieBreakSimulator(rng))
        assert set(order[:2]) == {"n1", "n2"}
        assert order[2:] == ["p1", "p2"]


@pytest.mark.parametrize("sim_factory", [
    Simulator,
    lambda: TieBreakSimulator(DeterministicRng(0, "test")),
])
def test_schedule_phase_rejects_non_future_phase(sim_factory):
    sim = sim_factory()
    with pytest.raises(ValueError):
        sim.schedule_phase(0, print)

    seen = []

    def in_phase_two():
        seen.append(sim.current_phase)
        with pytest.raises(ValueError):
            sim.schedule_phase(2, print)

    sim.schedule_phase(2, in_phase_two)
    sim.run()
    assert seen == [2]


def test_phase_resets_when_time_advances():
    sim = Simulator()
    phases = []
    sim.schedule(0.0, lambda: sim.schedule_phase(3, lambda: phases.append(sim.current_phase)))
    sim.schedule(1.0, lambda: phases.append(sim.current_phase))
    sim.run()
    assert phases == [3, 0]


# ----------------------------------------------------------------------
# Injected violation: order-dependent callback -> SL101
# ----------------------------------------------------------------------
def test_compare_runs_catches_order_dependent_callback():
    def build_and_run(sim):
        sim = sim or Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        return tuple(order)  # observable leaks the same-time pop order

    findings = compare_runs(build_and_run, rounds=8, seed=0, where="fixture").findings
    assert findings
    assert {f.code for f in findings} == {"SL101"}
    assert all(f.path == "fixture" for f in findings)


def test_compare_runs_passes_order_independent_model():
    def build_and_run(sim):
        sim = sim or Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        return tuple(sorted(order))  # commutative observable

    assert compare_runs(build_and_run, rounds=8, seed=0).findings == []


# ----------------------------------------------------------------------
# Injected violations at quiescence: SL102 (deadlock), SL103 (leak)
# ----------------------------------------------------------------------
class _FakeProfile:
    name = "fixture"


class _FakeCluster:
    def __init__(self, sim):
        self.sim = sim
        self.profile = _FakeProfile()
        self.nics = ()
        self.ports = ()
        self.tracer = None


def test_quiescence_catches_deadlocked_process():
    sim = Simulator()
    sim.track_processes()
    orphan = SimEvent(sim, name="ack.never")

    def waiter():
        yield orphan  # nobody will ever succeed this

    sim.process(waiter(), name="stuck-sender")
    sim.run()
    report = check_quiescent(_FakeCluster(sim))
    assert [f.code for f in report.findings] == ["SL102"]
    assert "stuck-sender" in report.findings[0].message
    edges = [e for e in report.graph if e.process == "stuck-sender"]
    assert edges and not edges[0].benign
    assert "ack.never" in report.render()


def test_quiescence_treats_parked_service_loop_as_benign():
    sim = Simulator()
    sim.track_processes()
    work = Store(sim, name="nic.work")
    served = []

    def service_loop():
        while True:
            served.append((yield from work.take()))

    sim.process(service_loop(), name="rx-loop")
    sim.schedule(1.0, work.post, "a")
    sim.schedule(2.0, work.post, "b")
    sim.run()
    assert served == ["a", "b"]
    report = check_quiescent(_FakeCluster(sim))
    assert report.ok
    assert [e.benign for e in report.graph] == [True]


def test_quiescence_treats_a_parked_taker_as_a_parked_service_loop():
    # A loop parked in Store.take has no real event to wait on; its
    # ``<store>.get`` stand-in makes it read as any parked service loop,
    # and as a named blocked wait when it was required to finish.
    sim = Simulator()
    sim.track_processes()
    work = Store(sim, name="nic.work")

    def service_loop():
        while True:
            yield from work.take()

    sim.process(service_loop(), name="rx-loop")
    sim.run()
    report = check_quiescent(_FakeCluster(sim))
    assert report.ok
    assert [(e.event, e.benign) for e in report.graph] == [("nic.work.get", True)]
    required = check_quiescent(_FakeCluster(sim), must_complete=("rx-loop",))
    assert [f.code for f in required.findings] == ["SL102"]
    assert "'nic.work.get'" in required.findings[0].message


def test_quiescence_flags_required_process_even_when_parked():
    sim = Simulator()
    sim.track_processes()
    work = Store(sim, name="bench.work")

    def driver():
        yield from work.take()

    sim.process(driver(), name="bench@0")
    sim.run()
    report = check_quiescent(_FakeCluster(sim), must_complete=("bench@0",))
    assert [f.code for f in report.findings] == ["SL102"]


def test_quiescence_catches_leaked_send_packet():
    from tests.myrinet.conftest import MyrinetTestCluster

    cluster = MyrinetTestCluster(n=2)
    cluster.profile = _FakeProfile()

    def sender():
        yield from cluster.ports[0].send(1, 64, payload="hello")

    def receiver():
        yield from cluster.ports[1].recv_from(0)

    cluster.sim.process(sender())
    cluster.sim.process(receiver())
    cluster.sim.run()
    assert check_quiescent(cluster).ok

    # Inject the violation: a buffer taken from the free list and never
    # posted back — the exact leak the retry-exhaustion path used to
    # exhibit.
    pool = cluster.nics[0].packet_pool
    buffer = pool.try_get()
    report = check_quiescent(cluster)
    assert [f.code for f in report.findings] == ["SL103"]
    assert "pktpool" in report.findings[0].message
    pool.post(buffer)


def test_quiescence_names_the_exhausted_cpu_behind_a_starved_task():
    # A LANai task queued behind a CPU unit nobody releases must still
    # read as a blocked acquire, not as a process that lost its resume.
    from tests.myrinet.conftest import MyrinetTestCluster

    sim = Simulator()
    sim.track_processes()
    cluster = MyrinetTestCluster(n=2, sim=sim)
    cluster.profile = _FakeProfile()
    nic = cluster.nics[0]
    # Granted, never released.  Its key sorts before the task's.
    nic.cpu.request(key=(1, "intruder"))

    def task():
        yield from nic.cpu_task(1.0, "stuck")

    sim.process(task(), name="stuck-task")
    sim.run()
    report = check_quiescent(cluster)
    stuck = [f for f in report.findings if "stuck-task" in f.message]
    assert [f.code for f in stuck] == ["SL102"]
    assert (
        "blocked acquiring exhausted resource 'lanai0.cpu'" in stuck[0].message
    )
    assert "SL103" in [f.code for f in report.findings]


@pytest.mark.parametrize(
    "profile,demux,what",
    [
        ("lanai_xp_xeon2400", "_events", "unmatched GM receive events"),
        ("elan3_piii700", "_host_events", "unconsumed host event words"),
    ],
)
def test_quiescence_reports_an_item_left_in_a_port_demux(profile, demux, what):
    # The NIC posts two host-visible words; the host waits only for the
    # second, so the first stays buffered in the port's demux.
    from repro.cluster import build_cluster

    sim = Simulator()
    sim.track_processes()
    cluster = build_cluster(profile, 2, sim=sim)
    port = cluster.ports[1]
    queue = getattr(port, demux).queue

    def program():
        queue.post(("word", "stray"))
        queue.post(("word", "wanted"))
        yield from port.recv_matching(lambda ev: ev == ("word", "wanted"))

    proc = sim.process(program(), name="waiter")
    sim.run()
    assert proc.completion.processed
    assert getattr(port, demux).pending == [("word", "stray")]
    report = check_quiescent(cluster)
    assert [(f.code, f.path, f.message) for f in report.findings] == [
        ("SL105", f"{profile}/port1", f"1 {what} buffered at quiescence")
    ]


@pytest.mark.parametrize("profile", ["lanai_xp_xeon2400", "elan3_piii700"])
def test_every_port_demux_is_listed_for_the_audit(profile):
    # The audit reads only the demuxes a port lists; one it holds but
    # omits would buffer leaked items without a word.
    from repro.cluster import build_cluster
    from repro.host.demux import EventDemux

    port = build_cluster(profile, 2).ports[0]
    held = sorted(
        name for name, value in vars(port).items()
        if isinstance(value, EventDemux)
    )
    assert held
    assert held == sorted(attr for attr, _what in type(port).DEMUXES)


def test_retry_exhaustion_releases_pool_and_records():
    # Regression for the fault-path leak: a black-holed peer must not
    # retain pool units, send records, or armed timers once the retry
    # budget is spent, and the audit must agree.
    import dataclasses

    from repro.network import FaultInjector, PacketKind
    from tests.myrinet.conftest import TEST_GM, MyrinetTestCluster

    gm = dataclasses.replace(TEST_GM, max_retries=2, ack_timeout_us=50.0)
    faults = FaultInjector()
    faults.drop_all_matching(
        lambda p: p.kind == PacketKind.DATA and p.dst == 1
    )
    cluster = MyrinetTestCluster(n=2, gm=gm, faults=faults)
    cluster.profile = _FakeProfile()

    def sender():
        yield from cluster.ports[0].send(1, 32, payload="doomed")

    cluster.sim.process(sender())
    cluster.sim.run()
    nic = cluster.nics[0]
    assert len(nic.packet_pool) == nic.params.send_packet_count
    assert nic.send_records == {}
    assert check_quiescent(cluster).ok


# ----------------------------------------------------------------------
# Positive controls on real experiments (small N keeps these fast)
# ----------------------------------------------------------------------
def test_gsync_bit_identical_under_perturbation():
    # gsync is the regression scheme: same-instant up-RDMAs contending
    # for the parent's last link exposed schedule-ordered grants before
    # the fabric arbiter existed.
    report = perturb_barrier_experiment(
        "elan3_piii700", "gsync", nodes=8, rounds=3, iterations=3, warmup=1
    )
    assert report.ok, report.findings[0].message if report.findings else ""


def test_host_scheme_pci_bus_bit_identical_under_perturbation_at_128():
    # Regression: with a first-come-first-served PCI bus, same-instant
    # host PIO and NIC DMA requests were served in event-heap order,
    # and three permutations of this point gave three different means.
    report = perturb_barrier_experiment(
        "lanai_xp_xeon2400", "host", nodes=128, rounds=3, iterations=3,
        warmup=1,
    )
    assert report.ok, report.findings[0].message if report.findings else ""


def test_faulty_nic_collective_bit_identical_under_perturbation():
    report = perturb_barrier_experiment(
        "lanai_xp_xeon2400", "nic-collective", nodes=8, rounds=3,
        iterations=3, warmup=1, drop_probability=0.05,
    )
    assert report.ok, report.findings[0].message if report.findings else ""
    assert report.baseline.counters.get("wire.dropped", 0) > 0


def test_perturbation_labels_name_the_fault_case():
    # A faulted run must not print as the clean run of its scheme.
    report = perturb_barrier_experiment(
        "lanai_xp_xeon2400", "nic-collective", nodes=8, rounds=1,
        iterations=3, warmup=1, delay_probability=0.2, delay_jitter_us=5.0,
    )
    assert str(report).startswith(
        "lanai_xp_xeon2400/nic-collective[delay=0.2,jitter_us=5] N=8:"
    )
    labels = [
        str(r).split(":")[0]
        for r in all_scheme_reports(nodes=4, rounds=0, iterations=1, warmup=1)
    ]
    assert len(set(labels)) == len(labels) == 11
    assert "lanai_xp_xeon2400/nic-collective[corrupt=0.02] N=4" in labels
    assert "elan3_piii700/nic-chained[delay=0.2,jitter_us=5] N=4" in labels


def test_fault_injection_rejected_on_quadrics():
    with pytest.raises(ValueError):
        perturb_barrier_experiment(
            "elan3_piii700", "gsync", nodes=4, drop_probability=0.1
        )


def test_barrier_run_audits_clean_at_quiescence():
    from repro.cluster.builder import build_cluster
    from repro.cluster.profiles import get_profile
    from repro.cluster.runner import run_barrier_experiment

    sim = Simulator()
    sim.track_processes()
    cluster = build_cluster(get_profile("lanai_xp_xeon2400"), 8, sim=sim)
    run_barrier_experiment(
        cluster, "nic-collective", iterations=3, warmup=1, seed=0
    )
    report = check_quiescent(cluster)
    assert report.ok, report.render()
    assert any(e.benign for e in report.graph)  # service loops parked
