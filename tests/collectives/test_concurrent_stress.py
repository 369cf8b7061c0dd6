"""Concurrent-sequence stress: four collectives in flight per group, N=16.

The paper's protocol keeps per-group *and* per-sequence state on the
NIC; these tests load that state machine with several sequences
genuinely in flight per group — on both networks — and then hold the
runs to the simlint bar:

- SL101: results (and completion times) must be bit-identical when
  same-timestamp event order is permuted (``compare_runs``);
- one fault scenario per network: a Myrinet link flap mid-run (healed
  by NACK recovery) and Quadrics packet delays (absorbed by the
  cumulative event thresholds);
- SL102-SL107: the drained cluster passes the quiescence audit —
  no parked processes, leaked packets, open engine states or timers.
"""

from repro.collectives import (
    NicAllreduceEngine,
    ProcessGroup,
    QuadricsChainedBarrier,
    nic_iallgather,
    nic_iallreduce,
)
from repro.collectives.allgather import NicAllgatherEngine
from repro.network import FaultInjector
from repro.sim import DeterministicRng
from repro.tools.simlint import check_quiescent, compare_runs
from tests.collectives.conftest import run_all
from tests.myrinet.conftest import MyrinetTestCluster
from tests.quadrics.conftest import QuadricsTestCluster

N = 16
DEPTH = 4  # sequences in flight per group at once


# ----------------------------------------------------------------------
# Myrinet: two groups x four sequences each, waited newest-first
# ----------------------------------------------------------------------
def run_myrinet_stress(sim=None, faults=None, track=False):
    """Every node keeps 4 allgathers and 4 allreduces in flight, then
    consumes the completions out of posting order.  Asserts the results
    in place so every perturbed round is checked, not just the first.
    """
    cluster = MyrinetTestCluster(n=N, sim=sim, faults=faults)
    if track:
        cluster.sim.track_processes()
    gather_group = ProcessGroup(list(range(N)), algorithm="dissemination")
    reduce_group = ProcessGroup(list(range(N)), algorithm="dissemination")
    engines = []
    for rank in range(N):
        engines.append(NicAllgatherEngine(cluster.nics[rank], gather_group, rank))
        engines.append(NicAllreduceEngine(cluster.nics[rank], reduce_group, rank))
    results = {}

    def prog(node):
        gather_reqs, reduce_reqs = [], []
        for seq in range(DEPTH):
            req = yield from nic_iallgather(
                cluster.ports[node], gather_group, seq, node * 10 + seq
            )
            gather_reqs.append(req)
            req = yield from nic_iallreduce(
                cluster.ports[node], reduce_group, seq, node + seq
            )
            reduce_reqs.append(req)
        gathers, totals = [None] * DEPTH, [None] * DEPTH
        for seq in reversed(range(DEPTH)):
            gathers[seq] = yield from gather_reqs[seq].wait()
            totals[seq] = yield from reduce_reqs[seq].wait()
        results[node] = (gathers, totals)

    run_all(cluster, [prog(node) for node in range(N)])
    want = (
        [{rank: rank * 10 + seq for rank in range(N)} for seq in range(DEPTH)],
        [sum(range(N)) + N * seq for seq in range(DEPTH)],
    )
    assert results == {node: want for node in range(N)}
    for engine in engines:
        assert engine.states == {}
        assert sorted(engine.archive) == list(range(DEPTH))
    return cluster, results


def test_myrinet_four_in_flight_quiesces_clean():
    cluster, _ = run_myrinet_stress(track=True)
    report = check_quiescent(cluster)
    assert report.ok, report.render()
    for nic in cluster.nics:
        assert len(nic.packet_pool) == nic.params.send_packet_count


def test_myrinet_stress_bit_identical_under_perturbation():
    def build_and_run(sim):
        cluster, results = run_myrinet_stress(sim=sim)
        return results, cluster.sim.now

    findings = compare_runs(
        build_and_run, rounds=3, where="myrinet/stress16"
    ).findings
    assert not findings, [f.message for f in findings]


def test_myrinet_stress_survives_link_flap():
    faults = FaultInjector()
    hole = faults.flap_link(3, 11, 1.0, 60.0)
    cluster, _ = run_myrinet_stress(faults=faults, track=True)
    # The flap really bit, recovery really ran, and nothing leaked.
    assert hole.dropped > 0
    report = check_quiescent(cluster)
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# Quadrics: four chained barriers armed at once per driver
# ----------------------------------------------------------------------
def run_quadrics_stress(sim=None, faults=None, track=False):
    cluster = QuadricsTestCluster(n=N, sim=sim, faults=faults)
    if track:
        cluster.sim.track_processes()
    group = ProcessGroup(list(range(N)), algorithm="dissemination")
    drivers = {
        node: QuadricsChainedBarrier(cluster.ports[node], group)
        for node in range(N)
    }
    completions = {}

    def prog(node):
        driver = drivers[node]
        requests = []
        for seq in range(DEPTH):
            req = yield from driver.ibarrier(seq)
            requests.append(req)
        order = []
        for seq in reversed(range(DEPTH)):
            done = yield from requests[seq].wait()
            order.append((seq, done.seq))
        completions[node] = order

    run_all(cluster, [prog(node) for node in range(N)])
    assert all(d.barriers_completed == DEPTH for d in drivers.values())
    assert all(
        order == [(seq, seq) for seq in reversed(range(DEPTH))]
        for order in completions.values()
    )
    return cluster, completions


def test_quadrics_four_in_flight_quiesces_clean():
    cluster, _ = run_quadrics_stress(track=True)
    report = check_quiescent(cluster)
    assert report.ok, report.render()


def test_quadrics_stress_bit_identical_under_perturbation():
    def build_and_run(sim):
        cluster, completions = run_quadrics_stress(sim=sim)
        return completions, cluster.sim.now

    findings = compare_runs(
        build_and_run, rounds=3, where="quadrics/stress16"
    ).findings
    assert not findings, [f.message for f in findings]


def test_quadrics_stress_survives_delay_faults():
    faults = FaultInjector(
        rng=DeterministicRng(7, "stress/quadrics-delay"),
        delay_probability=0.2,
        delay_jitter_us=5.0,
    )
    cluster, _ = run_quadrics_stress(faults=faults, track=True)
    assert faults.delayed > 0
    report = check_quiescent(cluster)
    assert report.ok, report.render()
