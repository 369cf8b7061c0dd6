"""Integration tests for elan_gsync / elan_hgsync."""

import pytest

from repro.quadrics import elan_gsync, elan_hgsync


def run(qc, *programs):
    procs = [qc.sim.process(p) for p in programs]
    qc.sim.run()
    for proc in procs:
        assert proc.completion.processed, f"{proc} never finished"


def gsync_prog(qc, rank, ranks, seq=0, record=None):
    yield from elan_gsync(qc.ports[rank], ranks, seq)
    if record is not None:
        record[rank] = qc.sim.now


def test_gsync_completes_all_ranks(qcluster):
    qc = qcluster
    ranks = list(range(8))
    done = {}
    run(qc, *(gsync_prog(qc, r, ranks, record=done) for r in ranks))
    assert set(done) == set(ranks)


def test_gsync_no_rank_exits_before_last_enters(qcluster):
    """Barrier semantics: exit time >= every entry time."""
    qc = qcluster
    ranks = list(range(8))
    done = {}
    entries = {}

    def prog(rank, delay):
        yield delay
        entries[rank] = qc.sim.now
        yield from elan_gsync(qc.ports[rank], ranks, 0)
        done[rank] = qc.sim.now

    run(qc, *(prog(r, float(r)) for r in ranks))
    last_entry = max(entries.values())
    assert all(t >= last_entry for t in done.values())


def test_gsync_consecutive_iterations(qcluster):
    qc = qcluster
    ranks = list(range(4))
    done = {r: [] for r in ranks}

    def prog(rank):
        for seq in range(3):
            yield from elan_gsync(qc.ports[rank], ranks, seq)
            done[rank].append(qc.sim.now)

    run(qc, *(prog(r) for r in ranks))
    for rank in ranks:
        assert len(done[rank]) == 3
        assert done[rank] == sorted(done[rank])


def test_hgsync_with_hardware_completes(qcluster):
    qc = qcluster
    ranks = list(range(8))
    hw = qc.hardware_barrier(ranks)
    done = {}

    def prog(rank):
        yield from elan_hgsync(qc.ports[rank], hw, ranks, 0)
        done[rank] = qc.sim.now

    run(qc, *(prog(r) for r in ranks))
    assert set(done) == set(ranks)
    assert hw.retries == 0  # synchronized entry: first probe passes


def test_hgsync_faster_than_gsync_when_synchronized(qcluster):
    """At 8 nodes the hardware barrier beats the host-driven tree."""
    qc = qcluster
    ranks = list(range(8))
    hw = qc.hardware_barrier(ranks)
    hg_span, gs_span = {}, {}

    def prog(rank):
        start = qc.sim.now
        yield from elan_hgsync(qc.ports[rank], hw, ranks, 0)
        hg_span[rank] = qc.sim.now - start
        mid = qc.sim.now
        # gsync's seq counts *gsync* invocations on this event set,
        # starting at 0 (cumulative event-word thresholds).
        yield from elan_gsync(qc.ports[rank], ranks, 0)
        gs_span[rank] = qc.sim.now - mid

    run(qc, *(prog(r) for r in ranks))
    assert max(hg_span.values()) < max(gs_span.values())


def test_hgsync_stragglers_force_retries(qcluster):
    qc = qcluster
    ranks = list(range(4))
    hw = qc.hardware_barrier(ranks)

    def prog(rank):
        # Rank 3 arrives very late: probes must retry.
        yield 100.0 * (1 if rank == 3 else 0)
        yield from elan_hgsync(qc.ports[rank], hw, ranks, 0)

    run(qc, *(prog(r) for r in ranks))
    assert hw.retries > 0


def test_hardware_barrier_validation(qcluster):
    qc = qcluster
    with pytest.raises(ValueError):
        qc.hardware_barrier([])
    hw = qc.hardware_barrier([0, 1])
    with pytest.raises(ValueError):
        hw.enter(5, 0)
