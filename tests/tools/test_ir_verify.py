"""simlint SL201-SL208: the schedule-IR verifier and the bounded model
checker of the NIC sequence engine's automaton.

One deliberately-broken schedule per rule, asserting the exact SLxxx
code, the ``ir://...`` locus, and the fix-it text — plus the clean-grid
proof (every tuner-universe schedule verifies with zero findings) and
the PR 7 regression guards (the silent NACK-budget ``return`` and the
retired-sequence re-entry, reintroduced via shims on the exported
``SEQUENCE_AUTOMATON`` table, must be caught by SL207/SL208).
"""

import warnings

import pytest

from repro.collectives.algorithms import SCHEDULE_CACHE, configure_schedule_cache
from repro.collectives.engine import SEQUENCE_AUTOMATON
from repro.collectives.schedule_ir import (
    CollectiveSchedule,
    ScheduleOp,
    compile_schedule,
)
from repro.tools.simlint.ir_verify import MODEL_CHECK_POINTS
from repro.tools.simlint import (
    IR_RULES,
    IrVerifyError,
    ModelBounds,
    check_archive_bound,
    ir_grid,
    model_check_schedule,
    run_ir_verify,
    verify_schedule,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    configure_schedule_cache()
    SCHEDULE_CACHE.clear()
    yield
    configure_schedule_cache()
    SCHEDULE_CACHE.clear()


def _schedule(collective, ops_by_rank, payload=0, root=0, algorithm="fixture"):
    """Hand-build a broken schedule; 'fixture' skips the closed-form
    message-count cross-check (it has no §5.1 formula)."""
    return CollectiveSchedule(
        collective,
        algorithm,
        len(ops_by_rank),
        payload,
        tuple(tuple(ops) for ops in ops_by_rank),
        root=root,
    )


def _only(findings, code):
    assert [f.code for f in findings] == [code], [f.render() for f in findings]
    return findings[0]


# ----------------------------------------------------------------------
# Seeded defects: one per rule, exact code + locus + fix-it
# ----------------------------------------------------------------------
def test_sl201_orphan_send():
    broken = _schedule("barrier", [
        [ScheduleOp("send", 0, peer=1, nbytes=0), ScheduleOp("dma", 1, nbytes=0)],
        [ScheduleOp("dma", 0, nbytes=0)],
    ])
    finding = _only(verify_schedule(broken), "SL201")
    assert finding.path == "ir://barrier/fixture/n2/p0/root0/rank0"
    assert finding.line == 1  # 1-based op index of the orphan send
    assert "orphan send" in finding.message
    assert "dropped as unexpected" in finding.message
    assert "add a recv op at rank 1 with peer=0, peer_phase=0" in finding.fixit


def test_sl202_wait_cycle():
    # Both ranks recv before they send: the classic head-to-head deadlock.
    broken = _schedule("barrier", [
        [ScheduleOp("recv", 0, peer=1, peer_phase=0),
         ScheduleOp("send", 0, peer=1, nbytes=0),
         ScheduleOp("dma", 1, nbytes=0)],
        [ScheduleOp("recv", 0, peer=0, peer_phase=0),
         ScheduleOp("send", 0, peer=0, nbytes=0),
         ScheduleOp("dma", 1, nbytes=0)],
    ])
    finding = _only(verify_schedule(broken), "SL202")
    assert finding.path == "ir://barrier/fixture/n2/p0/root0"
    assert "wait cycle" in finding.message
    assert "rank 0" in finding.message and "rank 1" in finding.message
    assert "send first on the blocking phase" in finding.fixit


def test_sl203_overlapping_merge():
    # Rank 0's contribution reaches the root twice: directly, and folded
    # into rank 1's partial — {0, 2} merged with {0, 1} double-counts 0.
    wire = 4 + 1  # payload + 1-byte bitmap for n=3
    broken = _schedule("reduce", [
        [ScheduleOp("send", 0, peer=1, nbytes=wire),
         ScheduleOp("send", 1, peer=2, nbytes=wire),
         ScheduleOp("dma", 2, nbytes=0)],
        [ScheduleOp("recv", 0, peer=0, peer_phase=0),
         ScheduleOp("reduce", 0, peer=0),
         ScheduleOp("send", 1, peer=2, nbytes=wire),
         ScheduleOp("dma", 2, nbytes=0)],
        [ScheduleOp("recv", 0, peer=0, peer_phase=1),
         ScheduleOp("reduce", 0, peer=0),
         ScheduleOp("recv", 1, peer=1, peer_phase=1),
         ScheduleOp("reduce", 1, peer=1),
         ScheduleOp("dma", 2, nbytes=4)],
    ], payload=4, root=2)
    finding = _only(verify_schedule(broken), "SL203")
    assert finding.path == "ir://reduce/fixture/n3/p4/root2/rank2"
    assert finding.line == 4  # the second reduce on the root
    assert "overlapping merge" in finding.message
    assert "{0, 1}" in finding.message and "{0, 2}" in finding.message
    assert "double-counted" in finding.message
    assert "reduce-safe" in finding.fixit


def test_sl203_incomplete_coverage():
    # Rank 1's contribution never reaches rank 0: allreduce must deliver
    # the full set on *every* rank.
    wire = 4 + 1
    broken = _schedule("allreduce", [
        [ScheduleOp("send", 0, peer=1, nbytes=wire),
         ScheduleOp("dma", 1, nbytes=4)],
        [ScheduleOp("recv", 0, peer=0, peer_phase=0),
         ScheduleOp("reduce", 0, peer=0),
         ScheduleOp("dma", 1, nbytes=4)],
    ], payload=4)
    finding = _only(verify_schedule(broken), "SL203")
    assert finding.path == "ir://allreduce/fixture/n2/p4/root0/rank0"
    assert "incomplete reduction" in finding.message
    assert "missing {1}" in finding.message


def test_sl204_wrong_wire_bytes():
    wire = 4 + 1
    broken = _schedule("allreduce", [
        [ScheduleOp("send", 0, peer=1, nbytes=3),  # pin says 5
         ScheduleOp("recv", 0, peer=1, peer_phase=0),
         ScheduleOp("reduce", 0, peer=1),
         ScheduleOp("dma", 1, nbytes=4)],
        [ScheduleOp("send", 0, peer=0, nbytes=wire),
         ScheduleOp("recv", 0, peer=0, peer_phase=0),
         ScheduleOp("reduce", 0, peer=0),
         ScheduleOp("dma", 1, nbytes=4)],
    ], payload=4)
    finding = _only(verify_schedule(broken), "SL204")
    assert finding.path == "ir://allreduce/fixture/n2/p4/root0/rank0"
    assert finding.line == 1
    assert "wire bytes 3 != pinned 5" in finding.message
    assert "nbytes=5" in finding.fixit


def test_sl204_message_count_drift():
    # A *real* algorithm name arms the closed-form cross-check: drop one
    # send/recv pair from a compiled schedule and the count conservation
    # against §5.1 must fire (this is what keeps audit honest).
    good = compile_schedule("barrier", "gather-broadcast", 4)
    ops = [list(good.ops(r)) for r in range(4)]
    ops[3] = [op for op in ops[3] if op.kind == "dma"]
    ops[0] = [
        op for op in ops[0]
        if not (op.kind in ("recv", "reduce") and op.peer == 3)
        and not (op.kind == "send" and op.peer == 3)
    ]
    broken = _schedule(
        "barrier", ops, algorithm="gather-broadcast"
    )
    findings = verify_schedule(broken)
    counts = [f for f in findings if "message-count conservation" in f.message]
    assert len(counts) == 1
    assert counts[0].code == "SL204"
    assert "5 sends" in counts[0].message and "is 6" in counts[0].message


def test_sl205_archive_depth_overflow():
    schedule = compile_schedule("barrier", "dissemination", 8)
    findings = check_archive_bound([schedule], archive_depth=2, max_in_flight=8)
    finding = _only(findings, "SL205")
    assert finding.path == "ir://engine/retirement-archive"
    assert "archive-depth overflow" in finding.message
    assert "7 can retire out of order" in finding.message
    assert "done_floor" in finding.message
    assert "coll_archive_depth to >= 7" in finding.fixit


def test_sl205_clean_at_default_depth():
    schedule = compile_schedule("barrier", "dissemination", 8)
    assert check_archive_bound([schedule]) == []


def test_sl206_unresolvable_nack_target():
    broken = _schedule("barrier", [
        [ScheduleOp("send", 0, peer=1, nbytes=0),
         ScheduleOp("recv", 0, peer=1, peer_phase=99),  # sender stamps 0
         ScheduleOp("dma", 1, nbytes=0)],
        [ScheduleOp("send", 0, peer=0, nbytes=0),
         ScheduleOp("recv", 0, peer=0, peer_phase=0),
         ScheduleOp("dma", 1, nbytes=0)],
    ])
    finding = _only(verify_schedule(broken), "SL206")
    assert finding.path == "ir://barrier/fixture/n2/p0/root0/rank0"
    assert finding.line == 2
    assert "unresolvable NACK target" in finding.message
    assert "sent_messages[99]" in finding.message
    assert "peer_phase=0" in finding.fixit


def test_sl207_silent_return_shim_is_caught(monkeypatch):
    # The PR 7 pre-fix bug: NACK budget exhausts and the handler just
    # returns — live sequence, dead timer, host waits forever.  The
    # engine dispatches through SEQUENCE_AUTOMATON, so shimming the
    # table reintroduces the bug *and* the model checker must catch it.
    monkeypatch.setitem(
        SEQUENCE_AUTOMATON, ("running", "timeout_exhausted"), "ignore"
    )
    schedule = compile_schedule("allreduce", "pairwise-exchange", 2, 4)
    findings, _states = model_check_schedule(schedule)
    finding = _only(findings, "SL207")
    assert finding.path == "ir://allreduce/pairwise-exchange/n2/p4/root0"
    assert "absorbing state" in finding.message
    assert "parked live with dead timers" in finding.message
    assert "budget exhausted -> 'ignore'" in finding.message  # the trace
    assert "never a silent return" in finding.fixit


def test_sl208_retired_reentry_shim_is_caught(monkeypatch):
    # The other PR 7 bug class: an arrival for a retired sequence must
    # be dropped as a duplicate, never re-enter the automaton.
    monkeypatch.setitem(SEQUENCE_AUTOMATON, ("retired", "arrival"), "restart")
    schedule = compile_schedule("allreduce", "pairwise-exchange", 2, 4)
    findings, _states = model_check_schedule(schedule)
    finding = _only(findings, "SL208")
    assert "terminal multiplicity" in finding.message
    assert "run (and complete) twice" in finding.message
    assert "'drop'" in finding.fixit


def test_sl208_automaton_hole():
    table = dict(SEQUENCE_AUTOMATON)
    del table[("running", "invalid")]
    schedule = compile_schedule("allreduce", "pairwise-exchange", 2, 4)
    findings, _ = model_check_schedule(schedule, table=table)
    holes = [f for f in findings if "automaton hole" in f.message]
    assert len(holes) == 1 and holes[0].code == "SL208"
    assert "('running', 'invalid')" in holes[0].message


# ----------------------------------------------------------------------
# The clean-grid proof and the driver
# ----------------------------------------------------------------------
def test_quick_grid_is_clean():
    report = run_ir_verify("quick")
    assert report.ok, [f.render() for f in report.findings]
    assert report.schedules_checked == len(ir_grid("quick"))
    assert report.model_points == len(MODEL_CHECK_POINTS)
    assert report.states_explored > 0
    assert "0 findings" in report.summary()


def test_grid_covers_non_pow2_and_roots():
    points = ir_grid("tuner")
    assert any(p.n == 6 for p in points), "non-pow2 N must be covered"
    assert any(p.collective == "reduce" and p.root != 0 for p in points)
    assert any(p.collective == "alltoall" for p in points)
    with pytest.raises(IrVerifyError):
        ir_grid("nope")


def test_bounds_refuse_vacuous_loss_budget():
    # loss_budget <= max_retries makes the SL207 hang state unreachable
    # (every NACK round re-injects a resend the adversary can't lose).
    with pytest.raises(IrVerifyError):
        ModelBounds(max_retries=2, loss_budget=2)


def test_every_ir_rule_is_registered():
    assert set(IR_RULES) == {f"SL20{i}" for i in range(1, 9)}


def test_run_lint_ir_exit_codes(tmp_path, monkeypatch):
    # End-to-end through the runner: clean tree + clean grid -> exit 0;
    # with the PR 7 shim reinstalled the same invocation must fail (1).
    from repro.tools.simlint import EXIT_CLEAN, EXIT_FINDINGS, run_lint

    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    lines = []
    code = run_lint(root=target, ir=True, ir_grid="quick", emit=lines.append)
    assert code == EXIT_CLEAN
    assert any("ir-verify[quick]" in line for line in lines)

    monkeypatch.setitem(
        SEQUENCE_AUTOMATON, ("running", "timeout_exhausted"), "ignore"
    )
    lines = []
    code = run_lint(root=target, ir=True, ir_grid="quick", emit=lines.append)
    assert code == EXIT_FINDINGS
    assert any("SL207" in line for line in lines)


def test_normalization_warnings_do_not_leak_from_verify():
    # run_ir_verify compiles non-pow2 reducing shapes (which normalize)
    # but must not spray the satellite's one-shot warning at lint users.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_ir_verify("quick")
    assert report.ok


# ----------------------------------------------------------------------
# Every NIC collective runs the table: shims reach the barrier and the
# broadcast, in the model and in the engine itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("collective, algorithm", [
    ("barrier", "dissemination"),
    ("barrier", "gather-broadcast"),
    ("bcast", "binomial"),
])
def test_sl207_silent_return_shim_is_caught_for_every_scheme(
    monkeypatch, collective, algorithm
):
    monkeypatch.setitem(
        SEQUENCE_AUTOMATON, ("running", "timeout_exhausted"), "ignore"
    )
    schedule = compile_schedule(collective, algorithm, 3)
    findings, _states = model_check_schedule(schedule)
    finding = _only(findings, "SL207")
    assert "parked live with dead timers" in finding.message


def _parked_after_dead_link(monkeypatch, engine_cls, step, dead):
    """Run one sequence over a dead link with the NACK budget's
    exhaustion shimmed to ``ignore``: the engine must park (host
    blocked, state live, no timer) instead of failing typed."""
    from dataclasses import replace

    from repro.collectives import BarrierFailure, ProcessGroup
    from repro.network import FaultInjector
    from tests.myrinet.conftest import TEST_GM, MyrinetTestCluster

    monkeypatch.setitem(
        SEQUENCE_AUTOMATON, ("running", "timeout_exhausted"), "ignore"
    )
    faults = FaultInjector()
    a, b = dead
    faults.drop_all_matching(lambda p: {p.src, p.dst} == {a, b})
    gm = replace(TEST_GM, nack_timeout_us=30.0, nack_max_rounds=3, max_retries=3)
    cluster = MyrinetTestCluster(n=4, gm=gm, faults=faults)
    group = ProcessGroup(list(range(4)))
    engines = [engine_cls(cluster.nics[n], group, n) for n in range(4)]
    failures = []

    def prog(node):
        try:
            yield from step(cluster.ports[node], group, node)
        except BarrierFailure as failure:
            failures.append(failure.reason)

    procs = [cluster.sim.process(prog(node)) for node in range(4)]
    cluster.sim.run()  # drains: a parked sequence holds no timer
    parked = [e.states[0] for e in engines if 0 in e.states]
    assert failures == []
    assert not all(p.completion.processed for p in procs)
    assert parked and all(s.nack_timer is None for s in parked)


def test_nic_collective_barrier_dispatches_budget_exhaustion(monkeypatch):
    from repro.collectives import NicCollectiveBarrierEngine, nic_barrier

    def step(port, group, node):
        yield from nic_barrier(port, group, 0)

    _parked_after_dead_link(
        monkeypatch, NicCollectiveBarrierEngine, step, dead=(2, 3)
    )


def test_broadcast_dispatches_budget_exhaustion(monkeypatch):
    from repro.collectives import (
        NicBroadcastEngine,
        nic_broadcast_recv,
        nic_broadcast_root,
    )

    def step(port, group, node):
        if node == 0:
            yield from nic_broadcast_root(port, group, 0, 64, "x")
        else:
            yield from nic_broadcast_recv(port, group, 0)

    _parked_after_dead_link(monkeypatch, NicBroadcastEngine, step, dead=(0, 1))
