"""Deadlock and leak detection at simulation quiescence.

When a barrier run drains the event heap, the model should be *quiescent
by construction*: every send packet released back to its pool, every
send record matched by an ACK (or abandoned with its resources freed),
every per-destination queue empty, every collective state retired, every
timer disarmed.  Anything still held is a leak that compounds across
iterations (the exact class of bug the GM pool or a NACK timer makes
easy to write), and any process still blocked on an event nobody can
fire is a deadlock.

:func:`check_quiescent` walks a cluster after ``sim.run()`` returned and
reports violations as SL102-SL105 and SL107 findings, plus a wait-for
graph of the still-blocked processes.  NIC service loops are
*expected* to park in their work queue's ``take`` (reported as
``<queue>.get``) forever — they appear in the graph but are only
findings when named in ``must_complete``.  A host process parked
in an express spin on a queue nothing posts to any more reports
``<queue>.post``: a poll loop whose completion never came, always a
finding.

Process enumeration needs ``sim.track_processes()`` called **before**
the model is built (weak registration happens in ``Process.__init__``);
without it the detector still performs every state check and only skips
the deadlock scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.tools.simlint.findings import Finding

#: Event-name suffix of a parked Store.take — the park position of a
#: service loop.
_BENIGN_PARK_SUFFIX = ".get"


@dataclass(frozen=True)
class WaitEdge:
    """One edge of the wait-for graph: a process blocked on an event."""

    process: str
    event: str
    benign: bool  # True for a service loop parked on its work queue

    def render(self) -> str:
        marker = "parked" if self.benign else "BLOCKED"
        return f"  {self.process} --waits-on--> {self.event}  [{marker}]"


@dataclass
class QuiescenceReport:
    """Findings plus the wait-for graph for one drained cluster."""

    findings: list[Finding] = field(default_factory=list)
    graph: list[WaitEdge] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        if self.graph:
            lines.append("wait-for graph:")
            lines.extend(edge.render() for edge in sorted(
                self.graph, key=lambda e: (e.benign, e.process)
            ))
        return "\n".join(lines) if lines else "quiescent: no leaks, no deadlocks"


def _where(cluster, unit: str) -> str:
    return f"{cluster.profile.name}/{unit}"


def _check_processes(
    cluster, must_complete: Iterable[str], report: QuiescenceReport
) -> None:
    sim = cluster.sim
    if sim._process_registry is None:
        return  # tracking was not enabled; state checks still run
    required = set(must_complete)
    for proc in sim.live_processes():
        event = proc.waiting_on
        event_name = event.name if event is not None else "<scheduled resume>"
        benign = (
            event is not None
            and event_name.endswith(_BENIGN_PARK_SUFFIX)
            and proc.name not in required
        )
        report.graph.append(WaitEdge(proc.name, event_name, benign))
        if benign:
            continue
        if event is None:
            # Alive with no wait and an empty heap: the resume was
            # cancelled from under it.
            detail = "alive but not scheduled and not waiting (lost resume)"
        elif event_name.endswith(".request"):
            detail = (
                f"blocked acquiring exhausted resource {event_name[:-8]!r} "
                "(units held and never released)"
            )
        elif event_name.endswith(".post"):
            detail = (
                f"spinning on queue {event_name[:-5]!r}, which nothing "
                "will post to (a poll loop whose completion never came)"
            )
        elif event_name.endswith(".completion"):
            detail = f"blocked joining {event_name[:-11]!r}, which never finished"
        else:
            detail = f"blocked on event {event_name!r} that can no longer fire"
        report.findings.append(Finding(
            "SL102", _where(cluster, proc.name), 0,
            f"process {proc.name!r} {detail}",
            fixit="every blocking wait needs a guaranteed producer; check the "
                  "wait-for graph for the cycle or the missing release",
        ))


def _check_held(
    cluster, unit: str, what: str, name: str, held: int, total: int, report
) -> None:
    if held:
        report.findings.append(Finding(
            "SL103", _where(cluster, unit), 0,
            f"{what}: {held}/{total} unit(s) of {name!r} still held at "
            "quiescence",
            fixit="pair every request() with a release(), and every buffer "
                  "taken from a free list with a post(), on all exits, "
                  "including failure paths",
        ))


def _check_resource(cluster, unit: str, resource, what: str, report) -> None:
    _check_held(
        cluster, unit, what, resource.name, resource.in_use,
        resource.capacity, report,
    )


def _check_store(cluster, unit: str, store, report) -> None:
    if len(store):
        report.findings.append(Finding(
            "SL104", _where(cluster, unit), 0,
            f"queue {store.name!r} still holds {len(store)} item(s) at "
            "quiescence",
            fixit="the consumer loop stopped before draining its queue, or "
                  "a producer enqueued work nobody services",
        ))


def _check_myrinet_nic(cluster, nic, report: QuiescenceReport) -> None:
    unit = nic.name
    pool, total = nic.packet_pool, nic.params.send_packet_count
    _check_held(
        cluster, unit, "send packet pool", pool.name, total - len(pool),
        total, report,
    )
    _check_resource(cluster, unit, nic.cpu, "LANai processor", report)
    for store in (
        nic.host_event_queue, nic.engine_cmd_queue, nic.rx_queue,
        nic.sched_work, nic.timeout_queue, nic.recv_event_queue,
    ):
        _check_store(cluster, unit, store, report)
    stuck = {dst: len(q) for dst, q in sorted(nic.send_queues.items()) if q}
    if stuck:
        report.findings.append(Finding(
            "SL104", _where(cluster, unit), 0,
            f"per-destination send queues still hold tokens: {stuck}",
            fixit="the send scheduler lost a wakeup (pending_dsts out of "
                  "sync with sched_work?)",
        ))
    if nic.pending_dsts or nic.rr_ring:
        report.findings.append(Finding(
            "SL104", _where(cluster, unit), 0,
            f"send scheduler state not drained: pending_dsts="
            f"{sorted(nic.pending_dsts)} rr_ring={list(nic.rr_ring)}",
            fixit="destinations must leave pending_dsts exactly when their "
                  "queue empties",
        ))
    if nic.send_records:
        keys = sorted(nic.send_records)
        armed = sum(
            1 for r in nic.send_records.values() if r.timer is not None
        )
        report.findings.append(Finding(
            "SL105", _where(cluster, unit), 0,
            f"{len(keys)} unmatched send record(s) at quiescence "
            f"(first: dst={keys[0][0]} seq={keys[0][1]}; {armed} with a "
            "timer still armed)",
            fixit="every send record must be retired by an ACK or by the "
                  "retry-exhaustion path (which must also free its packet)",
        ))
    for group_id, engine in sorted(nic.engines.items()):
        states = getattr(engine, "states", None)
        if not states:
            continue
        armed = sum(
            1 for s in states.values() if getattr(s, "nack_timer", None) is not None
        )
        report.findings.append(Finding(
            "SL105", _where(cluster, unit), 0,
            f"collective engine for group {group_id} retains "
            f"{len(states)} unretired state(s) (seqs {sorted(states)[:4]}"
            f"{'...' if len(states) > 4 else ''}; {armed} NACK timer(s) "
            "armed)",
            fixit="engine states must be deleted on completion and their "
                  "NACK timers cancelled",
        ))


def _check_quadrics_nic(cluster, nic, report: QuiescenceReport) -> None:
    unit = nic.name
    _check_resource(cluster, unit, nic.event_unit, "event unit", report)
    _check_resource(cluster, unit, nic.dma_engine, "DMA engine", report)
    _check_store(cluster, unit, nic.host_events, report)
    if nic._rx_busy or nic._rx_backlog:
        report.findings.append(Finding(
            "SL104", _where(cluster, unit), 0,
            f"receive state machine not idle: busy={nic._rx_busy} "
            f"backlog={len(nic._rx_backlog)}",
            fixit="_rx_next() must run after every packet, including the "
                  "event-unit-contended path",
        ))


def _check_faults(cluster, report: QuiescenceReport) -> None:
    """SL107: a drop plan that never fired tested nothing.

    A scenario that arms ``drop_nth_matching(..., occurrence=3)`` but
    whose flow only ever carries two matching packets silently degrades
    into a fault-free run — the campaign *believes* it exercised the
    recovery path.  Surfacing the unfired plan turns that silent
    no-op into a finding.
    """
    faults = getattr(cluster, "faults", None)
    if faults is None:
        return
    for plan in getattr(faults, "unfired_plans", lambda: ())():
        report.findings.append(Finding(
            "SL107", _where(cluster, "faults"), 0,
            f"drop plan {plan.describe()} armed but never fired "
            f"(saw {plan.seen} matching packet(s), needed "
            f"{plan.occurrence})",
            fixit="the targeted flow ended before the plan's occurrence; "
                  "lower the occurrence, widen the match, or extend the "
                  "scenario",
        ))


def _check_ports(cluster, report: QuiescenceReport) -> None:
    for port in getattr(cluster, "ports", ()):
        unit = f"port{port.node_id}"
        for attr, what in port.DEMUXES:
            pending = getattr(port, attr).pending
            if pending:
                report.findings.append(Finding(
                    "SL105", _where(cluster, unit), 0,
                    f"{len(pending)} {what} buffered at quiescence",
                    fixit="every message a node sends must have a matching "
                          "receive in the program",
                ))


def check_quiescent(
    cluster,
    must_complete: Iterable[str] = (),
) -> QuiescenceReport:
    """Audit a drained cluster for deadlocks (SL102), leaks
    (SL103-SL105) and unfired fault plans (SL107).

    ``must_complete`` names processes that may not still be alive even
    parked on a queue (e.g. ``bench@*`` workload drivers).
    """
    report = QuiescenceReport()
    _check_processes(cluster, must_complete, report)
    for nic in getattr(cluster, "nics", ()):
        if hasattr(nic, "packet_pool"):
            _check_myrinet_nic(cluster, nic, report)
        else:
            _check_quadrics_nic(cluster, nic, report)
    _check_ports(cluster, report)
    _check_faults(cluster, report)
    report.findings.sort(key=Finding.sort_key)
    return report
