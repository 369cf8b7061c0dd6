"""Inspection tools built on :class:`repro.sim.Tracer` records."""

from repro.tools.audit import (
    AUDITABLE_BARRIERS,
    CounterAudit,
    CounterCheck,
    aggregate_counters,
    audit_counters,
    expected_counters,
    run_counter_audit,
)
from repro.tools.flow import message_flow, wire_sequence_diagram
from repro.tools.simlint import (
    Finding,
    PerturbationReport,
    QuiescenceReport,
    TieBreakSimulator,
    check_quiescent,
    perturb_barrier_experiment,
    run_lint,
)
from repro.tools.timeline import (
    CriticalPath,
    PathStep,
    ascii_timeline,
    chrome_trace,
    component_of,
    critical_path,
    write_chrome_trace,
)

__all__ = [
    "AUDITABLE_BARRIERS",
    "CounterAudit",
    "CounterCheck",
    "CriticalPath",
    "Finding",
    "PathStep",
    "PerturbationReport",
    "QuiescenceReport",
    "TieBreakSimulator",
    "aggregate_counters",
    "ascii_timeline",
    "audit_counters",
    "check_quiescent",
    "chrome_trace",
    "component_of",
    "critical_path",
    "expected_counters",
    "message_flow",
    "perturb_barrier_experiment",
    "run_counter_audit",
    "run_lint",
    "wire_sequence_diagram",
    "write_chrome_trace",
]
