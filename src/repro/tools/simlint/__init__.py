"""simlint: protocol-invariant static analysis + DES schedule-race
detection for the NIC-barrier simulator.

Two halves share one finding vocabulary (stable ``SLxxx`` codes):

- **static rules** (SL001-SL007) — AST analysis of the simulator
  sources: yield discipline, determinism (wall clock, unseeded RNG,
  ``id()``, unordered iteration), tracer guards, timing-constant
  hygiene;
- **runtime model checks** (SL101-SL105, SL107) — the tie-break
  perturbation runner (same-timestamp event-order permutation must
  leave results bit-identical) and the quiescence audit (deadlocks,
  packet-pool / queue / bookkeeping leaks, unfired fault plans,
  rendered as a wait-for graph);
- **schedule-IR verification** (SL201-SL208) — static proofs over every
  compiled ``CollectiveSchedule`` in the tuner grid (wire matching,
  deadlock-freedom, reduction completeness, byte conservation, archive
  bounds, NACK resolvability) plus a bounded model checker of the NIC
  sequence engine's automaton under message loss/duplication.

Entry point: ``python -m repro lint [--perturb] [--ir [--grid ...]]``.
"""

from repro.tools.simlint.findings import (
    ALL_RULES,
    Finding,
    IR_RULES,
    RUNTIME_RULES,
    STATIC_RULES,
)
from repro.tools.simlint.ir_verify import (
    ALGORITHMS,
    IrPoint,
    IrVerifyError,
    IrVerifyReport,
    ModelBounds,
    check_archive_bound,
    ir_grid,
    model_check_schedule,
    run_ir_verify,
    verify_schedule,
)
from repro.tools.simlint.perturb import (
    PerturbationReport,
    TieBreakSimulator,
    all_scheme_reports,
    compare_runs,
    diff_results,
    perturb_barrier_experiment,
)
from repro.tools.simlint.quiescence import (
    QuiescenceReport,
    WaitEdge,
    check_quiescent,
)
from repro.tools.simlint.runner import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    collect_static_findings,
    default_root,
    run_lint,
)
from repro.tools.simlint.static_rules import (
    analyze_file,
    analyze_source,
)

__all__ = [
    "ALGORITHMS",
    "ALL_RULES",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL",
    "Finding",
    "IR_RULES",
    "IrPoint",
    "IrVerifyError",
    "IrVerifyReport",
    "ModelBounds",
    "PerturbationReport",
    "QuiescenceReport",
    "RUNTIME_RULES",
    "STATIC_RULES",
    "TieBreakSimulator",
    "WaitEdge",
    "all_scheme_reports",
    "analyze_file",
    "analyze_source",
    "check_archive_bound",
    "check_quiescent",
    "collect_static_findings",
    "compare_runs",
    "default_root",
    "diff_results",
    "ir_grid",
    "model_check_schedule",
    "perturb_barrier_experiment",
    "run_ir_verify",
    "verify_schedule",
]
