"""Finding objects and the SL0xx/SL1xx rule registry.

Every rule — static (AST) or runtime (perturbation / quiescence) — has a
stable ``SLxxx`` code so findings can be suppressed, documented and
tested individually.  Static findings carry a ``file:line`` location and
a fix-it; runtime findings locate by subsystem (NIC name, process name)
instead of source line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    code: str
    path: str
    line: int  # 0 for runtime findings (no source location)
    message: str
    fixit: str = ""

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        text = f"{loc}: {self.code} {self.message}"
        if self.fixit:
            text += f"\n    fix: {self.fixit}"
        return text

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.code, self.message)


#: Static rules (AST analysis over src/repro).
STATIC_RULES: dict[str, str] = {
    "SL001": "sim-process yield discipline: generators driven by the kernel may "
             "only yield delays (numbers), SimEvents, or Processes",
    "SL002": "determinism: wall-clock reads (time.time & friends) are banned in "
             "simulation code",
    "SL003": "determinism: unseeded RNG draws are banned in simulation code; use "
             "DeterministicRng substreams",
    "SL004": "determinism: id() is allocation-order dependent and must not feed "
             "simulation logic",
    "SL005": "determinism: iteration over unordered collections on "
             "scheduling-adjacent paths",
    "SL006": "tracer guard: add_span must sit behind the zero-cost "
             "`tracer.enabled` guard",
    "SL007": "timing-constant hygiene: latency/size literals belong in params / "
             "profile modules, not inline in protocol code",
}

#: Runtime rules (perturbation runner + quiescence detector).
RUNTIME_RULES: dict[str, str] = {
    "SL101": "schedule race: observable results differ under same-timestamp "
             "event-order perturbation",
    "SL102": "deadlock: process still blocked on an unfirable event at "
             "simulation end",
    "SL103": "leak: resource units (send packets, functional units) still held "
             "at simulation end",
    "SL104": "leak: non-empty queue at simulation end",
    "SL105": "leak: unmatched bookkeeping (send records / collective state / "
             "armed timers) at simulation end",
    "SL107": "fault plan armed but never fired: the scenario ended before the "
             "targeted flow reached the plan's occurrence",
}

#: Schedule-IR rules (static proofs over compiled CollectiveSchedules
#: plus the bounded model check of the sequence automaton); findings
#: locate by ``ir://collective/algorithm/nN/pP/rootR[/rankK]`` locus
#: with the 1-based op index in the line slot.
IR_RULES: dict[str, str] = {
    "SL201": "wire matching: every send pairs with exactly one recv on the "
             "peer — no orphans, duplicates, self-messages or out-of-range "
             "peers",
    "SL202": "deadlock-freedom: the cross-rank happens-before DAG (program "
             "order + send->recv edges) must be acyclic; the minimal wait "
             "cycle is reported on failure",
    "SL203": "reduction completeness: contributor bitsets must cover the "
             "full rank set where the collective delivers, with no "
             "overlapping (double-counting) merge",
    "SL204": "byte conservation: wire/DMA sizes must equal the "
             "_wire_nbytes/_result_nbytes pins and the send count must "
             "match the closed-form message count",
    "SL205": "retirement-archive bound: max in-flight sequences must not "
             "out-run coll_archive_depth (the out-of-order-completion "
             "duplicate-drop class)",
    "SL206": "NACK resolvability: every recv's peer_phase must name a send "
             "the peer actually stamps (the sent_messages lookup key)",
    "SL207": "sequence liveness: every automaton path must terminate in "
             "exactly one of _complete/_fail — no silent-return absorbing "
             "states",
    "SL208": "terminal integrity: retired sequences must drop duplicate "
             "arrivals, never re-enter; the transition table must cover "
             "every (state, event) the lifecycle can see",
}

ALL_RULES: dict[str, str] = {**STATIC_RULES, **RUNTIME_RULES, **IR_RULES}
