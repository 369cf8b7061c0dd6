"""Chaos runs: fault plans against the collectives, with invariants.

One frozen :class:`ChaosPlan` describes a whole faulted run: the wire
faults (probabilistic loss / corruption / duplication / delay, link
flaps, a dead link, a NIC crash and restart, node kills), a host
slowdown, per-protocol parameter overrides, the op mix per epoch and
what the run must show.  Plans come from two places:

- the **catalogue** (:data:`CATALOGUE`, :func:`catalogue`): 18 pinned
  scenarios, one per fault class and network, each run against every
  barrier scheme it names (35 runs);
- the **fuzzer** (:func:`make_fuzz_plan`): seeded kill / flap /
  corrupt / jitter schedules over random collective mixes, with
  detection and epoch repair between segments.

Both run through one audited runner, :func:`run_plan`, which asserts
per run:

1. **no hangs** — every process finishes; retry exhaustion escalates a
   typed :class:`~repro.collectives.BarrierFailure`, never blocks;
2. **exact results** — data collectives verify the value they compute;
   every failure reason is registry-classifiable;
3. **accounting** — every surviving rank records one outcome per op of
   the final segment; a killed rank observes its own death;
4. **expectation** — ``recover``: every survivor completes the final
   segment; ``fail``: at least one op surfaces a typed failure;
   ``degrade``: nothing fails and the degradation counter fires; a
   flap, crash or kill that opens after the last op ended tested
   nothing and is reported as vacuous;
5. **counter consistency** — the wire's fault counters agree with the
   injector's (:func:`audit_fault_counters`);
6. **quiescence** — the simlint auditor finds no leaked packets,
   records, engine states, timers or blocked processes (SL102-SL107).

:func:`run_block` adds determinism: each plan is one call to the
tie-break replay loop (:func:`~repro.tools.simlint.perturb.compare_runs`)
and must reproduce its baseline observables bit-identically (SL101 for
chaos).

Ops come from the one op table in :mod:`repro.cluster.runner`.  A plan
that names a barrier ``scheme`` drives that scheme's step
(:func:`~repro.cluster.runner.scheme_step`; one rank per node, identity
group: scenario node indices are literal, so a random permutation would
re-aim every fault per seed).  A plan without one drives the MPI-style
communicator through :func:`~repro.cluster.runner.comm_op`, which is
what survives kills through revoke → shrink → resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import DEFAULT_PROFILE, RECOVERY_GM, get_profile
from repro.cluster.runner import (
    MYRINET_BARRIERS,
    QUADRICS_BARRIERS,
    SCHEME_OPS,
    LastRankOut,
    comm_op,
    scheme_step,
)
from repro.collectives import (
    BarrierFailure,
    ProcessGroup,
    Revoked,
    classify_reason,
)
from repro.collectives.membership import enable_failure_detector, launch_kills
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.runcache import RunCache, cached_call
from repro.tools.simlint.perturb import compare_runs
from repro.tools.simlint.quiescence import check_quiescent

_SCHEMES = {"myrinet": MYRINET_BARRIERS, "quadrics": QUADRICS_BARRIERS}
#: Ops a plan may run per network.  Myrinet exercises the full
#: collective-protocol engine family; Quadrics the chained-RDMA barrier
#: in blocking and request-handle form — the paper's Quadrics
#: contribution.
_OPS = {
    "myrinet": ("barrier", "allreduce", "bcast", "ibarrier"),
    "quadrics": ("barrier", "ibarrier"),
}
_POLL_US = 5.0


@dataclass(frozen=True)
class ChaosPlan:
    """One faulted run, decided in full before the simulation is built
    (scripts must not consult the clock, so every timestamp is data).

    ``segments[k]`` is the op mix run on epoch ``k``; kill ``k`` fires
    during it and the controller opens segment ``k+1`` only after the
    victim is convicted and the group repaired.  Non-final segments
    repeat their mix until the epoch turns over, so kills land inside
    live collectives, not in gaps between them.

    ``gm_overrides`` / ``elan_overrides`` are ``(field, value)`` pairs
    applied to the profile's params dataclass — a plan that needs a
    dead peer to exhaust its retry budget *within* the run shrinks the
    budget here instead of waiting out the production one.
    """

    network: str  # "myrinet" | "quadrics"
    nodes: int = 16
    seed: int = 0
    #: catalogue scenario name; drawn fuzz plans are unnamed.
    name: str = ""
    description: str = ""
    expect: str = "recover"  # "recover" | "fail" | "degrade"
    #: barrier scheme whose engines the ops drive; "" = the communicator.
    scheme: str = ""
    segments: tuple[tuple[str, ...], ...] = (("barrier",),)
    #: (victim node, kill time) per repair round, times increasing.  A
    #: kill whose time falls inside the previous round's recovery is a
    #: mid-recovery kill — the controller handles them sequentially.
    kills: tuple[tuple[int, float], ...] = ()
    #: (node_a, node_b, start_us, until_us): black-hole the pair, heal.
    flaps: tuple[tuple[int, int, float, float], ...] = ()
    #: (node_a, node_b): permanent link death (never heals).
    dead_link: Optional[tuple[int, int]] = None
    #: (node, at_us, restart_delay_us): NIC crash + restart (Myrinet).
    crash: Optional[tuple[int, float, float]] = None
    #: (node, factor): scale every host software cost on one node.
    slowdown: Optional[tuple[int, float]] = None
    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    delay_jitter_us: float = 0.0
    gm_overrides: tuple[tuple[str, float], ...] = ()
    elan_overrides: tuple[tuple[str, float], ...] = ()
    #: tracer counter that must be non-zero when ``expect="degrade"``.
    degrade_counter: str = ""
    #: pass ``fallback=False`` to ``elan_hgsync`` (hgsync scheme only).
    hw_fallback: bool = True
    hb_period_us: float = 100.0
    hb_timeout_us: float = 450.0
    #: kill -> conviction by every survivor must fit in this window.
    detect_deadline_us: float = 1500.0
    horizon_us: float = 0.0

    def __post_init__(self) -> None:
        if self.network not in DEFAULT_PROFILE:
            raise ValueError(f"unknown network {self.network!r}")
        if self.expect not in ("recover", "fail", "degrade"):
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.expect == "degrade" and not self.degrade_counter:
            raise ValueError("degrade plans need a degrade_counter")
        ops = {op for segment in self.segments for op in segment}
        unknown = ops - set(_OPS[self.network])
        if unknown:
            raise ValueError(
                f"{self.network} plans cannot run {sorted(unknown)}; "
                f"use {_OPS[self.network]}"
            )
        if len(self.segments) != len(self.kills) + 1:
            raise ValueError("a plan needs one segment per kill, plus one")
        if self.nodes < self.min_nodes:
            raise ValueError(
                f"plan {self.key} names node {self.min_nodes - 1}, so it "
                f"needs at least {self.min_nodes} nodes, got {self.nodes}"
            )
        max_nodes = get_profile(DEFAULT_PROFILE[self.network]).max_nodes
        if self.nodes > max_nodes:
            raise ValueError(
                f"{self.network} plans run on at most {max_nodes} nodes, "
                f"got {self.nodes}"
            )
        if self.scheme:
            if self.scheme not in _SCHEMES[self.network]:
                raise ValueError(
                    f"{self.scheme!r} is not a {self.network} barrier scheme"
                )
            if self.kills:
                raise ValueError("only communicator plans can repair kills")
            if len(ops) != 1:
                raise ValueError("a scheme-driven plan runs one op kind")
            if (self.scheme, *ops) not in SCHEME_OPS:
                raise ValueError(f"scheme {self.scheme!r} cannot run {sorted(ops)}")

    @property
    def min_nodes(self) -> int:
        """One past the highest node the plan's faults name."""
        named = [victim for victim, _ in self.kills]
        named += [node for a, b, _, _ in self.flaps for node in (a, b)]
        named += self.dead_link or ()
        for fault in (self.crash, self.slowdown):
            if fault is not None:
                named.append(fault[0])
        return max(named, default=-1) + 1

    @property
    def key(self) -> str:
        """The plan's name in reports and tie-break stream labels."""
        if self.name:
            return f"{self.name}/{self.scheme}"
        return f"{self.network}/seed{self.seed}"


@dataclass
class ChaosResult:
    """One run: per-rank, per-segment outcomes plus the audit."""

    plan: ChaosPlan
    #: outcomes[rank][segment] -> tuple of "ok:<op>" / "revoked:<op>" /
    #: "fail:<op>:<reason>" / "wrong:<op>:<value>" / "abandoned" /
    #: "dead" entries, in program order.
    outcomes: tuple[tuple[tuple[str, ...], ...], ...] = ()
    #: sim time when the last rank finished each op of the final segment.
    seq_end_us: tuple[float, ...] = ()
    detected_at: tuple[float, ...] = ()
    repaired_at: tuple[float, ...] = ()
    end_us: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    quiescence: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.quiescence

    @property
    def epochs(self) -> int:
        return len(self.repaired_at)

    @property
    def failures(self) -> int:
        return sum(
            o.startswith("fail:")
            for rank in self.outcomes for segment in rank for o in segment
        )

    def comparable(self) -> tuple:
        """The observables that must be bit-identical under tie-break
        perturbation of the event schedule."""
        return (
            self.outcomes,
            self.seq_end_us,
            self.detected_at,
            self.repaired_at,
            self.end_us,
            tuple(sorted(self.counters.items())),
            repr(self.fault_stats),
        )

    def row(self, verdict: str) -> str:
        """This run's line in a :class:`ChaosReport`."""
        if self.plan.kills:
            return (
                f"  {self.plan.key:<20} kills={len(self.plan.kills)} "
                f"epochs={self.epochs} end={self.end_us:>9.1f}us  {verdict}"
            )
        return (
            f"  {self.plan.key:<28} failures={self.failures:<3} "
            f"end={self.end_us:>10.1f}us  {verdict}"
        )


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _decode_result(plan: ChaosPlan, payload: dict) -> ChaosResult:
    """A cached payload back as a result: JSON lists become the tuples a
    live run produces; ``fault_stats`` keeps its lists, as live."""
    return ChaosResult(plan=plan, **{
        name: payload[name] if name == "fault_stats" else _tuples(payload[name])
        for name in ChaosResult.__dataclass_fields__ if name != "plan"
    })


def audit_fault_counters(counters: dict, stats: dict) -> list[str]:
    """Counter consistency: the wire's fault counters must agree with
    the injector's, and every delivered corruption must be accounted
    for by a receiver CRC drop (a corrupted packet that was also
    duplicated may be dropped twice).  Returns the violations.
    """
    violations = []
    for cls in ("dropped", "corrupted", "duplicated", "delayed"):
        wire = counters.get(f"wire.{cls}", 0)
        if wire != stats[cls]:
            violations.append(
                f"wire.{cls}={wire} disagrees with injector {cls}={stats[cls]}"
            )
    if stats["corrupted"]:
        crc_drops = counters.get("gm.rx_crc_drop", 0) + counters.get(
            "elan.rx_crc_drop", 0
        )
        ceiling = stats["corrupted"] + stats["duplicated"]
        if not stats["corrupted"] <= crc_drops <= ceiling:
            violations.append(
                f"CRC accounting broken: {crc_drops} receiver drops for "
                f"{stats['corrupted']} corrupted (+{stats['duplicated']} "
                "duplicated) packets"
            )
    return violations


def _profile(plan: ChaosPlan):
    profile = get_profile(DEFAULT_PROFILE[plan.network])
    if plan.gm_overrides:
        profile = replace(profile, gm=replace(profile.gm, **dict(plan.gm_overrides)))
    if plan.elan_overrides:
        profile = replace(
            profile, elan=replace(profile.elan, **dict(plan.elan_overrides))
        )
    return profile


def _arrange_faults(plan: ChaosPlan, cluster, faults: FaultInjector) -> None:
    for a, b, start, until in plan.flaps:
        faults.flap_link(a, b, start, until)
    if plan.dead_link is not None:
        faults.kill_link(*plan.dead_link)
    if plan.crash is not None:
        node, at_us, restart_delay = plan.crash
        faults.crash_window(node, at_us, at_us + restart_delay)
        cluster.nics[node].schedule_crash(at_us, restart_delay)
    if plan.slowdown is not None:
        node, factor = plan.slowdown
        cluster.cpus[node].slowdown = factor


def _scheduled_faults(plan: ChaosPlan):
    """``(label, opens_at_us)`` of every fault that opens mid-run."""
    for a, b, start, _until in plan.flaps:
        yield f"flap n{a}<->n{b}", start
    if plan.crash is not None:
        yield f"crash n{plan.crash[0]}", plan.crash[1]
    for victim, at_us in plan.kills:
        yield f"kill n{victim}", at_us


def run_plan(
    plan: ChaosPlan,
    sim: Optional[Simulator] = None,
    cache: Optional[RunCache] = None,
) -> ChaosResult:
    """Execute one plan and audit it (see the module docstring).

    Only stock-simulator runs (``sim=None``) consult ``cache`` — the
    tie-break-perturbed replays :func:`run_block` asks for exist to
    *re-execute* the schedule, so they always run live.
    """
    run = partial(_execute, plan, _profile(plan), sim)
    if sim is not None:
        return run()
    return cached_call(cache, run, decode=partial(_decode_result, plan))


#: The name the benchmark harness imports and profiles.
run_fuzz_case = run_plan


def _execute(plan: ChaosPlan, profile, sim: Optional[Simulator]) -> ChaosResult:
    from repro.mpi import create_communicators, repair_communicators

    # Catalogue plans keep the stream names they were pinned with.
    wire_stream = (
        f"chaos/{plan.name}" if plan.name
        else f"chaos-fuzz/run/{plan.network}/wire"
    )
    probabilistic = (
        plan.drop_probability
        or plan.corrupt_probability
        or plan.duplicate_probability
        or plan.delay_probability
    )
    faults = FaultInjector(
        rng=DeterministicRng(plan.seed, wire_stream) if probabilistic else None,
        drop_probability=plan.drop_probability,
        corrupt_probability=plan.corrupt_probability,
        duplicate_probability=plan.duplicate_probability,
        delay_probability=plan.delay_probability,
        delay_jitter_us=plan.delay_jitter_us,
    )
    sim_obj = sim if sim is not None else Simulator()
    sim_obj.track_processes()
    cluster = build_cluster(profile, plan.nodes, faults=faults, sim=sim_obj)
    _arrange_faults(plan, cluster, faults)
    if plan.kills:
        hb_rng = DeterministicRng(plan.seed, f"chaos-fuzz/run/{plan.network}/hb")
        for node in range(plan.nodes):
            enable_failure_detector(
                cluster.nics[node], range(plan.nodes), rng=hb_rng,
                period_us=plan.hb_period_us, timeout_us=plan.hb_timeout_us,
                horizon_us=plan.horizon_us,
            )

    if plan.scheme:
        scheme = scheme_step(
            cluster, plan.scheme, ProcessGroup(range(plan.nodes)),
            plan.segments[0][0], hw_fallback=plan.hw_fallback,
        )

        def step(node: int, seq: int, op: str):
            return scheme(node, seq)
    else:
        comms = create_communicators(cluster)

        def step(node: int, seq: int, op: str):
            return comm_op(comms[node], op, 64, "fz")

    segments = plan.segments
    final = len(segments) - 1
    victims = {victim for victim, _ in plan.kills}
    phase = [0]
    outcomes = [[[] for _ in segments] for _ in range(plan.nodes)]
    tracker = LastRankOut(sim_obj, plan.nodes, len(segments[-1]))
    detected_at: list[float] = []
    repaired_at: list[float] = []
    violations: list[str] = []

    def program(node: int):
        nic = cluster.nics[node]
        seq = 0
        for phase_idx, segment in enumerate(segments):
            while phase[0] < phase_idx:
                yield _POLL_US
            record = outcomes[node][phase_idx]
            if node in victims and nic.crashed:
                record.append("dead")
                tracker.rank_dead(0)
                return
            while True:
                for i, op in enumerate(segment):
                    if phase[0] > phase_idx:
                        record.append("abandoned")
                        break
                    if node in victims and nic.crashed:
                        record.append("dead")
                        tracker.rank_dead(i if phase_idx == final else 0)
                        return
                    try:
                        verdict = yield from step(node, seq, op)
                    except Revoked:
                        verdict = f"revoked:{op}"
                    except BarrierFailure as failure:
                        verdict = f"fail:{op}:{failure.reason}"
                    record.append(verdict)
                    seq += 1
                    if phase_idx == final:
                        tracker.rank_done(i)
                if phase_idx == final or phase[0] > phase_idx:
                    break

    def repair(k: int, victim: int, convicted: bool) -> bool:
        if not convicted:
            violations.append(
                f"kill {k}: victim n{victim} not convicted by every "
                f"survivor within {plan.detect_deadline_us:.0f}us"
            )
        detected_at.append(round(sim_obj.now, 3))
        try:
            repair_communicators(comms, [victim])
        except Exception as exc:  # noqa: BLE001 - audited, not raised
            violations.append(f"kill {k}: repair failed: {exc!r}")
            phase[0] = len(segments)
            return False
        phase[0] = k + 1
        repaired_at.append(round(sim_obj.now, 3))
        return True

    procs = [
        sim_obj.process(program(node), name=f"chaos@{node}")
        for node in range(plan.nodes)
    ]
    if plan.kills:
        procs += launch_kills(
            cluster, plan.kills, repair, _POLL_US,
            within_us=plan.detect_deadline_us,
        )
    sim_obj.run()

    for proc in procs:
        if not proc.completion.processed:
            violations.append(f"HANG: {proc.name} never finished")
    for node in range(plan.nodes):
        flat = [o for segment in outcomes[node] for o in segment]
        for o in flat:
            if o.startswith("wrong:"):
                violations.append(f"rank n{node} computed a wrong result: {o}")
            elif o.startswith("fail:"):
                try:
                    classify_reason(o.split(":", 2)[2])
                except ValueError:
                    violations.append(
                        f"rank n{node} surfaced an untyped failure reason: {o}"
                    )
        if node in victims:
            if not flat or flat[-1] != "dead":
                violations.append(
                    f"killed rank n{node} never observed its own death: "
                    f"{flat[-3:]}"
                )
            continue
        tail = outcomes[node][-1]
        if len(tail) != len(segments[-1]):
            violations.append(
                f"rank n{node} recorded {len(tail)}/{len(segments[-1])} "
                "outcomes in the final segment"
            )
        elif plan.expect == "recover" and any(
            not o.startswith("ok:") for o in tail
        ):
            violations.append(
                f"survivor n{node} did not complete the final segment "
                f"cleanly: {tuple(tail)}"
            )
    if len(repaired_at) != len(plan.kills) and not any(
        "repair failed" in v for v in violations
    ):
        violations.append(
            f"{len(plan.kills)} kill(s) but {len(repaired_at)} completed "
            "repair(s)"
        )
    result = ChaosResult(
        plan=plan,
        outcomes=_tuples(outcomes),
        seq_end_us=tuple(tracker.end),
        detected_at=tuple(detected_at),
        repaired_at=tuple(repaired_at),
        end_us=cluster.sim.now,
        counters=dict(cluster.tracer.counters),
        fault_stats=faults.stats(),
    )
    if plan.expect == "fail" and not result.failures:
        violations.append("expected surfaced failures but every barrier passed")
    elif plan.expect == "degrade":
        if result.failures:
            violations.append(
                f"expected graceful degradation but {result.failures} "
                "barrier(s) failed outright"
            )
        if not result.counters.get(plan.degrade_counter, 0):
            violations.append(
                f"expected degradation counter {plan.degrade_counter!r} "
                "to fire, but it is zero"
            )
    last_op_end = max(tracker.end)
    for label, opens_at in _scheduled_faults(plan):
        if opens_at > last_op_end:
            violations.append(
                f"vacuous: {label} at {opens_at:.1f}us after the last op "
                f"ended at {last_op_end:.1f}us"
            )
    violations.extend(audit_fault_counters(result.counters, result.fault_stats))
    report = check_quiescent(cluster, must_complete=[p.name for p in procs])
    result.quiescence = tuple(f.render() for f in report.findings)
    result.violations = tuple(violations)
    return result


@dataclass
class ChaosReport:
    """A block of runs plus the per-run determinism audit."""

    header: str
    results: list[ChaosResult] = field(default_factory=list)
    #: plan key -> permutation rounds whose observables diverged.
    diverged: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.diverged

    def render(self) -> str:
        lines = [self.header]
        for result in self.results:
            marks = list(result.violations)
            if result.quiescence:
                marks.append(f"{len(result.quiescence)} quiescence finding(s)")
            if result.plan.key in self.diverged:
                marks.append(
                    "DIVERGED in permutation rounds "
                    f"{list(self.diverged[result.plan.key])}"
                )
            lines.append(result.row(
                "ok" if not marks else "FAILED: " + "; ".join(marks)
            ))
            for finding in result.quiescence:
                lines.append(f"    {finding}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def run_block(
    plans, rounds: int, header: str, cache: Optional[RunCache] = None
) -> ChaosReport:
    """Run every plan through the tie-break replay loop
    (:func:`~repro.tools.simlint.perturb.compare_runs`): ``rounds``
    permutations must reproduce its baseline's ``comparable()``
    bit-identically (the SL101 discipline, applied to whole faulted
    campaigns).

    ``cache`` serves only the baselines; every permutation replay runs
    live (they are the determinism check).
    """
    report = ChaosReport(header)
    for plan in plans:
        replay = compare_runs(
            partial(run_plan, plan, cache=cache), rounds, plan.seed,
            f"chaos/tiebreak/{plan.key}", plan.key,
        )
        report.results.append(replay.baseline)
        if replay.diverged_rounds:
            report.diverged[plan.key] = replay.diverged_rounds
    return report


# ----------------------------------------------------------------------
# The scenario catalogue: one scenario per fault class, per network,
# each paired with the barrier schemes it runs against.
# ----------------------------------------------------------------------
#: Crash scenarios give the restarting NIC one more retry and NACK round
#: than a dead link gets (:data:`RECOVERY_GM`).
_CRASH_GM = (
    ("ack_timeout_us", 200.0),
    ("max_retries", 4),
    ("nack_timeout_us", 300.0),
    ("nack_max_rounds", 5),
)
_FLAP = ((0, 1, 20.0, 120.0),)
_ENGINE = ("nic-collective",)

CATALOGUE: tuple[tuple[ChaosPlan, tuple[str, ...]], ...] = (
    (ChaosPlan("myrinet", name="drop", drop_probability=0.02, description=(
        "2% probabilistic loss on every flow; ACK timeouts and "
        "receiver-driven NACKs recover every message")), MYRINET_BARRIERS),
    (ChaosPlan("myrinet", name="corrupt", corrupt_probability=0.02, description=(
        "2% of packets delivered mangled; the receiving NIC's CRC discards "
        "them and the sender's timeout recovers")), MYRINET_BARRIERS),
    (ChaosPlan("myrinet", name="duplicate", duplicate_probability=0.05, description=(
        "5% of packets delivered twice; sequence numbers and bit vectors "
        "must suppress the copies")), MYRINET_BARRIERS),
    (ChaosPlan(
        "myrinet", name="delay", delay_probability=0.2, delay_jitter_us=5.0,
        description="20% of packets held up to 5us at injection (switch "
                    "buffering jitter); pure timing fault"), MYRINET_BARRIERS),
    (ChaosPlan("myrinet", name="flap", flaps=_FLAP, description=(
        "the 0<->1 link black-holes for 100us early in the run, then heals; "
        "backed-off retransmissions recover")), MYRINET_BARRIERS),
    (ChaosPlan(
        "myrinet", name="crash", expect="fail", crash=(5, 30.0, 100.0),
        gm_overrides=_CRASH_GM,
        description="NIC 5 crashes mid-barrier, loses its SRAM state, and "
                    "restarts 100us later; in-flight barriers fail cleanly "
                    "and later barriers complete"), ("nic-direct", "nic-collective")),
    (ChaosPlan(
        "myrinet", name="link-death", expect="fail", dead_link=(2, 3),
        gm_overrides=RECOVERY_GM,
        description="the 2<->3 link dies permanently; the (shrunk) retry "
                    "budget exhausts and every rank surfaces a typed "
                    "BarrierFailure instead of hanging"), ("nic-direct", "nic-collective")),
    (ChaosPlan("myrinet", name="slow-host", slowdown=(3, 3.0), description=(
        "node 3's host runs 3x slower (skewed arrival); barriers stretch "
        "but complete")), MYRINET_BARRIERS),
    # Data collectives and the non-blocking barrier under the same fault
    # classes, on the collective-protocol engines.
    (ChaosPlan(
        "myrinet", name="allreduce-flap", segments=(("allreduce",),), flaps=_FLAP,
        description="the 0<->1 link black-holes for 100us during an allreduce "
                    "campaign, then heals; NACK recovery retransmits and the "
                    "sums stay exact (a double-applied contribution would "
                    "inflate them)"), _ENGINE),
    (ChaosPlan(
        "myrinet", name="allreduce-link-death", segments=(("allreduce",),),
        expect="fail", dead_link=(2, 3), gm_overrides=RECOVERY_GM,
        description="the 2<->3 link dies permanently mid-allreduce; the shrunk "
                    "NACK budget exhausts and every rank surfaces a typed "
                    "CollectiveFailure"), _ENGINE),
    (ChaosPlan(
        "myrinet", name="bcast-flap", segments=(("bcast",),), flaps=_FLAP,
        description="a link flap during a broadcast campaign; the tree NACKs "
                    "the lost hops and every rank still receives the exact "
                    "payload"), _ENGINE),
    (ChaosPlan(
        "myrinet", name="bcast-link-death", segments=(("bcast",),),
        expect="fail", dead_link=(0, 1), gm_overrides=RECOVERY_GM,
        description="a permanently dead link under broadcast; the retry budget "
                    "exhausts into a typed failure instead of a hang.  The "
                    "tree is rooted at rank 0, so the 0<->1 edge is always a "
                    "tree hop"), _ENGINE),
    (ChaosPlan(
        "myrinet", name="ibarrier-flap", segments=(("ibarrier",),), flaps=_FLAP,
        description="non-blocking barriers (test/test/test/wait) across a link "
                    "flap; requests complete after NACK recovery"), _ENGINE),
    (ChaosPlan(
        "myrinet", name="ibarrier-crash", segments=(("ibarrier",),),
        expect="fail", crash=(5, 30.0, 100.0), gm_overrides=_CRASH_GM,
        description="NIC 5 crashes while non-blocking barriers are in flight; "
                    "their requests resolve to typed failures, never hang"),
     _ENGINE),
    (ChaosPlan(
        "quadrics", name="delay", delay_probability=0.2, delay_jitter_us=5.0,
        description="20% of packets held up to 5us at injection; event "
                    "thresholds absorb the reordering"), ("gsync", "nic-chained")),
    (ChaosPlan("quadrics", name="slow-host", slowdown=(2, 3.0), description=(
        "node 2's host runs 3x slower; hgsync pays extra probe rounds but "
        "completes")), QUADRICS_BARRIERS),
    (ChaosPlan(
        "quadrics", name="hw-degrade", expect="degrade",
        degrade_counter="elan.hw_fallback", slowdown=(2, 50.0),
        elan_overrides=(("hw_max_rounds", 2),),
        description="a 50x-slowed straggler exhausts the Elite probe budget (2 "
                    "rounds); hgsync falls back to the software tree and still "
                    "completes"), ("hgsync",)),
    (ChaosPlan(
        "quadrics", name="hw-fail", expect="fail", slowdown=(2, 50.0),
        elan_overrides=(("hw_max_rounds", 2),), hw_fallback=False,
        description="same straggler, but fallback disabled: the probe budget "
                    "exhaustion surfaces as BarrierFailure"), ("hgsync",)),
)


def catalogue_plan(
    name: str,
    scheme: str,
    network: str = "myrinet",
    nodes: int = 16,
    iterations: int = 4,
    seed: int = 0,
) -> ChaosPlan:
    """One catalogue scenario pinned to a scheme, size and seed: its op
    repeated ``iterations`` times in a single segment."""
    for template, schemes in CATALOGUE:
        if template.name == name and template.network == network:
            if scheme not in schemes:
                raise ValueError(f"scenario {name!r} does not cover {scheme!r}")
            return replace(
                template, scheme=scheme, nodes=nodes, seed=seed,
                segments=(template.segments[0] * iterations,),
            )
    raise ValueError(f"no {network} scenario named {name!r}")


def catalogue(
    networks: tuple[str, ...] = ("myrinet", "quadrics"),
    nodes: int = 16,
    iterations: int = 4,
    seed: int = 0,
) -> list[ChaosPlan]:
    """Every scenario x scheme of the catalogue, in catalogue order."""
    templates = [t for t, _ in CATALOGUE if t.network in networks]
    needed = max((t.min_nodes for t in templates), default=0)
    if nodes < needed:
        raise ValueError(
            f"the catalogue names node {needed - 1}, so it needs at least "
            f"{needed} nodes, got {nodes}"
        )
    return [
        catalogue_plan(template.name, scheme, template.network, nodes,
                       iterations, seed)
        for template, schemes in CATALOGUE
        if template.network in networks
        for scheme in schemes
    ]


# ----------------------------------------------------------------------
# Randomized plans: seeded fault schedules over collective mixes
# ----------------------------------------------------------------------
def make_fuzz_plan(network: str, seed: int, nodes: int = 16) -> ChaosPlan:
    """Derive a full fault schedule from ``(network, seed)``.

    Heartbeat drops can convict a live peer, so the windows are sized
    conservatively: flaps are shorter than half the suspicion timeout
    and probabilistic loss is expressed as corruption (CRC drop on
    receive) at a rate that makes a false conviction need three
    consecutive losses on one flow.  Every case is deterministic, so a
    seed either passes forever or fails forever — no flaky CI.
    """
    if network not in _OPS:
        raise ValueError(f"unknown network {network!r}")
    if nodes < 4:
        raise ValueError("fuzzing needs at least 4 nodes")
    rng = DeterministicRng(seed, f"chaos-fuzz/{network}")
    ops = _OPS[network]
    n_kills = rng.randint(1, 2)
    pool = list(range(nodes))
    kills = []
    at = 0.0
    for k in range(n_kills):
        victim = pool.pop(rng.randint(0, len(pool) - 1))
        at += rng.uniform(120.0, 600.0)
        kills.append((victim, round(at, 1)))
    segments = []
    for k in range(n_kills + 1):
        segment = tuple(rng.choice(ops) for _ in range(rng.randint(2, 3)))
        if k == n_kills:
            # The acceptance tail: after the last repair the survivor
            # epoch must run the core collectives to completion with
            # correct results.
            tail = ("barrier", "allreduce") if network == "myrinet" else (
                "barrier", "ibarrier")
            segment = segment + tail
        segments.append(segment)
    flaps = []
    for _ in range(rng.randint(0, 2)):
        a = rng.randint(0, nodes - 1)
        b = (a + rng.randint(1, nodes - 1)) % nodes
        start = rng.uniform(30.0, max(60.0, at))
        flaps.append((min(a, b), max(a, b), round(start, 1),
                      round(start + rng.uniform(40.0, 120.0), 1)))
    corrupt = rng.choice((0.0, 0.01)) if network == "myrinet" else 0.0
    duplicate = rng.choice((0.0, 0.02)) if network == "myrinet" else 0.0
    delay = rng.choice((0.0, 0.1))
    return ChaosPlan(
        network=network,
        nodes=nodes,
        seed=seed,
        segments=tuple(segments),
        kills=tuple(kills),
        flaps=tuple(flaps),
        corrupt_probability=corrupt,
        duplicate_probability=duplicate,
        delay_probability=delay,
        delay_jitter_us=3.0 if delay else 0.0,
        # Dying-epoch ops must resolve within the recovery window.
        gm_overrides=RECOVERY_GM if network == "myrinet" else (),
        horizon_us=round(at + 6000.0, 1),
    )
