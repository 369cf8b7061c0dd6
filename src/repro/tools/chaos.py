"""Chaos campaign: fault scenarios x barrier schemes, with invariants.

The campaign runs every fault scenario against every applicable barrier
scheme and asserts, per run:

1. **no hangs** — every rank's program finishes; retry-exhaustion must
   escalate a typed :class:`~repro.collectives.BarrierFailure`, never
   block forever;
2. **exactly-once accounting** — each rank records exactly one outcome
   (completed or failed, with the failure reason) per barrier;
3. **expectation** — a ``recover`` scenario completes every barrier, a
   ``fail`` scenario surfaces at least one failure (and still finishes),
   a ``degrade`` scenario completes everything while its degradation
   counter (e.g. the Quadrics HW-barrier fallback) is non-zero;
4. **quiescence** — the simlint auditor finds no leaked packets,
   records, engine states, timers or blocked processes (SL102-SL107);
5. **counter consistency** — the wire's fault counters agree with the
   injector's, and delivered corruption is accounted for by receiver
   CRC drops;
6. **determinism** — the whole faulted run is bit-identical across
   tie-break permutations of the event schedule (SL101 for chaos).

Scenarios are declarative data (:class:`ChaosScenario`): probabilistic
fault rates, a link flap / dead link / NIC crash window, a host
slowdown, and per-protocol parameter overrides (e.g. a reduced retry
budget so a dead link exhausts it within the scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import HardwareProfile, get_profile, recovery_profile
from repro.cluster.runner import (
    MYRINET_BARRIERS,
    QUADRICS_BARRIERS,
    _barrier_step,
    _setup_scheme,
)
from repro.collectives import (
    BarrierFailure,
    NicAllreduceEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    ProcessGroup,
    Revoked,
    classify_reason,
    nic_allreduce,
    nic_broadcast_recv,
    nic_broadcast_root,
    nic_ibarrier,
)
from repro.collectives.membership import (
    enable_failure_detector,
    wait_for_conviction,
)
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.runcache import RunCache, run_request
from repro.tools.simlint.perturb import TieBreakSimulator
from repro.tools.simlint.quiescence import check_quiescent

_DEFAULT_PROFILE = {"myrinet": "lanai_xp_xeon2400", "quadrics": "elan3_piii700"}


@dataclass(frozen=True)
class ChaosScenario:
    """One declarative fault scenario.

    ``gm_overrides`` / ``elan_overrides`` are ``(field, value)`` pairs
    applied to the profile's params dataclass — scenarios that need a
    dead peer to exhaust its retry budget *within* the scenario shrink
    the budget here instead of waiting out the production one.
    """

    name: str
    network: str  # "myrinet" | "quadrics"
    description: str
    expect: str = "recover"  # "recover" | "fail" | "degrade"
    schemes: tuple[str, ...] = ()  # default: every scheme of the network
    #: Which collective the per-rank program loops on.  ``"barrier"``
    #: runs the scheme matrix; the data collectives and the
    #: non-blocking barrier always ride the collective-protocol engines
    #: (Myrinet only), so their scheme set collapses to one entry.
    collective: str = "barrier"  # "barrier"|"allreduce"|"bcast"|"ibarrier"
    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    delay_jitter_us: float = 0.0
    #: (node_a, node_b, start_us, until_us): black-hole the pair, heal.
    flap_window: Optional[tuple[int, int, float, float]] = None
    #: (node_a, node_b): permanent link death (never heals).
    dead_link: Optional[tuple[int, int]] = None
    #: (node, at_us, restart_delay_us): NIC crash + restart (Myrinet).
    crash: Optional[tuple[int, float, float]] = None
    #: (node, factor): scale every host software cost on one node.
    slowdown: Optional[tuple[int, float]] = None
    gm_overrides: tuple[tuple[str, float], ...] = ()
    elan_overrides: tuple[tuple[str, float], ...] = ()
    #: tracer counter that must be non-zero when ``expect="degrade"``.
    degrade_counter: str = ""
    #: pass ``fallback=False`` to ``elan_hgsync`` (hgsync scheme only).
    hw_fallback: bool = True

    def __post_init__(self) -> None:
        if self.network not in _DEFAULT_PROFILE:
            raise ValueError(f"unknown network {self.network!r}")
        if self.expect not in ("recover", "fail", "degrade"):
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.expect == "degrade" and not self.degrade_counter:
            raise ValueError("degrade scenarios need a degrade_counter")
        if self.collective not in ("barrier", "allreduce", "bcast", "ibarrier"):
            raise ValueError(f"unknown collective {self.collective!r}")
        if self.collective != "barrier" and self.network != "myrinet":
            raise ValueError(
                f"collective {self.collective!r} runs on the Myrinet "
                "collective-protocol engines only"
            )

    @property
    def applicable_schemes(self) -> tuple[str, ...]:
        if self.collective != "barrier":
            return ("nic-collective",)
        if self.schemes:
            return self.schemes
        return (
            MYRINET_BARRIERS if self.network == "myrinet" else QUADRICS_BARRIERS
        )


@dataclass
class ChaosRunResult:
    """One scenario x scheme run: outcomes, counters, and violations."""

    scenario: str
    barrier: str
    nodes: int
    iterations: int
    #: per-rank tuple of per-seq outcomes ("ok" or "fail:<reason>").
    outcomes: tuple[tuple[str, ...], ...] = ()
    #: sim time when the last rank finished each barrier seq.
    seq_end_us: tuple[float, ...] = ()
    end_us: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    quiescence: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.quiescence

    @property
    def failures(self) -> int:
        return sum(
            1 for rank in self.outcomes for o in rank if o.startswith("fail:")
        )

    def comparable(self) -> tuple:
        """The observables that must be bit-identical under tie-break
        perturbation of the event schedule."""
        return (
            self.outcomes,
            self.seq_end_us,
            self.end_us,
            tuple(sorted(self.counters.items())),
            repr(self.fault_stats),
        )

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"{self.scenario}/{self.barrier} N={self.nodes}: {verdict} "
            f"({self.failures} barrier failure(s), end={self.end_us:.0f}us)"
        )


def _apply_overrides(profile: HardwareProfile, scenario: ChaosScenario):
    if scenario.gm_overrides:
        profile = replace(profile, gm=replace(profile.gm, **dict(scenario.gm_overrides)))
    if scenario.elan_overrides:
        profile = replace(
            profile, elan=replace(profile.elan, **dict(scenario.elan_overrides))
        )
    return profile


def _arrange_faults(scenario: ChaosScenario, cluster, faults: FaultInjector) -> None:
    if scenario.flap_window is not None:
        a, b, start, until = scenario.flap_window
        faults.flap_link(a, b, start, until)
    if scenario.dead_link is not None:
        a, b = scenario.dead_link
        faults.drop_all_matching(
            lambda p: p.src in (a, b) and p.dst in (a, b),
            label=f"dead:{a}<->{b}",
        )
    if scenario.crash is not None:
        node, at_us, restart_delay = scenario.crash
        faults.crash_window(node, at_us, at_us + restart_delay)
        cluster.nics[node].schedule_crash(at_us, restart_delay)
    if scenario.slowdown is not None:
        node, factor = scenario.slowdown
        cluster.cpus[node].slowdown = factor


def _collective_step_factory(cluster, scenario: ChaosScenario, barrier, group,
                             drivers, hw):
    """Build the per-rank, per-seq step generator for the scenario's
    collective.  Data collectives verify the *value* they compute —
    a fault that double-applies a contribution shows up as a wrong
    reduction, not just a counter."""
    collective = scenario.collective
    if collective == "barrier":
        def step(rank: int, node: int, seq: int):
            yield from _barrier_step(
                cluster, barrier, group, drivers, hw, node, seq,
                hw_fallback=scenario.hw_fallback,
            )
            return "ok"
    elif collective == "allreduce":
        expected = sum(r + 1 for r in range(group.size))
        def step(rank: int, node: int, seq: int):
            result = yield from nic_allreduce(
                cluster.ports[node], group, seq, rank + 1, "sum"
            )
            return "ok" if result == expected else f"wrong:{result!r}"
    elif collective == "bcast":
        def step(rank: int, node: int, seq: int):
            if rank == 0:
                done = yield from nic_broadcast_root(
                    cluster.ports[node], group, seq, 64, payload=("blob", seq)
                )
            else:
                done = yield from nic_broadcast_recv(
                    cluster.ports[node], group, seq
                )
            payload = done.payload
            return "ok" if payload == ("blob", seq) else f"wrong:{payload!r}"
    else:  # ibarrier
        def step(rank: int, node: int, seq: int):
            request = yield from nic_ibarrier(cluster.ports[node], group, seq)
            # A few non-blocking polls first (the overlap pattern the
            # API exists for), then the blocking wait.
            for _ in range(3):
                if (yield from request.test()):
                    return "ok"
            yield from request.wait()
            return "ok"
    return step


def _decode_chaos_result(payload: dict) -> ChaosRunResult:
    return ChaosRunResult(
        scenario=payload["scenario"],
        barrier=payload["barrier"],
        nodes=payload["nodes"],
        iterations=payload["iterations"],
        outcomes=tuple(tuple(rank) for rank in payload["outcomes"]),
        seq_end_us=tuple(payload["seq_end_us"]),
        end_us=payload["end_us"],
        counters=payload["counters"],
        fault_stats=payload["fault_stats"],
        quiescence=tuple(payload["quiescence"]),
        violations=tuple(payload["violations"]),
    )


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


def run_chaos_scenario(
    scenario: ChaosScenario,
    barrier: str,
    nodes: int = 16,
    iterations: int = 4,
    seed: int = 0,
    sim: Optional[Simulator] = None,
    cache: Optional[RunCache] = None,
) -> ChaosRunResult:
    """Run one scenario under one barrier scheme and audit the run.

    Only stock-simulator runs consult ``cache`` — tie-break-perturbed
    replays (``sim=TieBreakSimulator(...)``) exist to *re-execute* the
    schedule, so they always run live.
    """
    if barrier not in scenario.applicable_schemes:
        raise ValueError(f"scenario {scenario.name!r} does not cover {barrier!r}")
    profile = _apply_overrides(
        get_profile(_DEFAULT_PROFILE[scenario.network]), scenario
    )
    request = None
    if cache is not None and sim is None:
        request = run_request(
            "chaos-run", scenario=scenario, params=profile, barrier=barrier,
            nodes=nodes, iterations=iterations, seed=seed,
        )
        payload = cache.get(request)
        if payload is not None:
            return _decode_chaos_result(payload)
    probabilistic = (
        scenario.drop_probability
        or scenario.corrupt_probability
        or scenario.duplicate_probability
        or scenario.delay_probability
    )
    rng = (
        DeterministicRng(seed, f"chaos/{scenario.name}") if probabilistic else None
    )
    faults = FaultInjector(
        rng=rng,
        drop_probability=scenario.drop_probability,
        corrupt_probability=scenario.corrupt_probability,
        duplicate_probability=scenario.duplicate_probability,
        delay_probability=scenario.delay_probability,
        delay_jitter_us=scenario.delay_jitter_us,
    )
    sim_obj = sim if sim is not None else Simulator()
    sim_obj.track_processes()
    cluster = build_cluster(profile, nodes, faults=faults, sim=sim_obj)
    _arrange_faults(scenario, cluster, faults)

    # Scenario node indices are literal, so the group is the identity
    # order — the paper's random node permutation would re-aim every
    # flap/crash/slowdown at a different node per seed.
    group = ProcessGroup(range(nodes))
    if scenario.collective == "barrier":
        drivers, hw = _setup_scheme(cluster, barrier, group)
    else:
        drivers = hw = None
        engine_cls = {
            "allreduce": NicAllreduceEngine,
            "bcast": NicBroadcastEngine,
            "ibarrier": NicCollectiveBarrierEngine,
        }[scenario.collective]
        for rank, node in enumerate(group.node_ids):
            engine_cls(cluster.nics[node], group, rank)
    step = _collective_step_factory(cluster, scenario, barrier, group, drivers, hw)

    outcomes: list[list[str]] = [[] for _ in range(nodes)]
    seq_pending = [nodes] * iterations
    seq_end = [0.0] * iterations

    def program(rank: int, node: int):
        for seq in range(iterations):
            try:
                verdict = yield from step(rank, node, seq)
            except BarrierFailure as failure:
                outcomes[rank].append(f"fail:{failure.reason}")
            else:
                outcomes[rank].append(verdict)
            seq_pending[seq] -= 1
            if seq_pending[seq] == 0:
                seq_end[seq] = cluster.sim.now

    procs = [
        cluster.sim.process(program(rank, node), name=f"chaos@{node}")
        for rank, node in enumerate(group.node_ids)
    ]
    cluster.sim.run()

    violations: list[str] = []
    for proc in procs:
        if not proc.completion.processed:
            violations.append(f"HANG: {proc.name} never finished its barriers")
    for rank, record in enumerate(outcomes):
        if len(record) != iterations:
            violations.append(
                f"rank {rank} recorded {len(record)}/{iterations} outcomes"
            )
    total_failures = sum(
        1 for record in outcomes for o in record if o.startswith("fail:")
    )
    total_oks = sum(1 for record in outcomes for o in record if o == "ok")
    wrong = [
        (rank, o)
        for rank, record in enumerate(outcomes)
        for o in record
        if o.startswith("wrong:")
    ]
    for rank, o in wrong:
        violations.append(f"rank {rank} computed an incorrect result: {o}")
    if total_oks + total_failures + len(wrong) != nodes * iterations:
        violations.append(
            f"outcome accounting broken: {total_oks} ok + {total_failures} "
            f"failed + {len(wrong)} wrong != {nodes * iterations}"
        )
    counters = dict(cluster.tracer.counters)
    if scenario.expect == "recover" and total_failures:
        violations.append(
            f"expected full recovery but {total_failures} barrier(s) failed"
        )
    elif scenario.expect == "fail" and not total_failures:
        violations.append("expected surfaced failures but every barrier passed")
    elif scenario.expect == "degrade":
        if total_failures:
            violations.append(
                f"expected graceful degradation but {total_failures} "
                "barrier(s) failed outright"
            )
        if not counters.get(scenario.degrade_counter, 0):
            violations.append(
                f"expected degradation counter {scenario.degrade_counter!r} "
                "to fire, but it is zero"
            )

    stats = faults.stats()
    violations.extend(audit_fault_counters(counters, stats))

    report = check_quiescent(cluster, must_complete=[p.name for p in procs])
    run_result = ChaosRunResult(
        scenario=scenario.name,
        barrier=barrier,
        nodes=nodes,
        iterations=iterations,
        outcomes=tuple(tuple(r) for r in outcomes),
        seq_end_us=tuple(seq_end),
        end_us=cluster.sim.now,
        counters=counters,
        fault_stats=stats,
        quiescence=tuple(f.render() for f in report.findings),
        violations=tuple(violations),
    )
    if request is not None:
        cache.put(request, run_result)
    return run_result


# ----------------------------------------------------------------------
# The scenario catalogue: one scenario per fault class, per network.
# ----------------------------------------------------------------------
MYRINET_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="drop",
        network="myrinet",
        description="2% probabilistic loss on every flow; ACK timeouts and "
                    "receiver-driven NACKs recover every message",
        drop_probability=0.02,
    ),
    ChaosScenario(
        name="corrupt",
        network="myrinet",
        description="2% of packets delivered mangled; the receiving NIC's "
                    "CRC discards them and the sender's timeout recovers",
        corrupt_probability=0.02,
    ),
    ChaosScenario(
        name="duplicate",
        network="myrinet",
        description="5% of packets delivered twice; sequence numbers and "
                    "bit vectors must suppress the copies",
        duplicate_probability=0.05,
    ),
    ChaosScenario(
        name="delay",
        network="myrinet",
        description="20% of packets held up to 5us at injection (switch "
                    "buffering jitter); pure timing fault",
        delay_probability=0.2,
        delay_jitter_us=5.0,
    ),
    ChaosScenario(
        name="flap",
        network="myrinet",
        description="the 0<->1 link black-holes for 100us early in the "
                    "run, then heals; backed-off retransmissions recover",
        flap_window=(0, 1, 20.0, 120.0),
    ),
    ChaosScenario(
        name="crash",
        network="myrinet",
        description="NIC 5 crashes mid-barrier, loses its SRAM state, and "
                    "restarts 100us later; in-flight barriers fail cleanly "
                    "and later barriers complete",
        expect="fail",
        schemes=("nic-direct", "nic-collective"),
        crash=(5, 30.0, 100.0),
        gm_overrides=(
            ("ack_timeout_us", 200.0),
            ("max_retries", 4),
            ("nack_timeout_us", 300.0),
            ("nack_max_rounds", 5),
        ),
    ),
    ChaosScenario(
        name="link-death",
        network="myrinet",
        description="the 2<->3 link dies permanently; the (shrunk) retry "
                    "budget exhausts and every rank surfaces a typed "
                    "BarrierFailure instead of hanging",
        expect="fail",
        schemes=("nic-direct", "nic-collective"),
        dead_link=(2, 3),
        gm_overrides=(
            ("ack_timeout_us", 200.0),
            ("max_retries", 3),
            ("nack_timeout_us", 300.0),
            ("nack_max_rounds", 4),
        ),
    ),
    ChaosScenario(
        name="slow-host",
        network="myrinet",
        description="node 3's host runs 3x slower (skewed arrival); "
                    "barriers stretch but complete",
        slowdown=(3, 3.0),
    ),
)

QUADRICS_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="delay",
        network="quadrics",
        description="20% of packets held up to 5us at injection; event "
                    "thresholds absorb the reordering",
        schemes=("gsync", "nic-chained"),
        delay_probability=0.2,
        delay_jitter_us=5.0,
    ),
    ChaosScenario(
        name="slow-host",
        network="quadrics",
        description="node 2's host runs 3x slower; hgsync pays extra probe "
                    "rounds but completes",
        slowdown=(2, 3.0),
    ),
    ChaosScenario(
        name="hw-degrade",
        network="quadrics",
        description="a 50x-slowed straggler exhausts the Elite probe "
                    "budget (2 rounds); hgsync falls back to the software "
                    "tree and still completes",
        expect="degrade",
        degrade_counter="elan.hw_fallback",
        schemes=("hgsync",),
        slowdown=(2, 50.0),
        elan_overrides=(("hw_max_rounds", 2),),
    ),
    ChaosScenario(
        name="hw-fail",
        network="quadrics",
        description="same straggler, but fallback disabled: the probe "
                    "budget exhaustion surfaces as BarrierFailure",
        expect="fail",
        schemes=("hgsync",),
        slowdown=(2, 50.0),
        elan_overrides=(("hw_max_rounds", 2),),
        hw_fallback=False,
    ),
)

#: Data collectives and the non-blocking barrier under the same fault
#: classes — the PR 7 engines (allreduce/bcast) and the request-handle
#: API were absent from the original catalogue.
DATA_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="allreduce-flap",
        network="myrinet",
        description="the 0<->1 link black-holes for 100us during an "
                    "allreduce campaign, then heals; NACK recovery "
                    "retransmits and the sums stay exact (a double-applied "
                    "contribution would inflate them)",
        collective="allreduce",
        flap_window=(0, 1, 20.0, 120.0),
    ),
    ChaosScenario(
        name="allreduce-link-death",
        network="myrinet",
        description="the 2<->3 link dies permanently mid-allreduce; the "
                    "shrunk NACK budget exhausts and every rank surfaces a "
                    "typed CollectiveFailure",
        expect="fail",
        collective="allreduce",
        dead_link=(2, 3),
        gm_overrides=(
            ("ack_timeout_us", 200.0),
            ("max_retries", 3),
            ("nack_timeout_us", 300.0),
            ("nack_max_rounds", 4),
        ),
    ),
    ChaosScenario(
        name="bcast-flap",
        network="myrinet",
        description="a link flap during a broadcast campaign; the tree "
                    "NACKs the lost hops and every rank still receives the "
                    "exact payload",
        collective="bcast",
        flap_window=(0, 1, 20.0, 120.0),
    ),
    ChaosScenario(
        name="bcast-link-death",
        network="myrinet",
        description="a permanently dead link under broadcast; the retry "
                    "budget exhausts into a typed failure instead of a hang",
        expect="fail",
        collective="bcast",
        # The broadcast tree is rooted at rank 0, so the 0<->1 edge is
        # always a tree hop (a generic leaf pair may not be).
        dead_link=(0, 1),
        gm_overrides=(
            ("ack_timeout_us", 200.0),
            ("max_retries", 3),
            ("nack_timeout_us", 300.0),
            ("nack_max_rounds", 4),
        ),
    ),
    ChaosScenario(
        name="ibarrier-flap",
        network="myrinet",
        description="non-blocking barriers (test/test/test/wait) across a "
                    "link flap; requests complete after NACK recovery",
        collective="ibarrier",
        flap_window=(0, 1, 20.0, 120.0),
    ),
    ChaosScenario(
        name="ibarrier-crash",
        network="myrinet",
        description="NIC 5 crashes while non-blocking barriers are in "
                    "flight; their requests resolve to typed failures, "
                    "never hang",
        expect="fail",
        collective="ibarrier",
        crash=(5, 30.0, 100.0),
        gm_overrides=(
            ("ack_timeout_us", 200.0),
            ("max_retries", 4),
            ("nack_timeout_us", 300.0),
            ("nack_max_rounds", 5),
        ),
    ),
)

ALL_SCENARIOS: tuple[ChaosScenario, ...] = (
    MYRINET_SCENARIOS + DATA_SCENARIOS + QUADRICS_SCENARIOS
)


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Every run of a chaos campaign plus the per-run determinism audit."""

    nodes: int
    iterations: int
    rounds: int
    results: list[ChaosRunResult] = field(default_factory=list)
    #: "scenario/scheme" -> round indices whose results diverged.
    diverged: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.diverged

    def render(self) -> str:
        lines = [
            f"chaos campaign: N={self.nodes}, {self.iterations} barriers/run, "
            f"{self.rounds} tie-break permutations/run"
        ]
        for result in self.results:
            key = f"{result.scenario}/{result.barrier}"
            marks = []
            if result.violations:
                marks.extend(result.violations)
            if result.quiescence:
                marks.append(f"{len(result.quiescence)} quiescence finding(s)")
            if key in self.diverged:
                marks.append(
                    f"DIVERGED in permutation rounds {list(self.diverged[key])}"
                )
            verdict = "ok" if not marks else "FAILED: " + "; ".join(marks)
            lines.append(
                f"  {key:<28} failures={result.failures:<3} "
                f"end={result.end_us:>10.1f}us  {verdict}"
            )
            for finding in result.quiescence:
                lines.append(f"    {finding}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def run_campaign(
    networks: tuple[str, ...] = ("myrinet", "quadrics"),
    nodes: int = 16,
    iterations: int = 4,
    rounds: int = 20,
    seed: int = 0,
    cache: Optional[RunCache] = None,
) -> CampaignReport:
    """The full chaos matrix: every scenario x scheme, with ``rounds``
    extra tie-break-perturbed replays that must be bit-identical.

    ``cache`` serves only the baselines; every permutation replay runs
    live (they are the determinism check) and is compared against the
    possibly-cached baseline observables.
    """
    report = CampaignReport(nodes=nodes, iterations=iterations, rounds=rounds)
    for scenario in ALL_SCENARIOS:
        if scenario.network not in networks:
            continue
        for barrier in scenario.applicable_schemes:
            baseline = run_chaos_scenario(
                scenario, barrier, nodes=nodes, iterations=iterations,
                seed=seed, cache=cache,
            )
            report.results.append(baseline)
            diverged = []
            for round_idx in range(rounds):
                rng = DeterministicRng(
                    seed, f"chaos/tiebreak/{scenario.name}/{barrier}/{round_idx}"
                )
                replay = run_chaos_scenario(
                    scenario, barrier, nodes=nodes, iterations=iterations,
                    seed=seed, sim=TieBreakSimulator(rng),
                )
                if replay.comparable() != baseline.comparable():
                    diverged.append(round_idx)
            if diverged:
                report.diverged[f"{scenario.name}/{barrier}"] = tuple(diverged)
    return report


# ----------------------------------------------------------------------
# Randomized chaos fuzzer: seeded fault schedules over collective mixes
# ----------------------------------------------------------------------
#: Operations each network's fuzzer may draw.  Myrinet exercises the
#: full collective-protocol engine family; Quadrics fuzzes the chained
#: -RDMA barrier (blocking and request-handle forms) — the paper's
#: Quadrics contribution.
_FUZZ_OPS = {
    "myrinet": ("barrier", "allreduce", "bcast", "ibarrier"),
    "quadrics": ("barrier", "ibarrier"),
}
_FUZZ_POLL_US = 5.0


@dataclass(frozen=True)
class FuzzPlan:
    """One seeded fuzz case: the whole fault schedule, derived from the
    seed *before* the simulation is built (scripts must not consult the
    clock, so every timestamp is decided up front).

    ``segments[k]`` is the op mix run on epoch ``k``; kill ``k`` fires
    during it and the controller opens segment ``k+1`` only after the
    victim is detected and the group repaired.  Non-final segments
    repeat their mix until the epoch turns over, so kills land inside
    live collectives, not in gaps between them.
    """

    network: str
    nodes: int
    seed: int
    segments: tuple[tuple[str, ...], ...]
    #: (victim node, kill time) per repair round, times increasing.  A
    #: kill whose time falls inside the previous round's recovery is a
    #: mid-recovery kill — the controller handles them sequentially.
    kills: tuple[tuple[int, float], ...]
    flaps: tuple[tuple[int, int, float, float], ...]
    corrupt_probability: float
    duplicate_probability: float
    delay_probability: float
    delay_jitter_us: float
    hb_period_us: float
    hb_timeout_us: float
    #: kill -> conviction by every survivor must fit in this window.
    detect_deadline_us: float
    horizon_us: float

    def describe(self) -> str:
        kills = ", ".join(f"n{v}@{t:.0f}us" for v, t in self.kills)
        mixes = "; ".join("+".join(seg) for seg in self.segments)
        return (
            f"fuzz[{self.network} seed={self.seed} N={self.nodes}] "
            f"kills=[{kills}] flaps={len(self.flaps)} "
            f"corrupt={self.corrupt_probability} "
            f"delay={self.delay_probability} segments=[{mixes}]"
        )


def make_fuzz_plan(network: str, seed: int, nodes: int = 16) -> FuzzPlan:
    """Derive a full fault schedule from ``(network, seed)``.

    Heartbeat drops can convict a live peer, so the windows are sized
    conservatively: flaps are shorter than half the suspicion timeout
    and probabilistic loss is expressed as corruption (CRC drop on
    receive) at a rate that makes a false conviction need three
    consecutive losses on one flow.  Every case is deterministic, so a
    seed either passes forever or fails forever — no flaky CI.
    """
    if network not in _FUZZ_OPS:
        raise ValueError(f"unknown network {network!r}")
    if nodes < 4:
        raise ValueError("fuzzing needs at least 4 nodes")
    rng = DeterministicRng(seed, f"chaos-fuzz/{network}")
    ops = _FUZZ_OPS[network]
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
    return FuzzPlan(
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
        hb_period_us=100.0,
        hb_timeout_us=450.0,
        detect_deadline_us=1500.0,
        horizon_us=round(at + 6000.0, 1),
    )


@dataclass
class FuzzResult:
    """One fuzz case: per-rank, per-epoch outcomes plus the audit."""

    plan: FuzzPlan
    #: outcomes[rank][epoch] -> tuple of "ok:<op>" / "revoked:<op>" /
    #: "fail:<op>:<reason>" / "wrong:<op>:<value>" / "abandoned" /
    #: "dead" entries, in program order.
    outcomes: tuple[tuple[tuple[str, ...], ...], ...] = ()
    detected_at: tuple[float, ...] = ()
    repaired_at: tuple[float, ...] = ()
    epochs: int = 0
    end_us: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    quiescence: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.quiescence

    def comparable(self) -> tuple:
        """Observables that must be bit-identical under tie-break
        permutation of the event schedule."""
        return (
            self.outcomes,
            self.detected_at,
            self.repaired_at,
            self.end_us,
            tuple(sorted(self.counters.items())),
            repr(self.fault_stats),
        )

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"{self.plan.describe()}: {verdict} "
            f"(epochs={self.epochs}, end={self.end_us:.0f}us)"
        )


def _fuzz_op(comm, op):
    """Run one op on a rank handle, verifying data results.

    Expected values are derived from node ids (``comm.rank`` is stale
    until the collective call itself resyncs the epoch) with no yield
    between derivation and call, so they always describe the epoch the
    op actually runs on.
    """
    ctx = comm._ctx
    if op == "barrier":
        yield from comm.barrier()
        return "ok:barrier"
    if op == "allreduce":
        expected = sum(n + 1 for n in ctx.nodes)
        result = yield from comm.allreduce(comm.node + 1, "sum")
        if result != expected:
            return f"wrong:allreduce:{result!r}"
        return "ok:allreduce"
    if op == "bcast":
        token = ("fz", ctx.epoch)
        value = token if comm.node == ctx.nodes[0] else None
        result = yield from comm.bcast(value=value, size_bytes=64)
        if result != token:
            return f"wrong:bcast:{result!r}"
        return "ok:bcast"
    # ibarrier: request-handle form, a few non-blocking polls.
    request = yield from comm.ibarrier()
    while not (yield from request.test()):
        pass
    return "ok:ibarrier"


def run_fuzz_case(
    plan: FuzzPlan, sim: Optional[Simulator] = None
) -> FuzzResult:
    """Execute one fuzz plan and audit the global invariant: every rank
    reaches completion, a typed failure, or survivor-epoch completion
    within the bounded horizon; detection meets its deadline; the
    post-repair epoch completes its tail with correct data; the cluster
    quiesces clean.
    """
    from repro.mpi import create_communicators, repair_communicators

    profile = recovery_profile(get_profile(_DEFAULT_PROFILE[plan.network]))
    rng = DeterministicRng(plan.seed, f"chaos-fuzz/run/{plan.network}")
    probabilistic = (
        plan.corrupt_probability
        or plan.duplicate_probability
        or plan.delay_probability
    )
    faults = FaultInjector(
        rng=rng.substream("wire") if probabilistic else None,
        corrupt_probability=plan.corrupt_probability,
        duplicate_probability=plan.duplicate_probability,
        delay_probability=plan.delay_probability,
        delay_jitter_us=plan.delay_jitter_us,
    )
    sim_obj = sim if sim is not None else Simulator()
    sim_obj.track_processes()
    cluster = build_cluster(profile, plan.nodes, faults=faults, sim=sim_obj)
    for a, b, start, until in plan.flaps:
        faults.flap_link(a, b, start, until)
    for victim, at_us in plan.kills:
        faults.kill_node(victim, at_us=at_us)
    hb_rng = rng.substream("hb")
    for node in range(plan.nodes):
        enable_failure_detector(
            cluster.nics[node], range(plan.nodes), rng=hb_rng,
            period_us=plan.hb_period_us, timeout_us=plan.hb_timeout_us,
            horizon_us=plan.horizon_us,
        )

    comms = create_communicators(cluster)
    n_segments = len(plan.segments)
    state = {"phase": 0}
    outcomes = [
        [[] for _ in range(n_segments)] for _ in range(plan.nodes)
    ]
    detected_at: list[float] = []
    repaired_at: list[float] = []
    violations: list[str] = []

    def killer(victim: int, at_us: float):
        yield at_us
        cluster.nics[victim].crashed = True

    def controller():
        for k, (victim, at_us) in enumerate(plan.kills):
            convicted = yield from wait_for_conviction(
                cluster, victim, at_us, _FUZZ_POLL_US,
                within_us=plan.detect_deadline_us,
            )
            if not convicted:
                violations.append(
                    f"kill {k}: victim n{victim} not convicted by every "
                    f"survivor within {plan.detect_deadline_us:.0f}us"
                )
            detected_at.append(round(sim_obj.now, 3))
            # Repair and open the next phase with no yield in between:
            # a survivor must never start an op on the new epoch before
            # the gate moves, or its sequence numbering would split.
            try:
                repair_communicators(comms, [victim])
            except Exception as exc:  # noqa: BLE001 - audited, not raised
                violations.append(f"kill {k}: repair failed: {exc!r}")
                state["phase"] = n_segments
                return
            state["phase"] = k + 1
            repaired_at.append(round(sim_obj.now, 3))

    def program(node: int):
        for phase_idx, segment in enumerate(plan.segments):
            while state["phase"] < phase_idx:
                yield _FUZZ_POLL_US
            record = outcomes[node][phase_idx]
            if cluster.nics[node].crashed:
                record.append("dead")
                return
            final = phase_idx == n_segments - 1
            while True:
                abandoned = False
                for op in segment:
                    if state["phase"] > phase_idx:
                        record.append("abandoned")
                        abandoned = True
                        break
                    if cluster.nics[node].crashed:
                        record.append("dead")
                        return
                    try:
                        verdict = yield from _fuzz_op(comms[node], op)
                        record.append(verdict)
                    except Revoked:
                        record.append(f"revoked:{op}")
                    except BarrierFailure as failure:
                        record.append(f"fail:{op}:{failure.reason}")
                if final or abandoned or state["phase"] > phase_idx:
                    break

    procs = [
        sim_obj.process(program(node), name=f"fuzz@{node}")
        for node in range(plan.nodes)
    ]
    for victim, at_us in plan.kills:
        procs.append(
            sim_obj.process(killer(victim, at_us), name=f"killer@{victim}")
        )
    procs.append(sim_obj.process(controller(), name="fuzz-controller"))
    sim_obj.run()

    for proc in procs:
        if not proc.completion.processed:
            violations.append(f"HANG: {proc.name} never finished")
    dead_nodes = {victim for victim, _ in plan.kills}
    for node in range(plan.nodes):
        flat = [o for phase in outcomes[node] for o in phase]
        for o in flat:
            if o.startswith("wrong:"):
                violations.append(f"rank n{node} computed a wrong result: {o}")
            elif o.startswith("fail:"):
                reason = o.split(":", 2)[2]
                try:
                    classify_reason(reason)
                except ValueError:
                    violations.append(
                        f"rank n{node} surfaced an untyped failure reason: {o}"
                    )
        if node in dead_nodes:
            if not flat or flat[-1] != "dead":
                violations.append(
                    f"killed rank n{node} never observed its own death: "
                    f"{flat[-3:]}"
                )
            continue
        tail = outcomes[node][-1]
        expected_tail = len(plan.segments[-1])
        oks = [o for o in tail if o.startswith("ok:")]
        if len(oks) != expected_tail or len(tail) != expected_tail:
            violations.append(
                f"survivor n{node} did not complete the survivor epoch "
                f"cleanly: {tuple(tail)}"
            )
    epochs = len(repaired_at)
    if epochs != len(plan.kills) and not any(
        "repair failed" in v for v in violations
    ):
        violations.append(
            f"{len(plan.kills)} kill(s) but {epochs} completed repair(s)"
        )

    counters = dict(cluster.tracer.counters)
    stats = faults.stats()
    violations.extend(audit_fault_counters(counters, stats))

    report = check_quiescent(cluster, must_complete=[p.name for p in procs])
    return FuzzResult(
        plan=plan,
        outcomes=tuple(
            tuple(tuple(phase) for phase in rank) for rank in outcomes
        ),
        detected_at=tuple(detected_at),
        repaired_at=tuple(repaired_at),
        epochs=epochs,
        end_us=cluster.sim.now,
        counters=counters,
        fault_stats=stats,
        quiescence=tuple(f.render() for f in report.findings),
        violations=tuple(violations),
    )


@dataclass
class FuzzReport:
    """A block of fuzz cases plus the per-case determinism audit."""

    nodes: int
    rounds: int
    results: list[FuzzResult] = field(default_factory=list)
    #: "network/seed" -> permutation rounds whose observables diverged.
    diverged: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.diverged

    def render(self) -> str:
        lines = [
            f"chaos fuzz: N={self.nodes}, {len(self.results)} case(s), "
            f"{self.rounds} tie-break permutation(s)/case"
        ]
        for result in self.results:
            key = f"{result.plan.network}/seed{result.plan.seed}"
            marks = list(result.violations)
            if result.quiescence:
                marks.append(f"{len(result.quiescence)} quiescence finding(s)")
            if key in self.diverged:
                marks.append(
                    f"DIVERGED in permutation rounds {list(self.diverged[key])}"
                )
            verdict = "ok" if not marks else "FAILED: " + "; ".join(marks)
            lines.append(
                f"  {key:<20} kills={len(result.plan.kills)} "
                f"epochs={result.epochs} end={result.end_us:>9.1f}us  {verdict}"
            )
            for finding in result.quiescence:
                lines.append(f"    {finding}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def run_fuzz_block(
    networks: tuple[str, ...] = ("myrinet", "quadrics"),
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    nodes: int = 16,
    rounds: int = 1,
) -> FuzzReport:
    """Run a block of seeded fuzz cases, each replayed under ``rounds``
    tie-break permutations that must reproduce the baseline observables
    bit-identically (the SL101 discipline, applied to full
    kill → detect → shrink → resume campaigns)."""
    report = FuzzReport(nodes=nodes, rounds=rounds)
    for network in networks:
        for seed in seeds:
            plan = make_fuzz_plan(network, seed, nodes=nodes)
            baseline = run_fuzz_case(plan)
            report.results.append(baseline)
            diverged = []
            for round_idx in range(rounds):
                rng = DeterministicRng(
                    seed, f"chaos-fuzz/tiebreak/{network}/{round_idx}"
                )
                replay = run_fuzz_case(plan, sim=TieBreakSimulator(rng))
                if replay.comparable() != baseline.comparable():
                    diverged.append(round_idx)
            if diverged:
                report.diverged[f"{network}/seed{seed}"] = tuple(diverged)
    return report
