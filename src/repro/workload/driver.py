"""The workload driver: overlapping jobs + cross-traffic on one fabric.

One :func:`run_workload` call builds a cluster, gives every job of the
trace its own communicator (many concurrent process groups on the
shared NICs), launches the cross-traffic injector, runs everything to
quiescence, and rolls per-job iteration latencies into tail metrics
(p50/p99/p999, slowdown vs. a silent-machine baseline, Jain fairness).
Every op runs through :func:`~repro.cluster.runner.comm_op`, the op
function the chaos runner uses too; a wrong data result is a violation.

Determinism: every stochastic input — the trace, the per-iteration
collective choices, the cross-traffic schedule — is pre-drawn at setup
from seeded substreams; nothing draws randomness in simulation event
order.  The whole result dict is the SL101 observable: it must be
bit-identical under tie-break permutation
(:func:`verify_workload_determinism` is one call to the replay loop,
:func:`~repro.tools.simlint.perturb.compare_runs`, which replays only
the contended run: the silent baselines run once per check) and on warm
cache re-runs.

Chaos composition: a :class:`KillSpec` kills one node mid-workload.
Jobs whose allocation contains the victim are revoked, repaired onto
the survivor epoch (ULFM-style, same machinery as ``repro chaos``) and
prove the repaired epoch with a tail of barriers; jobs that do not
contain the victim run to completion untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import DEFAULT_PROFILE, get_profile, recovery_profile
from repro.cluster.runner import LastRankOut, comm_op
from repro.collectives import BarrierFailure
from repro.collectives.membership import enable_failure_detector, launch_kills
from repro.mpi import create_communicators, repair_communicators
from repro.network.faults import FaultInjector
from repro.sim import DeterministicRng, Simulator
from repro.tools.runcache import cached_call, jsonable, resolve_cache
from repro.workload.crosstraffic import (
    CrossTrafficInjector,
    CrossTrafficSpec,
    build_schedule,
)
from repro.workload.metrics import (
    JobMetrics,
    attach_baseline,
    jain_fairness,
    summarize_job,
)
from repro.workload.trace import JobSpec, validate_trace

_POLL_US = 25.0


@dataclass(frozen=True)
class KillSpec:
    """One mid-workload node kill (chaos composition)."""

    node: int
    at_us: float
    tail_iterations: int = 5
    detect_deadline_us: float = 5000.0
    hb_period_us: float = 200.0
    hb_timeout_us: float = 600.0
    horizon_us: float = 30000.0

    def to_json(self) -> dict:
        return jsonable(self)


def _draw_ops(job: JobSpec, seed: int) -> tuple[str, ...]:
    """The job's per-iteration collective sequence, pre-drawn from the
    job's own substream — identical in silent and contended runs, and
    independent of every other job."""
    rng = DeterministicRng(seed, f"workload/ops/{job.name}")
    names = [op for op, _w in job.mix]
    weights = [w for _op, w in job.mix]
    total = sum(weights)
    ops = []
    for _ in range(job.total_iterations):
        r = rng.uniform(0.0, float(total))
        acc = 0.0
        chosen = names[-1]
        for name, weight in zip(names, weights):
            acc += weight
            if r < acc:
                chosen = name
                break
        ops.append(chosen)
    return tuple(ops)


class _JobRun:
    """Everything one job needs at run time."""

    def __init__(self, cluster, network: str, job: JobSpec, ops, affected: bool):
        self.cluster = cluster
        self.network = network
        self.job = job
        self.ops = ops
        self.affected = affected  # contains the kill victim
        self.tracker = LastRankOut(
            cluster.sim, len(job.nodes), job.total_iterations,
            anchor_us=job.arrival_us,
        )
        self.gate = {"repaired": False}
        self.violations: list[str] = []
        self.status = "completed"
        self.comms = create_communicators(cluster, nodes=list(job.nodes))
        self.ctx = self.comms[0]._ctx
        if network == "myrinet" and "bcast" in ops:
            # Pre-warm the root-0 broadcast context so group creation
            # order is a setup-time property, never a race between
            # jobs' first bcast calls.
            self.ctx.bcast_group(0)

    def audit_specs(self) -> list[tuple]:
        """(group, collective, count[, payload]) specs for the per-group
        flow audit — exact only for a clean (fault-free) run."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op] = counts.get(op, 0) + 1
        specs = []
        if self.network == "myrinet":
            for op, count in sorted(counts.items()):
                if op == "bcast":
                    specs.append(
                        (self.ctx.bcast_group(0), "bcast", count,
                         max(4, self.job.payload_bytes))
                    )
                else:
                    payload = (
                        0 if op == "barrier" else self.job.payload_bytes
                    )
                    specs.append((self.ctx.groups[op], op, count, payload))
        else:
            # Quadrics bcast is the hardware broadcast (replicated in
            # the switches, not per-flow accounted); audit the chained
            # barrier's RDMA flow only.
            if counts.get("barrier"):
                specs.append(
                    (self.ctx.barrier_group, "barrier", counts["barrier"])
                )
        return specs

    def program(self, rank: int):
        job = self.job
        if job.arrival_us > 0:
            yield job.arrival_us
        node = job.nodes[rank]
        size_bytes = max(4, job.payload_bytes)
        abandoned_at: Optional[int] = None
        for it, op in enumerate(self.ops):
            if self.gate["repaired"]:
                abandoned_at = it
                break
            if self.cluster.nics[node].crashed:
                self.tracker.rank_dead(it)
                self.status = "repaired"
                return
            try:
                verdict = yield from comm_op(
                    self.comms[rank], op, size_bytes, job.name
                )
            except BarrierFailure:  # Revoked and CollectiveFailure too
                abandoned_at = it
                break
            if verdict.startswith("wrong:"):
                self.violations.append(f"{job.name} rank {rank}: {verdict}")
            self.tracker.rank_done(it)
        if abandoned_at is None:
            return
        # Revoked mid-workload: wait for the repaired epoch, then prove
        # it with a tail of barriers on the survivor group.
        self.tracker.rank_dead(abandoned_at)
        self.status = "repaired"
        while not self.gate["repaired"]:
            yield _POLL_US
        if self.cluster.nics[node].crashed:
            return
        kill = self.gate.get("kill")
        tail = kill.tail_iterations if kill is not None else 0
        for _ in range(tail):
            yield from self.comms[rank].barrier()


def _launch_chaos(cluster, runs, kill: KillSpec, rng):
    """Failure detectors plus the shared kill → convict → repair
    controller; repair re-epochs every job containing the victim."""
    n = cluster.n
    hb_rng = rng.substream("hb")
    for node in range(n):
        enable_failure_detector(
            cluster.nics[node],
            range(n),
            rng=hb_rng,
            period_us=kill.hb_period_us,
            timeout_us=kill.hb_timeout_us,
            horizon_us=kill.horizon_us,
        )
    affected = [run for run in runs if run.affected]

    def repair(_k: int, victim: int, convicted: bool) -> bool:
        if not convicted:
            for run in affected:
                run.violations.append(
                    f"victim n{victim} not convicted within "
                    f"{kill.detect_deadline_us:.0f}us"
                )
            return False
        # Every affected job's gate opens in this one event.
        for run in affected:
            try:
                repair_communicators(run.comms, [victim])
            except Exception as exc:  # noqa: BLE001 - audited, not raised
                run.violations.append(f"repair failed: {exc!r}")
            run.gate["kill"] = kill
            run.gate["repaired"] = True
        return True

    return launch_kills(
        cluster, ((kill.node, kill.at_us),), repair, _POLL_US,
        within_us=kill.detect_deadline_us,
    )


def _execute(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int,
    xtraffic_schedule,
    xtraffic_bytes: int,
    kill: Optional[KillSpec],
    sim: Optional[Simulator],
    profile: Optional[str] = None,
):
    """Build one cluster, run the jobs (+ cross-traffic, + chaos), and
    return ``(job runs, diagnostics dict)``."""
    resolved = get_profile(profile or DEFAULT_PROFILE[network])
    faults = None
    if kill is not None:
        resolved = recovery_profile(resolved)
        faults = FaultInjector()
    sim_obj = sim if sim is not None else Simulator()
    sim_obj.track_processes()
    cluster = build_cluster(resolved, cluster_nodes, faults=faults, sim=sim_obj)

    runs = [
        _JobRun(
            cluster,
            network,
            job,
            _draw_ops(job, seed),
            affected=kill is not None and kill.node in job.nodes,
        )
        for job in jobs
    ]

    injector = None
    procs = []
    if xtraffic_schedule:
        injector = CrossTrafficInjector(
            cluster, xtraffic_schedule, xtraffic_bytes
        )
        procs.append(injector.launch())
    for run in runs:
        for rank in range(len(run.job.nodes)):
            procs.append(
                cluster.sim.process(
                    run.program(rank), name=f"{run.job.name}@r{rank}"
                )
            )
    chaos_rng = DeterministicRng(seed, f"workload/chaos/{network}")
    if kill is not None:
        procs.extend(_launch_chaos(cluster, runs, kill, chaos_rng))

    sim_obj.run()

    hung = [p.name for p in procs if not p.completion.processed]
    diagnostics = {
        "profile": resolved.name,
        "cluster": cluster,
        "procs": procs,
        "hung": hung,
        "injector": injector,
        "sim_end_us": cluster.sim.now,
    }
    return runs, diagnostics


def _silent_baselines(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int,
    profile: Optional[str] = None,
) -> dict[str, JobMetrics]:
    """Each job alone on a fresh, silent cluster of the same size —
    same node set, same op sequence, arrival pinned to zero."""
    baselines = {}
    for job in jobs:
        alone = replace(job, arrival_us=0.0)
        runs, diag = _execute(
            network, cluster_nodes, [alone], seed,
            xtraffic_schedule=(), xtraffic_bytes=0, kill=None, sim=None,
            profile=profile,
        )
        if diag["hung"]:
            raise RuntimeError(
                f"silent baseline for {job.name} hung: {diag['hung']}"
            )
        run = runs[0]
        lat = run.tracker.latencies()[job.warmup:]
        baselines[job.name] = summarize_job(
            job.name, len(job.nodes), 0.0, lat,
            end_us=run.tracker.end[run.tracker.completed() - 1],
        )
    return baselines


def run_workload(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int = 0,
    xtraffic: Optional[CrossTrafficSpec] = None,
    kill: Optional[KillSpec] = None,
    baseline: bool = True,
    sim: Optional[Simulator] = None,
    profile: Optional[str] = None,
) -> dict:
    """Run a multi-job workload; returns the jsonable result dict.

    The dict is the canonical observable: bit-identical across
    tie-break permutations and warm cache re-runs.
    """
    return _contended_call(
        network, cluster_nodes, jobs, seed, xtraffic, kill, baseline, profile
    )(sim)


def _contended_call(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int,
    xtraffic: Optional[CrossTrafficSpec],
    kill: Optional[KillSpec],
    baseline: bool,
    profile: Optional[str],
):
    """Do the part of a workload run no tie-break permutation can touch
    — validation, the silent baselines, the cross-traffic schedule —
    and return ``call(sim)``, which runs the contended phase on ``sim``
    (``None``: a stock kernel) and returns the result dict."""
    if network not in DEFAULT_PROFILE:
        raise ValueError(f"unknown network {network!r}")
    validate_trace(jobs, network, cluster_nodes)
    if kill is not None and xtraffic is not None and xtraffic.horizon_us == 0:
        raise ValueError("chaos mode needs an explicit cross-traffic horizon")

    baselines: dict[str, JobMetrics] = {}
    horizon = xtraffic.horizon_us if xtraffic is not None else 0.0
    if baseline:
        baselines = _silent_baselines(
            network, cluster_nodes, jobs, seed, profile=profile
        )
        if xtraffic is not None and xtraffic.horizon_us == 0:
            # Auto horizon: cover every job's silent span with headroom
            # for the contention-stretched makespan.
            horizon = 2.0 * max(
                job.arrival_us + baselines[job.name].end_us for job in jobs
            )

    schedule = ()
    if xtraffic is not None and xtraffic.rate_per_ms > 0:
        schedule = build_schedule(
            xtraffic, cluster_nodes, horizon,
            DeterministicRng(seed, f"workload/xtraffic/{network}"),
        )
    return partial(
        _run_contended, network, cluster_nodes, jobs, seed, xtraffic, kill,
        profile, baselines, horizon, schedule,
    )


def _run_contended(
    network, cluster_nodes, jobs, seed, xtraffic, kill, profile,
    baselines, horizon, schedule, sim,
) -> dict:
    runs, diag = _execute(
        network, cluster_nodes, jobs, seed,
        xtraffic_schedule=schedule,
        xtraffic_bytes=xtraffic.size_bytes if xtraffic is not None else 0,
        kill=kill, sim=sim, profile=profile,
    )
    if diag["hung"]:
        raise RuntimeError(f"workload hung: {diag['hung']}")
    cluster = diag["cluster"]

    job_metrics: list[JobMetrics] = []
    violations: list[str] = []
    for run in runs:
        job = run.job
        violations.extend(run.violations)
        lat = run.tracker.latencies()
        timed = lat[job.warmup:]
        if timed:
            done = run.tracker.completed()
            metrics = summarize_job(
                job.name, len(job.nodes), job.arrival_us, timed,
                end_us=run.tracker.end[done - 1], status=run.status,
            )
        else:
            metrics = JobMetrics(
                name=job.name, n_nodes=len(job.nodes),
                arrival_us=job.arrival_us, iterations=0, mean_us=0.0,
                p50_us=0.0, p99_us=0.0, p999_us=0.0, max_us=0.0,
                end_us=0.0, status=run.status,
            )
        if job.name in baselines and timed:
            attach_baseline(metrics, baselines[job.name])
        job_metrics.append(metrics)

    slowdowns = [m.slowdown for m in job_metrics if m.slowdown is not None]
    fairness = jain_fairness(slowdowns) if slowdowns else 1.0

    group_audit = []
    if kill is None:
        from repro.tools.audit import audit_group_flows

        specs = [s for run in runs for s in run.audit_specs()]
        for check in audit_group_flows(cluster.fabric, specs):
            group_audit.append(jsonable(check))
            if not check.ok:
                violations.append(
                    f"group {check.group_id} {check.collective}: expected "
                    f"{check.expected_packets} packets, saw "
                    f"{check.actual_packets}"
                )

    from repro.tools.simlint import check_quiescent

    report = check_quiescent(
        cluster, must_complete=[p.name for p in diag["procs"]]
    )

    return {
        "network": network,
        "profile": diag["profile"],
        "cluster_nodes": cluster_nodes,
        "seed": seed,
        "jobs": [m.to_json() for m in job_metrics],
        "fairness": fairness,
        "sim_end_us": diag["sim_end_us"],
        "xtraffic": (
            diag["injector"].stats() if diag["injector"] is not None else None
        ),
        "xtraffic_horizon_us": horizon if schedule else 0.0,
        "flow_counters": cluster.fabric.flow_counters(),
        "group_audit": group_audit,
        "quiescence": [f.render() for f in report.findings],
        "violations": violations,
        "kill": kill.to_json() if kill is not None else None,
    }


def run_workload_cached(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int = 0,
    xtraffic: Optional[CrossTrafficSpec] = None,
    kill: Optional[KillSpec] = None,
    baseline: bool = True,
    cache="auto",
    profile: Optional[str] = None,
) -> dict:
    """Cache-aware :func:`run_workload` (keyed on every argument: job
    specs, cross-traffic config, kill, profile)."""
    return cached_call(
        resolve_cache(cache),
        partial(
            run_workload, network, cluster_nodes, jobs, seed=seed,
            xtraffic=xtraffic, kill=kill, baseline=baseline, profile=profile,
        ),
    )


def verify_workload_determinism(
    network: str,
    cluster_nodes: int,
    jobs: Sequence[JobSpec],
    seed: int = 0,
    xtraffic: Optional[CrossTrafficSpec] = None,
    rounds: int = 5,
    kill: Optional[KillSpec] = None,
):
    """SL101 harness: the full result dict must be bit-identical under
    tie-break permutation.  Returns the
    :class:`~repro.tools.simlint.perturb.PerturbationReport`: its
    ``findings`` (empty = clean) and, as ``baseline``, the stock run's
    result dict.  A ``kill`` is part of the run checked, as in
    :func:`run_workload`.

    The silent baselines run once, on stock kernels (their metrics feed
    the horizon and slowdown fields deterministically); only the
    contended run is executed again, once stock and once under each
    permuted simulator.
    """
    from repro.tools.simlint import compare_runs

    call = _contended_call(
        network, cluster_nodes, jobs, seed, xtraffic, kill, True, None
    )
    return compare_runs(call, rounds, seed, where=f"workload/{network}")
