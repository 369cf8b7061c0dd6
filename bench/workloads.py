"""The benchmark's workloads: fixed work, inputs drawn from ``--seed``.

Each workload returns a :class:`Outcome`: the simulated outputs the
harness checks (keyed by op, one op per independently checked result),
any invariant each op broke, and the simulated latencies to set beside
the paper's model.  Host timing is the caller's business.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_barrier_experiment
from repro.model import PAPER_MYRINET_XP, PAPER_QUADRICS_ELAN3
from repro.sim import DeterministicRng, Simulator
from repro.tools.chaos import make_fuzz_plan, run_fuzz_case
from repro.tools.simlint import check_quiescent
from repro.tools.simlint.perturb import TieBreakSimulator
from repro.workload import CrossTrafficSpec, generate_trace, run_workload

PAPER_MODEL = {"quadrics": PAPER_QUADRICS_ELAN3, "myrinet": PAPER_MYRINET_XP}

#: Per-workload sizes: ``full`` is the measured run, ``smoke`` the
#: seconds-long version the harness's own test runs.  A full repeat
#: takes 3-6 s on the reference machine, so a 25 s run holds several,
#: and its medians (of set-up time above all) rest on several samples.
SIZES = {
    "barrier-quadrics": {
        "full": {"nodes": 1024, "iterations": 4, "warmup": 2},
        "smoke": {"nodes": 256, "iterations": 3, "warmup": 1},
    },
    "barrier-myrinet": {
        "full": {"nodes": 512, "iterations": 5, "warmup": 2},
        "smoke": {"nodes": 16, "iterations": 3, "warmup": 1},
    },
    "multijob": {
        "full": {"nodes": 64, "iterations": 30},
        "smoke": {"nodes": 16, "iterations": 6},
    },
    "chaos-fuzz": {
        "full": {"nodes": 16, "plans": (0, 1)},
        "smoke": {"nodes": 8, "plans": (0,)},
    },
}

# The repo's golden latencies (20 timed + 5 warm-up, seed 0) and the
# paper's two 8-node headline points (the quick headline harness's 40 + 20).
GOLDEN = {
    "lanai91_16": ("lanai91_piii700", "nic-collective", 16, 20, 5),
    "myrinet64": ("lanai_xp_xeon2400", "nic-collective", 64, 20, 5),
    "quadrics128": ("elan3_piii700", "nic-chained", 128, 20, 5),
}
HEADLINE = {
    "quadrics8": ("elan3_piii700", "nic-chained", 8, 40, 20, 5.60),
    "myrinet8": ("lanai_xp_xeon2400", "nic-collective", 8, 40, 20, 14.20),
}

_XTRAFFIC = CrossTrafficSpec(rate_per_ms=50.0, size_bytes=512)


@dataclass
class Outcome:
    """What one workload run produced, for the harness to check."""

    outputs: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    #: (label, N, simulated µs, paper µs or None)
    latencies: list = field(default_factory=list)
    #: (injected, delivered) cross-traffic packets
    xtraffic: tuple = (0, 0)

    def op(self, name: str, output, problems=()) -> None:
        self.outputs[name] = output
        self.problems[name] = list(problems)


def _barrier_point(profile, scheme, nodes, iterations, warmup, seed):
    """One barrier experiment plus a quiescence audit of the drained
    cluster; returns ``(mean latency µs, invariant problems)``."""
    sim = Simulator()
    sim.track_processes()
    cluster = build_cluster(profile, nodes, sim=sim)
    result = run_barrier_experiment(
        cluster, scheme, iterations=iterations, warmup=warmup, seed=seed
    )
    report = check_quiescent(
        cluster, must_complete=[f"bench@{n}" for n in result.node_permutation]
    )
    return result.mean_latency_us, [f.render() for f in report.findings]


def preflight(seed: int, size: str) -> Outcome:
    """The golden and headline points; fixed inputs, so ``seed`` and
    ``size`` are ignored."""
    out = Outcome()
    for name, (profile, scheme, n, iters, warmup) in GOLDEN.items():
        latency, problems = _barrier_point(profile, scheme, n, iters, warmup, 0)
        out.op(f"golden/{name}", latency, problems)
    for name, (profile, scheme, n, iters, warmup, paper) in HEADLINE.items():
        latency, problems = _barrier_point(profile, scheme, n, iters, warmup, 0)
        out.op(f"headline/{name}", latency, problems)
        out.latencies.append((f"headline/{name}", n, latency, paper))
    return out


def _barrier_workload(network, profile, scheme):
    def run(seed: int, size: str) -> Outcome:
        spec = SIZES[f"barrier-{network}"][size]
        latency, problems = _barrier_point(
            profile, scheme, spec["nodes"], spec["iterations"], spec["warmup"],
            seed,
        )
        out = Outcome()
        out.op("barrier", {"latency_us": latency}, problems)
        n = spec["nodes"]
        out.latencies.append(
            ("sim_latency_us", n, latency, PAPER_MODEL[network].predict(n))
        )
        return out

    return run


def multijob(seed: int, size: str) -> Outcome:
    """Four skewed overlapping jobs plus Poisson cross-traffic on each
    network, with the silent per-job baselines."""
    spec = SIZES["multijob"][size]
    n = spec["nodes"]
    out = Outcome()
    injected = delivered = 0
    for network in ("myrinet", "quadrics"):
        jobs = generate_trace(
            "skewed", 4, n, seed=seed, iterations=spec["iterations"],
            payload_bytes=64,
        )
        result = run_workload(network, n, jobs, seed=seed, xtraffic=_XTRAFFIC)
        problems = list(result["violations"]) + list(result["quiescence"])
        problems += [
            f"{job['name']} {job['status']}" for job in result["jobs"]
            if job["status"] != "completed"
        ]
        out.op(network, {
            "jobs": {
                job["name"]: {k: job[k] for k in ("p50_us", "p99_us", "p999_us")}
                for job in result["jobs"]
            },
            "fairness": result["fairness"],
        }, problems)
        worst_p99 = max(job["p99_us"] for job in result["jobs"])
        out.latencies.append(
            (f"{network} worst p99_us", n, worst_p99,
             PAPER_MODEL[network].predict(n))
        )
        injected += result["xtraffic"]["injected"]
        delivered += result["xtraffic"]["delivered"]
    out.xtraffic = (injected, delivered)
    return out


def _fuzz_digest(result) -> str:
    blob = json.dumps([
        result.outcomes, result.detected_at, result.repaired_at, result.end_us,
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def chaos_fuzz(seed: int, size: str) -> Outcome:
    """Fixed fuzz plans on both networks, each case replayed once
    under a tie-break permutation of same-instant events.

    The fuzz plans are fixed and ``seed`` draws the permutation: a plan
    drawn from the seed would make the amount of work (kill count,
    horizon) vary several-fold between seeds, while the permutation
    changes the event order but, by the determinism guarantee, neither
    the outcomes nor the work.
    """
    spec = SIZES["chaos-fuzz"][size]
    out = Outcome()
    for network in ("myrinet", "quadrics"):
        for plan_seed in spec["plans"]:
            plan = make_fuzz_plan(network, plan_seed, nodes=spec["nodes"])
            baseline = run_fuzz_case(plan)
            rng = DeterministicRng(seed, f"bench/chaos-fuzz/{network}/{plan_seed}")
            replay = run_fuzz_case(plan, sim=TieBreakSimulator(rng))
            problems = list(baseline.violations) + list(baseline.quiescence)
            if replay.comparable() != baseline.comparable():
                problems.append("tie-break replay diverged from the baseline")
            out.op(f"{network}/plan{plan_seed}", {
                "digest": _fuzz_digest(baseline),
                "epochs": baseline.epochs,
            }, problems)
    return out


WORKLOADS = {
    "preflight": preflight,
    "barrier-quadrics": _barrier_workload("quadrics", "elan3_piii700", "nic-chained"),
    "barrier-myrinet": _barrier_workload("myrinet", "lanai_xp_xeon2400", "nic-collective"),
    "multijob": multijob,
    "chaos-fuzz": chaos_fuzz,
}
