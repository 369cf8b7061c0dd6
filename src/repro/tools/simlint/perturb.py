"""Schedule-race detection by same-timestamp tie-break perturbation.

The kernel breaks same-time ties FIFO (a monotonically increasing
sequence number).  Protocol correctness must not depend on that: two
packets injected at the same microsecond by different NICs have no
causal order, so any permutation of their processing is a legal
schedule.  :class:`TieBreakSimulator` replaces the integer tie-break
with ``(random(), seq)`` — every run executes *some* legal permutation
of each same-timestamp group — and :func:`compare_runs`, the one replay
loop, asserts that a run's declared observable (``comparable()``:
latencies, counters, per-iteration end times, chaos outcomes) is
**bit-identical** across many permutations.  The barrier matrix
(:func:`perturb_barrier_experiment`), the chaos runner's ``run_block``
and the workload determinism check are each one call to it.  A
divergence is a schedule race (SL101): somewhere the protocol read
state whose value depends on tie-break order.

Causality is preserved: a permuted entry never runs before an entry at
an earlier timestamp, and the trailing ``seq`` keeps the comparison from
ever reaching the (uncomparable) payload.  Delta *phases*
(:meth:`Simulator.schedule_phase`) are likewise preserved: they are a
documented ordering guarantee of the kernel — arbitration passes run
after every same-time lower-phase call — so only same-time, same-phase
groups (whose order the kernel never promises) are permuted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cluster.builder import build_cluster
from repro.cluster.profiles import DEFAULT_PROFILE, get_profile
from repro.cluster.runner import (
    MYRINET_BARRIERS,
    QUADRICS_BARRIERS,
    BarrierResult,
    run_barrier_experiment,
)
from repro.network.faults import FaultInjector
from repro.sim.engine import _COMPACT_MIN_CANCELLED, ScheduledCall, Simulator
from repro.sim.rng import DeterministicRng
from repro.tools.simlint.findings import Finding

from heapq import heapify, heappop, heappush


class TieBreakSimulator(Simulator):
    """A :class:`Simulator` whose same-timestamp pop order is randomized.

    Entry keys become ``(time, (phase, r, seq))`` with ``r`` drawn fresh
    per entry from the supplied rng, so equal-time, equal-phase entries
    pop in a random (but reproducible, given the rng seed) order.
    Different timestamps and the kernel's delta-phase ordering guarantee
    are untouched.

    The stock kernel is a bucketed calendar queue whose future buckets
    rely on being born sorted; random tie-break keys would break that
    invariant, so this subclass replaces the storage wholesale with the
    classic single ``(time, key, ...)`` tuple heap and overrides every
    method that touches it.  The chaos-fuzz replays run on it, so its
    drain loop is inlined as the stock kernel's is.
    """

    def __init__(self, rng: DeterministicRng):
        super().__init__()
        self._draw = rng.random
        self._tb_heap: list[tuple] = []

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        key = (0, self._draw(), seq)
        call = ScheduledCall(self.now + delay, key, fn, args, self)
        heappush(self._tb_heap, (call.time, key, call, None))
        if self._cancelled >= _COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return call

    def schedule_detached(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        key = (0, self._draw(), seq)
        heappush(self._tb_heap, (self.now + delay, key, fn, args))

    def schedule_now(self, fn: Callable, *args: Any) -> None:
        self._seq = seq = self._seq + 1
        key = (0, self._draw(), seq)
        heappush(self._tb_heap, (self.now, key, fn, args))

    def schedule_phase(self, phase: int, fn: Callable, *args: Any) -> None:
        if phase <= self._phase:
            raise ValueError(
                f"phase {phase} not after current phase {self._phase}"
            )
        self._seq = seq = self._seq + 1
        key = (phase, self._draw(), seq)
        heappush(self._tb_heap, (self.now, key, fn, args))

    def _note_cancel(self, time: float) -> None:
        # One heap, no buckets: nothing to count per timestamp.
        self._cancelled += 1

    def _maybe_compact(self) -> None:
        heap = self._tb_heap
        if self._cancelled * 2 <= len(heap):
            return
        kept = []
        for entry in heap:
            if entry[3] is None and entry[2].cancelled:
                entry[2].executed = True
                self._cancelled -= 1
            else:
                kept.append(entry)
        heap[:] = kept
        heapify(heap)

    def peek(self) -> float:
        heap = self._tb_heap
        while heap and heap[0][3] is None and heap[0][2].cancelled:
            heappop(heap)[2].executed = True
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> bool:
        heap = self._tb_heap
        while heap:
            time, key, fn, args = heappop(heap)
            if args is None:
                fn.executed = True
                if fn.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = fn.fn, fn.args
            self.now = time
            self._phase = key[0]
            fn(*args)
            if self._unhandled:
                exc = self._unhandled[0]
                self._unhandled.clear()
                raise exc
            return True
        return False

    def _run_to_exhaustion(self) -> None:
        """:meth:`step` inlined into one loop, as the stock kernel's."""
        heap = self._tb_heap
        unhandled = self._unhandled
        pop = heappop
        while heap:
            time, key, fn, args = pop(heap)
            if args is None:
                fn.executed = True
                if fn.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = fn.fn, fn.args
            self.now = time
            self._phase = key[0]
            fn(*args)
            if unhandled:
                exc = unhandled[0]
                unhandled.clear()
                raise exc


# ----------------------------------------------------------------------
# The replay loop
# ----------------------------------------------------------------------
def _abbreviate(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _observable(result: Any) -> Any:
    """What a run promises to keep bit-identical: its declared
    ``comparable()``, or the result itself."""
    comparable = getattr(result, "comparable", None)
    return comparable() if comparable is not None else result


def diff_results(baseline: Any, other: Any) -> list[str]:
    """Human-readable differences between two runs' observables (empty =
    bit-identical).  A dict observable is diffed field by field."""
    a, b = _observable(baseline), _observable(other)
    if a == b:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [f"{_abbreviate(a)} != {_abbreviate(b)}"]
    diffs: list[str] = []
    for name in [*a, *(k for k in b if k not in a)]:
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        if isinstance(x, dict) and isinstance(y, dict):
            keys = sorted(x.keys() | y.keys(), key=str)
            changed = [k for k in keys if x.get(k, 0) != y.get(k, 0)]
            diffs.append(
                f"{name} differ: "
                + ", ".join(
                    f"{k}: {x.get(k, 0)} != {y.get(k, 0)}" for k in changed[:5]
                )
                + ("" if len(changed) <= 5 else f" (+{len(changed) - 5} more)")
            )
        elif isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)) \
                and len(x) == len(y):
            first = next(i for i, (u, v) in enumerate(zip(x, y)) if u != v)
            diffs.append(
                f"{name}[{first}]: {x[first]!r} != {y[first]!r} "
                "(first divergent entry)"
            )
        else:
            diffs.append(f"{name}: {_abbreviate(x)} != {_abbreviate(y)}")
    return diffs


@dataclass
class PerturbationReport:
    """Outcome of one tie-break replay (:func:`compare_runs`)."""

    where: str
    rounds: int
    baseline: Any
    findings: list[Finding] = field(default_factory=list)
    diverged_rounds: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        verdict = (
            "bit-identical"
            if self.ok
            else f"DIVERGED in rounds {list(self.diverged_rounds)}"
        )
        return f"{self.where}: {self.rounds} permutations {verdict}"


def compare_runs(
    call: Callable[[Optional[Simulator]], Any],
    rounds: int = 10,
    seed: int = 0,
    stream: str = "simlint/tiebreak",
    where: str = "model",
) -> PerturbationReport:
    """The one tie-break replay loop.

    ``call(sim)`` builds a model on ``sim``, runs it and returns its
    result.  It runs once with ``sim=None`` (the stock kernel, so a
    cached baseline may serve it), then once per round on a
    :class:`TieBreakSimulator` seeded from ``(seed, f"{stream}/{round}")``.
    Every replay's observable (its ``comparable()``, or the result
    itself) must equal the baseline's; each round that differs is one
    SL101 finding at ``where``.
    """
    baseline = call(None)
    expected = _observable(baseline)
    findings: list[Finding] = []
    diverged: list[int] = []
    for round_idx in range(rounds):
        rng = DeterministicRng(seed, f"{stream}/{round_idx}")
        result = call(TieBreakSimulator(rng))
        if _observable(result) == expected:
            continue
        diverged.append(round_idx)
        findings.append(Finding(
            "SL101", where, 0,
            f"results diverged under tie-break permutation "
            f"(round {round_idx}): " + "; ".join(diff_results(baseline, result)),
            fixit="some protocol state depends on same-timestamp event "
                  "order; look for iteration over unordered collections, "
                  "shared mutable state read before all same-time events "
                  "settle, or RNG draws consumed in schedule order",
        ))
    return PerturbationReport(where, rounds, baseline, findings, tuple(diverged))


def perturb_barrier_experiment(
    profile: str,
    barrier: str,
    nodes: int = 16,
    rounds: int = 20,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    drop_probability: float = 0.0,
    corrupt_probability: float = 0.0,
    duplicate_probability: float = 0.0,
    delay_probability: float = 0.0,
    delay_jitter_us: float = 0.0,
    algorithm: str = "dissemination",
) -> PerturbationReport:
    """Run one barrier experiment under ``rounds`` tie-break permutations
    (:func:`compare_runs`); the report's label is
    ``profile/barrier[faults] N=nodes``.

    With fault probabilities set, each run gets a fault injector built
    from the *same* seed, so the fault pattern itself is
    schedule-independent (per-flow, per-class substreams) and results
    must still match.  The reliability fault classes (drop, corrupt,
    duplicate) need GM's retransmission machinery and are Myrinet-only;
    delay/jitter is a pure timing fault and runs on either network.
    """
    resolved = get_profile(profile)
    reliability_faults = drop_probability or corrupt_probability or duplicate_probability
    if reliability_faults and resolved.network != "myrinet":
        raise ValueError("fault injection is a Myrinet-only experiment")
    any_faults = reliability_faults or delay_probability

    def one_run(sim: Optional[Simulator]) -> BarrierResult:
        faults = None
        if any_faults:
            faults = FaultInjector(
                rng=DeterministicRng(seed, "simlint/faults"),
                drop_probability=drop_probability,
                corrupt_probability=corrupt_probability,
                duplicate_probability=duplicate_probability,
                delay_probability=delay_probability,
                delay_jitter_us=delay_jitter_us,
            )
        cluster = build_cluster(resolved, nodes, faults=faults, sim=sim)
        return run_barrier_experiment(
            cluster,
            barrier,
            algorithm=algorithm,
            iterations=iterations,
            warmup=warmup,
            seed=seed,
        )

    faults = ",".join(
        f"{name}={value:g}"
        for name, value in (
            ("drop", drop_probability),
            ("corrupt", corrupt_probability),
            ("duplicate", duplicate_probability),
            ("delay", delay_probability),
            ("jitter_us", delay_jitter_us),
        )
        if value
    )
    case = f"[{faults}]" if faults else ""
    where = f"{resolved.name}/{barrier}{case} N={nodes}"
    return compare_runs(one_run, rounds, seed, "simlint/tiebreak", where)


def all_scheme_reports(
    nodes: int = 16,
    rounds: int = 20,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    fault_drop_probability: float = 0.02,
    myrinet_profile: str = DEFAULT_PROFILE["myrinet"],
    quadrics_profile: str = DEFAULT_PROFILE["quadrics"],
) -> list[PerturbationReport]:
    """The full perturbation matrix: every scheme on both networks, plus
    one seeded faulted run per fault class on the scheme with the most
    reliability state (so the recovery machinery itself is checked for
    schedule races, not just the clean path), and the delay class on
    the Quadrics chained barrier (the faulted fat tree, where up-edge
    elision stays on)."""
    cases = [(myrinet_profile, barrier, {}) for barrier in MYRINET_BARRIERS]
    cases += [(quadrics_profile, barrier, {}) for barrier in QUADRICS_BARRIERS]
    if fault_drop_probability:
        delay = {"delay_probability": 0.2, "delay_jitter_us": 5.0}
        cases += [
            (myrinet_profile, "nic-collective", {f"{cls}_probability": fault_drop_probability})
            for cls in ("drop", "corrupt", "duplicate")
        ]
        cases += [
            (myrinet_profile, "nic-collective", delay),
            (quadrics_profile, "nic-chained", delay),
        ]
    return [
        perturb_barrier_experiment(
            profile, barrier, nodes=nodes, rounds=rounds,
            iterations=iterations, warmup=warmup, seed=seed, **faults,
        )
        for profile, barrier, faults in cases
    ]
