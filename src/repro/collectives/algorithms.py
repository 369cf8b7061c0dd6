"""Barrier message schedules (§5 of the paper).

A schedule is, per rank, an ordered list of :class:`Phase` objects.
Each phase names the peer ranks to send to and to receive from, plus
the ordering rule:

- ``send_first=True`` (dissemination, pairwise-exchange): issue the
  phase's sends, then wait for its receives;
- ``send_first=False`` (gather-broadcast): wait for the phase's
  receives, then issue its sends.

Step counts match §5.1:

- gather-broadcast: ``2 * ceil(log_d N)`` steps on a degree-``d`` tree;
- pairwise-exchange: ``log2 N`` steps for powers of two,
  ``floor(log2 N) + 2`` otherwise (pre/post steps for the extra ranks);
- dissemination: ``ceil(log2 N)`` steps always.

Within one barrier, a given (sender → receiver) pair occurs at most
once across all phases (asserted by :meth:`BarrierSchedule.validate`),
so receivers can match arrivals on (sequence, sender) alone.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Phase:
    """One step of a barrier schedule, from one rank's point of view."""

    sends: tuple[int, ...] = ()
    recvs: tuple[int, ...] = ()
    send_first: bool = True

    def __post_init__(self) -> None:
        if len(set(self.sends)) != len(self.sends):
            raise ValueError(f"duplicate send targets in {self.sends}")
        if len(set(self.recvs)) != len(self.recvs):
            raise ValueError(f"duplicate receive sources in {self.recvs}")

    @property
    def empty(self) -> bool:
        return not self.sends and not self.recvs


@dataclass(frozen=True)
class BarrierSchedule:
    """Per-rank phases for an N-rank barrier."""

    algorithm: str
    size: int
    phases_by_rank: tuple[tuple[Phase, ...], ...]

    def phases(self, rank: int) -> tuple[Phase, ...]:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return self.phases_by_rank[rank]

    @property
    def max_steps(self) -> int:
        return max((len(p) for p in self.phases_by_rank), default=0)

    def total_messages(self) -> int:
        """Messages per barrier over all ranks."""
        return sum(
            len(phase.sends) for phases in self.phases_by_rank for phase in phases
        )

    def expected_senders(self, rank: int) -> set[int]:
        """All ranks this rank receives from during one barrier."""
        return {
            src for phase in self.phases_by_rank[rank] for src in phase.recvs
        }

    def validate(self) -> None:
        """Check global consistency of the schedule.

        - no self-messages;
        - every send is matched by exactly one receive and vice versa;
        - a (sender, receiver) pair occurs at most once per barrier.
        """
        sends: list[tuple[int, int]] = []
        recvs: list[tuple[int, int]] = []
        for rank, phases in enumerate(self.phases_by_rank):
            for phase in phases:
                for dst in phase.sends:
                    if dst == rank:
                        raise ValueError(f"rank {rank} sends to itself")
                    if not 0 <= dst < self.size:
                        raise ValueError(f"rank {rank} sends to invalid {dst}")
                    sends.append((rank, dst))
                for src in phase.recvs:
                    if src == rank:
                        raise ValueError(f"rank {rank} receives from itself")
                    if not 0 <= src < self.size:
                        raise ValueError(f"rank {rank} receives from invalid {src}")
                    recvs.append((src, rank))
        if len(set(sends)) != len(sends):
            raise ValueError("a (sender, receiver) pair occurs more than once")
        if sorted(sends) != sorted(recvs):
            raise ValueError("sends and receives do not match up")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def dissemination(n: int) -> BarrierSchedule:
    """§5.1: in step m, rank i sends to (i + 2^m) mod N and waits for
    (i - 2^m) mod N; ``ceil(log2 N)`` steps regardless of N."""
    if n < 1:
        raise ValueError("group size must be >= 1")
    steps = math.ceil(math.log2(n)) if n > 1 else 0
    per_rank = []
    for i in range(n):
        phases = []
        for m in range(steps):
            gap = 2**m
            phases.append(
                Phase(
                    sends=((i + gap) % n,),
                    recvs=((i - gap) % n,),
                    send_first=True,
                )
            )
        per_rank.append(tuple(phases))
    return BarrierSchedule("dissemination", n, tuple(per_rank))


def pairwise_exchange(n: int) -> BarrierSchedule:
    """§5.1: MPICH's recursive doubling.

    Powers of two: step m pairs i with i xor 2^m.  Otherwise, with M
    the largest power of two below N: the top ``N - M`` ranks first
    report to their partner in the low M, the low M ranks do the
    power-of-two exchange, and the partners finally release the top
    ranks — ``floor(log2 N) + 2`` steps.
    """
    if n < 1:
        raise ValueError("group size must be >= 1")
    if n == 1:
        return BarrierSchedule("pairwise-exchange", 1, ((),))
    m_pow = 1 << (n.bit_length() - 1)
    if m_pow == n:  # power of two
        steps = n.bit_length() - 1
        per_rank = []
        for i in range(n):
            phases = tuple(
                Phase(sends=(i ^ (1 << m),), recvs=(i ^ (1 << m),), send_first=True)
                for m in range(steps)
            )
            per_rank.append(phases)
        return BarrierSchedule("pairwise-exchange", n, tuple(per_rank))

    extras = n - m_pow
    steps = m_pow.bit_length() - 1  # log2(M) exchange steps
    per_rank = []
    for i in range(n):
        phases: list[Phase] = []
        if i >= m_pow:
            # Pre-step: report in; then wait for the release.
            partner = i - m_pow
            phases.append(Phase(sends=(partner,), recvs=(), send_first=True))
            phases.append(Phase(sends=(), recvs=(partner,), send_first=True))
        else:
            if i < extras:
                phases.append(Phase(sends=(), recvs=(i + m_pow,), send_first=True))
            for m in range(steps):
                partner = i ^ (1 << m)
                phases.append(
                    Phase(sends=(partner,), recvs=(partner,), send_first=True)
                )
            if i < extras:
                phases.append(Phase(sends=(i + m_pow,), recvs=(), send_first=True))
        per_rank.append(tuple(phases))
    return BarrierSchedule("pairwise-exchange", n, tuple(per_rank))


def gather_broadcast(n: int, degree: int = 2) -> BarrierSchedule:
    """§5.1: messages combine up a degree-``d`` tree to rank 0, which
    broadcasts the release back down; ``2 * log_d N`` steps."""
    if n < 1:
        raise ValueError("group size must be >= 1")
    if degree < 2:
        raise ValueError("tree degree must be >= 2")
    per_rank = []
    for i in range(n):
        children = tuple(
            c for c in range(i * degree + 1, i * degree + degree + 1) if c < n
        )
        parent: Optional[int] = None if i == 0 else (i - 1) // degree
        gather = Phase(
            sends=(parent,) if parent is not None else (),
            recvs=children,
            send_first=False,  # combine the children before reporting up
        )
        bcast = Phase(
            sends=children,
            recvs=(parent,) if parent is not None else (),
            send_first=False,  # wait for the release before fanning out
        )
        phases = tuple(p for p in (gather, bcast) if not p.empty)
        per_rank.append(phases)
    return BarrierSchedule("gather-broadcast", n, tuple(per_rank))


def binomial_children(rank: int, size: int) -> list[int]:
    """Children of ``rank`` in a binomial broadcast tree rooted at 0.

    Round ``m``: every rank below ``2**m`` forwards to ``rank + 2**m``.
    """
    children = []
    gap = 1
    while gap < size:
        if rank < gap and rank + gap < size:
            children.append(rank + gap)
        gap <<= 1
    return children


def binomial_parent(rank: int, size: int) -> Optional[int]:
    if rank == 0:
        return None
    # The parent cleared the highest set bit of the rank.
    return rank - (1 << (rank.bit_length() - 1))


def binomial(n: int) -> BarrierSchedule:
    """The NIC broadcast's one-way tree (not a barrier): one phase per
    round ``m``, in which every rank below ``2**m`` sends to
    ``rank + 2**m`` — so both ends of a hop tag it with the same
    phase, and a rank hears from its parent before it forwards."""
    if n < 1:
        raise ValueError("group size must be >= 1")
    steps = math.ceil(math.log2(n)) if n > 1 else 0
    per_rank = []
    for i in range(n):
        phases = []
        for m in range(steps):
            gap = 1 << m
            phases.append(Phase(
                sends=(i + gap,) if i < gap and i + gap < n else (),
                recvs=(i - gap,) if gap <= i < 2 * gap else (),
            ))
        per_rank.append(tuple(phases))
    return BarrierSchedule("binomial", n, tuple(per_rank))


_BUILDERS: dict[str, Callable[[int], BarrierSchedule]] = {
    "dissemination": dissemination,
    "pairwise-exchange": pairwise_exchange,
    "gather-broadcast": gather_broadcast,
    "binomial": binomial,
}


def closed_form_message_count(algorithm: str, n: int) -> int:
    """§5.1's closed-form wire messages for one operation over all ranks.

    The compiled IR is the source of truth for message counts
    (:meth:`CollectiveSchedule.total_messages` /
    :meth:`BarrierSchedule.total_messages`); these formulas survive only
    as *cross-check assertions* — the schedule-IR verifier (SL204) and
    the counter audit both assert the IR count equals the closed form,
    so the two derivations can never drift apart silently.

    - dissemination: one send per rank per round, ``N * ceil(log2 N)``;
    - pairwise-exchange: ``N * log2 N`` at powers of two; otherwise the
      low ``M = 2^floor(log2 N)`` ranks exchange ``M * log2 M`` messages
      and each of the ``N - M`` extras costs one pre-step report plus
      one post-step release;
    - gather-broadcast: every non-root rank sends one gather-up and
      receives one broadcast-down, ``2 * (N - 1)``.
    """
    if n < 1:
        raise ValueError("group size must be >= 1")
    if n == 1:
        return 0
    if algorithm == "dissemination":
        return n * math.ceil(math.log2(n))
    if algorithm == "pairwise-exchange":
        m_pow = 1 << (n.bit_length() - 1)
        if m_pow == n:
            return n * (n.bit_length() - 1)
        return m_pow * (m_pow.bit_length() - 1) + 2 * (n - m_pow)
    if algorithm == "gather-broadcast":
        return 2 * (n - 1)
    raise ValueError(
        f"no closed-form message count for algorithm {algorithm!r}"
    )


class ScheduleCache:
    """LRU cache for compiled schedules, with observable hit rates.

    Backs both :func:`make_schedule` (barrier message patterns) and the
    collective-schedule IR compiler (:mod:`repro.collectives
    .schedule_ir`): one store, one eviction policy, one set of
    counters.  Sweeps whose working set is larger than the default
    (the tuner, ``lint --ir``) size it from their point count with
    :func:`configure_schedule_cache`; ``stats()`` exposes
    hits/misses/evictions, which the benchmark reports as
    ``collectives.schedule_cache_hit_rate``.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ValueError("schedule cache needs at least one slot")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: tuple, build: Callable[[], Any]) -> Any:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = self._entries[key] = build()
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def resize(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("schedule cache needs at least one slot")
        self.maxsize = maxsize
        while len(self._entries) > maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and zero the counters (a fresh baseline for
        benchmarks and tests)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __len__(self) -> int:
        return len(self._entries)


_DEFAULT_CACHE_SIZE = 8

#: The process-wide schedule cache.  A 16k-rank schedule is tens of
#: megabytes, so the default stays small; sweeps that touch many
#: ``(algorithm, N)`` points resize it to their working set.
SCHEDULE_CACHE = ScheduleCache(_DEFAULT_CACHE_SIZE)


def configure_schedule_cache(maxsize: Optional[int] = None) -> ScheduleCache:
    """Resize the process-wide schedule cache (e.g. to a sweep's point
    count) and return it.  ``None`` restores the default size."""
    SCHEDULE_CACHE.resize(maxsize if maxsize is not None else _DEFAULT_CACHE_SIZE)
    return SCHEDULE_CACHE


def schedule_cache_stats() -> dict:
    """Hit-rate counters for the benchmark and the tuner."""
    return SCHEDULE_CACHE.stats()


def make_schedule(algorithm: str, n: int) -> BarrierSchedule:
    """Build a validated schedule by algorithm name.

    Schedules are immutable and depend only on ``(algorithm, n)``, so
    repeat builds (tie-break replays of one run, a sweep's per-size
    reference runs) come from :data:`SCHEDULE_CACHE` instead of
    re-deriving and re-validating a quarter-million :class:`Phase`
    objects at N=16384.
    """
    if algorithm not in _BUILDERS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_BUILDERS)}"
        )

    def build() -> BarrierSchedule:
        schedule = _BUILDERS[algorithm](n)
        schedule.validate()
        return schedule

    return SCHEDULE_CACHE.get_or_build(("pattern", algorithm, n), build)
