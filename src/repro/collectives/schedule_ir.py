"""Precompiled collective schedules (the libnbc idea, NIC-side).

libnbc showed that a non-blocking collective should be *compiled once*
into a schedule — an ordered list of primitive operations per rank —
and then merely *replayed* on every start (``NBC_Ibarrier`` builds the
round structure on first use and parks it in the communicator under
``NBC_CACHE_SCHEDULE``).  This module is that compiler for the NIC
engines: a :class:`CollectiveSchedule` is the per-rank op list for one
``(collective, algorithm, group size, payload)`` combination, derived
from the barrier message patterns of §5 and annotated with the
collective's data movement:

- ``send``   — inject one message to a peer rank (payload built by the
  engine's ``_phase_payload`` hook; ``nbytes`` is pinned at compile
  time where the collective's wire cost is closed-form);
- ``recv``   — wait for the message a peer sends us (``peer_phase`` is
  the phase tag the *sender* stamps, precomputed so receivers match and
  NACK correctly even on asymmetric schedules like pairwise-exchange);
- ``reduce`` — fold the received payload into local state (the engine's
  ``_merge`` hook);
- ``dma``    — deliver the result across the PCI bus and notify the
  host (the engine's ``_finish`` hook sizes it when ``nbytes < 0``).

Starting a collective is then "replay this op list", not "re-derive
the dissemination pattern".  The IR is the one schedule every driver
replays: :class:`~repro.collectives.engine.NicSequenceEngine` walks the
ops with a single index per sequence, the Quadrics chained-RDMA barrier
derives its descriptor chain from them, and the host barrier sends and
receives them in order — so what SL201–SL208 prove is what runs.
Compiled schedules are cached in two layers — per communicator on the
:class:`~repro.collectives.group.ProcessGroup` (the libnbc cache) and
process-wide in :data:`repro.collectives.algorithms.SCHEDULE_CACHE`,
which holds IR entries only (the message patterns are compile input and
are not kept).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from repro.collectives.algorithms import SCHEDULE_CACHE, make_schedule

#: Collectives whose merge operator is a *reduction* (not a union):
#: their schedules must never deliver the same contribution twice
#: unless the incoming partial supersedes the local one entirely.
REDUCING_COLLECTIVES = frozenset({"allreduce", "reduce"})


class ScheduleOp(NamedTuple):
    """One primitive operation of a compiled collective schedule.

    A named tuple, not a frozen dataclass: every Myrinet barrier
    compiles its op lists (14k ops at N=512), and tuples build an order
    of magnitude faster.
    """

    kind: str  # "send" | "recv" | "reduce" | "dma"
    phase: int  # this rank's phase index (payload build + send tag)
    peer: int = -1  # dst rank (send) / src rank (recv, reduce)
    peer_phase: int = -1  # recv: phase tag the sender stamps on the wire
    nbytes: int = -1  # wire/DMA bytes; -1 = sized at runtime by a hook

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" peer={self.peer}" if self.peer >= 0 else ""
        if self.kind == "recv":
            extra += f" peer_phase={self.peer_phase}"
        if self.nbytes >= 0:
            extra += f" nbytes={self.nbytes}"
        return f"<op {self.kind} phase={self.phase}{extra}>"


@dataclass(frozen=True)
class CollectiveSchedule:
    """Per-rank op lists for one collective on one group shape.

    ``algorithm`` is the message pattern the ops actually follow;
    ``requested_algorithm`` is what the caller asked for before
    :func:`normalize_algorithm` substituted a reduce-safe pattern (the
    two differ only for reducing collectives at non-reduce-safe
    shapes).  Tuner tables and experiment labels must use
    ``algorithm`` — labelling a pairwise-exchange run "dissemination"
    misattributes the measurement.
    """

    collective: str
    algorithm: str
    size: int
    payload_bytes: int
    ops_by_rank: tuple[tuple[ScheduleOp, ...], ...]
    root: int = 0
    requested_algorithm: str = ""
    #: Explicit rank -> node mapping this schedule was compiled over.
    #: Empty for the pristine ``range(N)`` grid; a repaired epoch's
    #: survivor set otherwise (ops always speak *ranks* — members is
    #: provenance, and the membership-digest cache key derives from it).
    members: tuple[int, ...] = ()

    @property
    def normalized(self) -> bool:
        """Did compilation substitute a different message pattern?"""
        return bool(
            self.requested_algorithm
            and self.requested_algorithm != self.algorithm
        )

    def ops(self, rank: int) -> tuple[ScheduleOp, ...]:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return self.ops_by_rank[rank]

    def total_messages(self) -> int:
        """Wire messages per sequence over all ranks."""
        return sum(
            1
            for ops in self.ops_by_rank
            for op in ops
            if op.kind == "send"
        )

    def describe(self, rank: int) -> str:  # pragma: no cover - debugging aid
        return " -> ".join(repr(op) for op in self.ops(rank))


def bitmap_bytes(n: int) -> int:
    """Bytes of an N-rank contributor bitmap."""
    return (n + 7) // 8


def reduce_safe(algorithm: str, n: int) -> bool:
    """Can a reduction run on this message pattern without ever merging
    overlapping contribution sets?

    - ``pairwise-exchange``: always — aligned power-of-two blocks (the
      pre/post steps fold extras disjointly and release the superset);
    - ``gather-broadcast``: always — subtrees are disjoint going up and
      the release going down is the full superset;
    - ``dissemination``: only for powers of two; otherwise the last
      round's wrapped block overlaps the receiver's own block and an
      aggregated partial cannot be split back apart.
    """
    if algorithm in ("pairwise-exchange", "gather-broadcast"):
        return True
    if algorithm == "dissemination":
        return n & (n - 1) == 0
    return False


def normalize_algorithm(collective: str, algorithm: str, n: int) -> str:
    """Substitute a reduce-safe pattern when the requested one is not.

    Dissemination Allreduce at non-powers-of-two would need to split
    aggregated partials (impossible once values are folded), so
    reductions silently normalize to pairwise-exchange there — the same
    ``floor(log2 N) + 2``-step pattern MPICH falls back to.
    """
    if collective in REDUCING_COLLECTIVES and not reduce_safe(algorithm, n):
        return "pairwise-exchange"
    return algorithm


def _wire_nbytes(collective: str, n: int, payload_bytes: int) -> int:
    """Per-hop wire bytes where the collective's cost is closed-form.

    Allreduce/Reduce carry exactly one partially-reduced value plus the
    contributor bitmap per hop — O(1)+bitmap, the fix for the old
    O(N) gathered-map payload.  Barrier messages carry no data.
    Allgather/Alltoall payloads grow or shrink per round; their hooks
    size each message at runtime (``-1`` here).
    """
    if collective in REDUCING_COLLECTIVES:
        return payload_bytes + bitmap_bytes(n)
    if collective == "barrier":
        return 0
    return -1


def _result_nbytes(
    collective: str, n: int, payload_bytes: int, rank: int, root: int
) -> int:
    if collective == "barrier":
        return 0
    if collective == "allreduce":
        return payload_bytes
    if collective == "reduce":
        return payload_bytes if rank == root else 0
    if collective in ("allgather", "alltoall"):
        return n * payload_bytes
    return -1


#: Shapes already warned about, so each silent substitution surfaces
#: exactly once per process instead of once per compile/cache miss.
_normalization_warned: set[tuple[str, str, int]] = set()


def compile_schedule(
    collective: str,
    algorithm: str,
    n: int,
    payload_bytes: int = 0,
    root: int = 0,
    members: tuple[int, ...] | None = None,
    membership_digest: str | None = None,
) -> CollectiveSchedule:
    """Compile (and cache) the op lists for one collective shape.

    The barrier message pattern supplies who-talks-to-whom-when; this
    pass flattens it into per-rank op lists, resolves every receive's
    sender-side phase tag (asymmetric schedules number their phases
    differently on the two ends of a wire), and pins wire/DMA sizes
    where the collective's cost model is closed-form.  Results are
    cached process-wide in ``SCHEDULE_CACHE``; :class:`ProcessGroup`
    adds the per-communicator layer on top.

    When :func:`normalize_algorithm` substitutes a reduce-safe pattern
    the compiled schedule records the original request in
    ``requested_algorithm`` and a one-shot :class:`RuntimeWarning` is
    emitted, so tuner tables and experiment labels cannot silently
    attribute a pairwise-exchange measurement to dissemination.

    ``members`` compiles over an explicit rank -> node set (a repaired
    epoch's survivors) instead of the implicit ``range(N)``: the op
    lists are identical for identical sizes, but the schedule records
    its membership and the cache key gains ``membership_digest`` so a
    survivor-epoch schedule can never be confused with (or poison) the
    pristine grid's entries.
    """
    if members is not None and len(members) != n:
        raise ValueError(
            f"explicit member set has {len(members)} nodes, expected {n}"
        )
    requested = algorithm
    algorithm = normalize_algorithm(collective, algorithm, n)
    if algorithm != requested:
        mark = (collective, requested, n)
        if mark not in _normalization_warned:
            _normalization_warned.add(mark)
            warnings.warn(
                f"{collective} at N={n} cannot run {requested!r} (not "
                f"reduce-safe); schedule normalized to {algorithm!r}. "
                "Label results with CollectiveSchedule.algorithm, not the "
                "requested name.",
                RuntimeWarning,
                stacklevel=2,
            )
    key = ("ir", collective, requested, n, payload_bytes, root)
    if members is not None:
        # Keyed on the epoch's membership digest: pristine range(N)
        # keys stay bit-for-bit unchanged (run-cache compatibility),
        # survivor epochs get their own entries.
        key = key + (membership_digest or ",".join(map(str, members)),)
    return SCHEDULE_CACHE.get_or_build(
        key,
        lambda: _compile(
            collective, algorithm, n, payload_bytes, root, requested,
            members=members,
        ),
    )


def _compile(
    collective: str,
    algorithm: str,
    n: int,
    payload_bytes: int,
    root: int,
    requested: str = "",
    members: tuple[int, ...] | None = None,
) -> CollectiveSchedule:
    base = make_schedule(algorithm, n)
    # The phase index at which ``src`` sends to ``dst``: receivers match
    # and NACK with the *sender's* tag.  Unique per (src, dst) pair —
    # BarrierSchedule.validate() guarantees it.  Keyed ``src * n + dst``:
    # an int key allocates nothing the garbage collector tracks.
    send_phase: dict[int, int] = {}
    for rank in range(n):
        for m, phase in enumerate(base.phases(rank)):
            for dst in phase.sends:
                send_phase[rank * n + dst] = m

    wire = _wire_nbytes(collective, n, payload_bytes)
    op = partial(tuple.__new__, ScheduleOp)  # skips the per-op __new__ frame
    ops_by_rank = []
    for rank in range(n):
        ops: list[ScheduleOp] = []
        phases = base.phases(rank)
        for m, phase in enumerate(phases):
            sends = [op(("send", m, dst, -1, wire)) for dst in phase.sends]
            if phase.send_first:
                ops += sends
            for src in phase.recvs:
                ops.append(op(("recv", m, src, send_phase[src * n + rank], -1)))
                ops.append(op(("reduce", m, src, -1, -1)))
            if not phase.send_first:
                ops += sends
        ops.append(op((
            "dma", len(phases), -1, -1,
            _result_nbytes(collective, n, payload_bytes, rank, root),
        )))
        ops_by_rank.append(tuple(ops))
    return CollectiveSchedule(
        collective,
        algorithm,
        n,
        payload_bytes,
        tuple(ops_by_rank),
        root=root,
        requested_algorithm=requested or algorithm,
        members=tuple(members) if members is not None else (),
    )
