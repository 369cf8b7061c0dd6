"""Schedule-IR verifier: static proofs over compiled collective
schedules plus a bounded model checker for the NIC sequence engine's
lifecycle (simlint rules SL201-SL208).

Since every collective is "replay a compiled
:class:`~repro.collectives.schedule_ir.CollectiveSchedule`", its
correctness properties are properties of a small finite IR and can be
*proved* per compiled schedule instead of sampled by simulation.  Both
PR 7 bugs — the silent NACK-budget hang and the out-of-order-retirement
duplicate drop — were schedule/state-machine defects this pass catches
before any run.

Static rules, checked per compiled schedule:

- **SL201** — wire matching: every ``send`` pairs with exactly one
  ``recv`` on the peer (no orphans in either direction, no duplicate
  (sender, receiver) pairs, no self-messages or out-of-range peers);
- **SL202** — deadlock-freedom: the cross-rank happens-before DAG
  (program order per rank — each phase's send/receive order is already
  baked into the op order by the compiler — plus send→recv delivery
  edges) is acyclic;
  on failure the minimal wait cycle is reported as the fix-it;
- **SL203** — reduction completeness: symbolic execution of reducing
  collectives over contributor bitsets proves every merge is disjoint
  or superseding (never overlapping — folded values cannot be split
  back apart) and that final coverage is the full rank set on every
  rank (allreduce) / on the root (reduce).  This is the hand-argued
  ``reduce_safe()`` case analysis turned into a machine-checked proof
  per compiled schedule;
- **SL204** — byte conservation: every pinned ``nbytes`` equals an
  *independently re-derived* closed form (value + contributor bitmap
  per reducing hop, zero for barrier, per-rank result sizes for the
  dma), runtime-sized ops carry the ``-1`` sentinel, and the schedule's
  total send count equals §5.1's closed-form message count;
- **SL205** — retirement-archive bound: with ``k`` sequences in flight,
  ``k - 1`` can retire out of order while the oldest is live; if that
  exceeds the archive depth, the FIFO prune raises ``done_floor`` past
  the live sequence and its traffic is dropped as duplicates (the PR 7
  out-of-order-completion bug class, caught statically);
- **SL206** — NACK resolvability: every ``recv``'s ``peer_phase``
  names an actual send the peer retains in ``sent_messages`` /
  the archive, so receiver-driven retransmission can always resolve.

The bounded model checker (**SL207**/**SL208**) explores the
per-sequence engine automaton — exported as data from
:data:`repro.collectives.engine.SEQUENCE_AUTOMATON`, the same table
the one NIC sequence engine dispatches through for every collective —
with explicit-state enumeration under message loss and duplication at
small N, sending the NACKs each collective's reliability scheme
actually sends.  It asserts every
maximal path terminates with every rank in exactly one of
``_complete``/``_fail``: a reachable live state with no enabled
transition (the silent-``return`` absorbing state) is SL207, and any
transition that would re-enter a retired sequence (completing twice)
or a hole in the automaton table is SL208.

Entry point: ``python -m repro lint --ir [--grid tuner|quick]`` — the
full tuner grid (pow2 *and* non-pow2 N) verifies in seconds because
compiles come from ``SCHEDULE_CACHE``.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.collectives.algorithms import (
    closed_form_message_count,
    configure_schedule_cache,
)
from repro.collectives.engine import (
    SEQUENCE_AUTOMATON,
    DisseminationDataEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
)
from repro.collectives.schedule_ir import (
    REDUCING_COLLECTIVES,
    CollectiveSchedule,
    compile_schedule,
)
from repro.tools.simlint.findings import Finding

#: Message patterns with a free algorithm choice (the tuner's universe).
ALGORITHMS = ("dissemination", "pairwise-exchange", "gather-broadcast")

#: Patterns with a §5.1 closed-form message count (hand-built fixture
#: schedules use other names and skip the count cross-check).
_CLOSED_FORM_ALGORITHMS = frozenset(ALGORITHMS)


class IrVerifyError(RuntimeError):
    """Internal harness failure (state-space cap exceeded, bad grid) —
    maps to simlint exit code 2, never to a finding."""


# ----------------------------------------------------------------------
# Loci: findings locate by schedule coordinates + rank + op index
# ----------------------------------------------------------------------
def _locus(schedule: CollectiveSchedule, rank: Optional[int] = None) -> str:
    base = (
        f"ir://{schedule.collective}/{schedule.algorithm}"
        f"/n{schedule.size}/p{schedule.payload_bytes}/root{schedule.root}"
    )
    return base if rank is None else f"{base}/rank{rank}"


def _op_desc(op) -> str:
    if op.kind == "send":
        return f"send->r{op.peer}@p{op.phase}"
    if op.kind == "recv":
        return f"recv<-r{op.peer}@p{op.peer_phase}"
    if op.kind == "reduce":
        return f"reduce<-r{op.peer}"
    return "dma"


def _bits(mask: int) -> str:
    """Render a contributor bitmap as a rank set: ``{0, 2}``."""
    ranks = [str(r) for r in range(mask.bit_length()) if mask >> r & 1]
    return "{" + ", ".join(ranks) + "}"


# ----------------------------------------------------------------------
# SL201 + SL206 — wire matching and NACK resolvability
# ----------------------------------------------------------------------
def _collect_endpoints(schedule: CollectiveSchedule):
    """Per-(src, dst) send/recv endpoints: (op_index, phase) lists."""
    sends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    recvs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for rank in range(schedule.size):
        for i, op in enumerate(schedule.ops(rank)):
            if op.kind == "send":
                sends.setdefault((rank, op.peer), []).append((i, op.phase))
            elif op.kind == "recv":
                recvs.setdefault((op.peer, rank), []).append((i, op.peer_phase))
    return sends, recvs


def _check_matching(schedule: CollectiveSchedule) -> list[Finding]:
    findings: list[Finding] = []
    n = schedule.size
    for rank in range(n):
        for i, op in enumerate(schedule.ops(rank)):
            if op.kind not in ("send", "recv"):
                continue
            if op.peer == rank:
                findings.append(Finding(
                    "SL201", _locus(schedule, rank), i + 1,
                    f"{_op_desc(op)}: rank {rank} {op.kind}s to itself",
                    fixit="self-messages never cross the wire; drop the op",
                ))
            elif not 0 <= op.peer < n:
                findings.append(Finding(
                    "SL201", _locus(schedule, rank), i + 1,
                    f"{_op_desc(op)}: peer {op.peer} out of range for "
                    f"size {n}",
                    fixit=f"peers must lie in [0, {n})",
                ))
    sends, recvs = _collect_endpoints(schedule)
    for pair in sorted(set(sends) | set(recvs)):
        src, dst = pair
        s, r = sends.get(pair, []), recvs.get(pair, [])
        if len(s) > 1:
            findings.append(Finding(
                "SL201", _locus(schedule, src), s[1][0] + 1,
                f"rank {src} sends to rank {dst} {len(s)} times in one "
                "sequence; receivers match on (sequence, sender) alone "
                "and the engine's pending slot holds one message per "
                "sender",
                fixit="a (sender, receiver) pair may occur at most once "
                      "per schedule",
            ))
        if len(r) > 1:
            findings.append(Finding(
                "SL201", _locus(schedule, dst), r[1][0] + 1,
                f"rank {dst} receives from rank {src} {len(r)} times in "
                "one sequence",
                fixit="a (sender, receiver) pair may occur at most once "
                      "per schedule",
            ))
        if s and not r:
            i, phase = s[0]
            findings.append(Finding(
                "SL201", _locus(schedule, src), i + 1,
                f"orphan send: rank {src} sends to rank {dst} at phase "
                f"{phase} but rank {dst} never posts a matching recv — "
                "the message is dropped as unexpected on arrival",
                fixit=f"add a recv op at rank {dst} with peer={src}, "
                      f"peer_phase={phase} (or delete the send)",
            ))
        if r and not s:
            i, peer_phase = r[0]
            findings.append(Finding(
                "SL201", _locus(schedule, dst), i + 1,
                f"orphan recv: rank {dst} waits for rank {src} (phase "
                f"tag {peer_phase}) but rank {src} never sends to it — "
                "the recv can only resolve through NACKs that nobody "
                "can answer",
                fixit=f"add a send op at rank {src} with peer={dst} "
                      f"(or delete the recv)",
            ))
    return findings


def _check_nack_targets(schedule: CollectiveSchedule) -> list[Finding]:
    """SL206: every recv's phase tag must name a send the peer retains."""
    findings: list[Finding] = []
    sends, _ = _collect_endpoints(schedule)
    for rank in range(schedule.size):
        for i, op in enumerate(schedule.ops(rank)):
            if op.kind != "recv" or op.peer == rank:
                continue
            if not 0 <= op.peer < schedule.size:
                continue  # SL201 already flagged the range error
            peer_sends = sends.get((op.peer, rank))
            if not peer_sends:
                continue  # orphan recv: SL201's finding
            send_phase = peer_sends[0][1]
            if op.peer_phase != send_phase:
                findings.append(Finding(
                    "SL206", _locus(schedule, rank), i + 1,
                    f"unresolvable NACK target: recv NACKs rank "
                    f"{op.peer} for phase {op.peer_phase}, but rank "
                    f"{op.peer}'s send to rank {rank} is stamped phase "
                    f"{send_phase} — sent_messages[{op.peer_phase}] can "
                    "never resolve and the arriving message never "
                    "matches the recv's tag",
                    fixit=f"set peer_phase={send_phase} (the sender-side "
                          "phase index of the matching send)",
                ))
    return findings


# ----------------------------------------------------------------------
# SL202 — happens-before DAG acyclicity (deadlock-freedom)
# ----------------------------------------------------------------------
def _build_hb_graph(schedule: CollectiveSchedule):
    """Nodes are (rank, op_index); edges are program order plus
    send→recv delivery for matched (src, dst) pairs."""
    nodes: list[tuple[int, int]] = []
    for rank in range(schedule.size):
        for i in range(len(schedule.ops(rank))):
            nodes.append((rank, i))
    index = {node: k for k, node in enumerate(nodes)}
    succs: list[list[int]] = [[] for _ in nodes]
    for rank in range(schedule.size):
        ops = schedule.ops(rank)
        for i in range(len(ops) - 1):
            succs[index[(rank, i)]].append(index[(rank, i + 1)])
    sends, recvs = _collect_endpoints(schedule)
    for pair in sorted(sends):
        if pair not in recvs:
            continue
        src, dst = pair
        s_idx = sends[pair][0][0]
        r_idx = recvs[pair][0][0]
        succs[index[(src, s_idx)]].append(index[(dst, r_idx)])
    return nodes, index, succs


def _shortest_cycle(nodes, succs, residual: set[int]) -> list[int]:
    """The minimal-length cycle within the residual (cyclic) subgraph."""
    best: list[int] = []
    for start in sorted(residual):
        # BFS from start back to start over residual edges.
        prev = {start: -1}
        queue = deque([start])
        found = None
        while queue and found is None:
            u = queue.popleft()
            for v in succs[u]:
                if v not in residual:
                    continue
                if v == start:
                    found = u
                    break
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        if found is None:
            continue
        cycle = [start]
        u = found
        while u != start and u != -1:
            cycle.append(u)
            u = prev[u]
        cycle.reverse()
        if not best or len(cycle) < len(best):
            best = cycle
    return best


def _check_deadlock(schedule: CollectiveSchedule):
    """SL202.  Returns (topological order of node ids | None, findings)."""
    nodes, _index, succs = _build_hb_graph(schedule)
    indegree = [0] * len(nodes)
    for u in range(len(nodes)):
        for v in succs[u]:
            indegree[v] += 1
    order = [u for u in range(len(nodes)) if indegree[u] == 0]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        for v in succs[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
                queue.append(v)
    if len(order) == len(nodes):
        return nodes, order, []

    residual = {u for u in range(len(nodes)) if indegree[u] > 0}
    cycle = _shortest_cycle(nodes, succs, residual)

    def describe(u: int) -> str:
        rank, i = nodes[u]
        op = schedule.ops(rank)[i]
        return f"rank {rank} op {i} ({_op_desc(op)})"

    chain = " -> waits for ".join(describe(u) for u in cycle)
    finding = Finding(
        "SL202", _locus(schedule), 0,
        f"wait cycle — the happens-before graph is cyclic, every rank "
        f"on the cycle blocks forever: {chain} -> waits for "
        f"{describe(cycle[0])}" if cycle else
        "wait cycle — the happens-before graph is cyclic",
        fixit="break the minimal wait cycle: at least one participant "
              "must issue its send before blocking on its recv "
              "(send first on the blocking phase, or reorder the "
              "rank's ops so the cycle's send precedes its recv)",
    )
    return nodes, None, [finding]


# ----------------------------------------------------------------------
# SL203 — symbolic execution of reducing collectives
# ----------------------------------------------------------------------
def _check_reduction(schedule: CollectiveSchedule, nodes, order) -> list[Finding]:
    """Track contributor bitsets per rank through the happens-before
    order; prove no merge ever overlaps without superseding, and that
    final coverage is complete where the collective requires it."""
    findings: list[Finding] = []
    n = schedule.size
    full = (1 << n) - 1
    contrib = [1 << r for r in range(n)]
    held: list[Optional[int]] = [None] * n
    sent: dict[tuple[int, int], int] = {}  # (rank, phase) -> snapshot
    for u in order:
        rank, i = nodes[u]
        op = schedule.ops(rank)[i]
        if op.kind == "send":
            sent[(rank, op.phase)] = contrib[rank]
        elif op.kind == "recv":
            if held[rank] is not None:
                findings.append(Finding(
                    "SL203", _locus(schedule, rank), i + 1,
                    "received payload overwritten before it was folded "
                    "(recv with a previous recv's contribution still "
                    "held)",
                    fixit="every recv must be followed by its reduce "
                          "before the next recv",
                ))
            held[rank] = sent.get((op.peer, op.peer_phase))
        elif op.kind == "reduce":
            incoming = held[rank]
            held[rank] = None
            if incoming is None:
                findings.append(Finding(
                    "SL203", _locus(schedule, rank), i + 1,
                    "reduce op with no received payload to fold",
                    fixit="pair every reduce with the recv immediately "
                          "before it",
                ))
                continue
            overlap = incoming & contrib[rank]
            if overlap and (incoming | contrib[rank]) != incoming:
                findings.append(Finding(
                    "SL203", _locus(schedule, rank), i + 1,
                    f"overlapping merge: incoming contributors "
                    f"{_bits(incoming)} overlap local "
                    f"{_bits(contrib[rank])} on {_bits(overlap)} without "
                    "superseding them — folded values cannot be split "
                    "apart, so the shared contributions are "
                    "double-counted",
                    fixit="use a reduce-safe pattern (pairwise-exchange "
                          "or gather-broadcast; dissemination only at "
                          "powers of two) so every merge is disjoint or "
                          "a superset",
                ))
                contrib[rank] |= incoming  # continue checking downstream
            elif overlap:
                contrib[rank] = incoming  # superset replaces wholesale
            else:
                contrib[rank] |= incoming
    check_ranks = (
        range(n) if schedule.collective == "allreduce" else (schedule.root,)
    )
    for rank in check_ranks:
        if contrib[rank] != full:
            missing = _bits(full & ~contrib[rank])
            where = "every rank" if schedule.collective == "allreduce" else (
                f"root {schedule.root}"
            )
            findings.append(Finding(
                "SL203", _locus(schedule, rank),
                len(schedule.ops(rank)),
                f"incomplete reduction: rank {rank} delivers with "
                f"contributors {_bits(contrib[rank])}, missing "
                f"{missing} ({schedule.collective} requires the full "
                f"set on {where})",
                fixit="the message pattern must route every rank's "
                      "contribution into the delivering rank's partial",
            ))
    return findings


# ----------------------------------------------------------------------
# SL204 — wire/DMA byte conservation
# ----------------------------------------------------------------------
def _expected_wire_bytes(schedule: CollectiveSchedule) -> Optional[int]:
    """Independent re-derivation of the per-hop pin (NOT imported from
    the compiler, so pin drift in either place is caught here)."""
    if schedule.collective in REDUCING_COLLECTIVES:
        return schedule.payload_bytes + (schedule.size + 7) // 8
    if schedule.collective == "barrier":
        return 0
    return None  # runtime-sized (allgather/alltoall hooks)


def _expected_result_bytes(
    schedule: CollectiveSchedule, rank: int
) -> Optional[int]:
    c = schedule.collective
    if c == "barrier":
        return 0
    if c == "allreduce":
        return schedule.payload_bytes
    if c == "reduce":
        return schedule.payload_bytes if rank == schedule.root else 0
    if c in ("allgather", "alltoall"):
        return schedule.size * schedule.payload_bytes
    return None


def _check_bytes(schedule: CollectiveSchedule) -> list[Finding]:
    findings: list[Finding] = []
    wire = _expected_wire_bytes(schedule)
    total_sends = 0
    for rank in range(schedule.size):
        for i, op in enumerate(schedule.ops(rank)):
            if op.kind == "send":
                total_sends += 1
                if wire is not None and op.nbytes != wire:
                    findings.append(Finding(
                        "SL204", _locus(schedule, rank), i + 1,
                        f"wire bytes {op.nbytes} != pinned "
                        f"{wire} (payload {schedule.payload_bytes} + "
                        f"{(schedule.size + 7) // 8}-byte contributor "
                        "bitmap)" if schedule.collective in
                        REDUCING_COLLECTIVES else
                        f"wire bytes {op.nbytes} != pinned {wire}",
                        fixit=f"pin nbytes={wire} at compile time "
                              "(_wire_nbytes)",
                    ))
                elif wire is None and op.nbytes != -1:
                    findings.append(Finding(
                        "SL204", _locus(schedule, rank), i + 1,
                        f"{schedule.collective} wire cost is "
                        f"runtime-sized but the send pins nbytes="
                        f"{op.nbytes}",
                        fixit="carry nbytes=-1 and let _phase_payload "
                              "size each hop",
                    ))
            elif op.kind == "dma":
                want = _expected_result_bytes(schedule, rank)
                if want is not None and op.nbytes != want:
                    findings.append(Finding(
                        "SL204", _locus(schedule, rank), i + 1,
                        f"result DMA bytes {op.nbytes} != expected "
                        f"{want} for rank {rank}",
                        fixit=f"pin nbytes={want} at compile time "
                              "(_result_nbytes)",
                    ))
    if schedule.algorithm in _CLOSED_FORM_ALGORITHMS:
        closed = closed_form_message_count(schedule.algorithm, schedule.size)
        if total_sends != closed:
            findings.append(Finding(
                "SL204", _locus(schedule), 0,
                f"message-count conservation: the IR carries "
                f"{total_sends} sends but §5.1's closed form for "
                f"{schedule.algorithm} at N={schedule.size} is {closed}",
                fixit="the compiled pattern drifted from the closed "
                      "form — audit expectations would silently follow "
                      "the IR; fix the builder",
            ))
    return findings


# ----------------------------------------------------------------------
# SL205 — retirement-archive bound (out-of-order completion safety)
# ----------------------------------------------------------------------
def _max_inflight_recvs(schedule: CollectiveSchedule) -> tuple[int, int]:
    """Worst-case early-arrival backlog: ``(rank, messages)`` where
    ``messages`` is the most wire messages of one sequence that can sit
    undelivered-to-the-op-list at ``rank`` simultaneously (computed
    from happens-before reachability)."""
    nodes, order, findings = _check_deadlock(schedule)
    if order is None:
        return (0, 0)  # cyclic: SL202's problem
    index = {node: k for k, node in enumerate(nodes)}
    _, _, succs = _build_hb_graph(schedule)
    # Ancestor bitsets in topological order.
    anc = [0] * len(nodes)
    for u in order:
        for v in succs[u]:
            anc[v] |= anc[u] | (1 << u)
    sends, recvs = _collect_endpoints(schedule)
    worst = (0, 0)
    for rank in range(schedule.size):
        ops = schedule.ops(rank)
        stalls = [i for i, op in enumerate(ops) if op.kind == "recv"]
        incoming = []  # (recv_idx, send_node_id)
        for (src, dst), rlist in recvs.items():
            if dst != rank or (src, dst) not in sends:
                continue
            incoming.append((rlist[0][0], index[(src, sends[(src, dst)][0][0])]))
        for j in stalls:
            here = 1 << index[(rank, j)]
            backlog = sum(
                1 for (r_idx, s_node) in incoming
                if r_idx >= j and not anc[s_node] & here
            )
            if backlog > worst[1]:
                worst = (rank, backlog)
    return worst


def check_archive_bound(
    schedules: Sequence[CollectiveSchedule],
    archive_depth: Optional[int] = None,
    max_in_flight: Optional[int] = None,
) -> list[Finding]:
    """SL205: the engines retire sequences into a FIFO archive of depth
    ``coll_archive_depth``; once more than ``depth`` sequences retire
    while an older one is live, the prune raises ``done_floor`` past
    the live sequence and its traffic is dropped as duplicates — the
    PR 7 hang, reproduced arithmetically instead of in a 4096-node run.
    """
    if archive_depth is None:
        from repro.cluster.profiles import get_profile

        archive_depth = get_profile("lanai_xp_xeon2400").gm.coll_archive_depth
    if max_in_flight is None:
        max_in_flight = archive_depth
    findings: list[Finding] = []
    if max_in_flight - 1 > archive_depth:
        worst_sched, worst_rank, worst_backlog = None, 0, 0
        for schedule in schedules:
            rank, backlog = _max_inflight_recvs(schedule)
            if backlog > worst_backlog:
                worst_sched, worst_rank, worst_backlog = schedule, rank, backlog
        context = ""
        if worst_sched is not None:
            context = (
                f" (worst early-arrival backlog: {worst_backlog} "
                f"messages/sequence at rank {worst_rank} of "
                f"{_locus(worst_sched)})"
            )
        findings.append(Finding(
            "SL205", "ir://engine/retirement-archive", 0,
            f"archive-depth overflow: with {max_in_flight} sequences in "
            f"flight, {max_in_flight - 1} can retire out of order while "
            f"the oldest is still live, but the archive holds only "
            f"{archive_depth} retired sequences — the FIFO prune raises "
            "done_floor past the live sequence and every later arrival "
            f"for it is dropped as a duplicate{context}",
            fixit=f"raise coll_archive_depth to >= {max_in_flight - 1} "
                  "or cap concurrent sequences per group at "
                  f"{archive_depth + 1}",
        ))
    return findings


# ----------------------------------------------------------------------
# verify_schedule — the static pass (SL201-SL204, SL206)
# ----------------------------------------------------------------------
def verify_schedule(schedule: CollectiveSchedule) -> list[Finding]:
    """Run every per-schedule static rule; empty list == proved clean."""
    findings = _check_matching(schedule)
    findings += _check_nack_targets(schedule)
    nodes, order, deadlock = _check_deadlock(schedule)
    findings += deadlock
    if order is not None and schedule.collective in REDUCING_COLLECTIVES:
        findings += _check_reduction(schedule, nodes, order)
    findings += _check_bytes(schedule)
    return sorted(findings, key=Finding.sort_key)


# ----------------------------------------------------------------------
# SL207/SL208 — bounded model checking of the sequence automaton
# ----------------------------------------------------------------------
_RUNNING, _COMPLETE, _FAILED = 0, 1, 2

#: Every (state, event) the lifecycle can see — the keys of the table
#: as the engine ships it; a missing entry is an automaton hole (SL208),
#: an event the engine absorbs by accident.
REQUIRED_TRANSITIONS = tuple(SEQUENCE_AUTOMATON)


def engine_class(collective: str) -> type:
    """The engine class whose reliability scheme runs ``collective``
    (the barrier's NACK-driven scheme, not the ACK-based direct one)."""
    return {
        "barrier": NicCollectiveBarrierEngine,
        "bcast": NicBroadcastEngine,
    }.get(collective, DisseminationDataEngine)


@dataclass(frozen=True)
class ModelBounds:
    """Exploration budgets for the explicit-state enumeration.

    ``loss_budget`` must exceed ``max_retries`` — exhausting the NACK
    budget with the wire empty (the hang state) needs the original
    message *and* every resend lost, ``max_retries + 1`` drops in all.
    A smaller loss budget makes SL207's absorbing state unreachable and
    the check vacuous, so the constructor refuses it.
    """

    max_retries: int = 1  # NACK rounds before the budget exhausts
    loss_budget: int = 2  # total messages the adversary may drop
    dup_budget: int = 1  # total messages the adversary may duplicate
    state_cap: int = 400_000  # abort (internal error) beyond this

    def __post_init__(self) -> None:
        if self.loss_budget <= self.max_retries:
            raise IrVerifyError(
                f"loss_budget ({self.loss_budget}) must exceed "
                f"max_retries ({self.max_retries}): the budget-exhausted "
                "hang needs the original and every NACK resend lost"
            )


def _freeze_flight(flight: dict) -> tuple:
    return tuple(sorted((k, c) for k, c in flight.items() if c > 0))


def _advance_rank(opslist, ranks: list, flight: dict, r: int,
                  late_join: bool = False) -> None:
    """Replay rank ``r``'s ops until it stalls at a recv or retires —
    the model counterpart of ``_progress`` (sends are non-blocking, so
    advancing one rank never needs another's state).  A late-join
    collective's NACK timer stops once its payload is consumed."""
    status, idx, rounds, pending, timer = ranks[r]
    if status != _RUNNING:
        return
    ops = opslist[r]
    pend = set(pending)
    while idx < len(ops):
        op = ops[idx]
        if op.kind == "send":
            key = (r, op.phase, op.peer)
            flight[key] = flight.get(key, 0) + 1
            idx += 1
        elif op.kind == "recv":
            k = (op.peer, op.peer_phase)
            if k not in pend:
                break
            pend.discard(k)
            idx += 1
            timer = timer and not late_join
        elif op.kind == "reduce":
            idx += 1
        else:  # dma: the sequence retires (archives its sends)
            idx += 1
            status = _COMPLETE
            timer = False
            break
    ranks[r] = (status, idx, rounds, frozenset(pend), timer)


def _nack_targets(ops, idx: int, pending, static: bool) -> list:
    """The recv ops a stalled rank NACKs: every unarrived one of the
    current phase (static scheme) or just the one it is stalled on."""
    if idx >= len(ops) or ops[idx].kind != "recv":
        return []
    if not static:
        return [ops[idx]]
    phase = ops[idx].phase
    return [
        op for op in ops[idx:]
        if op.kind == "recv" and op.phase <= phase
        and (op.peer, op.peer_phase) not in pending
    ]


def model_check_schedule(
    schedule: CollectiveSchedule,
    bounds: Optional[ModelBounds] = None,
    table: Optional[dict] = None,
) -> tuple[list[Finding], int]:
    """Explore the sequence automaton over ``schedule`` under loss and
    duplication; returns ``(findings, states_explored)``.

    One sequence, all ranks started; the adversary chooses, at every
    step, to deliver / lose / duplicate any in-flight message or to
    fire any armed NACK timer.  Rounds accumulate per the engine's
    budget; exhaustion consults the exported transition table — exactly
    what ``_on_nack_timeout`` dispatches through — so shimming the
    table to the PR 7 silent ``return`` is *caught here* (SL207), not
    merely asserted against.  NACKs follow the collective's engine: the
    static scheme NACKs every missing sender of the phase and a failed
    peer answers none; the archive scheme NACKs the stalled receive and
    a retired peer answers from its archive either way.
    """
    bounds = bounds or ModelBounds()
    table = SEQUENCE_AUTOMATON if table is None else table
    engine = engine_class(schedule.collective)
    static = engine.reliability == "static"
    late_join = engine.late_join
    findings: list[Finding] = []
    locus = _locus(schedule)
    for key in REQUIRED_TRANSITIONS:
        if key not in table:
            findings.append(Finding(
                "SL208", locus, 0,
                f"automaton hole: no transition for {key!r} — the "
                "engine would absorb the event by accident",
                fixit="add the (state, event) -> action entry to "
                      "SEQUENCE_AUTOMATON",
            ))
    retired_arrival = table.get(("retired", "arrival"))
    exhausted_action = table.get(("running", "timeout_exhausted"))
    rearms = table.get(("running", "timeout")) == "nack_rearm"

    n = schedule.size
    opslist = [schedule.ops(r) for r in range(n)]
    send_at: dict[tuple[int, int, int], int] = {}
    for r, ops in enumerate(opslist):
        for i, op in enumerate(ops):
            if op.kind == "send":
                send_at[(r, op.phase, op.peer)] = i

    ranks = [(_RUNNING, 0, 0, frozenset(), True) for _ in range(n)]
    flight: dict = {}
    for r in range(n):
        _advance_rank(opslist, ranks, flight, r, late_join)
    start = (tuple(ranks), _freeze_flight(flight),
             bounds.loss_budget, bounds.dup_budget)

    sl207_found = sl208_found = False

    def deliver(state, msg, consume: bool):
        """The post-delivery state (consume=False models duplication:
        the wire keeps a copy)."""
        nonlocal sl208_found
        ranks_t, flight_t, loss, dup = state
        src, phase, dst = msg
        fdict = dict(flight_t)
        if consume:
            fdict[msg] -= 1
        st = ranks_t[dst]
        if st[0] != _RUNNING:
            if retired_arrival != "drop" and not sl208_found:
                sl208_found = True
                findings.append(Finding(
                    "SL208", locus, 0,
                    f"terminal multiplicity: a duplicate of "
                    f"r{src}->r{dst}@p{phase} arrives after rank {dst} "
                    f"retired and ('retired', 'arrival') -> "
                    f"{retired_arrival!r} re-enters the automaton — the "
                    "sequence would run (and complete) twice",
                    fixit="keep ('retired', 'arrival') -> 'drop': "
                          "arrivals for archived/floored sequences are "
                          "counted as rx_duplicate and discarded",
                ))
            return (ranks_t, _freeze_flight(fdict), loss, dup)
        if (src, phase) in st[3]:  # stale_arrival: pending slot taken
            return (ranks_t, _freeze_flight(fdict), loss, dup)
        nranks = list(ranks_t)
        nranks[dst] = (st[0], st[1], st[2], st[3] | {(src, phase)}, st[4])
        _advance_rank(opslist, nranks, fdict, dst, late_join)
        return (tuple(nranks), _freeze_flight(fdict), loss, dup)

    def successors(state):
        ranks_t, flight_t, loss, dup = state
        out = []
        for msg, _count in flight_t:
            src, phase, dst = msg
            tag = f"r{src}->r{dst}@p{phase}"
            out.append((f"deliver {tag}", deliver(state, msg, True)))
            if loss > 0:
                fdict = dict(flight_t)
                fdict[msg] -= 1
                out.append((
                    f"lose {tag}",
                    (ranks_t, _freeze_flight(fdict), loss - 1, dup),
                ))
            if dup > 0:
                r2, f2, l2, _ = deliver(state, msg, False)
                out.append((f"duplicate {tag}", (r2, f2, l2, dup - 1)))
        for r in range(n):
            status, idx, rounds, pending, timer = ranks_t[r]
            if status != _RUNNING or not timer:
                continue
            nranks = list(ranks_t)
            if rounds + 1 > bounds.max_retries:
                if exhausted_action == "fail":
                    # Typed teardown: the sequence retires as failed.
                    nranks[r] = (_FAILED, idx, rounds + 1, pending, False)
                else:
                    # The PR 7 silent return: live state, dead timer.
                    nranks[r] = (_RUNNING, idx, rounds + 1, pending, False)
                out.append((
                    f"timeout rank {r} (budget exhausted -> "
                    f"{exhausted_action!r})",
                    (tuple(nranks), flight_t, loss, dup),
                ))
                continue
            fdict = dict(flight_t)
            for op in _nack_targets(opslist[r], idx, pending, static):
                sidx = send_at.get((op.peer, op.peer_phase, r))
                peer = ranks_t[op.peer]
                if sidx is None:
                    continue
                # The NACK resolves if the peer already built the
                # payload: its send op executed, or it retired with the
                # record kept (completed, or failed under the archive
                # scheme).
                if peer[0] == _RUNNING:
                    answered = peer[1] > sidx
                else:
                    answered = peer[0] == _COMPLETE or not static
                if answered:
                    key = (op.peer, op.peer_phase, r)
                    fdict[key] = fdict.get(key, 0) + 1
            nranks[r] = (_RUNNING, idx, rounds + 1, pending, rearms)
            out.append((
                f"timeout rank {r} (NACK round {rounds + 1})",
                (tuple(nranks), _freeze_flight(fdict), loss, dup),
            ))
        return out

    parents: dict = {start: None}
    queue = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > bounds.state_cap:
            raise IrVerifyError(
                f"model check exceeded {bounds.state_cap} states at "
                f"{locus}; shrink ModelBounds"
            )
        succ = successors(state)
        if not succ:
            live = [
                r for r in range(n) if state[0][r][0] == _RUNNING
            ]
            if live and not sl207_found:
                sl207_found = True
                trace = []
                cursor = state
                while parents[cursor] is not None:
                    prev, label = parents[cursor]
                    trace.append(label)
                    cursor = prev
                trace.reverse()
                tail = " -> ".join(trace[-6:])
                r0 = live[0]
                idx = state[0][r0][1]
                op = (
                    _op_desc(opslist[r0][idx])
                    if idx < len(opslist[r0]) else "?"
                )
                findings.append(Finding(
                    "SL207", locus, 0,
                    f"absorbing state: after [{tail}], rank(s) "
                    f"{live} are parked live with dead timers and no "
                    f"enabled transition (rank {r0} blocked at op {idx}, "
                    f"{op}) — the sequence never reaches _complete or "
                    "_fail and the host waits forever",
                    fixit="every budget-exhaustion path must tear the "
                          "sequence down: ('running', "
                          "'timeout_exhausted') -> 'fail' (typed "
                          "BarrierFailed), never a silent return",
                ))
            continue
        for label, ns in succ:
            if ns not in parents:
                parents[ns] = (state, label)
                queue.append(ns)
    return findings, explored


# ----------------------------------------------------------------------
# The grid driver: python -m repro lint --ir [--grid tuner|quick]
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IrPoint:
    """One (collective, algorithm, N, payload, root) grid coordinate."""

    collective: str
    algorithm: str
    n: int
    payload_bytes: int
    root: int


#: Grid sizes.  ``tuner`` covers the auto-tuner's full universe
#: (``repro.tools.tune``: N in {4..32} incl. non-pow2, payloads
#: {4, 256, 4096}) plus the degenerate N in {2, 3}; ``quick`` is the
#: CI-simlint smoke subset.
_GRIDS = {
    "tuner": ((2, 3, 4, 6, 8, 12, 16, 24, 32), (4, 256, 4096)),
    "quick": ((2, 3, 4, 6, 8), (4, 1024)),
}


def ir_grid(grid: str = "tuner") -> list[IrPoint]:
    """Every schedule shape the verifier proves for one ``--grid``."""
    if grid not in _GRIDS:
        raise IrVerifyError(
            f"unknown ir grid {grid!r}; choose from {sorted(_GRIDS)}"
        )
    n_values, payloads = _GRIDS[grid]
    points: list[IrPoint] = []
    for n in n_values:
        for algorithm in ALGORITHMS:
            points.append(IrPoint("barrier", algorithm, n, 0, 0))
            for payload in payloads:
                points.append(IrPoint("allgather", algorithm, n, payload, 0))
                points.append(IrPoint("allreduce", algorithm, n, payload, 0))
                points.append(IrPoint("reduce", algorithm, n, payload, 0))
                if n > 1:
                    points.append(
                        IrPoint("reduce", algorithm, n, payload, n - 1)
                    )
        # Bruck Alltoall and the broadcast tree pin their patterns
        # (forced_algorithm).
        points.append(IrPoint("alltoall", "dissemination", n, payloads[0], 0))
        points.append(IrPoint("bcast", "binomial", n, 0, 0))
    return points


#: Shapes the bounded model checker explores: every reliability scheme
#: the engine runs — the data collectives' (allreduce carries the
#: richest op lists, send+recv+reduce+dma), the barrier's on each
#: message pattern, and the broadcast tree's — at small N.
MODEL_CHECK_POINTS = tuple(
    (collective, algorithm, n)
    for collective in ("allreduce", "barrier")
    for algorithm in ALGORITHMS
    for n in (2, 3)
) + tuple(("bcast", "binomial", n) for n in (2, 3))


@dataclass
class IrVerifyReport:
    """One ``--ir`` run: grid coverage + model-check stats + findings."""

    grid: str
    schedules_checked: int = 0
    model_points: int = 0
    states_explored: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: collective -> automaton points model-checked for it.
    model_collectives: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        checked = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.model_collectives.items())
        )
        return (
            f"ir-verify[{self.grid}]: {self.schedules_checked} compiled "
            f"schedules proved (SL201-SL206), {self.model_points} "
            f"automaton points model-checked ({checked}; "
            f"{self.states_explored} states, SL207-SL208): "
            f"{len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'}"
        )


def run_ir_verify(
    grid: str = "tuner",
    archive_depth: Optional[int] = None,
    max_in_flight: Optional[int] = None,
    bounds: Optional[ModelBounds] = None,
    model: bool = True,
) -> IrVerifyReport:
    """Verify every grid schedule and model-check the automaton."""
    points = ir_grid(grid)
    configure_schedule_cache(2 * len(points) + 16)
    report = IrVerifyReport(grid=grid)
    schedules = []
    with warnings.catch_warnings():
        # Normalization warnings are satellite telemetry, not findings:
        # the verifier checks the *compiled* pattern under both names.
        warnings.simplefilter("ignore", RuntimeWarning)
        for pt in points:
            schedule = compile_schedule(
                pt.collective, pt.algorithm, pt.n, pt.payload_bytes, pt.root
            )
            report.findings.extend(verify_schedule(schedule))
            schedules.append(schedule)
            report.schedules_checked += 1
        report.findings.extend(
            check_archive_bound(schedules, archive_depth, max_in_flight)
        )
        if model:
            for collective, algorithm, n in MODEL_CHECK_POINTS:
                schedule = compile_schedule(
                    collective, algorithm, n,
                    engine_class(collective).bytes_per_value,
                )
                found, states = model_check_schedule(schedule, bounds)
                report.findings.extend(found)
                report.states_explored += states
                report.model_points += 1
                report.model_collectives[collective] = (
                    report.model_collectives.get(collective, 0) + 1
                )
    report.findings.sort(key=Finding.sort_key)
    return report
