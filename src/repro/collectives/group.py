"""Process groups: rank ↔ node mapping for collective operations.

The paper's protocol keeps per-group state on every NIC ("a separate
queue for each group of processes"); a :class:`ProcessGroup` is the
shared description of one such group.  It also carries the group's
compiled collective schedules (the libnbc per-communicator cache):
``collective_schedule()`` compiles a :class:`CollectiveSchedule` once
per ``(collective, algorithm, payload, root)`` and replays it on every
subsequent start.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Sequence

from repro.collectives.failures import ScheduleVerificationError
from repro.collectives.schedule_ir import CollectiveSchedule, compile_schedule
from repro.collectives.tuning import pick_algorithm

class GroupIdAllocator:
    """Deterministic source of group ids.

    Group ids used to come from a process-global ``itertools.count`` —
    which made every id (and the ``parent_group_id`` lineage) depend on
    how many groups *any* earlier test or sweep in the same process had
    created.  Traces and id-keyed artifacts then differed between a
    fresh interpreter and a warm one.  Each cluster now owns its own
    allocator (``cluster.group_ids``), so two back-to-back builds in
    one process hand out identical ids.
    """

    def __init__(self, start: int = 1):
        self._start = start
        self._counter = itertools.count(start)

    def allocate(self) -> int:
        return next(self._counter)

    def reset(self) -> None:
        """Rewind to the initial id (fresh-process numbering)."""
        self._counter = itertools.count(self._start)


#: Fallback allocator for groups built without a cluster context
#: (direct ``ProcessGroup(...)`` construction in tests / tools).
_default_allocator = GroupIdAllocator()


#: (collective, algorithm, model_n, payload) -> model-check findings.
_model_verdicts: dict[tuple, list] = {}


class ProcessGroup:
    """An ordered set of nodes participating in collective operations.

    ``node_ids[rank]`` is the NIC/port the rank lives on.  The node
    order may be an arbitrary permutation (the paper benchmarks "with
    random permutation of the nodes").

    ``algorithm="auto"`` consults the installed tuner decision table
    (see :mod:`repro.collectives.tuning`); with no table installed it
    resolves to the paper's default, dissemination.  An explicit
    algorithm always wins over the table.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        algorithm: str = "auto",
        group_id: int | None = None,
        epoch: int = 0,
        id_allocator: "GroupIdAllocator | None" = None,
    ):
        ids = list(node_ids)
        if not ids:
            raise ValueError("a group needs at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in group: {ids}")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.node_ids = tuple(ids)
        self.requested_algorithm = algorithm
        if algorithm == "auto":
            algorithm = pick_algorithm("barrier", len(ids))
        self.algorithm = algorithm
        self._id_allocator = (
            id_allocator if id_allocator is not None else _default_allocator
        )
        self.group_id = (
            self._id_allocator.allocate() if group_id is None else group_id
        )
        #: Which repair generation this group belongs to.  The pristine
        #: group a communicator starts from is epoch 0; every shrink
        #: over the survivor set increments it.  The previous epoch's
        #: group (if any) is linked via ``parent_group_id``.
        self.epoch = epoch
        self.parent_group_id: int | None = None
        self._rank_of = {node: rank for rank, node in enumerate(self.node_ids)}
        # Per-communicator compiled-schedule cache (libnbc's
        # NBC_CACHE_SCHEDULE): key -> CollectiveSchedule.
        self._compiled: dict[tuple, CollectiveSchedule] = {}

    @property
    def size(self) -> int:
        return len(self.node_ids)

    @property
    def membership_digest(self) -> str:
        """Content digest of ``(epoch, node_ids)`` — the cache key
        component that distinguishes survivor-epoch schedules from the
        pristine ``range(N)`` grid (and from other survivor sets of the
        same size)."""
        blob = f"{self.epoch}:{','.join(map(str, self.node_ids))}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def shrink(self, dead_nodes: Sequence[int]) -> "ProcessGroup":
        """A new group over the survivors, one epoch later.

        Survivor order is preserved (ranks re-index densely), the
        original *requested* algorithm carries over (an ``"auto"`` group
        re-consults the tuner at the new size), and the new group gets a
        fresh ``group_id`` — engines register per group id, so the dead
        epoch's engines and the repaired epoch's engines never collide.
        """
        dead = set(dead_nodes)
        unknown = dead - set(self.node_ids)
        if unknown:
            raise ValueError(f"nodes {sorted(unknown)} not in group {self.group_id}")
        survivors = [n for n in self.node_ids if n not in dead]
        if not survivors:
            raise ValueError("cannot shrink a group to zero survivors")
        shrunk = ProcessGroup(
            survivors,
            algorithm=self.requested_algorithm,
            epoch=self.epoch + 1,
            id_allocator=self._id_allocator,
        )
        shrunk.parent_group_id = self.group_id
        return shrunk

    def repair(
        self,
        dead_nodes: Sequence[int],
        collectives: Sequence[str] = ("barrier",),
        payload_bytes: int = 0,
    ) -> "ProcessGroup":
        """Shrink *and* prove: compile the survivor schedules for the
        named collectives and run the full SL201–SL208 IR verification
        on each, so repair can never ship an unverified schedule.
        Raises :class:`ScheduleVerificationError` on any finding.
        """
        shrunk = self.shrink(dead_nodes)
        shrunk.verify_schedules(collectives, payload_bytes=payload_bytes)
        return shrunk

    def verify_schedules(
        self, collectives: Sequence[str], payload_bytes: int = 0
    ) -> None:
        """Run the schedule-IR verifier over this group's compiled
        schedules for ``collectives``.

        The static rules (SL201–SL206) prove the full-size survivor
        schedule.  The explicit-state model check (SL207–SL208) explores
        the *sequence automaton*, whose state space is exponential in
        the rank count, so — matching ``MODEL_CHECK_POINTS`` — it runs
        on a downscaled compile of the same ``(collective, algorithm)``
        pair: the automaton's transition table does not depend on the
        rank count, only on the protocol shape.  Verdicts are memoized
        process-wide (repair is on the recovery path; re-proving the
        same automaton point on every epoch turn would dominate it).
        """
        # Lazy import: collectives -> tools would otherwise be cyclic.
        from repro.tools.simlint.ir_verify import (
            model_check_schedule,
            verify_schedule,
        )

        findings = []
        for name in collectives:
            bytes_for = payload_bytes if name != "barrier" else 0
            schedule = self.collective_schedule(name, payload_bytes=bytes_for)
            findings.extend(verify_schedule(schedule))
            model_n = min(self.size, 2)
            model_key = (name, schedule.algorithm, model_n, bytes_for)
            model_findings = _model_verdicts.get(model_key)
            if model_findings is None:
                model_schedule = (
                    schedule
                    if model_n == self.size
                    else compile_schedule(
                        name, schedule.algorithm, model_n, bytes_for
                    )
                )
                model_findings, _states = model_check_schedule(model_schedule)
                _model_verdicts[model_key] = model_findings
            findings.extend(model_findings)
        if findings:
            raise ScheduleVerificationError(
                f"group {self.group_id} epoch {self.epoch}: "
                f"{len(findings)} IR finding(s) on recompiled schedules",
                findings,
            )

    def node_of(self, rank: int) -> int:
        return self.node_ids[rank]

    def rank_of(self, node_id: int) -> int:
        try:
            return self._rank_of[node_id]
        except KeyError:
            raise ValueError(f"node {node_id} is not in group {self.group_id}") from None

    def collective_schedule(
        self,
        collective: str,
        payload_bytes: int = 0,
        algorithm: str | None = None,
        root: int = 0,
    ) -> CollectiveSchedule:
        """The compiled schedule for one collective on this group.

        Compiled once per ``(collective, algorithm, payload, root)``
        and kept on the group; repeat starts replay the cached op
        lists.  ``algorithm=None`` follows the group's choice: the
        barrier runs ``self.algorithm``, fixed when the group was built,
        and an ``"auto"`` group asks the decision table for each data
        collective (the tuned winner for allreduce need not match
        barrier's).
        """
        if algorithm is None:
            if self.requested_algorithm == "auto" and collective != "barrier":
                algorithm = pick_algorithm(collective, self.size, payload_bytes)
            else:
                algorithm = self.algorithm
        key = (collective, algorithm, payload_bytes, root)
        schedule = self._compiled.get(key)
        if schedule is None:
            # Epoch-0 groups keep the pristine range(N) cache keys;
            # repaired epochs compile over their explicit survivor set
            # and key the shared cache on the membership digest.
            members = self.node_ids if self.epoch > 0 else None
            schedule = self._compiled[key] = compile_schedule(
                collective, algorithm, self.size, payload_bytes, root,
                members=members, membership_digest=(
                    self.membership_digest if self.epoch > 0 else None
                ),
            )
        return schedule

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._rank_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProcessGroup id={self.group_id} size={self.size}"
            f" algorithm={self.algorithm}>"
        )
