"""Communicators: per-rank handles over the NIC-based collectives.

One :func:`create_communicators` call builds the shared collective
contexts (process groups + NIC engines) and returns one handle per
rank.  Each collective kind gets its own group (as GM dedicates ports):
the engines demultiplex NIC traffic by group id.

MPI semantics reproduced:

- collectives must be called by *all* ranks in the same order; the
  per-rank operation counters keep sequence numbers aligned without
  any caller bookkeeping;
- ``bcast`` supports any root (a dedicated broadcast context per root,
  built lazily — a persistent-collective setup cost, not a per-call
  one);
- results are returned from the generator (``value = yield from
  comm.bcast(...)``);
- ULFM-style recovery: :func:`repair_communicators` revokes the dying
  epoch and shrinks the communicator onto the survivors, on either
  network; rank handles resync on their next collective call.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.cluster.builder import MyrinetCluster, QuadricsCluster
from repro.collectives import (
    NicAllgatherEngine,
    NicAllreduceEngine,
    NicAlltoallEngine,
    NicBroadcastEngine,
    NicCollectiveBarrierEngine,
    ProcessGroup,
    QuadricsChainedBarrier,
    Revoked,
    nic_allgather,
    nic_allreduce,
    nic_alltoall,
    nic_broadcast_recv,
    nic_broadcast_root,
    nic_ibarrier,
)


class _Contexts:
    """Shared collective state of one communicator, on either network.

    ``groups`` maps each offered collective to its process group (the
    engines demultiplex NIC traffic by group id).  :meth:`repair` is the
    one recovery path; a network supplies only ``revoke_epoch`` and
    ``_build`` (its per-node NIC state for the current groups).
    """

    def __init__(self, cluster, nodes: Sequence[int], algorithm: str,
                 collectives: Sequence[str]):
        self.cluster = cluster
        self.nodes = tuple(nodes)
        #: Repair generation — bumped by :meth:`repair`; rank handles
        #: lazily resync (rank re-index + sequence reset) when it moves.
        self.epoch = 0
        self._id_allocator = getattr(cluster, "group_ids", None)
        # ``algorithm`` picks the barrier's schedule; the data
        # collectives choose their own ("auto").
        self.groups = {
            name: ProcessGroup(
                nodes, algorithm=algorithm if name == "barrier" else "auto",
                id_allocator=self._id_allocator,
            )
            for name in collectives
        }
        self._build()

    @property
    def barrier_group(self) -> ProcessGroup:
        return self.groups["barrier"]

    def _groups(self) -> list[ProcessGroup]:
        return list(self.groups.values())

    def repair(self, dead_nodes: Sequence[int]) -> None:
        """Shrink every collective context onto the survivors.

        ULFM-style: revoke the dying epoch (every in-flight sequence
        resolves to :class:`Revoked`), build survivor groups one epoch
        later, IR-verify the recompiled schedules (SL201–SL208), and
        rebuild the NIC state.  Rank handles resync on their next
        collective call; handles on dead nodes raise :class:`Revoked`.
        """
        dead = set(dead_nodes)
        unknown = dead - set(self.nodes)
        if unknown:
            raise ValueError(f"nodes {sorted(unknown)} not in communicator")
        self.revoke_epoch()
        self.groups = {
            name: group.repair(dead, collectives=(name,))
            for name, group in self.groups.items()
        }
        self.nodes = tuple(n for n in self.nodes if n not in dead)
        self._build()
        self.epoch += 1


_MYRINET_ENGINES = {
    "barrier": NicCollectiveBarrierEngine,
    "allgather": NicAllgatherEngine,
    "alltoall": NicAlltoallEngine,
    "allreduce": NicAllreduceEngine,
}


class _MyrinetContexts(_Contexts):
    """Shared collective state for one Myrinet communicator."""

    def __init__(self, cluster: MyrinetCluster, nodes: Sequence[int], algorithm: str):
        super().__init__(cluster, nodes, algorithm, tuple(_MYRINET_ENGINES))

    def _build(self) -> None:
        # Broadcast contexts are root-relative: rebuilt lazily by
        # bcast_group() over the current node order.
        self._bcast_groups: dict[int, ProcessGroup] = {}
        for rank, node in enumerate(self.nodes):
            for name, engine in _MYRINET_ENGINES.items():
                engine(self.cluster.nics[node], self.groups[name], rank)

    def _groups(self) -> list[ProcessGroup]:
        return [*self.groups.values(), *self._bcast_groups.values()]

    def revoke_epoch(self) -> None:
        """Post the epoch-teardown command to every engine of every
        current group, on every member NIC — dead nodes included.

        A dead node's zombie control program still drains its command
        and event queues; revoking its engines resolves its outstanding
        sequences with typed failures, so its blocked host processes
        unblock and its queues audit clean (simlint SL104).
        """
        for group in self._groups():
            for node in group.node_ids:
                self.cluster.nics[node].post_engine_command(
                    (group.group_id, "epoch", -1)
                )

    def bcast_group(self, root: int) -> ProcessGroup:
        """The broadcast context rooted at ``root`` (rank), built lazily.

        The engine's tree is rooted at group-rank 0, so the group's
        node order is rotated to put ``root`` first.
        """
        group = self._bcast_groups.get(root)
        if group is None:
            rotated = self.nodes[root:] + self.nodes[:root]
            group = ProcessGroup(rotated, id_allocator=self._id_allocator)
            for rank, node in enumerate(rotated):
                NicBroadcastEngine(self.cluster.nics[node], group, rank)
            self._bcast_groups[root] = group
        return group


class _QuadricsContexts(_Contexts):
    """Shared collective state for one Quadrics communicator: the
    barrier group and one chained-RDMA driver per member node."""

    def __init__(self, cluster: QuadricsCluster, nodes: Sequence[int], algorithm: str):
        super().__init__(cluster, nodes, algorithm, ("barrier",))

    def _build(self) -> None:
        self.drivers = {
            node: QuadricsChainedBarrier(self.cluster.ports[node], self.barrier_group)
            for node in self.nodes
        }

    def revoke_epoch(self) -> None:
        """Disarm every member's driver — dead nodes included, so their
        blocked host processes resolve to :class:`Revoked` and their
        NICs' event queues drain (see
        :meth:`QuadricsChainedBarrier.revoke`)."""
        for node in self.nodes:
            self.drivers[node].revoke()


class _RankComm:
    """One rank's communicator handle: epoch resync and sequencing."""

    def __init__(self, ctx: _Contexts, rank: int):
        self._ctx = ctx
        self.rank = rank
        self.node = ctx.nodes[rank]
        self._port = ctx.cluster.ports[self.node]
        self._epoch = ctx.epoch
        self._seqs: dict[str, int] = {}

    @property
    def size(self) -> int:
        return len(self._ctx.nodes)

    def _sync_epoch(self) -> None:
        """Adopt the context's current epoch before a collective call.

        After a repair the survivor ranks re-index densely and every
        sequence counter restarts at 0 (the new groups have fresh ids,
        so old and new numbering spaces cannot collide).  A handle
        whose node did not survive raises :class:`Revoked` — the typed
        verdict, not a hang.
        """
        ctx = self._ctx
        if self._epoch == ctx.epoch:
            return
        if self.node not in ctx.nodes:
            raise Revoked(ctx.barrier_group.group_id, -1, node=self.node)
        self.rank = ctx.nodes.index(self.node)
        self._epoch = ctx.epoch
        self._seqs = {}

    def _next_seq(self, collective: str) -> int:
        """This rank's next sequence number for ``collective``."""
        self._sync_epoch()
        seq = self._seqs.get(collective, 0)
        self._seqs[collective] = seq + 1
        return seq

    def barrier(self):
        """MPI_Barrier: :meth:`ibarrier`, then wait on its request."""
        request = yield from self.ibarrier()
        yield from request.wait()


class MyrinetRankComm(_RankComm):
    """One rank's communicator handle on a Myrinet cluster."""

    def ibarrier(self):
        """MPI_Ibarrier over the NIC-based collective protocol: post
        the barrier, return a
        :class:`~repro.collectives.messages.CollectiveRequest`."""
        seq = self._next_seq("barrier")
        return (yield from nic_ibarrier(self._port, self._ctx.barrier_group, seq))

    def bcast(self, value: Any = None, size_bytes: int = 4, root: int = 0):
        """MPI_Bcast over the NIC-based broadcast tree.

        Returns the broadcast value at every rank (including the root).
        """
        self._sync_epoch()
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range")
        seq = self._next_seq("bcast")
        group = self._ctx.bcast_group(root)
        if self.rank == root:
            done = yield from nic_broadcast_root(
                self._port, group, seq, size_bytes, payload=value
            )
        else:
            done = yield from nic_broadcast_recv(self._port, group, seq)
        return done.payload

    def _data_collective(self, name: str, run, *args):
        seq = self._next_seq(name)
        return (yield from run(self._port, self._ctx.groups[name], seq, *args))

    def allgather(self, value: Any):
        """MPI_Allgather of one value per rank; returns ``{rank: value}``."""
        return (yield from self._data_collective("allgather", nic_allgather, value))

    def alltoall(self, blocks: dict):
        """MPI_Alltoall: ``blocks[dst_rank]`` is this rank's block for
        ``dst_rank``.  Returns ``{origin_rank: block}``."""
        return (yield from self._data_collective("alltoall", nic_alltoall, blocks))

    def allreduce(self, value: Any, op: str = "sum"):
        """MPI_Allreduce with a named operator (sum/prod/min/max)."""
        return (yield from self._data_collective(
            "allreduce", nic_allreduce, value, op
        ))


class QuadricsRankComm(_RankComm):
    """One rank's communicator handle on a Quadrics cluster.

    ``barrier()`` uses the chained-RDMA NIC barrier (§7); ``bcast`` is
    QsNet's hardware broadcast from rank 0.  The data collectives are
    not offered on this transport (the paper's Quadrics contribution is
    the barrier).
    """

    def _driver(self) -> QuadricsChainedBarrier:
        return self._ctx.drivers[self.node]

    def ibarrier(self):
        """MPI_Ibarrier over the chained-RDMA barrier: returns a
        :class:`~repro.collectives.messages.CollectiveRequest`."""
        seq = self._next_seq("barrier")
        return (yield from self._driver().ibarrier(seq))

    def bcast(self, value: Any = None, size_bytes: int = 4):
        """MPI_Bcast from rank 0 via QsNet's hardware broadcast."""
        from repro.quadrics import elan_hw_broadcast

        seq = self._next_seq("bcast")
        group = self._ctx.barrier_group
        return (yield from elan_hw_broadcast(
            self._port, group.node_ids, seq, size_bytes, value,
            event_prefix=f"hbcast.g{group.group_id}",
        ))


def repair_communicators(
    comms: Sequence[_RankComm], dead_nodes: Sequence[int]
) -> None:
    """Revoke a communicator's epoch and shrink it onto the survivors.

    Works on the handles :func:`create_communicators` returned, on
    either network.  Each network keeps its own revoke step (an engine
    epoch command per NIC on Myrinet, a driver disarm per rank on
    Quadrics); the survivor groups are recompiled and IR-verified.  The
    same handles stay valid: survivors resync on their next collective
    call, and handles on ``dead_nodes`` raise :class:`Revoked`.
    """
    if not comms:
        raise ValueError("no communicators to repair")
    comms[0]._ctx.repair(dead_nodes)


def create_communicators(
    cluster: Union[MyrinetCluster, QuadricsCluster],
    nodes: Optional[Sequence[int]] = None,
    algorithm: str = "dissemination",
):
    """Build one communicator handle per rank over ``cluster``.

    ``nodes`` selects/permutes the participating nodes (default: all,
    in order).
    """
    if isinstance(cluster, MyrinetCluster):
        contexts, handle = _MyrinetContexts, MyrinetRankComm
    elif isinstance(cluster, QuadricsCluster):
        contexts, handle = _QuadricsContexts, QuadricsRankComm
    else:
        raise TypeError(f"not a cluster: {cluster!r}")
    node_list = list(range(cluster.n)) if nodes is None else list(nodes)
    ctx = contexts(cluster, node_list, algorithm)
    return [handle(ctx, rank) for rank in range(len(node_list))]
