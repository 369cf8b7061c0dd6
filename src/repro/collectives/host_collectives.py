"""Host-based broadcast / allgather / alltoall baselines over GM.

The comparison partners for the §9 extension collectives, exactly
parallel to how :func:`~repro.collectives.host_barrier.host_barrier`
is the baseline for the NIC-based barrier: the same trees and message
patterns, but every hop is a full GM send/receive — host library
overhead, PIO doorbell, token queues, payload + event DMA, polling —
and the host drives every phase transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.collectives.algorithms import binomial_children, binomial_parent
from repro.collectives.group import ProcessGroup
from repro.myrinet.gm_api import GmRecvEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort

BYTES_PER_VALUE = 4


def _recv_tagged(port: "GmPort", group: ProcessGroup, tag: tuple):
    event = yield from port.recv_matching(
        lambda ev: isinstance(ev, GmRecvEvent)
        and isinstance(ev.payload, tuple)
        and len(ev.payload) == 2
        and ev.payload[0] == (group.group_id,) + tag
    )
    return event.payload[1]


def _send_tagged(port: "GmPort", group: ProcessGroup, dst_rank: int, tag: tuple,
                 value: Any, nbytes: int):
    yield from port.send(
        group.node_of(dst_rank),
        size_bytes=nbytes,
        payload=((group.group_id,) + tag, value),
    )


def host_broadcast(
    port: "GmPort", group: ProcessGroup, seq: int, size_bytes: int,
    value: Any = None,
):
    """Binomial-tree broadcast rooted at rank 0, host-driven per hop.

    Returns the payload at every rank.
    """
    rank = group.rank_of(port.node_id)
    parent = binomial_parent(rank, group.size)
    if parent is not None:
        value = yield from _recv_tagged(port, group, ("bc", seq, rank))
    for child in binomial_children(rank, group.size):
        yield from _send_tagged(
            port, group, child, ("bc", seq, child), value, size_bytes
        )
    return value


def host_allgather(port: "GmPort", group: ProcessGroup, seq: int, value: Any):
    """Dissemination allgather, host-driven per round."""
    rank = group.rank_of(port.node_id)
    n = group.size
    known = {rank: value}
    gap = 1
    phase = 0
    while gap < n:
        dst = (rank + gap) % n
        src = (rank - gap) % n
        payload = tuple(sorted(known.items()))
        yield from _send_tagged(
            port, group, dst, ("ag", seq, phase, dst),
            payload, BYTES_PER_VALUE * len(payload),
        )
        incoming = yield from _recv_tagged(port, group, ("ag", seq, phase, rank))
        known.update(dict(incoming))
        gap <<= 1
        phase += 1
    assert len(known) == n
    return known


def host_alltoall(
    port: "GmPort", group: ProcessGroup, seq: int, blocks: Mapping[int, Any]
):
    """Linear pairwise alltoall (the straightforward host algorithm):

    round *k*: send my block for ``(rank + k)`` and receive from
    ``(rank - k)`` — N-1 rounds of single-block messages, versus the
    NIC engine's ``log2 N`` Bruck rounds."""
    rank = group.rank_of(port.node_id)
    n = group.size
    if set(blocks) != set(range(n)):
        raise ValueError("alltoall needs one block per destination rank")
    received = {rank: blocks[rank]}
    for k in range(1, n):
        dst = (rank + k) % n
        src = (rank - k) % n
        yield from _send_tagged(
            port, group, dst, ("a2a", seq, k, dst), blocks[dst], BYTES_PER_VALUE
        )
        received[src] = yield from _recv_tagged(port, group, ("a2a", seq, k, rank))
    return received
