"""Host-based barrier over GM point-to-point send/recv.

The baseline of Figs. 5 and 6: every barrier step is a full GM message
— host library overhead, PIO doorbell, NIC send path, wire, NIC receive
path, payload + event DMA to host memory, host polling — and the host
CPU drives every phase transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.group import ProcessGroup
from repro.collectives.messages import BarrierMsg
from repro.myrinet.gm_api import GmRecvEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort


def host_barrier(port: "GmPort", group: ProcessGroup, seq: int):
    """Execute one barrier at this node, entirely host-driven.

    Replays the rank's ops in the group's compiled barrier schedule:
    each ``send`` is one GM message, each ``recv`` waits for that
    peer's message (``reduce``/``dma`` have no host-barrier work).
    Messages from future barriers or phases that arrive early are
    buffered by :meth:`GmPort.recv_matching`, so back-to-back barrier
    iterations are safe.
    """
    rank = group.rank_of(port.node_id)
    gid = group.group_id
    yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
    for op in group.collective_schedule("barrier").ops(rank):
        if op.kind == "send":
            yield from port.send(
                group.node_of(op.peer),
                # "all the information ... is an integer" (§3)
                size_bytes=port.nic.params.barrier_payload_bytes,
                payload=BarrierMsg(gid, seq, rank, op.phase),
            )
        elif op.kind == "recv":
            yield from port.recv_matching(
                lambda ev, src=op.peer: isinstance(ev, GmRecvEvent)
                and isinstance(ev.payload, BarrierMsg)
                and ev.payload.group_id == gid
                and ev.payload.seq == seq
                and ev.payload.sender == src
            )
