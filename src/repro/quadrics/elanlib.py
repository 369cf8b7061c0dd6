"""Elanlib: the host-side Quadrics programming library.

Provides the pieces the paper compares against and builds on:

- :class:`ElanPort` — per-process handle: host-triggered RDMA and
  host-event waiting (``GmPort``'s ``recv_matching`` /
  ``poll_matching`` / ``spin_matching``, so one request handle serves
  both networks).
- :func:`elan_gsync` — the tree-based gather-broadcast barrier (what
  ``elan_gsync()`` does when hardware broadcast is unavailable).  This
  is the "Elan-Barrier" series in Fig. 7.
- :func:`elan_hgsync` — the hardware-broadcast barrier ("Elan-HW-
  Barrier" in Fig. 7), falling back to the tree when the Elite
  controller gives up on a barrier.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.host import HostCpu
from repro.host.demux import EventDemux
from repro.pci import PciBus
from repro.quadrics.elan import Elan3Nic, RdmaDescriptor
from repro.quadrics.elite import HardwareBarrier
from repro.sim import Simulator

#: Fan-out of Elanlib's gather-broadcast tree.
GSYNC_DEGREE = 4


class ElanPort:
    """One host process's window onto its Elan3 NIC."""

    #: ``(attribute, what it buffers)`` of every :class:`EventDemux` the
    #: port holds; the quiescence audit reads each one.
    DEMUXES = (("_host_events", "unconsumed host event words"),)

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: Elan3Nic,
        cpu: HostCpu,
        pci: PciBus,
    ):
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.cpu = cpu
        self.pci = pci
        self._host_events = EventDemux(
            sim, cpu, nic.host_events, f"elan{node_id}.hostev.seat"
        )

    # ------------------------------------------------------------------
    # Command issue (host -> Elan)
    # ------------------------------------------------------------------
    def _command(self):
        """Issue one command word to the Elan (PIO + NIC pickup)."""
        yield from self.pci.pio_write()
        yield self.nic.params.t_pio_command

    def trigger_rdma(self, descriptor: RdmaDescriptor):
        """Host-triggered RDMA: how a barrier chain is kicked off (§7:
        "the very first RDMA operation, which the host process triggers
        to initiate a barrier operation")."""
        yield from self._command()
        self.nic.issue_rdma(descriptor)

    # ------------------------------------------------------------------
    # Host events (completion notifications from the NIC)
    # ------------------------------------------------------------------
    def recv_matching(self, matches: Callable[[Any], bool]):
        """Block until a host event satisfying ``matches`` arrives;
        events nobody wants yet are buffered for later calls (see
        :class:`~repro.host.demux.EventDemux`)."""
        return self._host_events.recv(matches)

    def poll_matching(self, matches: Callable[[Any], bool]):
        """One non-blocking poll: the matching host event or ``None``."""
        return self._host_events.poll(matches)

    def spin_matching(self, matches: Callable[[Any], bool]):
        """Poll until a matching host event arrives (see
        :meth:`~repro.host.demux.EventDemux.spin`)."""
        return self._host_events.spin(matches)


# ----------------------------------------------------------------------
# Elanlib barriers
# ----------------------------------------------------------------------
def elan_gsync(
    port: ElanPort,
    ranks: Sequence[int],
    seq: int,
    event_prefix: str = "gsync",
):
    """Tree-based gather-broadcast barrier (host-driven per level).

    Combining uses zero-byte RDMAs into per-node Elan *events*: a
    parent's "up" event word accumulates one set-event per child, so the
    parent polls a single host word instead of matching one message per
    child (up to :data:`GSYNC_DEGREE`).  The release fans back down the
    same way.  The host still drives every tree level — that host → NIC
    → wire → NIC → host turnaround per level is what the chained-RDMA
    barrier eliminates and beats by 2.48x (§8.2).

    Event words are cumulative, so back-to-back barriers with the same
    ``ranks`` reuse them with growing thresholds; ``event_prefix``
    gives a caller mixing gsync with another user of the same events
    (e.g. the hardware-barrier fallback path, whose ``seq`` numbering
    is independent) its own event words.
    """
    yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
    ranks = list(ranks)
    index = ranks.index(port.node_id)
    size = len(ranks)
    first_child = index * GSYNC_DEGREE + 1
    children = range(first_child, min(first_child + GSYNC_DEGREE, size))
    parent = None if index == 0 else (index - 1) // GSYNC_DEGREE
    nic = port.nic
    up_event = f"{event_prefix}_up"
    down_event = f"{event_prefix}_down"
    up_word = (f"{event_prefix}-up", seq)
    down_word = (f"{event_prefix}-down", seq)
    if children:
        nic.arm_host_notify(up_event, (seq + 1) * len(children), value=up_word)
        yield from port.recv_matching(lambda ev: ev == up_word)
    if parent is not None:
        yield from port.trigger_rdma(
            RdmaDescriptor(dst=ranks[parent], remote_event=up_event)
        )
        nic.arm_host_notify(down_event, seq + 1, value=down_word)
        yield from port.recv_matching(lambda ev: ev == down_word)
    for child in children:
        yield from port.trigger_rdma(
            RdmaDescriptor(dst=ranks[child], remote_event=down_event)
        )


def elan_hw_broadcast(
    port: ElanPort,
    ranks: Sequence[int],
    seq: int,
    size_bytes: int = 0,
    value: Any = None,
    event_prefix: str = "hbcast",
):
    """Hardware-broadcast a payload from ``ranks[0]`` to every rank.

    QsNet's Elite switches replicate a single packet down the fat tree
    (§1: "Some modern interconnects, such as QsNet ... provide hardware
    broadcast primitives"), so delivery is one tree traversal for all
    receivers; each NIC then RDMAs the payload into host memory and
    fires the arrival event.  Returns the payload at every rank.

    As with the hardware barrier, the primitive needs the contiguous
    node set the fabric replicates to — the caller's ``ranks``.

    ``event_prefix`` scopes the arrival event word and mailbox slot to
    one caller: two communicators broadcasting concurrently through the
    same NIC (overlapping jobs on a shared node) must not share the
    cumulative notify threshold or clobber each other's mailbox — each
    passes its own prefix (e.g. ``hbcast.g<group_id>``) and its own
    independent ``seq`` numbering.
    """
    from repro.network import Packet, PacketKind
    from repro.quadrics.elan import RdmaDescriptor

    ranks = list(ranks)
    root = ranks[0]
    nic = port.nic
    event_name = event_prefix
    event_word = (event_prefix, seq)
    nic.arm_host_notify(event_name, seq + 1, value=event_word)
    if port.node_id == root:
        yield from port.cpu.compute(port.cpu.params.send_overhead_us, "send_overhead")
        yield from port._command()
        if size_bytes > 0:
            from repro.pci import DmaDirection

            yield from port.pci.dma(size_bytes, DmaDirection.HOST_TO_NIC)
        # Receivers RDMA `size_bytes` into host memory on arrival.
        descriptor = RdmaDescriptor(
            dst=root, remote_event=event_name, size_bytes=size_bytes, payload=value
        )
        port.nic.fabric.broadcast(
            Packet(
                src=root,
                dst=root,
                kind=PacketKind.BCAST,
                size_bytes=nic.params.rdma_packet_bytes + size_bytes,
                payload=descriptor,
            ),
            targets=ranks,
        )
    yield from port.recv_matching(lambda ev: ev == event_word)
    return nic.rdma_mailbox.get(event_name)


def elan_hgsync(
    port: ElanPort,
    hw_barrier: HardwareBarrier,
    ranks: Sequence[int],
    seq: int,
    fallback: bool = True,
):
    """The hardware barrier, with the software tree as its fallback.

    Entry is a PIO that sets the NIC's arrived flag; the Elite
    test-and-set does the rest.

    Graceful degradation: when the Elite controller exhausts its probe
    budget (``ElanParams.hw_max_rounds``) it publishes a failure word
    instead of the release.  With ``fallback=True`` (the default) the
    library then runs the software tree barrier for this seq — slower,
    but correct — counting ``elan.hw_fallback``; with ``fallback=False``
    the failure surfaces as :class:`~repro.collectives.BarrierFailure`.
    """
    yield from port.cpu.compute(port.cpu.params.barrier_call_us, "barrier_call")
    yield from port.pci.pio_write()
    yield port.nic.params.t_hw_flag_check  # NIC commits the arrived flag
    release = hw_barrier.enter(port.node_id, seq)
    failed = False
    while True:
        got = yield from release.take()
        if got == seq:
            break
        if got == ("hw-failed", seq):
            failed = True
            break
    # The host discovers the release (or the failure word) by polling
    # its memory word.
    yield port.cpu.params.poll_interval_us / 2.0
    yield from port.cpu.compute(port.cpu.params.poll_us, "poll")
    yield from port.cpu.compute(port.cpu.params.recv_overhead_us, "recv_overhead")
    if not failed:
        return
    if not fallback:
        # Deferred import: collectives imports quadrics pieces at
        # package-init time, so a top-level import here would be
        # circular.
        from repro.collectives.failures import FailureReason
        from repro.collectives.messages import BarrierFailure

        raise BarrierFailure(
            -1,
            seq,
            FailureReason.HW_BUDGET.value,
            node=port.node_id,
        )
    port.nic.tracer.count("elan.hw_fallback")
    # The fallback tree numbers its barriers by *failure ordinal*, not
    # by the caller's seq: the cumulative gsync event thresholds must
    # advance by exactly one per tree barrier actually run.
    yield from elan_gsync(
        port, ranks, hw_barrier.fallback_ordinal(seq), event_prefix="hwfb"
    )
