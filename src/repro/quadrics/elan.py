"""The Elan3 NIC: event unit and DMA engine.

Unlike the LANai (one processor doing everything), Elan3 has dedicated
functional units, modeled as separate capacity-1 arbitrated resources:

- the **event unit** processes arriving set-events and fires chained
  actions;
- the **DMA engine** processes RDMA descriptors and injects packets.

Every barrier modeled here — the chained-RDMA barrier (§7), ``elan_gsync``
and ``elan_hgsync`` — runs on these two units and the Elite switches.
The paper deliberately avoids the Elan thread processor ("an extra
thread does increase the processing load to the Elan NIC"), so the
model has none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.network import Fabric, Packet, PacketKind
from repro.pci import DmaDirection, PciBus
from repro.quadrics.events import ElanEvent
from repro.quadrics.params import ElanParams
from repro.sim import ArbitratedResource, Simulator, Store, Tracer


@dataclass(slots=True)
class RdmaDescriptor:
    """One RDMA descriptor in Elan SRAM.

    ``size_bytes == 0`` is the notification RDMA the barrier uses: no
    data, it just fires ``remote_event`` at ``dst``.  ``local_event``
    (if set) is set-evented locally once the packet is injected —
    that is what lets descriptors chain into a pipeline.

    ``group_id`` (optional) tags the descriptor with the collective
    group that armed it, so fabric per-flow accounting can attribute
    the resulting RDMA packets — it has no protocol effect.
    """

    dst: int
    remote_event: str
    size_bytes: int = 0
    local_event: Optional[str] = None
    payload: Any = None
    group_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("negative RDMA size")


class Elan3Nic:
    """One Elan3 NIC and its SRAM-resident event/descriptor state."""

    #: Tracer counter namespace of the NIC-level protocol.
    counter_prefix = "elan"
    #: Failure-detector hook (repro.collectives.membership): heartbeat
    #: probes are out-of-band link-level packets.  They touch neither the
    #: event unit nor the DMA engine, so detector traffic cannot perturb
    #: the calibrated barrier pipeline.
    heartbeat_probe_cost = None

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: ElanParams,
        fabric: Fabric,
        pci: PciBus,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric = fabric
        self.pci = pci
        self.tracer = tracer or Tracer()
        self.name = f"elan{node_id}"
        # Span lanes, one per functional unit (each is capacity-1, so
        # spans within a lane never overlap).
        self._event_lane = f"{self.name}.event"
        self._dma_lane = f"{self.name}.dma"

        # Same-instant clients of a unit are served in key order: a
        # process by its name, a callback chain by the key it names
        # below (the receive machine shares its slow path's key).
        self.event_unit = ArbitratedResource(sim, 1, name=f"{self.name}.events")
        self.dma_engine = ArbitratedResource(sim, 1, name=f"{self.name}.dma")
        self._notify_key = f"{self.name}.notify"
        self._rdma_key = f"{self.name}.rdma"
        self._rx_key = f"{self.name}.rx"

        self._events: dict[str, ElanEvent] = {}
        # RDMA-deposited values readable by the host after the paired
        # event fires (the "memory the RDMA wrote into").
        self.rdma_mailbox: dict[str, object] = {}
        # Receive side is a callback-driven state machine (strictly one
        # packet in processing at a time, like the old rx-loop process):
        # _rx_busy gates entry, arrivals during processing back up here.
        self._rx_backlog: deque[Packet] = deque()
        self._rx_busy = False
        # Host-visible notifications (host memory words the host polls).
        self.host_events = Store(sim, name=f"{self.name}.host_events")

        # Failure detection: every clean received packet refreshes the
        # sender's liveness; the heartbeat loop is opt-in via
        # repro.collectives.membership.enable_failure_detector.
        from repro.collectives.membership import MembershipView

        self.membership = MembershipView(node_id)
        #: Fail-stop flag: a killed node's NIC stops probing (the wire
        #: side of the kill is a fault-injector blackhole).
        self.crashed = False

        fabric.attach(node_id, self._on_wire_packet)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str) -> ElanEvent:
        ev = self._events.get(name)
        if ev is None:
            # The event shares its table key (a group's event names are
            # one string each, whatever the node count).
            ev = self._events[name] = ElanEvent(name)
        return ev

    def chain(self, trigger: str, threshold: int, descriptor: RdmaDescriptor) -> None:
        """Arm ``descriptor`` to fire when ``trigger`` reaches ``threshold``.

        This is the paper's chained-RDMA mechanism: the arming itself is
        a host-side SRAM write (cost paid by the caller); firing later
        costs only the DMA engine's issue time.
        """
        self.event(trigger).arm(threshold, lambda: self.issue_rdma(descriptor))

    def arm_host_notify(self, trigger: str, threshold: int, value: Any = None) -> None:
        """When ``trigger`` reaches ``threshold``, notify the host."""
        self.event(trigger).arm(threshold, lambda: self.notify_host(value))

    def notify_host(self, value: Any) -> None:
        """Post ``value`` to the host's event queue, as a fired event's
        action does: the event unit's cost, then a DMA to host memory."""
        # Callback chain (event unit -> PCI DMA -> host word): no
        # generator process per notification.
        self.event_unit.call(
            self._notify_key, self.params.t_host_event,
            self._notify_unit_done, value,
        )

    def _notify_unit_done(self, value: Any) -> None:
        tracer = self.tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(
                now - self.params.t_host_event, now, self._event_lane, "host_notify"
            )
        self.pci.dma_async(
            self._notify_key, self.params.host_event_bytes,
            DmaDirection.NIC_TO_HOST, self.host_events.post, value,
        )

    # ------------------------------------------------------------------
    # RDMA engine
    # ------------------------------------------------------------------
    def issue_rdma(self, descriptor: RdmaDescriptor) -> None:
        """Queue a descriptor on the DMA engine (fire-and-forget)."""
        # The barrier's bread and butter, a zero-byte notification RDMA,
        # needs no host-memory DMA and therefore no process: one engine
        # call covers its issue time.
        if descriptor.size_bytes == 0:
            self.dma_engine.call(
                self._rdma_key, self.params.t_rdma_issue,
                self._rdma_issue_done, descriptor,
            )
            return
        self.sim.process(self._rdma_proc(descriptor), name=self._rdma_key)

    def _rdma_issue_done(self, descriptor: RdmaDescriptor) -> None:
        """Tail of a zero-byte issue: the engine is free, inject the
        packet."""
        p = self.params
        tracer = self.tracer
        tracer.count("elan.rdma_issued")
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(
                now - p.t_rdma_issue, now, self._dma_lane, "rdma_issue",
                dst=descriptor.dst,
            )
        self.fabric.transmit(
            Packet(
                src=self.node_id,
                dst=descriptor.dst,
                kind=PacketKind.RDMA,
                size_bytes=p.rdma_packet_bytes,
                payload=descriptor,
            )
        )
        if descriptor.local_event is not None:
            self.event(descriptor.local_event).set_event()

    def _rdma_proc(self, descriptor: RdmaDescriptor):
        p = self.params
        yield self.dma_engine.request()
        start = self.sim.now
        yield p.t_rdma_issue
        # Data is fetched from host memory over the PCI bus.
        yield from self.pci.dma(descriptor.size_bytes, DmaDirection.HOST_TO_NIC)
        tracer = self.tracer
        if tracer.enabled:
            tracer.add_span(
                start, self.sim.now, self._dma_lane, "rdma_issue", dst=descriptor.dst
            )
        tracer.count("elan.rdma_issued")
        self.fabric.transmit(
            Packet(
                src=self.node_id,
                dst=descriptor.dst,
                kind=PacketKind.RDMA,
                size_bytes=p.rdma_packet_bytes + descriptor.size_bytes,
                payload=descriptor,
            )
        )
        self.dma_engine.release()
        if descriptor.local_event is not None:
            self.event(descriptor.local_event).set_event()

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _on_wire_packet(self, packet: Packet) -> None:
        if packet.corrupted:
            # Link-level CRC catches the mangled packet at the inbound
            # port; Elan3 has no end-to-end retransmission above that,
            # so the chaos campaign points corruption at Myrinet and
            # this discard exists to keep a stray corrupt packet from
            # firing events with a mangled descriptor.
            self.tracer.count("elan.rx_crc_drop")
            return
        self.membership.observe_alive(packet.src, self.sim.now)
        if packet.kind == PacketKind.HEARTBEAT:
            # Pure liveness probe; it never touches the rx machine.
            self.tracer.count("elan.heartbeat_rx")
            return
        if self._rx_busy:
            self._rx_backlog.append(packet)
        else:
            self._rx_busy = True
            self._rx_start(packet)

    def _rx_start(self, packet: Packet) -> None:
        descriptor = packet.payload
        if descriptor.size_bytes == 0:
            # The barrier's notification RDMA: only the event unit is
            # involved, so the whole receive is a callback chain.
            self.event_unit.call(
                self._rx_key, self.params.t_event_fire, self._rx_fire, descriptor
            )
            return
        self.sim.process(self._rx_slow(packet), name=self._rx_key)

    def _rx_fire(self, descriptor: RdmaDescriptor) -> None:
        tracer = self.tracer
        tracer.count("elan.event_fired")
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(
                now - self.params.t_event_fire, now, self._event_lane, "event_fire",
                event=descriptor.remote_event,
            )
        if descriptor.payload is not None:
            self.rdma_mailbox[descriptor.remote_event] = descriptor.payload
        self.event(descriptor.remote_event).set_event()
        self._rx_next()

    def _rx_next(self) -> None:
        if self._rx_backlog:
            self._rx_start(self._rx_backlog.popleft())
        else:
            self._rx_busy = False

    def _rx_slow(self, packet: Packet):
        """An RDMA that carries data: deposit it into host memory (true
        RDMA), then fire the remote event."""
        descriptor = packet.payload
        yield from self.pci.dma(descriptor.size_bytes, DmaDirection.NIC_TO_HOST)
        cost = self.params.t_event_fire
        yield from self.event_unit.hold(cost)
        tracer = self.tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(now - cost, now, self._event_lane, "event_fire")
        tracer.count("elan.event_fired")
        if descriptor.payload is not None:
            self.rdma_mailbox[descriptor.remote_event] = descriptor.payload
        self.event(descriptor.remote_event).set_event()
        self._rx_next()

    # ------------------------------------------------------------------
    # Epoch repair support
    # ------------------------------------------------------------------
    def disarm_events(self, prefix: str) -> int:
        """Disarm every armed action on events whose name starts with
        ``prefix`` (group revocation: a revoked chained-barrier group's
        events must never fire a straggler's RDMA chain or a stale done
        notification into the new epoch).  Returns the count disarmed.
        """
        disarmed = 0
        for name in sorted(self._events):
            if name.startswith(prefix):
                disarmed += self._events[name].disarm_all()
        if disarmed:
            self.tracer.count("elan.events_disarmed", disarmed)
        return disarmed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Elan3Nic {self.name} events={len(self._events)}>"
