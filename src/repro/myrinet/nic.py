"""LANai NIC state: processor, queues, pools, connection state.

The NIC processor is a capacity-1 resource; *every* control-program task
(and every collective-engine task) runs through :meth:`LanaiNic.cpu_task`,
so processing serializes exactly as on the real single-core LANai.  The
processing *loops* that consume the queues live in
:class:`repro.myrinet.mcp.ControlProgram`.

Collective/barrier engines (the paper's contribution, and the prior-work
direct scheme) plug in via :meth:`register_engine`; the MCP's receive
loop dispatches ``BARRIER``/collective-``NACK`` packets to them, and the
engine command loop feeds them host commands.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Optional

from repro.network import Fabric, Packet, PacketKind
from repro.myrinet.params import GmParams
from repro.myrinet.structures import SendRecord, SendToken
from repro.pci import DmaDirection, PciBus
from repro.sim import ArbitratedResource, PriorityStore, Simulator, Store, Tracer

#: The MCP main loop's polling priority over its work sources: receive
#: DMA first (the wormhole fabric backpressures until rx drains), then
#: expired retransmission timers, then host send events, then the send
#: scheduler, then collective-engine commands.  Same-instant contention
#: for the LANai among the five service loops resolves in this order —
#: a fixed hardware property, not event-scheduling luck (simlint SL101).
_MCP_LOOP_PRIORITY = {
    "rx": 0,
    "timeout": 1,
    "sdma": 2,
    "sched": 3,
    "engine": 4,
    # The failure detector's probe loop runs at the lowest priority:
    # heartbeats ride whatever LANai cycles the protocol loops leave.
    "hb": 5,
}


def _cpu_arbitration_key(process_name: str) -> tuple:
    loop = process_name.rsplit(".", 1)[-1]
    return (_MCP_LOOP_PRIORITY.get(loop, len(_MCP_LOOP_PRIORITY)), process_name)


class LanaiNic:
    """One Myrinet NIC: LANai processor + SRAM-resident protocol state."""

    #: Tracer counter namespace of the NIC-level protocol.
    counter_prefix = "gm"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: GmParams,
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
        self.name = f"lanai{node_id}"

        # The LANai processor.  Arbitrated: same-instant task requests
        # from different MCP loops grant in _MCP_LOOP_PRIORITY order.
        self.cpu = ArbitratedResource(
            sim, capacity=1, name=f"{self.name}.cpu",
            key_fn=_cpu_arbitration_key,
        )
        self.busy_us = 0.0
        self._cpu_lane = f"{self.name}.cpu"

        # Host -> NIC work (arrive after the host's PIO doorbell).
        self.host_event_queue = Store(sim, name=f"{self.name}.host_events")
        self.engine_cmd_queue = PriorityStore(sim, name=f"{self.name}.engine_cmds")

        # Wire -> NIC.  Same-cycle arrivals are presented in port order
        # (src, then protocol ids), not event-heap insertion order: the
        # real LANai's receive DMA arbitrates deterministically, and the
        # model must not let scheduler tie-breaking pick the service
        # order (simlint SL101 catches exactly that divergence).
        self.rx_queue = PriorityStore(sim, name=f"{self.name}.rx")

        # P2P send path state.
        self.send_queues: dict[int, deque[SendToken]] = defaultdict(deque)
        self.sched_work = Store(sim, name=f"{self.name}.sched")
        self.pending_dsts: set[int] = set()
        self.rr_ring: deque[int] = deque()
        # Free list of send packet buffers.  The send scheduler is its
        # only taker; an ACK, retry exhaustion or a restart posts the
        # record's buffer back.
        self.packet_pool = Store(sim, name=f"{self.name}.pktpool")
        for buffer in range(params.send_packet_count):
            self.packet_pool.post(buffer)

        # Reliability state.
        self.send_records: dict[tuple[int, int], SendRecord] = {}
        self.timeout_queue = PriorityStore(sim, name=f"{self.name}.timeouts")
        self.next_seq: dict[int, int] = defaultdict(int)
        self.expect_seq: dict[int, int] = defaultdict(int)

        # Receive side.
        self.recv_tokens_available = 0
        self.recv_event_queue = Store(sim, name=f"{self.name}.recv_events")

        # Collective / barrier engines by group id.
        self.engines: dict[int, Any] = {}

        # Failure detection: every received packet refreshes the
        # sender's liveness for free; the active heartbeat loop is
        # opt-in via repro.collectives.membership.enable_failure_detector.
        from repro.collectives.membership import MembershipView

        self.membership = MembershipView(node_id)
        self.crashed = False

        fabric.attach(node_id, self._on_wire_packet)

        # Start the control program loops.
        from repro.myrinet.mcp import ControlProgram

        self.mcp = ControlProgram(self)

    # ------------------------------------------------------------------
    # NIC processor
    # ------------------------------------------------------------------
    def cpu_task(self, cost: float, label: Optional[str] = None):
        """Run one control-program task of ``cost`` µs on the LANai.

        ``label`` names the protocol step on the NIC lane of a span
        timeline; it costs nothing when tracing is disabled.
        """
        yield from self.cpu.hold(cost)
        self.busy_us += cost
        tracer = self.tracer
        if tracer.enabled:
            now = self.sim.now
            tracer.add_span(now - cost, now, self._cpu_lane, label or "task")

    # ------------------------------------------------------------------
    # Host-facing entry points (called from host-side code)
    # ------------------------------------------------------------------
    def post_send_event(self, token: SendToken) -> None:
        """A host send event has crossed the PCI bus."""
        self.host_event_queue.post(token)

    def post_engine_command(self, command: tuple) -> None:
        """A host command for a collective engine crossed the bus.

        Same-instant commands (e.g. a NACK-timer pop racing a host
        start) are ordered by ``(group, kind, seq)``, not by scheduler
        tie-breaking.
        """
        self.engine_cmd_queue.post_item(
            command, (self.sim.now, command[0], command[1], command[2])
        )

    def provide_recv_tokens(self, count: int = 1) -> None:
        self.recv_tokens_available += count

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    def register_engine(self, group_id: int, engine: Any) -> None:
        if group_id in self.engines:
            raise ValueError(f"group {group_id} already has an engine on {self.name}")
        self.engines[group_id] = engine

    def engine_for(self, group_id: int) -> Any:
        engine = self.engines.get(group_id)
        if engine is None:
            raise KeyError(f"no engine for group {group_id} on {self.name}")
        return engine

    # ------------------------------------------------------------------
    # Failure detector hook (repro.collectives.membership)
    # ------------------------------------------------------------------
    def heartbeat_probe_cost(self):
        """A heartbeat probe is injected by the LANai like any packet."""
        return self.cpu_task(self.params.t_inject, "hb_inject")

    # ------------------------------------------------------------------
    # Wire-facing
    # ------------------------------------------------------------------
    def _on_wire_packet(self, packet: Packet) -> None:
        self.rx_queue.post_item(packet, self._arrival_key(packet))

    def _arrival_key(self, packet: Packet) -> tuple:
        """Canonical receive-arbitration key: arrival time, then port
        order, then protocol identifiers (so two same-cycle packets from
        one source — e.g. an original and a NACKed retransmit for
        different phases — also order deterministically)."""
        payload = packet.payload
        seq = packet.seq
        if payload is None:  # a heartbeat, a bare ACK: no lookups
            return (
                self.sim.now, packet.src, packet.kind,
                -1 if seq is None else seq, -1, -1, -1,
            )
        return (
            self.sim.now,
            packet.src,
            packet.kind,
            seq if seq is not None else -1,
            getattr(payload, "seq", -1),
            getattr(payload, "phase", -1),
            getattr(payload, "requester", -1),
        )

    def fast_inject(self, dst: int, payload: Any, kind: str = PacketKind.BARRIER):
        """Collective-protocol send: the padded static packet (§6.2).

        No queue traversal, no packet allocation, no per-packet send
        record, no ACK — only the injection task and the wire.
        """
        yield from self.cpu_task(self.params.t_inject, "coll_inject")
        packet = Packet(
            src=self.node_id,
            dst=dst,
            kind=kind,
            size_bytes=self.params.barrier_packet_bytes,
            payload=payload,
        )
        self.fabric.transmit(packet)

    def coll_inject(self, dst: int, payload: Any, data_bytes: int):
        """Data-collective send: one injection on the collective fast
        path carrying ``data_bytes`` of payload behind the data header.

        The data-bearing sibling of :meth:`fast_inject` — same
        dedicated-queue dispatch (no p2p tokens/records/ACKs), but the
        packet is sized by the collective's data instead of the barrier
        pad.  Every engine send and NACK retransmission goes through
        here, so the wire-cost model lives in exactly one place.
        """
        yield from self.cpu_task(self.params.t_inject, "coll_inject")
        self.fabric.transmit(
            Packet(
                src=self.node_id,
                dst=dst,
                kind=PacketKind.BCAST,
                size_bytes=self.params.data_header_bytes + data_bytes,
                payload=payload,
            )
        )

    def send_nack(self, dst: int, payload: Any):
        """Receiver-driven reliability: request a retransmission (§6.3)."""
        yield from self.cpu_task(self.params.t_nack_gen, "nack_gen")
        packet = Packet(
            src=self.node_id,
            dst=dst,
            kind=PacketKind.NACK,
            size_bytes=self.params.ack_bytes,
            payload=payload,
        )
        self.tracer.count("coll.nack_sent")
        self.fabric.transmit(packet)

    def notify_host(self, event: Any):
        """DMA a completion/receive event into host memory."""
        yield from self.pci.dma(self.params.recv_event_bytes, DmaDirection.NIC_TO_HOST)
        self.recv_event_queue.post(event)

    # ------------------------------------------------------------------
    # P2P send path entry (from the SDMA loop or a NIC-resident engine)
    # ------------------------------------------------------------------
    def enqueue_send_token(self, token: SendToken) -> None:
        """Append a token to its destination queue; wake the scheduler.

        The caller has already paid the NIC CPU cost of building the
        token (``t_sdma_event`` on the host path).
        """
        token.enqueued_at = self.sim.now
        self.send_queues[token.dst].append(token)
        if token.dst not in self.pending_dsts:
            self.pending_dsts.add(token.dst)
            self.sched_work.post(token.dst)

    # ------------------------------------------------------------------
    # Reliability timers
    # ------------------------------------------------------------------
    def arm_record_timer(self, record: SendRecord) -> None:
        # Exponential backoff: each retry waits longer (capped), so a
        # transient outage is probed densely and a long one cheaply.
        record.timer = self.sim.schedule(
            self.params.ack_backoff_us(record.retransmits),
            self._on_record_timeout,
            record,
        )

    def _on_record_timeout(self, record: SendRecord) -> None:
        record.timer = None
        if not record.acked and not record.abandoned:
            # Timers armed at the same instant expire together; retry in
            # record-table order, not timer-heap tie-break order.
            self.timeout_queue.post_item(
                record, (self.sim.now, record.dst, record.seq)
            )

    # ------------------------------------------------------------------
    # Crash / restart (chaos campaign)
    # ------------------------------------------------------------------
    def schedule_crash(self, at_us: float, restart_delay_us: float) -> None:
        """Crash the control program at ``at_us``; restart after
        ``restart_delay_us``.

        The wire side of the crash (the NIC neither sends nor receives
        while down) is modeled by the fault injector's matching
        :meth:`~repro.network.faults.FaultInjector.crash_window` — the
        NIC side modeled here is the *volatile state loss*: at restart
        the LANai's SRAM-resident send records and collective engine
        states are gone, so every in-flight operation is abandoned (its
        resources released) and every in-flight NIC collective fails up
        to the host.  Host-memory-backed queues (send events, receive tokens)
        survive: the driver re-hands them to the restarted firmware.
        """
        if restart_delay_us <= 0:
            raise ValueError("restart_delay_us must be positive")
        self.crashed = False
        self.sim.schedule(at_us, self._crash)
        self.sim.schedule(at_us + restart_delay_us, self._restart)

    def _crash(self) -> None:
        self.crashed = True
        self.tracer.count("gm.nic_crash")

    def _restart(self) -> None:
        self.crashed = False
        self.tracer.count("gm.nic_restart")
        for key in sorted(self.send_records):
            record = self.send_records.pop(key)
            record.abandoned = True
            record.cancel_timer()
            record.token.packets_outstanding -= 1
            self.tracer.count("gm.crash_record_lost")
            self.packet_pool.post(record.buffer)
        for group_id in sorted(self.engines):
            self.sim.process(
                self.engines[group_id].on_nic_restart(),
                name=f"{self.name}.engine_restart",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LanaiNic {self.name} busy={self.busy_us:.1f}us>"
