"""The Myrinet Control Program: the NIC's processing loops.

Five loops run concurrently on the (single) LANai processor, contending
for it through ``nic.cpu_task``:

- **SDMA loop** — host send events → send tokens → per-destination
  queues (§4.2 "the NIC translates the event to a send token, and
  appends it to the send queue for the desired destination").
- **Send scheduler** — round-robin over destination queues; for each
  token: wait for a send packet, DMA the data from host memory, build
  the packet, create the send record, inject (§4.2).
- **Receive loop** — sequence check (unexpected ⇒ drop), payload RDMA
  into a host receive buffer, receive event to host, ACK back to the
  sender; also dispatches barrier/collective packets to the registered
  engines.
- **Timeout loop** — retransmits packets whose send record timed out.
- **Engine command loop** — host barrier-start commands → engines.

Each loop consumes its queue with the event-free hand-off
(:meth:`~repro.sim.resources.Store.take`; the NIC's producers
``post``): a queued item is taken with no kernel event, and an item
posted to a parked loop resumes it at once.  A receive task at delta
phase 0 on a free LANai with nothing pending is an express grant and
skips the arbitration pass.  Per packet that takes the put event,
the get hop and the pass off the receive path: an uncontended receive
task is one completion call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network import Packet, PacketKind
from repro.myrinet.structures import SendRecord, SendToken
from repro.pci import DmaDirection

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.nic import LanaiNic


class ControlProgram:
    """Drives a :class:`~repro.myrinet.nic.LanaiNic`'s protocol loops."""

    def __init__(self, nic: "LanaiNic"):
        self.nic = nic
        sim = nic.sim
        sim.process(self._sdma_loop(), name=f"{nic.name}.sdma")
        sim.process(self._send_scheduler(), name=f"{nic.name}.sched")
        sim.process(self._rx_loop(), name=f"{nic.name}.rx")
        sim.process(self._timeout_loop(), name=f"{nic.name}.timeout")
        sim.process(self._engine_cmd_loop(), name=f"{nic.name}.engine")

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def _sdma_loop(self):
        nic = self.nic
        while True:
            token = yield from nic.host_event_queue.take()
            yield from nic.cpu_task(nic.params.t_sdma_event, "sdma_event")
            nic.enqueue_send_token(token)

    def _send_scheduler(self):
        nic = self.nic
        while True:
            dst = yield from nic.sched_work.take()
            nic.rr_ring.append(dst)
            while nic.rr_ring:
                # Fold in any destinations that got work meanwhile so the
                # rotation covers them this round.
                while True:
                    extra = nic.sched_work.try_get()
                    if extra is None:
                        break
                    nic.rr_ring.append(extra)
                dst = nic.rr_ring.popleft()
                queue = nic.send_queues[dst]
                yield from nic.cpu_task(nic.params.t_token_schedule, "token_schedule")
                token = queue.popleft()
                yield from self._transmit_token(token)
                if queue:
                    nic.rr_ring.append(dst)  # round-robin: go to the back
                else:
                    nic.pending_dsts.discard(dst)

    def _transmit_token(self, token: SendToken):
        """The per-packet p2p send path for one token."""
        nic = self.nic
        p = nic.params
        remaining = token.size_bytes
        while True:
            chunk = min(remaining, p.mtu_bytes)
            # Wait for a send packet buffer (held until the ACK arrives,
            # so a retransmission does not have to re-claim one).
            buffer = yield from nic.packet_pool.take()
            yield from nic.cpu_task(p.t_packet_alloc, "packet_alloc")
            if token.notify_host:
                # Data lives in host memory: DMA it into the send packet.
                yield from nic.pci.dma(chunk, DmaDirection.HOST_TO_NIC)
            yield from nic.cpu_task(p.t_fill, "fill")
            seq = nic.next_seq[token.dst]
            nic.next_seq[token.dst] = seq + 1
            record = SendRecord(
                dst=token.dst,
                seq=seq,
                size_bytes=p.data_header_bytes + chunk,
                payload=token.payload,
                kind=token.kind,
                token=token,
                created_at=nic.sim.now,
                buffer=buffer,
            )
            nic.send_records[(token.dst, seq)] = record
            token.packets_outstanding += 1
            yield from nic.cpu_task(p.t_send_record, "send_record")
            nic.arm_record_timer(record)
            yield from nic.cpu_task(p.t_inject, "inject")
            nic.fabric.transmit(
                Packet(
                    src=nic.node_id,
                    dst=token.dst,
                    kind=token.kind,
                    size_bytes=record.size_bytes,
                    payload=token.payload,
                    seq=seq,
                )
            )
            remaining -= chunk
            if remaining <= 0:
                break
        token.all_packets_sent = True

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def _rx_loop(self):
        nic = self.nic
        p = nic.params
        while True:
            packet = yield from nic.rx_queue.take()
            yield from nic.cpu_task(p.t_rx_header, "rx_header")
            if packet.corrupted:
                # The CRC computed while the packet streamed in does not
                # match: discard silently.  The sender's timeout (p2p) or
                # the receiver's NACK timer (collective) recovers.
                nic.tracer.count("gm.rx_crc_drop")
                continue
            # Any clean packet is liveness evidence for its sender —
            # the failure detector piggybacks on protocol traffic and
            # only probes otherwise-silent links.
            nic.membership.observe_alive(packet.src, nic.sim.now)
            if packet.kind == PacketKind.DATA:
                yield from self._handle_data(packet)
            elif packet.kind == PacketKind.ACK:
                yield from self._handle_ack(packet)
            elif packet.kind == PacketKind.BARRIER and packet.seq is not None:
                # Direct scheme: the barrier message travelled the p2p
                # path, so it gets the full reliability treatment
                # (sequence check + ACK) before the engine sees it.
                yield from self._handle_p2p_barrier(packet)
            elif packet.kind in (PacketKind.BARRIER, PacketKind.BCAST):
                # Collective protocol: straight to the engine.
                engine = nic.engine_for(packet.payload.group_id)
                yield from engine.on_packet(packet)
            elif packet.kind == PacketKind.NACK:
                engine = nic.engine_for(packet.payload.group_id)
                yield from engine.on_nack(packet)
            elif packet.kind == PacketKind.HEARTBEAT:
                # Pure liveness probe; observe_alive above already
                # refreshed the sender's timestamp.
                nic.tracer.count("gm.heartbeat_rx")
            else:
                nic.tracer.count("gm.rx_unknown_kind")

    def _handle_data(self, packet: Packet):
        nic = self.nic
        p = nic.params
        expected = nic.expect_seq[packet.src]
        if packet.seq > expected:
            # Out of order: GM drops immediately; the sender retransmits.
            nic.tracer.count("gm.rx_unexpected")
            return
        if packet.seq < expected:
            # Duplicate of an already-delivered packet (its ACK was lost
            # or raced a timeout): re-ACK so the sender stops resending.
            nic.tracer.count("gm.rx_duplicate")
            yield from self._send_ack(packet)
            return
        if nic.recv_tokens_available <= 0:
            # No host receive buffer: drop; sender will retransmit.
            nic.tracer.count("gm.rx_no_token")
            return
        nic.recv_tokens_available -= 1
        nic.expect_seq[packet.src] = expected + 1
        payload_bytes = max(packet.size_bytes - p.data_header_bytes, 0)
        yield from nic.cpu_task(p.t_rdma_setup, "rdma_setup")
        yield from nic.pci.dma(payload_bytes, DmaDirection.NIC_TO_HOST)
        yield from nic.cpu_task(p.t_recv_event, "recv_event")
        from repro.myrinet.gm_api import GmRecvEvent

        yield from nic.notify_host(
            GmRecvEvent(src=packet.src, payload=packet.payload, size=payload_bytes)
        )
        yield from self._send_ack(packet)

    def _handle_p2p_barrier(self, packet: Packet):
        """Direct-scheme barrier message: p2p reliability, NIC consumption.

        Unlike host data, the payload never crosses the PCI bus — the
        NIC consumes it (that is the offload the prior work provides) —
        but the queueing/ACK overheads all still apply.
        """
        nic = self.nic
        expected = nic.expect_seq[packet.src]
        if packet.seq > expected:
            nic.tracer.count("gm.rx_unexpected")
            return
        if packet.seq < expected:
            nic.tracer.count("gm.rx_duplicate")
            yield from self._send_ack(packet)
            return
        nic.expect_seq[packet.src] = expected + 1
        yield from self._send_ack(packet)
        engine = nic.engine_for(packet.payload.group_id)
        yield from engine.on_packet(packet)

    def _send_ack(self, packet: Packet):
        nic = self.nic
        yield from nic.cpu_task(nic.params.t_ack_gen, "ack_gen")
        nic.fabric.transmit(
            Packet(
                src=nic.node_id,
                dst=packet.src,
                kind=PacketKind.ACK,
                size_bytes=nic.params.ack_bytes,
                payload=None,
                seq=packet.seq,
            )
        )

    def _handle_ack(self, packet: Packet):
        nic = self.nic
        p = nic.params
        record = nic.send_records.pop((packet.src, packet.seq), None)
        if record is None or record.acked:
            nic.tracer.count("gm.ack_stale")
            return
        record.acked = True
        record.cancel_timer()
        nic.packet_pool.post(record.buffer)
        yield from nic.cpu_task(p.t_ack_process, "ack_process")
        token = record.token
        token.packets_outstanding -= 1
        if (
            token.packets_outstanding == 0
            and token.all_packets_sent
            and token.notify_host
        ):
            yield from nic.cpu_task(p.t_token_complete, "token_complete")
            if token.completion is not None:
                yield from nic.notify_host(token)
            # (Without a completion event the token is recycled silently.)

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    def _timeout_loop(self):
        nic = self.nic
        p = nic.params
        while True:
            record = yield from nic.timeout_queue.take()
            if record.acked or record.abandoned:
                continue
            if record.retransmits >= p.max_retries:
                # GM declares the connection dead after the retry
                # budget; the record is abandoned (and the simulation
                # is guaranteed to drain).  The packet buffer and the
                # token's outstanding count are released like on an ACK
                # — otherwise a dead peer permanently leaks pool slots
                # and later sends to healthy peers starve.  The token's
                # host completion (if any) is deliberately left
                # untriggered: the send did fail.
                nic.tracer.count("gm.peer_dead")
                nic.membership.declare_dead(
                    record.dst,
                    nic.sim.now,
                    "retry-exhaustion",
                    detail=f"p2p seq {record.seq} kind {record.kind}",
                )
                record.abandoned = True
                nic.send_records.pop((record.dst, record.seq), None)
                record.token.packets_outstanding -= 1
                nic.packet_pool.post(record.buffer)
                payload = record.payload
                group_id = getattr(payload, "group_id", None)
                if (
                    record.kind == PacketKind.BARRIER
                    and group_id in nic.engines
                ):
                    # Direct-scheme barrier message: escalate to the
                    # engine so the barrier fails up to the host instead
                    # of silently missing one peer.
                    nic.post_engine_command((group_id, "peer-dead", payload.seq))
                continue
            record.retransmits += 1
            nic.tracer.count("gm.retransmit")
            yield from nic.cpu_task(p.t_retransmit, "retransmit")
            if record.abandoned:
                # Torn down (NIC restart) while we waited for the CPU:
                # re-arming would leak a timer for a dead record.
                continue
            nic.arm_record_timer(record)
            yield from nic.cpu_task(p.t_inject, "inject")
            nic.fabric.transmit(
                Packet(
                    src=nic.node_id,
                    dst=record.dst,
                    kind=record.kind,
                    size_bytes=record.size_bytes,
                    payload=record.payload,
                    seq=record.seq,
                )
            )

    # ------------------------------------------------------------------
    # Collective engines
    # ------------------------------------------------------------------
    def _engine_cmd_loop(self):
        nic = self.nic
        while True:
            command = yield from nic.engine_cmd_queue.take()
            engine = nic.engine_for(command[0])
            yield from engine.on_command(command[1:])
