"""Host-side GM API: ports, sends, receive-event polling.

Mirrors the GM user-level interface shape the paper describes:
``gm_send_with_callback`` posts a send event across the PCI bus;
``gm_provide_receive_buffer`` preposts receive buffers; the host polls a
receive-event queue that the NIC DMAs events into.

Host costs (library overhead, polling) come from
:class:`repro.host.HostParams`; bus costs from :class:`repro.pci.PciBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.host import HostCpu
from repro.host.demux import EventDemux
from repro.myrinet.nic import LanaiNic
from repro.myrinet.structures import SendToken
from repro.network import PacketKind
from repro.pci import PciBus
from repro.sim import SimEvent, Simulator


@dataclass(frozen=True)
class GmRecvEvent:
    """A receive event the NIC DMAed into host memory."""

    src: int
    payload: Any
    size: int


class GmPort:
    """One host process's GM port.

    All methods that consume time are generators — call them with
    ``yield from`` inside a host process.
    """

    #: ``(attribute, what it buffers)`` of every :class:`EventDemux` the
    #: port holds; the quiescence audit reads each one.
    DEMUXES = (("_events", "unmatched GM receive events"),)

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: LanaiNic,
        cpu: HostCpu,
        pci: PciBus,
    ):
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.cpu = cpu
        self.pci = pci
        self._events = EventDemux(
            sim,
            cpu,
            nic.recv_event_queue,
            f"gm{node_id}.poll.seat",
            on_pop=_fire_send_completion,
            on_consume=self._repost_buffer,
        )
        # Prepost the configured number of receive buffers.
        nic.provide_recv_tokens(nic.params.recv_token_count)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        size_bytes: int,
        payload: Any = None,
        wait_completion: bool = False,
    ):
        """``gm_send_with_callback``: post a send event to the NIC.

        Returns (via generator return value) the token's completion
        event when ``wait_completion`` is requested, after blocking on
        it; otherwise returns immediately after the doorbell.
        """
        yield from self.cpu.compute(self.cpu.params.send_overhead_us, "send_overhead")
        completion: Optional[SimEvent] = None
        if wait_completion:
            completion = SimEvent(self.sim, name=f"send_done@{self.node_id}")
        token = SendToken(
            dst=dst,
            size_bytes=size_bytes,
            payload=payload,
            kind=PacketKind.DATA,
            notify_host=True,
            completion=completion,
        )
        yield from self.pci.pio_write()
        self.nic.post_send_event(token)
        if wait_completion:
            yield from self.recv_matching(
                lambda ev: isinstance(ev, SendToken) and ev is token
            )
        return token

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def provide_receive_buffer(self):
        """``gm_provide_receive_buffer``: repost one receive buffer."""
        yield from self.pci.pio_write()
        self.nic.provide_recv_tokens(1)

    def _repost_buffer(self, event):
        """Consuming a data receive event reposts its receive buffer."""
        if isinstance(event, GmRecvEvent):
            yield from self.provide_receive_buffer()

    def recv_matching(self, matches: Callable[[Any], bool]):
        """Block until an event satisfying ``matches`` arrives; events
        nobody wants yet are buffered for later calls (see
        :class:`~repro.host.demux.EventDemux`)."""
        return self._events.recv(matches)

    def poll_matching(self, matches: Callable[[Any], bool]):
        """One non-blocking poll: the matching event or ``None``."""
        return self._events.poll(matches)

    def spin_matching(self, matches: Callable[[Any], bool]):
        """Poll until an event satisfying ``matches`` arrives (see
        :meth:`~repro.host.demux.EventDemux.spin`)."""
        return self._events.spin(matches)

    def recv_from(self, src: int):
        """Receive the next data message from ``src``."""
        event = yield from self.recv_matching(
            lambda ev: isinstance(ev, GmRecvEvent) and ev.src == src
        )
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GmPort node={self.node_id} pending={len(self._events.pending)}>"


def _fire_send_completion(event) -> None:
    """A popped send token completes its sender's wait, matched or not."""
    if isinstance(event, SendToken) and event.completion is not None:
        if not event.completion.triggered:
            event.completion.succeed(event)
