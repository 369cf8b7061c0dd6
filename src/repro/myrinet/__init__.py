"""Myrinet: LANai NIC model + GM control program (MCP) + host GM API.

This models GM-2.0.3's architecture at the fidelity the paper reasons
about (§4.2):

Sending — the host posts a *send event* (PIO across PCI); the NIC
translates it into a *send token* appended to the per-destination send
queue; tokens to different destinations are serviced round-robin; a send
needs a *send packet* buffer from a finite pool; data is DMAed from host
memory into the packet; a per-packet *send record* (sequence number +
timestamp) is kept; unacknowledged packets are retransmitted on timeout.

Receiving — the host preposts receive buffers (receive tokens); the NIC
sequence-checks arriving packets (unexpected ⇒ dropped), DMAs payload to
host memory, generates a receive event for the host to poll, and returns
an ACK to the sender.

Every one of those steps runs as an explicit task on the (slow) LANai
processor, modeled as a capacity-1 resource — which is exactly the
processing the paper's collective protocol later bypasses.

Public pieces:

- :class:`~repro.myrinet.params.GmParams` — per-profile NIC task costs.
- :class:`~repro.myrinet.nic.LanaiNic` — NIC state + engine hooks.
- :class:`~repro.myrinet.mcp.ControlProgram` — the MCP processing loops.
- :class:`~repro.myrinet.gm_api.GmPort` — host-side GM API.
"""

from repro.myrinet.params import GmParams
from repro.myrinet.structures import SendRecord, SendToken
from repro.myrinet.nic import LanaiNic
from repro.myrinet.mcp import ControlProgram
from repro.myrinet.gm_api import GmPort, GmRecvEvent

__all__ = [
    "GmParams",
    "SendToken",
    "SendRecord",
    "LanaiNic",
    "ControlProgram",
    "GmPort",
    "GmRecvEvent",
]
