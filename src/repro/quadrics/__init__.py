"""Quadrics QsNet: Elan3 NIC, chained events, Elite switches, Elanlib.

The pieces the paper uses (§4.1, §7):

- **RDMA** — interprocess communication is remote DMA; an RDMA with *no
  data* fires a remote event, "a kind of notification to the remote
  process".
- **Chained events** — "a very useful chained event mechanism, which
  allows one RDMA descriptor to be triggered upon the completion of
  another RDMA descriptor".  This is the machinery the NIC-based
  barrier is built from: a list of chained RDMA descriptors, armed from
  user level, each triggered by the arrival of a remote event — no Elan
  thread needed.
- **Elanlib barriers** — ``elan_gsync()`` (tree gather-broadcast over
  zero-byte RDMAs into Elan events) and ``elan_hgsync()`` (hardware
  broadcast/test-and-set barrier, fast but requiring well-synchronized
  callers, falling back to the tree otherwise).

Unlike Myrinet, QsNet delivers reliably in hardware, so there is no
ACK/timeout machinery anywhere in this subpackage.
"""

from repro.quadrics.params import ElanParams
from repro.quadrics.events import ElanEvent
from repro.quadrics.elan import Elan3Nic, RdmaDescriptor
from repro.quadrics.elite import HardwareBarrier
from repro.quadrics.elanlib import (
    ElanPort,
    elan_gsync,
    elan_hgsync,
    elan_hw_broadcast,
)

__all__ = [
    "ElanParams",
    "ElanEvent",
    "Elan3Nic",
    "RdmaDescriptor",
    "HardwareBarrier",
    "ElanPort",
    "elan_gsync",
    "elan_hgsync",
    "elan_hw_broadcast",
]
