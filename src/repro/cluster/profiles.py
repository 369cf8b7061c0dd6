"""Calibrated hardware profiles for the paper's three test systems.

Each profile decomposes per-step protocol costs into the constants the
simulator mechanically executes.  The decomposition is anchored to the
paper's measurements (§8):

- ``lanai_xp_xeon2400`` — 8-node dual-Xeon 2.4 GHz, PCI-X 133 MHz,
  Myrinet 2000 with 225 MHz LANai-XP.  Anchors: NIC-based barrier
  14.20 µs @ 8 nodes; 2.64x over host-based (≈ 37.5 µs); model
  3.60 + (⌈log2 N⌉−1)·3.50 + 3.84.
- ``lanai91_piii700`` — 16-node quad-P-III 700 MHz, PCI 66 MHz,
  Myrinet 2000 with 133 MHz LANai 9.1.  Anchors: NIC-based 25.72 µs @
  16 nodes; 3.38x over host-based (≈ 86.9 µs); prior-work direct
  scheme 1.86x (≈ 46.7 µs).
- ``elan3_piii700`` — 8-node quad-P-III 700 MHz, PCI 66 MHz, QsNet
  Elan3 (QM-400) on an Elite-16 fat tree.  Anchors: NIC-based barrier
  5.60 µs @ 8 nodes; 2.48x over ``elan_gsync`` (≈ 13.9 µs);
  ``elan_hgsync`` 4.20 µs.

The NIC task constants scale with NIC processor speed (LANai 9.1 at
133 MHz ≈ 1.7x slower than LANai-XP at 225 MHz), host constants with
host CPU speed, and bus constants with PCI generation — preserving the
paper's observation that a faster host/bus shrinks the offload win.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.host import HostParams
from repro.myrinet import GmParams
from repro.network import WireParams
from repro.pci import PciParams
from repro.quadrics import ElanParams


@dataclass(frozen=True)
class HardwareProfile:
    """Everything needed to instantiate one of the paper's clusters."""

    name: str
    network: str  # "myrinet" | "quadrics"
    description: str
    max_nodes: int
    wire: WireParams
    pci: PciParams
    host: HostParams
    gm: Optional[GmParams] = None
    elan: Optional[ElanParams] = None

    def __post_init__(self) -> None:
        if self.network not in ("myrinet", "quadrics"):
            raise ValueError(f"unknown network {self.network!r}")
        if self.network == "myrinet" and self.gm is None:
            raise ValueError("myrinet profile needs GmParams")
        if self.network == "quadrics" and self.elan is None:
            raise ValueError("quadrics profile needs ElanParams")


# ----------------------------------------------------------------------
# Shared physical constants
# ----------------------------------------------------------------------
# Myrinet 2000: 2 Gb/s links (250 B/µs), wormhole crossbars.
_MYRINET_WIRE = WireParams(
    inject_us=0.10,
    switch_latency_us=0.30,
    propagation_us=0.05,
    bandwidth_bytes_per_us=250.0,
)

# QsNet Elan3: 400 MB/µs links, very fast Elite switches.
_QSNET_WIRE = WireParams(
    inject_us=0.05,
    switch_latency_us=0.06,
    propagation_us=0.02,
    bandwidth_bytes_per_us=400.0,
)

# 66 MHz / 64-bit PCI (theoretical 528 MB/s; practical less) as driven
# by the LANai's DMA engine.
_PCI_66 = PciParams(pio_write_us=0.90, dma_setup_us=1.00, bandwidth_bytes_per_us=350.0)

# 133 MHz / 64-bit PCI-X.
_PCIX_133 = PciParams(pio_write_us=0.40, dma_setup_us=0.55, bandwidth_bytes_per_us=700.0)

# The same 66 MHz PCI as driven by the Elan3: Quadrics' DMA engine is
# engineered for tiny low-setup host-memory writes (doorbell-free
# command queues, direct host-word updates), so per-transaction setup
# is far below the LANai's.
_PCI_66_ELAN = PciParams(
    pio_write_us=0.30, dma_setup_us=0.25, bandwidth_bytes_per_us=350.0
)

# 700 MHz Pentium-III running GM's host library.
_HOST_PIII_700 = HostParams(
    send_overhead_us=2.60,
    recv_overhead_us=2.00,
    poll_us=1.10,
    poll_interval_us=1.10,
    barrier_call_us=0.50,
)

# The same P-III running Elanlib: a leaner user-level library (command
# queues + polled host words rather than descriptor queues).
_HOST_PIII_700_ELAN = HostParams(
    send_overhead_us=0.40,
    recv_overhead_us=0.45,
    poll_us=0.25,
    poll_interval_us=0.30,
    barrier_call_us=0.25,
)

# 2.4 GHz Xeon running GM's host library.
_HOST_XEON_2400 = HostParams(
    send_overhead_us=1.25,
    recv_overhead_us=0.95,
    poll_us=0.60,
    poll_interval_us=0.70,
    barrier_call_us=0.25,
)


# ----------------------------------------------------------------------
# Myrinet NIC control-program task costs
# ----------------------------------------------------------------------
# LANai-XP (225 MHz).  Collective-path anchor: t_rx_header +
# t_coll_trigger + t_inject + wire(~0.55) ≈ T_trig ≈ 3.5 µs.
_GM_LANAI_XP = GmParams(
    t_sdma_event=0.90,
    t_token_schedule=0.55,
    t_packet_alloc=0.45,
    t_fill=0.50,
    t_inject=0.55,
    t_send_record=0.40,
    t_rx_header=1.00,
    t_rdma_setup=0.80,
    t_recv_event=0.70,
    t_ack_gen=0.45,
    t_ack_process=0.45,
    t_token_complete=0.40,
    t_retransmit=0.50,
    t_coll_start=0.55,
    t_coll_trigger=1.25,
    t_coll_complete=0.45,
    t_nack_gen=0.45,
    t_nack_process=0.45,
    ack_timeout_us=400.0,
    nack_timeout_us=1000.0,
)

# LANai 9.1 (133 MHz): slower processor than LANai-XP throughout; the
# host-visible receive path (RDMA setup, receive events) is the part GM
# tuned least, hence its above-ratio cost.
_GM_LANAI_91 = GmParams(
    t_sdma_event=1.00,
    t_token_schedule=0.60,
    t_packet_alloc=0.45,
    t_fill=0.55,
    t_inject=0.85,
    t_send_record=0.40,
    t_rx_header=1.60,
    t_rdma_setup=2.30,
    t_recv_event=2.00,
    t_ack_gen=0.55,
    t_ack_process=0.55,
    t_token_complete=0.70,
    t_retransmit=0.85,
    t_coll_start=0.85,
    t_coll_trigger=1.55,
    t_coll_complete=0.60,
    t_nack_gen=0.55,
    t_nack_process=0.55,
    ack_timeout_us=600.0,
    nack_timeout_us=1500.0,
)

# Elan3: dedicated hardware units, far cheaper per operation.
_ELAN3 = ElanParams(
    t_event_fire=0.38,
    t_rdma_issue=0.50,
    t_pio_command=0.12,
    t_host_event=0.20,
    t_hw_flag_check=0.45,
    hw_retry_backoff_us=4.0,
)


PROFILES: dict[str, HardwareProfile] = {
    "lanai_xp_xeon2400": HardwareProfile(
        name="lanai_xp_xeon2400",
        network="myrinet",
        description=(
            "8-node dual-Xeon 2.4 GHz, PCI-X 133 MHz/64-bit, Myrinet 2000 "
            "with 225 MHz LANai-XP NICs (paper Fig. 6 / Fig. 8b)"
        ),
        max_nodes=4096,  # four-level Clos of Xbar16 crossbars
        wire=_MYRINET_WIRE,
        pci=_PCIX_133,
        host=_HOST_XEON_2400,
        gm=_GM_LANAI_XP,
    ),
    "lanai91_piii700": HardwareProfile(
        name="lanai91_piii700",
        network="myrinet",
        description=(
            "16-node quad-P-III 700 MHz, PCI 66 MHz/64-bit, Myrinet 2000 "
            "with 133 MHz LANai 9.1 NICs (paper Fig. 5)"
        ),
        max_nodes=4096,  # four-level Clos of Xbar16 crossbars
        wire=_MYRINET_WIRE,
        pci=_PCI_66,
        host=_HOST_PIII_700,
        gm=_GM_LANAI_91,
    ),
    "elan3_piii700": HardwareProfile(
        name="elan3_piii700",
        network="quadrics",
        description=(
            "8-node quad-P-III 700 MHz, PCI 66 MHz/64-bit, QsNet/Elan3 "
            "QM-400 on an Elite-16 quaternary fat tree (paper Fig. 7 / 8a)"
        ),
        max_nodes=16384,  # dimension-7 quaternary fat tree
        wire=_QSNET_WIRE,
        pci=_PCI_66_ELAN,
        host=_HOST_PIII_700_ELAN,
        elan=_ELAN3,
    ),
}


#: The profile a command runs on when it names only the network.
DEFAULT_PROFILE = {"myrinet": "lanai_xp_xeon2400", "quadrics": "elan3_piii700"}


def get_profile(name: str) -> HardwareProfile:
    """Look up a hardware profile by name.

    Lookup is forgiving about spelling variants of the same profile:
    case-insensitive, and dashes/underscores are interchangeable or
    omissible — ``LANAI_91_PIII_700``, ``lanai-xp-xeon2400`` and
    ``Elan3_PIII700`` all resolve.  Unknown names raise ``ValueError``
    listing the canonical choices.
    """
    profile = PROFILES.get(name)
    if profile is not None:
        return profile
    folded = name.lower().replace("-", "").replace("_", "")
    for key, candidate in PROFILES.items():
        if key.replace("_", "") == folded:
            return candidate
    raise ValueError(
        f"unknown profile {name!r}; choose from {sorted(PROFILES)}"
    )


#: GM retry budgets shrunk so that a dead peer exhausts them within a
#: run: ``(field, value)`` overrides of :class:`GmParams`.
RECOVERY_GM: tuple[tuple[str, float], ...] = (
    ("ack_timeout_us", 200.0),
    ("max_retries", 3),
    ("nack_timeout_us", 300.0),
    ("nack_max_rounds", 4),
)


def recovery_profile(profile: HardwareProfile) -> HardwareProfile:
    """``profile`` with the retry budgets a kill-and-repair run needs.

    Dying-epoch operations must resolve within the recovery window even
    when revocation loses the race with the retry machinery, so the GM
    ACK and NACK budgets shrink (:data:`RECOVERY_GM`).  Elan3 has no
    such budgets: Quadrics profiles come back unchanged.
    """
    if profile.gm is None:
        return profile
    return replace(profile, gm=replace(profile.gm, **dict(RECOVERY_GM)))
