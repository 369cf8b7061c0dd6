"""Elan3 / Elite timing constants (µs)."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ElanParams:
    """Per-profile Elan3 costs.

    NIC units:

    - ``t_event_fire`` — the event unit processes an arriving set-event
      (the zero-byte RDMA's destination side) and checks chained
      actions.
    - ``t_rdma_issue`` — the DMA engine processes one RDMA descriptor
      and injects the packet.
    - ``t_pio_command`` — host issues a command word to the Elan
      (memory-mapped store; much cheaper than Myrinet's doorbell path).
    - ``t_host_event`` — Elan writes a host-memory event word (the
      host polls that word; Elan's host writes are cheap).

    Hardware barrier (``elan_hgsync``):

    - ``t_hw_flag_check`` — per-NIC arrived-flag check during the
      test-and-set probe.
    - ``hw_retry_backoff_us`` — wait before re-probing when the test
      finds a missing participant (this is what makes ``hgsync``
      degrade when callers are not well synchronized).
    - ``hw_max_rounds`` — probe rounds before the controller gives up
      on a barrier (graceful degradation: ``elan_hgsync`` then falls
      back to the software tree).  The default is far above anything a
      straggler can cause, so clean runs never trip it.
    - ``hw_backoff_factor`` — per-retry multiplier on the probe
      backoff; the calibrated default 1.0 keeps the clean-run retry
      cadence (and the Fig. 7 anchors) exactly as before.
    - ``hw_backoff_cap_us`` — saturation for the backed-off probe
      interval; 0 means uncapped.

    Sizing: ``rdma_packet_bytes`` — a zero-byte RDMA still carries a
    routing/event header on the wire; ``host_event_bytes`` — the
    host-memory event word (plus tag) Elan DMAs on a host notification.
    """

    t_event_fire: float
    t_rdma_issue: float
    t_pio_command: float
    t_host_event: float
    t_hw_flag_check: float
    hw_retry_backoff_us: float
    rdma_packet_bytes: int = 32
    host_event_bytes: int = 8
    hw_max_rounds: int = 10000
    hw_backoff_factor: float = 1.0
    hw_backoff_cap_us: float = 0.0
    #: failure-detector heartbeat period; 0 disables the detector.
    heartbeat_period_us: float = 0.0
    #: silence beyond this declares the peer dead (0 -> 3 * period).
    heartbeat_timeout_us: float = 0.0
    #: detector loop exit time so the event heap drains (0 -> 64 * period).
    heartbeat_horizon_us: float = 0.0
    #: a heartbeat probe rides a host-event-sized packet.
    heartbeat_bytes: int = 8

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.startswith(("t_", "hw_")):
                if getattr(self, f.name) < 0:
                    raise ValueError(f"{f.name} must be non-negative")
        if self.rdma_packet_bytes < 1 or self.host_event_bytes < 1:
            raise ValueError("packet sizes must be positive")
        if self.hw_max_rounds < 1:
            raise ValueError("need at least one hardware-barrier round")
        if self.hw_backoff_factor < 1.0:
            raise ValueError("hw_backoff_factor must be >= 1.0")
        if (
            self.heartbeat_period_us < 0
            or self.heartbeat_timeout_us < 0
            or self.heartbeat_horizon_us < 0
        ):
            raise ValueError("heartbeat intervals must be non-negative")
        if self.heartbeat_bytes < 1:
            raise ValueError("heartbeat packets must have positive size")
