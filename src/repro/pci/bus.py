"""The shared host I/O bus with PIO and DMA transactions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.sim import ArbitratedResource, Simulator, Tracer


class DmaDirection(enum.Enum):
    """Transfer direction, named from the host's point of view."""

    HOST_TO_NIC = "host_to_nic"
    NIC_TO_HOST = "nic_to_host"


@dataclass(frozen=True)
class PciParams:
    """Bus timing constants (µs / bytes-per-µs).

    ``pio_write_us`` — one programmed-I/O write (doorbell / small
    descriptor store across the bus).  ``dma_setup_us`` — DMA engine
    setup and bus acquisition overhead per transaction.
    """

    pio_write_us: float
    dma_setup_us: float
    bandwidth_bytes_per_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if self.pio_write_us < 0 or self.dma_setup_us < 0:
            raise ValueError("bus timing constants must be non-negative")

    def dma_time(self, nbytes: int) -> float:
        return self.dma_setup_us + nbytes / self.bandwidth_bytes_per_us


class PciBus:
    """One host's I/O bus, shared by all bus masters on that node.

    Transactions serialize through a capacity-1 arbitrated resource:
    same-instant bus masters are granted in canonical key order (the
    process name, or the key a callback chain names), not event-heap
    order.  Use from a process::

        yield from bus.pio_write()          # doorbell
        yield from bus.dma(64, DmaDirection.NIC_TO_HOST)
    """

    def __init__(
        self,
        sim: Simulator,
        params: PciParams,
        name: str = "pci",
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.params = params
        self.name = name
        self.tracer = tracer or Tracer()
        self._bus = ArbitratedResource(sim, capacity=1, name=f"{name}.bus")
        self.pio_count = 0
        self.dma_count = 0
        self.bytes_transferred = 0
        self._pio_counter = f"{name}.pio"
        self._dma_counter = f"{name}.dma"
        self._dma_dir_counter = {
            d: f"{name}.dma.{d.value}" for d in DmaDirection
        }
        self._dma_span_name = {
            DmaDirection.HOST_TO_NIC: "dma:h2n",
            DmaDirection.NIC_TO_HOST: "dma:n2h",
        }

    # ------------------------------------------------------------------
    def pio_write(self, nbytes: int = 8):
        """A programmed-I/O write (fixed cost regardless of ``nbytes``)."""
        yield from self._bus.hold(self.params.pio_write_us)
        self.pio_count += 1
        tracer = self.tracer
        tracer.count(self._pio_counter)
        if tracer.enabled:
            # The bus was held for exactly the PIO cost ending now.
            now = self.sim.now
            tracer.add_span(now - self.params.pio_write_us, now, self.name, "pio_write")

    def dma(self, nbytes: int, direction: DmaDirection):
        """One DMA transaction: setup + transfer, bus held throughout."""
        if nbytes < 0:
            raise ValueError(f"negative DMA size {nbytes}")
        yield from self._bus.hold(self.params.dma_time(nbytes))
        self._dma_finish(nbytes, direction)

    def dma_async(
        self, key: str, nbytes: int, direction: DmaDirection, done, *args
    ) -> None:
        """Callback-style DMA: identical timing to :meth:`dma`, but runs
        ``done(*args)`` on completion instead of resuming a process.

        The NIC models use this on their hot paths (barrier completion
        notifications arrive by the thousand) to avoid a generator
        process per 8-byte transfer.  ``key`` is the bus master's
        arbitration key, ranked against process names.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size {nbytes}")
        self._bus.call(
            key, self.params.dma_time(nbytes),
            self._dma_async_done, nbytes, direction, done, args,
        )

    def _dma_async_done(self, nbytes, direction, done, args) -> None:
        self._dma_finish(nbytes, direction)
        done(*args)

    def _dma_finish(self, nbytes: int, direction: DmaDirection) -> None:
        self.dma_count += 1
        self.bytes_transferred += nbytes
        tracer = self.tracer
        tracer.count(self._dma_counter)
        tracer.count(self._dma_dir_counter[direction])
        if tracer.enabled:
            # The bus was held from acquisition to now, i.e. exactly the
            # transaction time (setup + transfer) ending now.
            now = self.sim.now
            tracer.add_span(
                now - self.params.dma_time(nbytes),
                now,
                self.name,
                self._dma_span_name[direction],
                bytes=nbytes,
            )

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        return self.pio_count + self.dma_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PciBus {self.name} pio={self.pio_count} dma={self.dma_count}"
            f" bytes={self.bytes_transferred}>"
        )
