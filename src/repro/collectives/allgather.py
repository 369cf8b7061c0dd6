"""NIC-based Allgather over the collective protocol (§9 future work).

The paper's closing question: "whether other collective communication
operations, such as Allgather or Alltoall could benefit from similar
NIC-level implementations."  This answers it for Allgather:

- the dissemination pattern doubles each rank's known set per round
  (round *m*: send everything you know to ``(i + 2^m) mod N``; after
  ``ceil(log2 N)`` rounds everyone holds all N contributions — any N,
  not just powers of two);
- messages ride the collective fast path with payloads that *grow*
  (``4 * |known|`` bytes), so unlike the barrier the wire cost scales
  with data;
- reliability is receiver-driven NACK, as in §6.3.

The host contributes one 4-byte value with a single command, then is
uninvolved until the NIC DMAs the gathered vector back.  All mechanics
live in :class:`repro.collectives.engine.NicSequenceEngine`;
this module supplies the Allgather-specific state hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.collectives.engine import (
    DisseminationDataEngine,
    SequenceState,
    post_data_collective,
)
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import DataCollDone

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort

BYTES_PER_VALUE = 4

#: Host notification type (shared with the other data collectives).
AllgatherDone = DataCollDone


class NicAllgatherEngine(DisseminationDataEngine):
    """Per-(NIC, group) Allgather engine.

    The known-set union merge is idempotent and commutative, so the
    engine runs on any compiled message pattern (dissemination,
    pairwise-exchange, gather-broadcast) — whichever the group or the
    tuner's decision table picked.
    """

    counter_prefix = "allgather"
    collective_name = "allgather"
    bytes_per_value = BYTES_PER_VALUE

    def _init_data(self, state: SequenceState, args: tuple) -> None:
        (value,) = args
        state.data = {self.rank: value}

    def _phase_payload(self, state: SequenceState, phase: int) -> tuple[Any, int]:
        payload = tuple(sorted(state.data.items()))
        return payload, self.bytes_per_value * len(payload)

    def _merge(self, state: SequenceState, payload: Any, phase: int) -> None:
        state.data.update(dict(payload))

    def _finish(self, state: SequenceState) -> tuple[Any, int]:
        assert len(state.data) == self.group.size
        return (
            tuple(sorted(state.data.items())),
            self.bytes_per_value * self.group.size,
        )


def nic_iallgather(port: "GmPort", group: ProcessGroup, seq: int, value: Any):
    """Post an allgather; the request's result is ``{rank: value}``."""
    return (yield from post_data_collective(
        port, "allgather", group, seq, (value,), BYTES_PER_VALUE, dict
    ))


def nic_allgather(port: "GmPort", group: ProcessGroup, seq: int, value: Any):
    """Host side: contribute ``value``; returns ``{rank: value}``."""
    request = yield from nic_iallgather(port, group, seq, value)
    return (yield from request.wait())
