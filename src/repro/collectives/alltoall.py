"""NIC-based Alltoall over the collective protocol (§9 future work).

The second half of the paper's "Allgather or Alltoall" question, using
the Bruck algorithm so the message *pattern* stays exactly the barrier's
dissemination (one send to ``(i + 2^m) mod N`` and one receive per
round, ``ceil(log2 N)`` rounds) while personalized blocks hop toward
their destinations:

- a block travelling from origin *o* to destination *d* must cover
  distance ``(d - o) mod N``; in round *m* every block whose remaining
  distance has bit *m* set rides that round's message and its distance
  drops by ``2^m``;
- blocks reaching distance 0 have arrived; after the last round every
  rank holds one block from every origin.

Each round moves about half of a rank's outstanding blocks, so the wire
cost per rank per round is ~``4 * N/2`` bytes — the classic Bruck
trade: ``log2 N`` rounds at the price of forwarding.  Reliability is
the same receiver-driven NACK as everything else on the protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.collectives.engine import (
    DisseminationDataEngine,
    SequenceState,
    post_data_collective,
)
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import DataCollDone

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort

BYTES_PER_BLOCK = 4

AlltoallDone = DataCollDone


class NicAlltoallEngine(DisseminationDataEngine):
    """Per-(NIC, group) Alltoall engine (Bruck algorithm).

    Bruck routing is keyed to the dissemination distances (``2^m`` per
    round), so the engine pins that pattern regardless of the group's
    or the tuner's algorithm choice.
    """

    counter_prefix = "alltoall"
    collective_name = "alltoall"
    forced_algorithm = "dissemination"
    bytes_per_value = BYTES_PER_BLOCK

    def _init_data(self, state: SequenceState, args: tuple) -> None:
        (blocks,) = args
        if set(blocks) != set(range(self.group.size)):
            raise ValueError(
                f"alltoall needs one block per destination rank; got {sorted(blocks)}"
            )
        buckets: dict[int, dict[int, Any]] = {}
        arrived: dict[int, Any] = {}
        for dst, value in blocks.items():
            distance = (dst - self.rank) % self.group.size
            if distance == 0:
                arrived[self.rank] = value  # my block for myself
            else:
                buckets.setdefault(distance, {})[self.rank] = value
        state.data = {"buckets": buckets, "arrived": arrived}

    def _phase_payload(self, state: SequenceState, phase: int) -> tuple[Any, int]:
        buckets = state.data["buckets"]
        moving = []
        for distance in sorted(buckets):
            if distance >> phase & 1:
                for origin, value in sorted(buckets[distance].items()):
                    moving.append((distance, origin, value))
        # The blocks leave this NIC (Bruck forwards, it does not copy).
        for distance, origin, _ in moving:
            del buckets[distance][origin]
            if not buckets[distance]:
                del buckets[distance]
        return tuple(moving), self.bytes_per_value * len(moving)

    def _merge(self, state: SequenceState, payload: Any, phase: int) -> None:
        buckets = state.data["buckets"]
        arrived = state.data["arrived"]
        step = 1 << phase
        for distance, origin, value in payload:
            remaining = distance - step
            if remaining == 0:
                arrived[origin] = value
            else:
                buckets.setdefault(remaining, {})[origin] = value

    def _finish(self, state: SequenceState) -> tuple[Any, int]:
        arrived = state.data["arrived"]
        assert not state.data["buckets"], "blocks left in flight"
        assert len(arrived) == self.group.size
        return (
            tuple(sorted(arrived.items())),
            self.bytes_per_value * self.group.size,
        )


def nic_ialltoall(
    port: "GmPort", group: ProcessGroup, seq: int, blocks: Mapping[int, Any]
):
    """Post an alltoall: one block per destination rank.  The request's
    result is ``{origin_rank: block}`` — the blocks every other rank
    addressed to this one."""
    if set(blocks) != set(range(group.size)):
        raise ValueError(
            f"alltoall needs one block per destination rank; got {sorted(blocks)}"
        )
    return (yield from post_data_collective(
        port, "alltoall", group, seq, (dict(blocks),),
        BYTES_PER_BLOCK * group.size, dict,
    ))


def nic_alltoall(
    port: "GmPort", group: ProcessGroup, seq: int, blocks: Mapping[int, Any]
):
    """Host side of :func:`nic_ialltoall`: returns ``{origin_rank: block}``."""
    request = yield from nic_ialltoall(port, group, seq, blocks)
    return (yield from request.wait())
