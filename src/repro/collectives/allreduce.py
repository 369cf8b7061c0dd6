"""NIC-based Allreduce over the collective protocol.

Completes the NIC-collective family the paper gestures at (§9 cites the
NIC-based *reduction* work of Moody et al. [14] alongside broadcast).
Every message carries a *partially-reduced* ``(value, contributor
bitmap)`` pair — O(1) data plus ``ceil(N/8)`` bitmap bytes per hop,
instead of the O(N) gathered map an allgather-style implementation
would ship — and the receiving NIC folds partials together under two
rules that keep the reduction exact for any N, including non-powers of
two:

- **disjoint** contributor sets combine (apply the operator, OR the
  bitmaps);
- a **superset** replaces the local partial outright (pairwise
  exchange's post-step and gather-broadcast's release deliver the full
  result to ranks that already hold a piece of it);
- anything else is a protocol violation and fails the sequence with a
  typed :class:`~repro.collectives.messages.DataCollFailed`.

Those rules only hold on *reduce-safe* message patterns, so the
schedule compiler normalizes the algorithm (see
:func:`repro.collectives.schedule_ir.normalize_algorithm`):
dissemination at non-powers-of-two — where the wrapped final round
overlaps contributor sets that a folded value cannot be split back out
of — silently becomes pairwise-exchange.

Supported operators are fixed-name, commutative and associative (both
sides of a reduction must agree, as in MPI): ``sum``, ``prod``,
``min``, ``max``.  The operator name rides the message header; the
receiving NIC validates it against its own before merging, so an
operator mismatch fails the sequence instead of silently reducing with
whichever operator the local rank happened to pick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.collectives.allgather import BYTES_PER_VALUE
from repro.collectives.engine import (
    DisseminationDataEngine,
    SequenceLayout,
    SequenceState,
    post_data_collective,
)
from repro.collectives.group import ProcessGroup
from repro.collectives.messages import DataCollMsg
from repro.collectives.schedule_ir import bitmap_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort

OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": min,
    "max": max,
}


class _ReduceState(SequenceState):
    """Partial-reduction state: the folded value (``data``), the
    contributor bitmap, and the operator this rank was given."""

    __slots__ = ("op_name", "contrib")

    def __init__(self, seq: int, layout: SequenceLayout):
        super().__init__(seq, layout)
        self.op_name: Optional[str] = None
        self.contrib = 0  # bitmap of ranks folded into ``data``


class NicAllreduceEngine(DisseminationDataEngine):
    """Per-(NIC, group) Allreduce engine."""

    counter_prefix = "allreduce"
    collective_name = "allreduce"
    bytes_per_value = BYTES_PER_VALUE
    state_cls = _ReduceState

    def _init_data(self, state: _ReduceState, args: tuple) -> None:
        value, op_name = args
        if op_name not in OPS:
            raise ValueError(f"unknown reduction op {op_name!r}; use {sorted(OPS)}")
        state.data = value
        state.contrib = 1 << self.rank
        state.op_name = op_name

    def _phase_payload(self, state: _ReduceState, phase: int) -> tuple[Any, int]:
        # One partially-reduced value + the contributor bitmap: wire
        # bytes are O(1) + ceil(N/8) per hop regardless of phase.
        payload = (state.op_name, state.data, state.contrib)
        return payload, self.bytes_per_value + bitmap_bytes(self.group.size)

    def _validate(
        self, state: _ReduceState, message: DataCollMsg
    ) -> Optional[str]:
        sender_op, _value, contrib = message.payload
        if sender_op != state.op_name:
            return (
                f"allreduce op mismatch: rank {message.sender} used "
                f"{sender_op!r}, local op is {state.op_name!r}"
            )
        overlap = contrib & state.contrib
        if overlap and (contrib | state.contrib) != contrib:
            # Folded values cannot be un-merged; a partial overlap
            # would double-count the shared contributors.
            return (
                f"allreduce overlapping partials: rank {message.sender}'s "
                f"bitmap {contrib:#x} overlaps local {state.contrib:#x} "
                "without superseding it"
            )
        return None

    def _merge(self, state: _ReduceState, payload: Any, phase: int) -> None:
        _op_name, value, contrib = payload
        if contrib & state.contrib:
            # Superset (validated): the incoming partial already folds
            # this rank's contribution in — take it wholesale.
            state.data = value
            state.contrib = contrib
        else:
            state.data = OPS[state.op_name](state.data, value)
            state.contrib |= contrib

    def _finish(self, state: _ReduceState) -> tuple[Any, int]:
        full = (1 << self.group.size) - 1
        assert state.contrib == full, (
            f"allreduce finished with contributors {state.contrib:#x}, "
            f"expected {full:#x}"
        )
        return state.data, self.bytes_per_value


def nic_iallreduce(
    port: "GmPort", group: ProcessGroup, seq: int, value: Any, op: str = "sum"
):
    """Post an allreduce; the request's result is the reduced value."""
    return (yield from post_data_collective(
        port, "allreduce", group, seq, (value, op), BYTES_PER_VALUE
    ))


def nic_allreduce(
    port: "GmPort", group: ProcessGroup, seq: int, value: Any, op: str = "sum"
):
    """Host side: contribute ``value``; returns the reduced result."""
    request = yield from nic_iallreduce(port, group, seq, value, op)
    return (yield from request.wait())
