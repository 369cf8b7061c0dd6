"""NIC-based rooted Reduce, rounding out the collective family.

Shares :class:`NicAllreduceEngine`'s partial-reduction machinery —
``(value, contributor-bitmap)`` hops on a reduce-safe message pattern —
but only the root's NIC DMAs the result across the PCI bus; every
other rank's engine completes with an empty delivery.  All ranks still
run the full pattern: the final release leg doubles as the completion
acknowledgement the receiver-driven NACK protocol needs, so a Reduce
quiesces exactly like an Allreduce and non-root hosts return promptly
instead of guessing when the root is done.

The root is fixed per engine (chosen when the engines are installed,
``root=`` on :class:`NicReduceEngine`); the host calls take no root and
return whatever their engine delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.collectives.allreduce import BYTES_PER_VALUE, NicAllreduceEngine, _ReduceState
from repro.collectives.engine import post_data_collective
from repro.collectives.group import ProcessGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.myrinet.gm_api import GmPort


class NicReduceEngine(NicAllreduceEngine):
    """Per-(NIC, group) rooted-Reduce engine."""

    counter_prefix = "reduce"
    collective_name = "reduce"

    def _finish(self, state: _ReduceState) -> tuple[Any, int]:
        result, nbytes = super()._finish(state)
        if self.rank == self.root:
            return result, nbytes
        return None, 0


def nic_ireduce(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    value: Any,
    op: str = "sum",
):
    """Post a rooted reduce; the engines' root's result is the reduced
    value, every other rank's is ``None``."""
    return (yield from post_data_collective(
        port, "reduce", group, seq, (value, op), BYTES_PER_VALUE
    ))


def nic_reduce(
    port: "GmPort",
    group: ProcessGroup,
    seq: int,
    value: Any,
    op: str = "sum",
):
    """Host side: contribute ``value``; the engines' root's call returns
    the reduced result, every other rank's returns ``None``."""
    request = yield from nic_ireduce(port, group, seq, value, op)
    return (yield from request.wait())
