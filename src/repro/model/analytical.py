"""The paper's scalability model:

``T_barrier = T_init + (ceil(log2 N) - 1) * T_trig + T_adj``

where ``T_init`` is the two-node NIC-based barrier latency (each NIC
sends only the initial message), ``T_trig`` the time for each further
message a NIC triggers upon receiving an earlier one, and ``T_adj`` an
adjustment for secondary effects (reduced PCI traffic, bookkeeping).

The paper derives, "through mathematical analysis":

- Myrinet (2.4 GHz Xeon, LANai-XP):  ``3.60 + (ceil(log2 N)-1)*3.50 + 3.84``
- Quadrics (700 MHz, Elan3):         ``2.25 + (ceil(log2 N)-1)*2.32 - 1.00``

predicting 38.94 µs and 22.13 µs respectively at 1024 nodes.

Fitting: from latency measurements alone only the *slope* ``T_trig``
and the combined intercept ``T_init + T_adj`` are identifiable (both
are N-independent).  :func:`fit_barrier_model` therefore fits slope and
intercept by least squares and splits the intercept using a supplied
``t_init`` (by convention the measured N=2 latency, matching the
paper's definition), defaulting to the fitted intercept with
``t_adj = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _steps(n: int) -> int:
    """Dissemination steps for N ranks: ``ceil(log2 N)``."""
    if n < 2:
        raise ValueError(f"the model needs N >= 2, got {n}")
    return math.ceil(math.log2(n))


@dataclass(frozen=True)
class BarrierModel:
    """A fitted or paper-given (T_init, T_trig, T_adj) triple."""

    t_init: float
    t_trig: float
    t_adj: float
    name: str = "model"

    def predict(self, n: int) -> float:
        """Predicted barrier latency (µs) for an N-node cluster."""
        return self.t_init + (_steps(n) - 1) * self.t_trig + self.t_adj

    def predict_many(self, n_values: Sequence[int]) -> list[float]:
        return [self.predict(n) for n in n_values]

    @property
    def intercept(self) -> float:
        """The N-independent part, ``T_init + T_adj``."""
        return self.t_init + self.t_adj

    def __str__(self) -> str:
        sign = "+" if self.t_adj >= 0 else "-"
        return (
            f"T = {self.t_init:.2f} + (ceil(log2 N) - 1) * {self.t_trig:.2f} "
            f"{sign} {abs(self.t_adj):.2f}"
        )


#: §8.3's derived coefficients.
PAPER_MYRINET_XP = BarrierModel(3.60, 3.50, 3.84, name="paper-myrinet-lanai-xp")
PAPER_QUADRICS_ELAN3 = BarrierModel(2.25, 2.32, -1.00, name="paper-quadrics-elan3")


def fit_barrier_model(
    n_values: Sequence[int],
    latencies_us: Sequence[float],
    t_init: float | None = None,
    name: str = "fitted",
) -> BarrierModel:
    """Least-squares fit of the model to (N, latency) measurements.

    Parameters
    ----------
    n_values, latencies_us:
        Matched measurement arrays; at least two distinct step counts
        are needed to identify the slope.
    t_init:
        Optional known ``T_init`` (conventionally the N=2 latency) used
        to split the fitted intercept into ``T_init`` and ``T_adj``.
    """
    # Imported here, not at module level: every simulation command
    # imports :mod:`repro.model`, and numpy would cost each of them
    # megabytes of memory and tens of milliseconds of start-up for a
    # least-squares solve only this function needs.
    import numpy as np

    n_arr = list(n_values)
    y = np.asarray(latencies_us, dtype=float)
    if len(n_arr) != len(y):
        raise ValueError("n_values and latencies differ in length")
    if len(n_arr) < 2:
        raise ValueError("need at least two measurements")
    x = np.array([_steps(n) - 1 for n in n_arr], dtype=float)
    if len(set(x.tolist())) < 2:
        raise ValueError("need at least two distinct ceil(log2 N) step counts")
    design = np.column_stack([np.ones_like(x), x])
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    if t_init is None:
        return BarrierModel(float(intercept), float(slope), 0.0, name=name)
    return BarrierModel(
        float(t_init), float(slope), float(intercept - t_init), name=name
    )
