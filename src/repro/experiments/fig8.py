"""Fig. 8 — scalability of the NIC-based barrier: model vs simulation.

The paper measures up to 8 nodes, fits
``T = T_init + (ceil(log2 N) - 1) * T_trig + T_adj``, and extrapolates:

- Fig. 8(a) Quadrics: ``2.25 + (⌈log2 N⌉−1)·2.32 − 1.00`` → 22.13 µs
  at 1024 nodes;
- Fig. 8(b) Myrinet (LANai-XP): ``3.60 + (⌈log2 N⌉−1)·3.50 + 3.84`` →
  38.94 µs at 1024 nodes.

Our simulator can *run* node counts the authors could only model: the
full-mode measured series reaches N = 1024 on the Quadrics fat tree and
N = 512 on a three-level Myrinet Clos — the paper's extrapolation range,
actually executed.  Three series per network: the paper's model, our
simulated latencies, and a model *fitted to our simulation* extrapolated
to 1024.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    ExperimentResult,
    Series,
    parallel_map,
    print_experiment,
    sweep_point,
)
from repro.model import PAPER_MYRINET_XP, PAPER_QUADRICS_ELAN3, fit_barrier_model
from repro.tools.runcache import RunCache

MODEL_POINTS = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
PAPER_ANCHORS = {
    "Quadrics model @ 1024 nodes (us)": 22.13,
    "Myrinet model @ 1024 nodes (us)": 38.94,
    "Quadrics T_trig (us/step)": 2.32,
    "Myrinet T_trig (us/step)": 3.50,
}


def _point_schedule(n: int, iters: int) -> tuple[int, int]:
    """(iterations, warmup) for one measured point.

    Testbed-scale points keep the full iteration count (these feed the
    model fits and the figure tests); the extension points taper — a
    1024-node barrier costs seconds of wall time per iteration and its
    mean is stable after a handful.
    """
    if n <= 64:
        return iters, 20
    if n <= 256:
        return max(12, iters // 4), 8
    return max(8, iters // 8), 4


def _measured_series(
    network: str, profile: str, barrier: str, ns, label: str,
    iters: int, jobs: int, cache: RunCache | None = None,
) -> Series:
    calls = []
    for n in ns:
        iterations, warmup = _point_schedule(n, iters)
        calls.append(partial(
            sweep_point, network, profile, barrier, "dissemination", n,
            iterations=iterations, warmup=warmup,
        ))
    return Series(label, list(ns), parallel_map(calls, jobs=jobs, cache=cache))


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (20 if quick else 60)
    myri_ns = [2, 4, 8, 16] if quick else [2, 4, 8, 16, 32, 64, 128, 256, 512]
    quad_ns = [2, 4, 8, 16] if quick else [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]

    measured_m = _measured_series(
        "myrinet", "lanai_xp_xeon2400", "nic-collective", myri_ns,
        "Myrinet-sim", iters, jobs, cache=cache,
    )
    measured_q = _measured_series(
        "quadrics", "elan3_piii700", "nic-chained", quad_ns,
        "Quadrics-sim", iters, jobs, cache=cache,
    )

    # Fit with the paper's own methodology: from testbed-scale points.
    # For Myrinet that also keeps the fit on the single-crossbar regime
    # the paper measured (>16 nodes needs a multi-level Clos whose extra
    # switch hops the analytical model does not include).
    fit_ns = [n for n in measured_m.n_values if n <= 16]
    fit_m = fit_barrier_model(
        fit_ns, [measured_m.at(n) for n in fit_ns],
        t_init=measured_m.at(2), name="fitted-myrinet",
    )
    quad_fit_ns = [n for n in measured_q.n_values if n <= 128]
    fit_q = fit_barrier_model(
        quad_fit_ns, [measured_q.at(n) for n in quad_fit_ns],
        t_init=measured_q.at(2), name="fitted-quadrics",
    )

    series = [
        Series("Myrinet-Model(paper)", MODEL_POINTS, PAPER_MYRINET_XP.predict_many(MODEL_POINTS)),
        Series("Myrinet-Model(fit)", MODEL_POINTS, fit_m.predict_many(MODEL_POINTS)),
        measured_m,
        Series("Quadrics-Model(paper)", MODEL_POINTS, PAPER_QUADRICS_ELAN3.predict_many(MODEL_POINTS)),
        Series("Quadrics-Model(fit)", MODEL_POINTS, fit_q.predict_many(MODEL_POINTS)),
        measured_q,
    ]
    notes = [
        f"fitted Myrinet model: {fit_m}",
        f"fitted Quadrics model: {fit_q}",
        "the paper's Quadrics coefficients are internally tight: measured "
        "T(8) = 5.60 with T_trig = 2.32 forces T(2) = 1.25us, below any "
        "real two-node round trip; our fit keeps a realistic intercept and "
        "a smaller slope, landing the 1024-node extrapolation below the "
        "paper's (same log2 shape)",
        "Myrinet beyond 16 nodes needs a two-level (beyond 64, three-"
        "level) Clos: the simulated points sit above the single-crossbar "
        "model by the extra switch hops — the paper's 1024-node number "
        "inherits that optimism",
    ]
    if 1024 in measured_q.n_values:
        q1024 = measured_q.at(1024)
        notes.append(
            f"simulated Quadrics @ 1024 nodes: {q1024:.2f}us vs the paper's "
            f"model value 22.13us ({q1024 / 22.13:.2f}x) — the fat tree "
            "really does sustain the model's log2 shape at full machine "
            "scale"
        )
    if 512 in measured_m.n_values:
        notes.append(
            f"simulated Myrinet @ 512 nodes (three-level Clos): "
            f"{measured_m.at(512):.2f}us — per-step cost grows with the "
            "deeper switch path, which the single-crossbar model omits"
        )
    return ExperimentResult(
        exp_id="fig8",
        title="Scalability of the NIC-based barrier (model vs simulation)",
        series=series,
        paper_anchors=PAPER_ANCHORS,
        measured_anchors={
            "Quadrics model @ 1024 nodes (us)": fit_q.predict(1024),
            "Myrinet model @ 1024 nodes (us)": fit_m.predict(1024),
            "Quadrics T_trig (us/step)": fit_q.t_trig,
            "Myrinet T_trig (us/step)": fit_m.t_trig,
        },
        notes=notes,
    )


if __name__ == "__main__":
    print_experiment(run())
