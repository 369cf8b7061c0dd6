"""The paper's headline numbers (abstract + §8) in one table.

- Quadrics 8 nodes: 5.60 µs, 2.48x over the Elanlib tree barrier.
- Myrinet LANai-XP 8 nodes: 14.20 µs, 2.64x over host-based.
- Myrinet LANai 9.1 16 nodes: 25.72 µs, 3.38x over host-based.
- Prior direct scheme: 1.86x over host-based (§8.1) — our measured
  direct-scheme engine should land near that, demonstrating the added
  value of the separate collective protocol over plain offload.
- Model extrapolations: 22.13 µs (Quadrics) / 38.94 µs (Myrinet) at
  1024 nodes.
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
from repro.model import fit_barrier_model
from repro.tools.runcache import RunCache

PAPER_ANCHORS = {
    "Quadrics NIC barrier @ 8 (us)": 5.60,
    "Quadrics improvement over tree barrier": 2.48,
    "Myrinet XP NIC barrier @ 8 (us)": 14.20,
    "Myrinet XP improvement over host": 2.64,
    "Myrinet 9.1 NIC barrier @ 16 (us)": 25.72,
    "Myrinet 9.1 improvement over host": 3.38,
    "direct scheme improvement over host": 1.86,
    "Quadrics model @ 1024 (us)": 22.13,
    "Myrinet model @ 1024 (us)": 38.94,
}


QUAD_FIT_NS = (2, 4, 8, 16, 32)
MYRI_FIT_NS = (2, 4, 8, 16)


def run(
    quick: bool = False, iterations: int | None = None, jobs: int = 1,
    cache: RunCache | None = None,
) -> ExperimentResult:
    iters = iterations or (40 if quick else 150)

    quad, xp, l91 = "elan3_piii700", "lanai_xp_xeon2400", "lanai91_piii700"
    specs = [
        ("quadrics", quad, "nic-chained", 8),
        ("quadrics", quad, "gsync", 8),
        ("myrinet", xp, "nic-collective", 8),
        ("myrinet", xp, "host", 8),
        ("myrinet", l91, "nic-collective", 16),
        ("myrinet", l91, "host", 16),
        ("myrinet", l91, "nic-direct", 16),
    ]
    # Model extrapolations fitted from testbed-scale sweeps (the
    # paper's own methodology — and, for Myrinet, the single-crossbar
    # regime; see fig8's notes).
    specs += [("quadrics", quad, "nic-chained", n) for n in QUAD_FIT_NS]
    specs += [("myrinet", xp, "nic-collective", n) for n in MYRI_FIT_NS]
    calls = [
        partial(
            sweep_point, network, profile, barrier, "dissemination", n,
            iterations=iters, warmup=20,
        )
        for network, profile, barrier, n in specs
    ]
    lats = parallel_map(calls, jobs=jobs, cache=cache)

    quad_nic, quad_tree, xp_nic, xp_host, l91_nic, l91_host, l91_direct = lats[:7]
    quad_pts = list(zip(QUAD_FIT_NS, lats[7:7 + len(QUAD_FIT_NS)]))
    myri_pts = list(zip(MYRI_FIT_NS, lats[7 + len(QUAD_FIT_NS):]))
    fit_q = fit_barrier_model([p[0] for p in quad_pts], [p[1] for p in quad_pts],
                              t_init=quad_pts[0][1])
    fit_m = fit_barrier_model([p[0] for p in myri_pts], [p[1] for p in myri_pts],
                              t_init=myri_pts[0][1])

    measured = {
        "Quadrics NIC barrier @ 8 (us)": quad_nic,
        "Quadrics improvement over tree barrier": quad_tree / quad_nic,
        "Myrinet XP NIC barrier @ 8 (us)": xp_nic,
        "Myrinet XP improvement over host": xp_host / xp_nic,
        "Myrinet 9.1 NIC barrier @ 16 (us)": l91_nic,
        "Myrinet 9.1 improvement over host": l91_host / l91_nic,
        "direct scheme improvement over host": l91_host / l91_direct,
        "Quadrics model @ 1024 (us)": fit_q.predict(1024),
        "Myrinet model @ 1024 (us)": fit_m.predict(1024),
    }
    series = [
        Series("Quadrics-sim", [p[0] for p in quad_pts], [p[1] for p in quad_pts]),
        Series("MyrinetXP-sim", [p[0] for p in myri_pts], [p[1] for p in myri_pts]),
    ]
    return ExperimentResult(
        exp_id="headline",
        title="Headline numbers: paper vs simulation",
        series=series,
        paper_anchors=PAPER_ANCHORS,
        measured_anchors=measured,
    )


if __name__ == "__main__":
    print_experiment(run())
