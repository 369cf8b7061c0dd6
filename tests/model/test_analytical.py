"""Unit + property tests for the analytical model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    PAPER_MYRINET_XP,
    PAPER_QUADRICS_ELAN3,
    BarrierModel,
    fit_barrier_model,
)


class TestPaperNumbers:
    def test_myrinet_1024_headline(self):
        """§8.3: 38.94 µs over a 1024-node Myrinet cluster."""
        assert PAPER_MYRINET_XP.predict(1024) == pytest.approx(38.94, abs=0.01)

    def test_quadrics_1024_headline(self):
        """§8.3: 22.13 µs over a 1024-node Quadrics cluster."""
        assert PAPER_QUADRICS_ELAN3.predict(1024) == pytest.approx(22.13, abs=0.01)

    def test_myrinet_8_nodes_near_measured(self):
        """The model at N=8 lands near the measured 14.20 µs."""
        assert PAPER_MYRINET_XP.predict(8) == pytest.approx(14.20, abs=0.5)

    def test_quadrics_8_nodes_near_measured(self):
        """The model at N=8 lands near the measured 5.60 µs."""
        assert PAPER_QUADRICS_ELAN3.predict(8) == pytest.approx(5.60, abs=0.5)

    def test_string_form(self):
        s = str(PAPER_QUADRICS_ELAN3)
        assert "2.25" in s and "2.32" in s and "- 1.00" in s


class TestModelShape:
    def test_steps_follow_ceil_log2(self):
        m = BarrierModel(0.0, 1.0, 0.0)
        assert m.predict(2) == 0.0  # ceil(log2 2) - 1 = 0
        assert m.predict(3) == 1.0
        assert m.predict(4) == 1.0
        assert m.predict(5) == 2.0
        assert m.predict(1024) == 9.0

    def test_plateaus_between_powers_of_two(self):
        m = PAPER_MYRINET_XP
        assert m.predict(5) == m.predict(8)
        assert m.predict(9) == m.predict(16)
        assert m.predict(8) < m.predict(9)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            PAPER_MYRINET_XP.predict(1)

    def test_predict_many(self):
        m = PAPER_QUADRICS_ELAN3
        assert m.predict_many([2, 4, 8]) == [m.predict(2), m.predict(4), m.predict(8)]


class TestFitting:
    def test_recovers_exact_model(self):
        truth = BarrierModel(3.0, 2.5, 1.0)
        ns = [2, 4, 8, 16, 32, 64]
        fitted = fit_barrier_model(ns, truth.predict_many(ns), t_init=3.0)
        assert fitted.t_trig == pytest.approx(2.5, abs=1e-9)
        assert fitted.t_adj == pytest.approx(1.0, abs=1e-9)

    def test_without_t_init_folds_into_intercept(self):
        truth = BarrierModel(3.0, 2.5, 1.0)
        ns = [2, 4, 8, 16]
        fitted = fit_barrier_model(ns, truth.predict_many(ns))
        assert fitted.t_adj == 0.0
        assert fitted.intercept == pytest.approx(4.0, abs=1e-9)
        assert fitted.predict(1024) == pytest.approx(truth.predict(1024), abs=1e-9)

    def test_noisy_fit_close(self):
        truth = PAPER_MYRINET_XP
        ns = [2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32]
        noisy = [truth.predict(n) + 0.1 * ((n * 7919) % 5 - 2) for n in ns]
        fitted = fit_barrier_model(ns, noisy)
        assert fitted.t_trig == pytest.approx(truth.t_trig, abs=0.3)

    def test_fit_values_pinned(self):
        ns = [2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32]
        noisy = [
            PAPER_MYRINET_XP.predict(n) + 0.1 * ((n * 7919) % 5 - 2) for n in ns
        ]
        assert fit_barrier_model(ns, noisy) == BarrierModel(
            7.458604651162789, 3.508139534883721, 0.0, name="fitted"
        )
        assert fit_barrier_model(ns, noisy, t_init=3.5) == BarrierModel(
            3.5, 3.508139534883721, 3.958604651162789, name="fitted"
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_barrier_model([2, 4], [1.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_barrier_model([2], [1.0])

    def test_degenerate_single_step_count(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_barrier_model([5, 6, 7, 8], [3.0, 3.0, 3.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    t_init=st.floats(min_value=0.1, max_value=10),
    t_trig=st.floats(min_value=0.1, max_value=10),
    t_adj=st.floats(min_value=-5, max_value=10),
)
def test_fit_roundtrip_property(t_init, t_trig, t_adj):
    truth = BarrierModel(t_init, t_trig, t_adj)
    ns = [2, 4, 8, 16, 32, 64, 128, 256]
    fitted = fit_barrier_model(ns, truth.predict_many(ns), t_init=t_init)
    assert fitted.t_trig == pytest.approx(t_trig, rel=1e-6, abs=1e-6)
    assert fitted.predict(1024) == pytest.approx(truth.predict(1024), rel=1e-6, abs=1e-5)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=2, max_value=4096))
def test_model_monotone_in_n(n):
    m = PAPER_MYRINET_XP
    assert m.predict(n + 1) >= m.predict(n)


def test_simulation_imports_do_not_load_numpy():
    """Only :func:`fit_barrier_model` needs numpy; every simulation
    command imports the model, so numpy must stay off that path."""
    code = (
        "import sys\n"
        "import repro.cluster, repro.model, repro.tools.chaos, repro.workload\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code], check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
