from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave.config import ScenarioConfig
from viscowave.integrator import (damping_solve_field,
                                  pointwise_damping_solve, run)


class TestDampingSolve:
    def test_linear_closed_form(self):
        assert pointwise_damping_solve(1.0, 1.0, 1.0) == 0.5

    def test_zero_stays_zero(self):
        for m in (1.0, 2.0, 3.5):
            assert pointwise_damping_solve(0.0, 0.7, m) == 0.0

    def test_cubic_example(self):
        # 1 + 1^3 = 2
        assert pointwise_damping_solve(2.0, 1.0, 3.0) == pytest.approx(1.0,
                                                                       abs=1e-13)

    def test_sign_symmetry(self):
        v = pointwise_damping_solve(-2.0, 1.0, 3.0)
        assert v == pytest.approx(-1.0, abs=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pointwise_damping_solve(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            pointwise_damping_solve(1.0, 0.1, 0.5)

    @settings(max_examples=120, deadline=None)
    @given(a=st.floats(-1e6, 1e6, allow_nan=False),
           dt=st.floats(1e-6, 10.0),
           m=st.floats(1.0, 5.0))
    def test_contraction_and_residual(self, a, dt, m):
        v = pointwise_damping_solve(a, dt, m)
        assert abs(v) <= abs(a) + 1e-12
        assert v * a >= 0.0
        res = v + dt * abs(v) ** (m - 1.0) * v - a
        assert abs(res) <= 1e-12 * max(1.0, abs(a))

    def test_field_version_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40,)) * 3.0
        out = damping_solve_field(a, 0.3, 2.5)
        for ai, oi in zip(a, out):
            assert oi == pytest.approx(
                pointwise_damping_solve(float(ai), 0.3, 2.5), rel=1e-12)


def quick_config(**overrides):
    base = ScenarioConfig(n=80, t_end=3.0, stride=4, output_every=5,
                          amplitude=0.1)
    return replace(base, **overrides)


class TestRun:
    def test_zero_equilibrium_preserved(self):
        result = run(quick_config(amplitude=0.0))
        assert np.all(result.state.u == 0.0)
        assert np.all(result.state.v == 0.0)
        assert result.ledger.column("E")[-1] == 0.0

    def test_t_end_zero_single_row(self):
        result = run(quick_config(t_end=0.0))
        assert len(result.ledger) == 1
        assert result.ledger.rows[0]["t"] == 0.0
        assert result.flags["completed"]

    def test_determinism(self):
        a = run(quick_config())
        b = run(quick_config())
        assert a.ledger.to_csv() == b.ledger.to_csv()

    def test_ledger_times_increase(self):
        result = run(quick_config())
        t = result.ledger.column("t")
        assert np.all(np.diff(t) > 0)
        assert t[-1] == pytest.approx(3.0, abs=0.02)

    def test_dissipation_columns_monotone(self):
        result = run(quick_config(m=2.0))
        for name in ("damp_cum", "visc_cum"):
            assert np.all(np.diff(result.ledger.column(name)) >= 0)

    def test_oscillation_period_matches_dense_dt_reference(self):
        # nearly memory-free linear string: the coarse run's first sign
        # change of u at the midpoint agrees with a dt/20 reference within 1%
        cfg = quick_config(mu0=1e-10, source_enabled=False, t_end=5.0,
                           n=60, output_every=1)
        coarse = run(cfg)
        dt = cfg.resolved_dt(coarse.grid, coarse.kernel)
        fine = run(replace(cfg, dt=dt / 20.0))

        def first_crossing(result):
            mid = result.grid.size // 2
            series = [u[mid] for u in result.trajectory.u]
            times = result.trajectory.times
            for j in range(1, len(series)):
                if series[j] * series[j - 1] <= 0 and series[j - 1] > 0:
                    # linear interpolation inside the bracketing interval
                    f = series[j - 1] / (series[j - 1] - series[j])
                    return times[j - 1] + f * (times[j] - times[j - 1])
            raise AssertionError("no sign change found")

        assert first_crossing(coarse) == pytest.approx(first_crossing(fine),
                                                       rel=0.01)

    def test_undamped_energy_drift(self):
        # no damping, no source, vanishing memory: the leapfrog holds the
        # discrete quadratic energy to O(dt^2) over 10^4 steps
        cfg = quick_config(mu0=1e-12, damping_enabled=False,
                           source_enabled=False, n=63, t_end=250.0,
                           output_every=100)
        result = run(cfg)
        dt = cfg.resolved_dt(result.grid, result.kernel)
        assert result.state.step_index >= 10_000
        sE = result.ledger.column("scriptE")
        drift = np.max(np.abs(sE - sE[0]))
        assert drift <= 10.0 * dt ** 2 * sE[0]

    def test_blowup_flagging(self):
        cfg = quick_config(amplitude=3.0, t_end=10.0, n=100)
        result = run(cfg)
        assert result.blew_up
        assert result.flags["dt_halvings"] > 0
        assert result.ledger.column("grad_norm")[-1] > 1e3

    def test_validation_errors_propagate(self):
        with pytest.raises(Exception):
            run(quick_config(m=0.5))

    def test_finished_run_holds_no_lag_caches(self):
        # kept results must not carry per-lag weights; they refill lazily
        res = run(quick_config(t_end=0.3))
        memory, u = res.state.memory, res.state.u
        assert not memory._quadratures and memory._row_sums is None
        conv = memory.convolution_field(u, res.state.t - memory.t_push)
        np.testing.assert_allclose(conv, res.trajectory.conv[-1], rtol=1e-12)


# E(t_end) and the final identity residual of three small scenarios, recorded
# before the stepper was rewritten to compute each quantity once per step; a
# change to the hot path may move them by round-off only.
GOLDEN = {
    "exponential_1d": (quick_config(m=3.0),
                       0.00578074927356543, 3.911168357871586e-06),
    "polynomial_frozen_1d": (
        quick_config(n=60, t_end=2.0, kernel_family="polynomial", r=1.5,
                     extension="frozen"),
        0.0029310118639967993, 4.7040936691188084e-06),
    "grid_2d_16x16": (quick_config(dim=2, n=16, n_y=16, t_end=2.0,
                                   modes=(1, 2), m=3.0),
                      0.05398636103940911, 0.0027151344509509373),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_end_state(name):
    cfg, E_end, residual = GOLDEN[name]
    last = run(cfg).ledger.rows[-1]
    assert last["E"] == pytest.approx(E_end, rel=1e-9, abs=0.0)
    assert last["identity_residual"] == pytest.approx(residual, rel=1e-9,
                                                      abs=0.0)
