import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from viscowave import energetics, integrator
from viscowave.acceptance import w1_scenario
from viscowave.config import ScenarioConfig, loads
from viscowave.grid import SpatialGrid
from viscowave.history import MemoryState
from viscowave.integrator import (_damp_midpoint, damping_solve_field,
                                  initial_terms, run)
from viscowave.runner import run_scenario


def solve_one(a, dt, m):
    """damping_solve_field on the one-element array [a], as a float."""
    return float(damping_solve_field(np.array([a]), dt, m)[0])


class TestDampingSolve:
    def test_linear_closed_form(self):
        assert solve_one(1.0, 1.0, 1.0) == 0.5

    def test_zero_stays_zero(self):
        for m in (1.0, 2.0, 3.5):
            assert solve_one(0.0, 0.7, m) == 0.0

    def test_cubic_example(self):
        # 1 + 1^3 = 2
        assert solve_one(2.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-13)

    def test_sign_symmetry(self):
        v = solve_one(-2.0, 1.0, 3.0)
        assert v == pytest.approx(-1.0, abs=1e-13)

    @settings(max_examples=120, deadline=None)
    @given(a=st.floats(-1e12, 1e12, allow_nan=False),
           dt=st.floats(1e-6, 10.0),
           m=st.floats(1.0, 20.0))
    @example(a=-37.5, dt=0.01, m=3.0)
    @example(a=2.0e-4, dt=1e-3, m=3.0)
    # Newton once stopped a seventh of a ulp of |a| inside 1e-14 |a| by
    # NumPy's power, where Python's pow puts the residual a ulp higher
    @example(a=673106885685.1147, dt=5.95571553525607, m=2.16015625)
    def test_contraction_and_residual(self, a, dt, m):
        v = solve_one(a, dt, m)
        assert abs(v) <= abs(a)
        assert v * a >= 0.0
        res = v + dt * abs(v) ** (m - 1.0) * v - a
        assert abs(res) <= 1e-14 * max(1.0, abs(a))

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 5.0, 9.0, 20.0])
    def test_converges_over_grid(self, m):
        # large m and |a| are where Newton from far above the root used to
        # stop at its iteration cap unconverged
        mag = np.logspace(-8, 12, 801)
        a = np.r_[mag, -mag, 0.0, -0.0, np.finfo(float).smallest_subnormal]
        for dt in (1e-6, 1e-3, 1.0, 100.0):
            v = damping_solve_field(a, dt, m)
            res = v + dt * np.abs(v) ** (m - 1.0) * v - a
            assert np.all(np.abs(res) <= 1e-14 * np.maximum(1.0, np.abs(a)))
            assert np.all(np.abs(v) <= np.abs(a))
            assert np.all(v * a >= 0.0)

    @pytest.mark.parametrize("m", [100.0, 1000.0])
    def test_large_m_stops_early(self, m, monkeypatch):
        # the solve calls np.abs once on a and once per residual test; with
        # a tolerance of 1e-14 it ran to the cap of 100 for these m
        class CountingNumpy:
            abs_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, x):
                CountingNumpy.abs_calls += 1
                return np.abs(x)

        mag = np.logspace(-12, 15, 271)
        a = np.r_[mag, -mag, 0.0]
        for dt in (1e-6, 1e-3, 1.0, 1e3):
            CountingNumpy.abs_calls = 0
            monkeypatch.setattr(integrator, "np", CountingNumpy())
            v = damping_solve_field(a, dt, m)
            monkeypatch.undo()
            assert CountingNumpy.abs_calls - 2 <= 11  # Newton steps
            res = v + dt * np.abs(v) ** (m - 1.0) * v - a
            assert np.all(np.abs(res) <= 1e-14 * (m / 45.0)
                          * np.maximum(1.0, np.abs(a)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m, mag", [(50.0, 1e15), (80.0, 1e12)])
    def test_guess_overflow_is_silent(self, m, mag):
        # |a|^(m-1) overflows to inf, so the guess is 0, below the root
        a = np.array([mag, -mag, 1.0])
        v = damping_solve_field(a, 1.0, m)
        res = v + np.abs(v) ** (m - 1.0) * v - a
        assert np.all(np.abs(res) <= 1e-14 * (m / 45.0) * np.abs(a))
        assert solve_one(mag, 1.0, m) == pytest.approx(v[0], rel=1e-14)

    def test_field_version_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40,)) * 3.0
        out = damping_solve_field(a, 0.3, 2.5)
        for ai, oi in zip(a, out):
            assert oi == pytest.approx(
                solve_one(float(ai), 0.3, 2.5), rel=1e-12)


# Damping-solve outputs recorded when the Newton solve took its clipped first
# step, which later changes must reproduce bit for bit: per function and m,
# the first 16 hex digits of the sha256 of the outputs' bytes over DAMP_DTS x
# DAMP_INPUTS.  The m = 1 entries are the closed form a / (1 + dt) and date
# from before.  The m = 3 entries were re-recorded when m = 3 took the cubic's
# closed form, which keeps the sign of -0.0 and maps the smallest subnormal
# to 0 where its scaled argument underflows.  Every other entry is a
# converged solve of 0 to 8 Newton iterations, in which 0 and -0.0 map to 0.0
# and the smallest subnormal to itself.  Recorded on x86-64 with AVX-512 and
# NumPy 2.4.6; NumPy's power, which m = 1.5, 5 and 9 call with exponents
# other than 1/2, 1 and 2, and its sinh and arcsinh, which m = 3 calls, may
# round differently where NumPy picks another SIMD routine.
_MAG = np.logspace(-3, 4, 36)
_TINY = np.finfo(float).smallest_subnormal
_WIDE = np.r_[_MAG, -_MAG, 0.0, -0.0, _TINY]
_SMALL = np.r_[_MAG[:6], -_MAG[:6], 0.0, -0.0, _TINY]
DAMP_DTS = (1e-3, 1.0, 100.0)
# nodes of one array that converge early keep iterating with the rest
_SPAN = np.logspace(-8, 8, 401)
DAMP_INPUTS = (_WIDE, _WIDE.reshape(3, 25), _SMALL, _SMALL.reshape(3, 5),
               _SPAN)
DAMP_GOLDEN = {
    "damping_solve_field": {
        1.0: "16c4a422ad439a74",
        1.5: "b589de946842d844",
        2.0: "8f5eaa8a45f13ef5",
        3.0: "d900d71540c01e5c",
        5.0: "a2b689e3ce74f79f",
        9.0: "f162af7bea654d60",
    },
    "_damp_midpoint": {
        1.0: "6488e0d3e1a14d36",
        1.5: "a2ad7206c8ca1fb4",
        2.0: "a8e7d20012e22b0b",
        3.0: "92ef285875631ec2",
        5.0: "edb488936c725418",
        9.0: "8f04dc1c8aafcd42",
    },
}
POINTWISE_GOLDEN = "2efb836e26f7a0db"


class TestDampingSolveBitIdentity:
    @pytest.mark.parametrize("m", sorted(DAMP_GOLDEN["damping_solve_field"]))
    @pytest.mark.parametrize("fn", [damping_solve_field, _damp_midpoint],
                             ids=["damping_solve_field", "_damp_midpoint"])
    def test_field_outputs(self, fn, m):
        h = hashlib.sha256()
        for dt in DAMP_DTS:
            for a in DAMP_INPUTS:
                out = fn(a, dt, m)
                assert out.shape == a.shape
                h.update(out.tobytes())
        assert h.hexdigest()[:16] == DAMP_GOLDEN[fn.__name__][m]

    def test_pointwise_outputs(self):
        h = hashlib.sha256()
        for m in sorted(DAMP_GOLDEN["damping_solve_field"]):
            for dt in DAMP_DTS:
                for a in (1e-3, -0.7, 2.5, -1e4, _TINY, -0.0):
                    h.update(np.float64(solve_one(a, dt, m)).tobytes())
        assert h.hexdigest()[:16] == POINTWISE_GOLDEN


def linear_midpoint_in_place(v, tau, work):
    """The m = 1 damping as a step runs it, into v by way of work: the same
    three roundings as _damp_midpoint, v / (1 + tau/2), doubled, less v."""
    np.divide(v, 1.0 + 0.5 * tau, work)
    np.multiply(work, 2.0, work)
    return np.subtract(work, v, v)


def step_damping_power(v, e, work, cell_volume):
    """The damping power as a step takes it for m = 2e - 1, by way of work:
    the operations of grid.lp_norm_pow, without its checks, and a square as
    a product."""
    np.multiply(v, v, work)
    if e == 2.0:
        np.multiply(work, work, work)
    elif e != 1.0:
        work **= e
    return float(np.add.reduce(work, None)) * cell_volume


class TestStepDamping:
    """The operations a step runs in place of _damp_midpoint at m = 1, of
    energetics.damping_power and of the source's |u|^2 give the same values,
    bit for bit, on inputs (0, the smallest subnormal, 1e100) that the
    ledger digests leave out."""

    def test_linear_midpoint_in_place(self):
        for dt in DAMP_DTS:
            for a in DAMP_INPUTS:
                v, work = a.copy(), np.empty_like(a)
                assert linear_midpoint_in_place(v, dt, work) is v
                np.testing.assert_array_equal(
                    v.view(np.int64), _damp_midpoint(a, dt, 1.0).view(np.int64))

    @pytest.mark.parametrize("m", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("grid", [
        SpatialGrid.line(math.pi, 50),
        SpatialGrid.rectangle((math.pi, 2.0), (9, 12)),
    ], ids=["1d", "2d"])
    def test_damping_power(self, grid, m):
        rng = np.random.default_rng(11)
        work = np.empty(grid.shape)
        for scale in (0.0, _TINY, 1e-3, 1.0, 1e100):
            v = scale * rng.standard_normal(grid.shape)
            with np.errstate(over="ignore"):    # 1e100 overflows at m = 3
                got = step_damping_power(v, 0.5 * (m + 1.0), work,
                                         grid.cell_volume)
                want = energetics.damping_power(grid, v, m)
            assert got.hex() == want.hex()

    def test_square_as_product(self):
        u = np.r_[_WIDE, 1e100, -1e100, 1e200, -1e200, np.inf, -np.inf]
        want = np.abs(u)
        with np.errstate(over="ignore"):
            want **= 2.0
            got = np.multiply(u, u)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def uncertified_solve(a, dt, m):
    """damping_solve_field for 1 < m <= 45 as it was before the guess was
    certified: every array runs the loop, to the solve's stopping bound
    0.9e-14 max(1, |a|), and the clip bound is always the product of
    powers."""
    absa = np.abs(a)
    tol = np.maximum(absa, 1.0)
    tol *= 0.9e-14
    x = absa ** (m - 1.0)
    x *= dt
    x += 1.0
    np.divide(absa, x, out=x)
    for i in range(100):
        xm1 = x ** (m - 1.0)
        res = xm1 * dt
        res *= x
        res += x
        res -= absa
        if (np.abs(res) <= tol).all():
            break
        xm1 *= dt * m
        xm1 += 1.0
        res /= xm1
        x -= res
        if i == 0:
            bound = absa ** (1.0 / m)
            bound *= dt ** (-1.0 / m)
            np.minimum(bound, absa, out=bound)
            np.minimum(x, bound, out=x)
    return np.multiply(np.sign(a), x, out=x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCubicSolve:
    """m = 3: the certified guess or the cubic's real root, Newton only for
    non-finite input and arguments beyond CUBIC_ARG_MAX."""

    TINY = np.finfo(float).smallest_subnormal
    MAG = np.logspace(-300, 15, 631)
    A = np.r_[0.0, -0.0, TINY, MAG, -MAG]
    DTS = (1e-6, 1e-3, 1.0, 100.0)

    @pytest.mark.parametrize("dt", DTS)
    def test_root_over_the_whole_range(self, dt):
        a = self.A
        v = damping_solve_field(a, dt, 3.0)
        res = v + dt * np.abs(v) ** 2.0 * v - a
        assert np.all(np.abs(res) <= 1e-14 * np.maximum(1.0, np.abs(a)))
        assert np.all(np.abs(v) <= np.abs(a))
        assert np.all(v * a >= 0.0)
        # the smallest subnormal may map to 0: its scaled argument underflows
        np.testing.assert_allclose(v, uncertified_solve(a, dt, 3.0),
                                   rtol=1e-12, atol=self.TINY)

    @pytest.mark.parametrize("dt", DTS)
    def test_certified_arrays_are_the_guess(self, dt):
        for amax in (certificate_amax(dt, 3.0) / 2.0, 1e-300, 0.0):
            a = self.A[np.abs(self.A) <= amax]
            expected = a / (1.0 + dt * a * a)
            np.testing.assert_array_equal(
                damping_solve_field(a, dt, 3.0).view(np.int64),
                expected.view(np.int64))

    @pytest.mark.parametrize("dt, special", [
        (dt, x) for dt in DTS for x in (math.nan, math.inf, -math.inf)]
        + [(1e-6, 1.7e308), (1.0, 1e308), (100.0, -1e308), (1e-3, -1e23)])
    def test_non_finite_and_huge_input_take_newton(self, dt, special):
        # the certificate fails and the clip bound is the product of powers,
        # so the Newton path is the uncertified loop bit for bit
        a = np.r_[self.A[::10], special]
        with np.errstate(all="ignore"):
            expected = uncertified_solve(a, dt, 3.0)
        with np.errstate(invalid="ignore" if math.isinf(special) else "raise"):
            got = damping_solve_field(a, dt, 3.0)
        np.testing.assert_array_equal(got.view(np.int64),
                                      expected.view(np.int64))

    @pytest.mark.parametrize("dt", DTS)
    def test_root_up_to_the_largest_argument(self, dt):
        top = integrator.CUBIC_ARG_MAX / (1.5 * math.sqrt(3.0 * dt))
        a = np.r_[np.linspace(-1.0, 1.0, 2001), np.logspace(-10, 0, 101)] * top
        v = damping_solve_field(a, dt, 3.0)
        res = v + dt * np.abs(v) ** 2.0 * v - a
        assert np.all(np.abs(res) <= 1e-14 * np.maximum(1.0, np.abs(a)))
        np.testing.assert_allclose(v, uncertified_solve(a, dt, 3.0),
                                   rtol=1e-12, atol=0.0)

    def test_empty_input(self):
        for shape in ((0,), (0, 3)):
            assert damping_solve_field(np.empty(shape), 0.1, 3.0).shape \
                == shape


def certificate_amax(dt, m):
    """The max|a| at which (m-1) (dt max|a|^(m-1))^2 min(max|a|, 1) is
    0.5e-14, clamped to [1e-300, 1e300]."""
    log_c = math.log(0.5e-14 / ((m - 1.0) * dt * dt))
    log_amax = log_c / (2.0 * m - 1.0)
    if log_amax > 0.0:
        log_amax = log_c / (2.0 * m - 2.0)
    return math.exp(min(max(log_amax, -690.0), 690.0))


SPECIALS = (-0.0, np.finfo(float).smallest_subnormal, math.inf, -math.inf,
            math.nan)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(1.0, 20.0, exclude_min=True), dt=st.floats(1e-6, 1e2),
       shift=st.one_of(st.floats(-40.0, 40.0), st.floats(-700.0, 700.0)),
       unit=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                       elements=st.floats(-1.0, 1.0)),
       extras=st.lists(st.sampled_from(SPECIALS), max_size=3))
def test_certified_guess_matches_uncertified_loop(m, dt, shift, unit, extras):
    # max|a| within 2^40 of the certificate's threshold, or anywhere in
    # [1e-300, 1e300]; an inf or NaN anywhere sends the array to the loop.
    # m = 3 solves uncertified arrays in closed form (TestCubicSolve)
    assume(m != 3.0)
    scale = certificate_amax(dt, m) * 2.0 ** shift
    scale = min(max(scale, 1e-300), 1e300)
    a = unit * scale
    a.reshape(-1)[0] = scale
    if extras:
        a = np.r_[a.reshape(-1), extras]
    finite = bool(np.isfinite(a).all())
    with np.errstate(all="ignore"):
        expected = uncertified_solve(a, dt, m)
    with np.errstate(invalid="ignore" if not finite else "raise"):
        got = damping_solve_field(a, dt, m)
    assert got.shape == a.shape
    np.testing.assert_array_equal(got.view(np.int64),
                                  expected.view(np.int64))


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

    def test_trajectory_only_on_request(self):
        plain = run(quick_config())
        kept = run(quick_config(), trajectory=True)
        assert plain.trajectory is None
        assert len(kept.trajectory.times) == len(kept.trajectory.u) \
            == len(kept.ledger)
        assert kept.trajectory.times == list(kept.ledger.column("t"))
        assert kept.ledger.to_csv() == plain.ledger.to_csv()

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
        coarse = run(cfg, trajectory=True)
        dt = cfg.resolved_dt(coarse.grid, coarse.kernel)
        fine = run(replace(cfg, dt=dt / 20.0), trajectory=True)

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

    def test_finished_run_memory_size_independent_of_depth(self):
        # the polynomial frozen depth is 100 * t_end, yet the memory's arrays
        # have no axis of that depth, only the K modes of the run's horizon
        # t_end + T0 + ds, each row a field's Laplacian and its ||grad||^2;
        # the kept state still gives the last convolution
        def mode_count(t_end):
            cfg = quick_config(kernel_family="polynomial", r=1.5,
                               extension="frozen", t_end=t_end)
            res = run(cfg, trajectory=True)
            memory, u = res.state.memory, res.state.u
            conv = memory.convolution_field(u, res.state.t - memory.t_push)
            lap_conv = res.trajectory.lap_conv[-1]
            np.testing.assert_allclose(
                res.grid.laplacian(conv), lap_conv, rtol=1e-12,
                atol=1e-12 * np.max(np.abs(lap_conv)))
            K, N = len(memory.lam), cfg.n
            assert {k: v.shape for k, v in vars(memory).items()
                    if isinstance(v, np.ndarray)} == {
                "lam": (K,), "weights": (2, K), "w0": (2,), "decay": (K, 1),
                "M": (K + 5, N + 1)}
            ds = memory.ds
            assert memory.horizon == t_end + cfg.support_T0 + ds
            assert np.array_equal(
                memory.lam, res.kernel.modes(t_end + cfg.support_T0 + ds)[0])
            return K

        # four times the run: a few more modes, not four times as many
        assert mode_count(1.0) < mode_count(4.0) <= mode_count(1.0) + 8

    @pytest.mark.parametrize("overrides, stop_step, halvings", [
        ({"amplitude": 1e30}, 2, 1),
        # without damping no damping power vouches for v: at 1e45 the force
        # overflows v in the first step while ||grad u||^2 stays finite
        ({"amplitude": 1e45, "damping_enabled": False}, 1, 0),
        ({"amplitude": 1e60, "damping_enabled": False}, 1, 0),
    ], ids=["damped", "undamped_v_only", "undamped"])
    def test_nonfinite_state_stops_the_run(self, overrides, stop_step,
                                           halvings):
        cfg = replace(w1_scenario(t_end=1.0), **overrides)
        with np.errstate(all="ignore"):
            result = run(cfg)
        assert result.flags["nonfinite"] and result.blew_up
        assert not result.flags["completed"]
        assert result.flags["stop_step"] == stop_step
        assert result.flags["dt_halvings"] == halvings
        assert result.state.step_index == stop_step

    def test_one_laplacian_seminorm_and_evaluation_per_step(self, monkeypatch):
        # N steps and the initial diagnostics: N + 1 Laplacians and
        # evaluations, counted from the memory's construction on with the
        # well constants cached; ||grad u||^2 comes from lap u by parts
        cfg = quick_config(t_end=0.5)
        run(cfg)
        counts = dict.fromkeys(["laplacian", "h1_seminorm_sq", "evaluate"], 0)

        def counting(cls, name):
            fn = getattr(cls, name)

            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapped)

        init = MemoryState.__init__

        def init_then_reset(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counts.update(dict.fromkeys(counts, 0))

        counting(SpatialGrid, "laplacian")
        counting(SpatialGrid, "h1_seminorm_sq")
        counting(MemoryState, "evaluate")
        monkeypatch.setattr(MemoryState, "__init__", init_then_reset)
        steps = run(cfg).state.step_index
        assert steps > 10
        assert counts == {"laplacian": steps + 1, "h1_seminorm_sq": 0,
                          "evaluate": steps + 1}

    @pytest.mark.parametrize("overrides", [
        {}, {"dim": 2, "n": 12, "n_y": 10, "modes": (1, 2)},
    ], ids=["1d", "2d"])
    def test_laplacian_plans_do_not_grow_with_the_run(self, monkeypatch,
                                                      overrides):
        # u and lap u are the same arrays for a whole run, so grid.laplacian
        # reruns the plan it bound at the start: four times the steps build
        # no more plans, counted with the well constants cached
        builds, steps = [], []
        plan = SpatialGrid._plan

        def counting(self, *args):
            builds[-1] += 1
            return plan(self, *args)

        for t_end in (2.0, 8.0):
            cfg = quick_config(t_end=t_end, **overrides)
            run(cfg)
            builds.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(SpatialGrid, "_plan", counting)
                steps.append(run(cfg).state.step_index)
        assert steps[1] > 3 * steps[0] > 0
        assert builds[0] == builds[1] > 0

    def test_datum_at_rest_needs_no_halvings(self, tmp_path):
        # u(0) = 0 with a small past: the memory sets the string moving and
        # the energy decays; ||grad u(0)|| = 0 must not make every later
        # gradient look like a doubling
        n = 200
        x = np.linspace(0.0, np.pi, n + 2)[1:-1]
        table = tmp_path / "history.csv"
        np.savetxt(table, np.column_stack(
            [[0.0, -0.1], np.stack([0.0 * x, 0.01 * np.sin(x)])]),
            delimiter=",")
        res = run(ScenarioConfig(n=n, stride=8, t_end=5.0, template="table",
                                 table_path=str(table)))
        assert res.flags["completed"] and not res.blew_up
        assert res.flags["dt_halvings"] == 0
        E = res.ledger.column("E")
        assert E[-1] < E[0]


@st.composite
def small_scenarios(draw):
    """Small benign scenarios: amplitude <= 0.1 keeps every datum in W1."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        grid = dict(n=draw(st.integers(8, 40)), modes=(draw(st.integers(1, 3)),))
    else:
        grid = dict(n=draw(st.integers(5, 12)), n_y=draw(st.integers(5, 12)),
                    modes=(draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    unit = st.floats(0.1, 1.0)
    return ScenarioConfig(
        dim=dim, **grid,
        kernel_family=draw(st.sampled_from(["exponential", "polynomial"])),
        mu0=draw(unit), c=draw(st.floats(0.1, 2.0)),
        r=draw(st.floats(1.2, 1.8)),
        m=draw(st.one_of(st.just(1.0), st.floats(1.0, 9.0))),
        p=draw(st.floats(1.5, 5.0)),
        amplitude=draw(st.floats(0.0, 0.1)),
        profile=draw(st.sampled_from(["constant", "ramp", "bump"])),
        ramp_rate=draw(unit), support_T0=draw(unit),
        extension=draw(st.sampled_from(["zero", "frozen"])),
        stride=draw(st.integers(1, 8)),
        output_every=draw(st.integers(1, 10)),
        t_end=draw(st.floats(0.0, 1.5)))


@settings(max_examples=50, deadline=None)
@given(cfg=small_scenarios())
def test_random_scenarios_are_benign_and_reproducible(cfg):
    record = run_scenario(cfg)
    ledger = record.result.ledger
    assert all(np.isfinite(ledger.column(name)).all()
               for name in ledger.rows[0])
    assert all(not np.any(np.diff(ledger.column(name)) < 0)
               for name in ("damp_cum", "visc_cum"))
    assert record.result.flags["completed"]
    assert record.result.flags["dt_halvings"] == 0
    assert record.classification == "W1"
    # the terms that classify the datum are ledger row 0's, bit for bit
    terms = initial_terms(cfg, record.result.datum, record.result.kernel)
    assert {k: float(v).hex() for k, v in terms.items()} == {
        k: ledger.rows[0][k].hex() for k in terms}
    assert run(loads(cfg.to_ini())).ledger.to_csv() == ledger.to_csv()


# E(t_end) and the final identity residual of a small 2-D scenario, which no
# byte digest below covers, recorded before the stepper was rewritten to
# compute each quantity once per step; a change to the hot path may move them
# by round-off only.
GOLDEN = {
    "grid_2d_16x16": (quick_config(dim=2, n=16, n_y=16, t_end=2.0,
                                   modes=(1, 2), m=3.0),
                      0.05398636103940911, 0.0027151344509509373),
}


# sha256 of ledger.csv for a 2-D run with m = 3, re-recorded when m = 3 took
# the cubic's closed form and ||.||_4^4 became a squared square, and again,
# with the digests below, when the step took ||grad u||^2 by parts from lap u
# and the memory's rows their Laplacians (every column moved by at most
# 2e-16 absolute, E by at most 6e-15 relative); later changes must reproduce
# it byte for byte.  Its velocities are small enough that some damping solves
# end at the certified guess and others take the closed form.  Recorded on
# x86-64 with AVX-512 and NumPy 2.4.6; NumPy's sinh, arcsinh and power (the
# source term's |u|^(p-1)) may round differently where NumPy picks another
# SIMD routine.
LEDGER_2D_M3 = (quick_config(dim=2, n=12, n_y=10, extent_y=2.0, t_end=2.0,
                             modes=(1, 2), m=3.0, output_every=1,
                             amplitude=0.003),
                "6f883787785d04a3229e201c4eac5ff5e140419d4921ec8a86686326ace2aa25")

# The same for three 1-D runs, a row per step.  With p = 3 every row holds
# ||u||_4^4, so the m = 1 digests moved with the m = 3 ones.  The polynomial
# one was re-recorded when the memory took the modes fitted to the run's
# horizon (19 modes in place of 133; its columns moved by at most 1.5e-12
# relative, the identity residual by 4e-17 absolute), and once more when the
# mode fit's triangular solve became a back substitution.
LEDGER_BYTES = {
    "exponential_m1_1d": (
        quick_config(output_every=1),
        "8cec5e8a13b4f6513d4cf435e009e77cc3971bf327863d25a430a545b3084fae"),
    "polynomial_frozen_1d": (
        quick_config(n=60, t_end=2.0, kernel_family="polynomial", r=1.5,
                     extension="frozen", output_every=1),
        "bb7f3c56722201b73afd417af10ddc6663702100623704f1bcdaa80fa374b684"),
    "exponential_m3_1d": (
        quick_config(m=3.0, output_every=1),
        "58bcb03ccfd230e3fd64d68d88e67e07a66bed56cdc3f8c78fe362b8362a85a8"),
    "grid_2d_m3": LEDGER_2D_M3,
    # Branches of the step the runs above leave out, recorded before the
    # step loop was rewritten with fewer calls per step: p = 2 (the source's
    # power 1), the Newton damping (m = 1.5), no damping, no source, and a
    # run whose controller halves dt to exhaustion, which recomputes the
    # kick on each halving and records the stop row.  Recorded on x86-64
    # with NumPy 2.4.6; the m = 1.5 solve and p = 2's ||u||_3^3 call
    # NumPy's power, which may round differently on another SIMD routine.
    "source_p2_1d": (
        quick_config(p=2.0, output_every=1),
        "33362e6b64274cff63880a8afd1c97fcd28ac1c3673b5e9d1d8b5b2d105c80ad"),
    "newton_m1.5_1d": (
        quick_config(m=1.5, output_every=1),
        "c6101dc3cd12869ec495dc09b5a6ea2a81604af0408a7463012818aee21ce60a"),
    "undamped_1d": (
        quick_config(damping_enabled=False, output_every=1),
        "9b8192cc0cc44fc40019ebaeb1cea7e077d8b925e0ae3609bc4d677813ed7bf1"),
    "sourceless_1d": (
        quick_config(source_enabled=False, output_every=1),
        "084ea9a49f991bacbe1e1e4485f3ef000b489e0b48cb2e9998ddbdc2418155b9"),
    "halving_1d": (
        quick_config(amplitude=2.0, output_every=1),
        "e0b7c2d23cdf2ddbcd73c8eeaaab830e61ce55b804d7ff3b21dfc4fe8051093c"),
}


@pytest.mark.parametrize("name", sorted(LEDGER_BYTES))
def test_golden_ledger_bytes(name):
    cfg, digest = LEDGER_BYTES[name]
    result = run(cfg)
    csv_text = result.ledger.to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest
    assert (result.flags["dt_halvings"] > 0) == (name == "halving_1d")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_end_state(name):
    cfg, E_end, residual = GOLDEN[name]
    last = run(cfg).ledger.rows[-1]
    assert last["E"] == pytest.approx(E_end, rel=1e-9, abs=0.0)
    assert last["identity_residual"] == pytest.approx(residual, rel=1e-9,
                                                      abs=0.0)
