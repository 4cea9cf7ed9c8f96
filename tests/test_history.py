import math

import numpy as np
import pytest

from viscowave import wellconst
from viscowave.grid import SpatialGrid
from viscowave.history import (Classification, HistoryDatum, MemoryState,
                               classify, functional_I, make_profile,
                               nehari_gap, quadratic_part)
from viscowave.kernel import RelaxationKernel


def grid_pi(n=200):
    return SpatialGrid.line(math.pi, n)


EXP11 = RelaxationKernel.exponential(1.0, 1.0)
POLY15 = RelaxationKernel.polynomial(1.0, 1.5)


def logical_rows(mem):
    """The ring's rows newest first, as the quadrature indexes them."""
    return np.roll(mem.rows, -mem.head, axis=0)


def trapezoid_weights(mem, weight_fn, delta):
    """Row weights on the nodes delta + j*ds, built from the kernel alone."""
    s = delta + mem.ds * np.arange(mem.depth + 1)
    coef = np.full(mem.depth + 1, mem.ds)
    coef[0] = 0.5 * (delta + mem.ds)
    coef[-1] = 0.5 * mem.ds
    return coef * weight_fn(s)


class TestProfiles:
    def test_constant(self):
        g, gp = make_profile("constant", 0.0)
        assert g(-3.0) == 1.0 and gp(-3.0) == 0.0

    def test_ramp(self):
        g, gp = make_profile("ramp", 0.0, ramp_rate=2.0)
        assert g(0.0) == 1.0
        assert g(-1.0) == pytest.approx(math.exp(-2.0))
        assert gp(0.0) == 2.0

    def test_bump(self):
        g, gp = make_profile("bump", 4.0)
        assert g(0.0) == pytest.approx(1.0)
        assert g(-4.0) == pytest.approx(0.0, abs=1e-15)
        assert gp(-2.0) > 0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_profile("square", 1.0)


class TestHistoryDatum:
    def test_template_value_and_velocity(self):
        grid = grid_pi(50)
        datum = HistoryDatum.from_template(grid, 0.3, profile="ramp",
                                           support_T0=2.0, ramp_rate=1.5)
        x = grid.coords()
        assert np.allclose(datum.value_at(0.0), 0.3 * np.sin(x))
        assert np.allclose(datum.velocity_at_0, 1.5 * 0.3 * np.sin(x))
        assert np.allclose(datum.value_at(-1.0),
                           0.3 * math.exp(-1.5) * np.sin(x))

    def test_zero_extension_beyond_support(self):
        grid = grid_pi(20)
        datum = HistoryDatum.from_template(grid, 1.0, support_T0=1.0)
        assert np.all(datum.value_at(-2.0) == 0.0)

    def test_frozen_extension_beyond_support(self):
        grid = grid_pi(20)
        datum = HistoryDatum.from_template(grid, 1.0, support_T0=1.0,
                                           mode="frozen")
        assert np.allclose(datum.value_at(-5.0), datum.value_at(-1.0))

    def test_positive_t_rejected(self):
        datum = HistoryDatum.from_template(grid_pi(20), 1.0)
        with pytest.raises(ValueError):
            datum.value_at(0.5)

    def test_table_interpolation(self):
        grid = grid_pi(10)
        base = np.sin(grid.coords())
        times = np.array([0.0, -1.0, -2.0])
        samples = np.stack([1.0 * base, 0.5 * base, 0.0 * base])
        datum = HistoryDatum.from_table(grid, times, samples)
        assert np.allclose(datum.value_at(-0.5), 0.75 * base)
        assert datum.support_T0 == 2.0
        # forward difference over the first table interval
        assert np.allclose(datum.velocity_at_0, 0.5 * base)


    @pytest.mark.parametrize("mode", ["zero", "frozen"])
    def test_table_rows_match_per_node_interp(self, mode):
        grid = SpatialGrid.rectangle((math.pi, 2.0), (7, 5))
        rng = np.random.default_rng(4)
        times = np.r_[0.0, -np.cumsum(rng.uniform(0.1, 0.5, 6))]
        samples = rng.standard_normal((len(times),) + grid.shape)
        datum = HistoryDatum.from_table(grid, times, samples, mode=mode)
        T0 = datum.support_T0
        flat = samples.reshape(len(times), -1)

        def oracle(t):
            if t < -T0:
                if mode == "zero":
                    return np.zeros(grid.size)
                t = -T0
            return np.array([np.interp(t, times[::-1], flat[::-1, j])
                             for j in range(grid.size)])

        # every table node, points between them, and points beyond -T0
        probes = list(times) + list(rng.uniform(-T0, 0.0, 20))
        probes += [-T0 - 0.7, -3.0 * T0]
        for t in probes:
            np.testing.assert_allclose(datum.value_at(float(t)).ravel(),
                                       oracle(float(t)), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("profile,mode", [("ramp", "zero"),
                                              ("bump", "zero"),
                                              ("ramp", "frozen"),
                                              ("constant", "frozen"),
                                              ("table", "zero"),
                                              ("table", "frozen")])
    def test_memory_prefill_matches_value_at(self, profile, mode):
        grid = SpatialGrid.rectangle((math.pi, 2.0), (9, 6))
        if profile == "table":
            rng = np.random.default_rng(5)
            times = np.r_[0.0, -np.cumsum(rng.uniform(0.1, 0.4, 5))]
            samples = rng.standard_normal((len(times),) + grid.shape)
            datum = HistoryDatum.from_table(grid, times, samples, mode=mode)
        else:
            datum = HistoryDatum.from_template(grid, 0.3, modes=(1, 2),
                                               profile=profile,
                                               support_T0=1.3, mode=mode)
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=2.0)
        assert -mem.s_max_at_push < -datum.support_T0
        for j in range(mem.depth + 1):
            f = datum.value_at(-j * mem.ds)
            np.testing.assert_allclose(mem.rows[j], f.ravel(), rtol=1e-14,
                                       atol=1e-300)
            assert mem.row_h1[j] == pytest.approx(grid.h1_seminorm_sq(f),
                                                  rel=1e-13, abs=1e-300)


class TestMemoryIntegral:
    def test_constant_frozen_trajectory_is_zero(self):
        # u identical at every past time: w vanishes identically
        grid = grid_pi(60)
        datum = HistoryDatum.from_template(grid, 0.7, mode="frozen")
        mem = MemoryState(datum, EXP11, ds=0.05, s_depth=10.0)
        val = mem.memory_integral(datum.value_at(0.0))
        assert abs(val) <= 1e-14

    def test_step_history_matches_closed_form(self):
        # u(t) = U for t >= 0, zero before: only the tail past lag t remains
        grid = grid_pi(60)
        U = 0.4 * np.sin(grid.coords())
        datum = HistoryDatum.from_template(grid, 0.0)
        ds = 0.01
        mem = MemoryState(datum, EXP11, ds=ds, s_depth=40.0)
        n_push = 200
        for j in range(1, n_push + 1):
            mem.push(U, j * ds)
        t = n_push * ds
        h1 = grid.h1_seminorm_sq(U)
        expected = h1 * math.exp(-t)
        # the integrand jumps at s = t, costing one trapezoid cell of error
        assert mem.memory_integral(U) == pytest.approx(expected, rel=1e-2)

    def test_step_history_matches_dense_quadrature_oracle(self):
        grid = grid_pi(60)
        U = 0.4 * np.sin(grid.coords())
        datum = HistoryDatum.from_template(grid, 0.0)
        ds = 0.01
        mem = MemoryState(datum, EXP11, ds=ds, s_depth=40.0)
        for j in range(1, 201):
            mem.push(U, j * ds)
        h1 = grid.h1_seminorm_sq(U)
        # dense trapezoid over the covered depth plus the exact tail; w = 0
        # for s < t and w = U beyond
        t = 2.0
        s = np.linspace(0.0, mem.s_max_at_push, 10_000)
        w_sq = np.where(s <= t, 0.0, h1)
        oracle = float(np.trapezoid(w_sq * EXP11.mu(s), s))
        oracle += h1 * EXP11.tail_mass(mem.s_max_at_push)
        assert mem.memory_integral(U) == pytest.approx(oracle, rel=1e-2)

    def test_expansion_agrees_with_direct_rows(self):
        grid = grid_pi(40)
        rng = np.random.default_rng(5)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp")
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=5.0)
        for j in range(1, 8):
            mem.push(rng.standard_normal(grid.shape), j * 0.1)
        u = rng.standard_normal(grid.shape)
        for weight in ("mu", "mu_prime"):
            a = mem.memory_integral(u, weight, delta=0.03)
            b = mem.memory_integral_direct(u, weight, delta=0.03)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_exponential_fast_path_matches_weighted_row_sum(self):
        grid = grid_pi(30)
        rng = np.random.default_rng(9)
        datum = HistoryDatum.from_template(grid, 0.1)
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=3.0)
        for j in range(1, 5):
            mem.push(rng.standard_normal(grid.shape), j * 0.1)
        u = rng.standard_normal(grid.shape)
        delta = 0.04
        fast = mem.convolution_field(u, delta, "mu")
        rowsum = trapezoid_weights(mem, EXP11.mu, delta) @ logical_rows(mem)
        direct = (rowsum + 0.5 * delta * EXP11.mu(0.0) * u.ravel()
                  + EXP11.tail_mass(delta + mem.s_max_at_push) * mem.ext_field)
        assert np.allclose(fast.ravel(), direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kernel", [EXP11, POLY15],
                             ids=["exponential", "polynomial"])
    def test_wrap_around_matches_logical_ring(self, kernel):
        grid = grid_pi(30)
        rng = np.random.default_rng(13)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp",
                                           support_T0=0.3, mode="frozen")
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=0.5)
        pushed = []
        # three and a half laps of the six-row ring
        for j in range(1, 22):
            pushed.append(rng.standard_normal(grid.shape))
            mem.push(pushed[-1], j * 0.1)
        assert mem.head != 0
        logical = logical_rows(mem)
        newest_first = [f.ravel() for f in pushed[::-1][:mem.depth + 1]]
        assert np.array_equal(logical, np.array(newest_first))
        u = rng.standard_normal(grid.shape)
        terms = {"mu": (kernel.mu, kernel.tail_mass),
                 "mu_prime": (kernel.mu_prime, kernel.mu_prime_tail)}
        for weight, (fn, tail) in terms.items():
            for delta in (0.0, 0.03):
                w = trapezoid_weights(mem, fn, delta)
                tail_w = tail(delta + mem.s_max_at_push)
                conv = (w @ logical + 0.5 * delta * fn(0.0) * u.ravel()
                        + tail_w * mem.ext_field)
                assert np.allclose(mem.convolution_field(u, delta, weight).ravel(),
                                   conv, rtol=1e-12, atol=1e-14)
                vals = [grid.h1_seminorm_sq((u.ravel() - row).reshape(grid.shape))
                        for row in logical]
                tail_f = u - mem.ext_field.reshape(grid.shape)
                oracle = w @ vals + tail_w * grid.h1_seminorm_sq(tail_f)
                a = mem.memory_integral(u, weight, delta)
                assert a == pytest.approx(
                    mem.memory_integral_direct(u, weight, delta),
                    rel=1e-10, abs=1e-12)
                assert a == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kernel", [EXP11, POLY15], ids=["exp", "poly"])
    def test_quadrature_cache_stays_bounded(self, kernel):
        # each dt halving doubles the lags a run visits between pushes; the
        # cached weights must never outgrow the ring, and emptying the cache
        # must not change any result
        grid = grid_pi(20)
        datum = HistoryDatum.from_template(grid, 0.1, profile="ramp",
                                           support_T0=1.0)
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=2.0)
        u = 0.2 * np.sin(grid.coords())
        stride = 4
        for halvings in range(6):
            mem.push(u * (1.0 + 0.1 * halvings), 0.1 * (halvings + 1))
            lags = stride * 2 ** halvings
            for delta in 0.1 * np.arange(lags) / lags:
                a = mem.memory_integral(u, "mu_prime", delta)
                cached = sum(q[0].size for q in mem._quadratures.values())
                assert cached <= mem.rows.size
                assert a == pytest.approx(
                    mem.memory_integral_direct(u, "mu_prime", delta),
                    rel=1e-10, abs=1e-12)
        assert len(mem._quadratures) <= mem.max_cached_lags

    def test_finer_stride_agreement(self):
        # compactly supported history: refining the s-grid 10x moves the
        # quadrature by no more than the a-priori trapezoid error scale
        grid = grid_pi(40)
        datum = HistoryDatum.from_template(grid, 0.3, profile="bump",
                                           support_T0=2.0)
        coarse = MemoryState(datum, EXP11, ds=0.1, s_depth=10.0)
        fine = MemoryState(datum, EXP11, ds=0.01, s_depth=10.0)
        u = datum.value_at(0.0)
        a = coarse.memory_integral(u)
        b = fine.memory_integral(u)
        assert abs(a - b) <= 10.0 * 0.1 ** 2


class TestMemoryForce:
    # the memory force is lap(integral mu(s) u(t - s) ds)

    def test_zero_everything(self):
        grid = grid_pi(20)
        datum = HistoryDatum.from_template(grid, 0.0)
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=2.0)
        F = grid.laplacian(mem.convolution_field(grid.zeros()))
        assert np.all(F == 0.0)

    def test_frozen_constant_history(self):
        grid = grid_pi(80)
        datum = HistoryDatum.from_template(grid, 0.6, mode="frozen")
        mem = MemoryState(datum, EXP11, ds=0.05, s_depth=30.0)
        U = datum.value_at(0.0)
        F = grid.laplacian(mem.convolution_field(U))
        expected = (EXP11.k0 - 1.0) * grid.laplacian(U)
        # trapezoid weight error scales with ds^2
        assert np.allclose(F, expected, rtol=1e-3, atol=1e-8)

    def test_linear_in_time_past(self):
        # u(t - s) = (t - s) U with t = 10: the convolution weight of the
        # exponential kernel integrates to t - 1
        grid = grid_pi(80)
        U = np.sin(grid.coords())
        datum = HistoryDatum.from_template(grid, 0.0)
        ds = 0.01
        mem = MemoryState(datum, EXP11, ds=ds, s_depth=60.0)
        t = 10.0
        # one full lap of the ring, oldest first
        for j in range(mem.depth, -1, -1):
            mem.push((t - j * ds) * U, t - j * ds)
        F = grid.laplacian(mem.convolution_field(t * U))
        expected = (t - 1.0) * grid.laplacian(U)
        assert np.allclose(F, expected, rtol=1e-3, atol=1e-6)
        # dense-quadrature oracle for the scalar weight
        s = np.linspace(0.0, 60.0, 100_000)
        oracle = float(np.trapezoid(EXP11.mu(s) * (t - s), s))
        assert oracle == pytest.approx(t - 1.0, rel=1e-6)


class TestDatumFunctionals:
    def test_functional_I_zero(self):
        datum = HistoryDatum.from_template(grid_pi(30), 0.0)
        assert functional_I(datum, 3.0, EXP11) == 0.0

    def test_functional_I_constant_in_time(self):
        grid = grid_pi(120)
        datum = HistoryDatum.from_template(grid, 0.5, mode="frozen")
        U = datum.value_at(0.0)
        expected = (0.5 * grid.h1_seminorm_sq(U)
                    - grid.lp_norm_pow(U, 4.0) / 4.0)
        assert functional_I(datum, 3.0, EXP11) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_functional_I_step_datum(self):
        # v(0) = U with zero past: the memory term doubles the gradient part
        grid = grid_pi(120)
        datum = HistoryDatum.from_template(grid, 0.5)
        U = datum.value_at(0.0)
        expected = (grid.h1_seminorm_sq(U)
                    - grid.lp_norm_pow(U, 4.0) / 4.0)
        assert functional_I(datum, 3.0, EXP11) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_gap_sign_small_vs_large_amplitude(self):
        grid = grid_pi(100)
        small = HistoryDatum.from_template(grid, 1e-3)
        large = HistoryDatum.from_template(grid, 50.0)
        assert nehari_gap(small, 3.0, EXP11) > 0
        assert nehari_gap(large, 3.0, EXP11) < 0


@pytest.fixture(scope="module")
def setup():
    grid = grid_pi(100)
    consts = wellconst.cached_constants(grid, 3.0, EXP11.k0)
    return grid, consts


class TestClassify:
    def test_zero_datum_is_w1(self, setup):
        grid, consts = setup
        datum = HistoryDatum.from_template(grid, 0.0)
        assert classify(datum, consts.d, 3.0, EXP11) is Classification.W1

    def test_small_ground_state_is_w1(self, setup):
        grid, consts = setup
        shape = wellconst.ground_state(grid, 3.0)
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        datum.shape_field = 0.05 * shape
        assert nehari_gap(datum, 3.0, EXP11) > 0
        assert functional_I(datum, 3.0, EXP11) < consts.d
        assert classify(datum, consts.d, 3.0, EXP11) is Classification.W1

    def test_mountain_pass_datum_on_manifold(self, setup):
        # tilde v = ||u||_4^{-2} u with ||grad u|| = 1, constant in time:
        # lands on the manifold with functional value at the pass level
        grid, consts = setup
        u = wellconst.ground_state(grid, 3.0)
        l4 = grid.lp_norm_pow(u, 4.0) ** 0.25
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        datum.shape_field = u / l4 ** 2
        assert classify(datum, consts.d, 3.0, EXP11) is Classification.ON_MANIFOLD
        assert functional_I(datum, 3.0, EXP11) == pytest.approx(consts.d,
                                                                rel=1e-6)

    def test_w2_construction(self, setup):
        grid, consts = setup
        shape = wellconst.ground_state(grid, 3.0)
        found = None
        for A in np.geomspace(0.1, 100.0, 200):
            datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
            datum.shape_field = A * shape
            if classify(datum, consts.d, 3.0, EXP11) is Classification.W2:
                found = datum
                break
        assert found is not None
        assert nehari_gap(found, 3.0, EXP11) < 0
        assert functional_I(found, 3.0, EXP11) < consts.d

    def test_scale_covariance_unique_root(self, setup):
        grid, consts = setup
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        quad = quadratic_part(datum, EXP11)
        power = grid.lp_norm_pow(datum.value_at(0.0), 4.0)

        def gap_of(alpha):
            scaled = HistoryDatum.from_template(grid, alpha, mode="frozen")
            return nehari_gap(scaled, 3.0, EXP11)

        # predicted root of alpha^2 quad - alpha^4 power
        alpha_star = math.sqrt(quad / power)
        assert gap_of(0.9 * alpha_star) > 0
        assert gap_of(1.1 * alpha_star) < 0
        lo, hi = 0.9 * alpha_star, 1.1 * alpha_star
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap_of(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(alpha_star, rel=1e-9)

    def test_partition_is_total(self, setup):
        grid, consts = setup
        for A in (0.0, 0.01, 0.3, 1.0, 3.0, 30.0):
            datum = HistoryDatum.from_template(grid, A, mode="frozen")
            verdict = classify(datum, consts.d, 3.0, EXP11)
            assert verdict in Classification
