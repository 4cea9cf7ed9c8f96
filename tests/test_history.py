import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave import wellconst
from viscowave.config import ScenarioConfig
from viscowave.grid import SpatialGrid
from viscowave.history import (Classification, HistoryDatum, MemoryState,
                               classify, make_profile)
from viscowave.integrator import initial_terms
from viscowave.kernel import RelaxationKernel


def grid_pi(n=200):
    return SpatialGrid.line(math.pi, n)


def push_field(mem, f, t):
    """Push the field f at time t: its ||grad f||^2 and lap f."""
    mem.push(t, mem.grid.h1_seminorm_sq(f), mem.grid.laplacian(f))


EXP11 = RelaxationKernel.exponential(1.0, 1.0)
POLY15 = RelaxationKernel.polynomial(1.0, 1.5)
# lags as fractions of the stride; a few, so that lags repeat
LAGS = (0.0, 0.25, 0.5, 0.75)


class DenseMemory:
    """Reference oracle for MemoryState: every past field kept as a row,
    newest first, from the value_at prefill over the depth and the pushes.

    Row j sits on the node delta + j*ds.  The trapezoid is the one over the
    depth with the exact tail past it (weights (delta+ds)/2, ds, ..., ds/2),
    the current field taking delta/2; rows past the depth that still differ
    from the extension field keep weight ds on that difference.
    """

    def __init__(self, datum, kernel, ds, s_depth):
        self.grid, self.kernel, self.ds = datum.grid, kernel, ds
        self.depth = int(np.ceil(s_depth / ds - 1e-12))
        self.ext = datum.frozen_field().ravel()
        self.rows = [datum.value_at(-j * ds).ravel()
                     for j in range(self.depth + 1)]

    def push(self, u):
        self.rows.insert(0, np.ravel(u).copy())

    def _weights(self, weight, delta):
        """(weights of the rows' differences from ext, now-weight, total)."""
        kern = self.kernel
        fn, tail = {"mu": (kern.mu, kern.tail_mass),
                    "mu_prime": (kern.mu_prime, kern.mu_prime_tail)}[weight]
        J = self.depth
        s = delta + self.ds * np.arange(len(self.rows))
        coef = np.full(len(self.rows), self.ds)
        coef[0] = 0.5 * (delta + self.ds)
        now = 0.5 * delta * fn(0.0)
        depth_coef = coef[:J + 1].copy()
        depth_coef[-1] = 0.5 * self.ds
        total = (depth_coef @ fn(s[:J + 1]) + now
                 + tail(delta + J * self.ds))
        return coef * fn(s), now, total

    def h1(self, flat):
        return self.grid.h1_seminorm_sq(flat.reshape(self.grid.shape))

    def convolution_field(self, u, delta, weight):
        w, now, total = self._weights(weight, delta)
        dev = np.array(self.rows) - self.ext
        return (total * self.ext + w @ dev
                + now * (u.ravel() - self.ext)).reshape(self.grid.shape)

    def scalar_convolution(self, weight, delta, h1_now):
        w, now, total = self._weights(weight, delta)
        ext_h1 = self.h1(self.ext)
        dev = np.array([self.h1(row) for row in self.rows]) - ext_h1
        return total * ext_h1 + w @ dev + now * (h1_now - ext_h1)

    def memory_integral(self, u, weight, delta):
        """Row by row: integral weight(s) ||grad(u - u(t - s))||^2 ds."""
        w, now, total = self._weights(weight, delta)
        flat = u.ravel()
        tail_sq = self.h1(flat - self.ext)
        vals = np.array([self.h1(flat - row) for row in self.rows])
        # w(t, 0) = 0, so the current node adds nothing
        return w @ (vals - tail_sq) + (total - now) * tail_sq


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
        oracle = DenseMemory(datum, EXP11, ds=0.1, s_depth=2.0)
        assert mem.depth * mem.ds > datum.support_T0
        u = datum.value_at(0.0)
        h1 = grid.h1_seminorm_sq(u)
        for weight in ("mu", "mu_prime"):
            for delta in (0.0, 0.03):
                expected = oracle.convolution_field(u, delta, weight)
                # sums of signed rows: 1e-14 of the field's scale, not of
                # each node, which may cancel to a few ulps of that scale
                np.testing.assert_allclose(
                    mem.convolution_field(u, delta, weight), expected,
                    rtol=1e-14, atol=1e-14 * np.max(np.abs(expected)))
                assert mem.scalar_convolution(weight, delta, h1) == \
                    pytest.approx(oracle.scalar_convolution(weight, delta, h1),
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
            push_field(mem, U, j * ds)
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
            push_field(mem, U, j * ds)
        h1 = grid.h1_seminorm_sq(U)
        # dense trapezoid over the covered depth plus the exact tail; w = 0
        # for s < t and w = U beyond
        t = 2.0
        s_max = mem.depth * mem.ds
        s = np.linspace(0.0, s_max, 10_000)
        w_sq = np.where(s <= t, 0.0, h1)
        oracle = float(np.trapezoid(w_sq * EXP11.mu(s), s))
        oracle += h1 * EXP11.tail_mass(s_max)
        assert mem.memory_integral(U) == pytest.approx(oracle, rel=1e-2)

    def test_expansion_agrees_with_direct_rows(self):
        grid = grid_pi(40)
        rng = np.random.default_rng(5)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp")
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=5.0)
        oracle = DenseMemory(datum, EXP11, ds=0.1, s_depth=5.0)
        for j in range(1, 8):
            f = rng.standard_normal(grid.shape)
            push_field(mem, f, j * 0.1)
            oracle.push(f)
        u = rng.standard_normal(grid.shape)
        for weight in ("mu", "mu_prime"):
            a = mem.memory_integral(u, weight, delta=0.03)
            b = oracle.memory_integral(u, weight, delta=0.03)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_exponential_fast_path_matches_weighted_row_sum(self):
        grid = grid_pi(30)
        rng = np.random.default_rng(9)
        datum = HistoryDatum.from_template(grid, 0.1)
        mem = MemoryState(datum, EXP11, ds=0.1, s_depth=3.0)
        oracle = DenseMemory(datum, EXP11, ds=0.1, s_depth=3.0)
        for j in range(1, 5):
            f = rng.standard_normal(grid.shape)
            push_field(mem, f, j * 0.1)
            oracle.push(f)
        u = rng.standard_normal(grid.shape)
        delta = 0.04
        fast = mem.convolution_field(u, delta, "mu")
        direct = oracle.convolution_field(u, delta, "mu")
        assert np.allclose(fast, direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kernel", [EXP11, POLY15],
                             ids=["exponential", "polynomial"])
    def test_more_pushes_than_depth_match_dense_oracle(self, kernel):
        # rows older than the depth keep their decayed weight: the memory
        # agrees with an oracle that keeps every row
        grid = grid_pi(30)
        rng = np.random.default_rng(13)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp",
                                           support_T0=0.3, mode="frozen")
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=0.5)
        oracle = DenseMemory(datum, kernel, ds=0.1, s_depth=0.5)
        # three and a half times the depth of six rows
        for j in range(1, 22):
            f = rng.standard_normal(grid.shape)
            push_field(mem, f, j * 0.1)
            oracle.push(f)
        u = rng.standard_normal(grid.shape)
        for weight in ("mu", "mu_prime"):
            for delta in (0.0, 0.03):
                assert np.allclose(mem.convolution_field(u, delta, weight),
                                   oracle.convolution_field(u, delta, weight),
                                   rtol=1e-12, atol=1e-14)
                assert mem.memory_integral(u, weight, delta) == pytest.approx(
                    oracle.memory_integral(u, weight, delta),
                    rel=1e-10, abs=1e-12)

    def test_run_horizon_memory_matches_dense_oracle(self):
        # the fewer modes of a run's horizon t_end + T0 + ds, here t_end = 2,
        # agree with the row-by-row oracle at every lag up to that horizon
        grid = grid_pi(30)
        rng = np.random.default_rng(17)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp",
                                           support_T0=0.3, mode="frozen")
        horizon = 2.0 + 0.3 + 0.1
        mem = MemoryState(datum, POLY15, ds=0.1, s_depth=0.5, horizon=horizon)
        oracle = DenseMemory(datum, POLY15, ds=0.1, s_depth=0.5)
        assert len(mem.lam) < len(POLY15.modes(POLY15.memory_horizon)[0])
        for j in range(1, 21):
            f = rng.standard_normal(grid.shape)
            push_field(mem, f, j * 0.1)
            oracle.push(f)
        u = rng.standard_normal(grid.shape)
        h1 = grid.h1_seminorm_sq(u)
        for delta in (0.0, 0.05, 0.0999):
            for weight in ("mu", "mu_prime"):
                expected = oracle.convolution_field(u, delta, weight)
                np.testing.assert_allclose(
                    mem.convolution_field(u, delta, weight), expected,
                    rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
                assert mem.scalar_convolution(weight, delta, h1) == \
                    pytest.approx(oracle.scalar_convolution(weight, delta, h1),
                                  rel=1e-12)

    def test_push_past_horizon_raises(self):
        grid = grid_pi(10)
        datum = HistoryDatum.from_template(grid, 0.2, support_T0=0.3)
        mem = MemoryState(datum, POLY15, ds=0.1, s_depth=0.5, horizon=1.05)
        for j in range(1, 8):
            push_field(mem, grid.zeros(), j * 0.1)
        with pytest.raises(ValueError, match="horizon"):
            push_field(mem, grid.zeros(), 0.8)
        # without a horizon the modes hold at every lag
        mem = MemoryState(datum, POLY15, ds=0.1, s_depth=0.5)
        push_field(mem, grid.zeros(), 1e9)

    @pytest.mark.parametrize("kernel", [EXP11, POLY15], ids=["exp", "poly"])
    def test_quadrature_cache_stays_bounded(self, kernel):
        """Each dt halving doubles the lags a run visits between pushes; the
        memory's arrays keep their size, the cache holds one entry per lag,
        a G of shape (2, K+3) and an evaluation whose Q has size 2, and
        every lag agrees with the row-by-row oracle.  The worst case is
        stride * 2^10 lags after ten halvings, 2 (K+3) floats and the
        evaluation's views of the product rows each: about 24 MB for the
        polynomial kernel (K = 133) at stride 8."""
        grid = grid_pi(20)
        datum = HistoryDatum.from_template(grid, 0.1, profile="ramp",
                                           support_T0=1.0)
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=2.0)
        oracle = DenseMemory(datum, kernel, ds=0.1, s_depth=2.0)
        sizes = {k: v.size for k, v in vars(mem).items()
                 if isinstance(v, np.ndarray)}
        u = 0.2 * np.sin(grid.coords())
        stride = 4
        lags = set()
        for halvings in range(6):
            f = u * (1.0 + 0.1 * halvings)
            push_field(mem, f, 0.1 * (halvings + 1))
            oracle.push(f)
            n_lags = stride * 2 ** halvings
            for delta in 0.1 * np.arange(n_lags) / n_lags:
                lags.add(delta)
                assert mem.memory_integral(u, "mu_prime", delta) == \
                    pytest.approx(oracle.memory_integral(u, "mu_prime", delta),
                                  rel=1e-10, abs=1e-12)
            assert sizes == {k: v.size for k, v in vars(mem).items()
                             if isinstance(v, np.ndarray)}
        assert len(mem._lags) == len(lags)
        assert all(G.shape == (2, len(mem.lam) + 3) and ev.total.size == 2
                   for G, ev, _, _ in mem._lags.values())

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.sampled_from([EXP11, POLY15]),
           n_push=st.integers(0, 20), lag=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_evaluate_matches_oracle_and_views(self, kernel, n_push, lag,
                                               seed):
        # one evaluation gives both weights' fields, scalars and totals; up
        # to 20 pushes into a depth of six rows, at a lag in [0, ds)
        grid = grid_pi(24)
        rng = np.random.default_rng(seed)
        datum = HistoryDatum.from_template(grid, 0.2, profile="ramp",
                                           support_T0=0.3, mode="frozen")
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=0.5)
        oracle = DenseMemory(datum, kernel, ds=0.1, s_depth=0.5)
        for j in range(1, n_push + 1):
            f = rng.standard_normal(grid.shape)
            push_field(mem, f, j * 0.1)
            oracle.push(f)
        u = rng.standard_normal(grid.shape)
        h1 = grid.h1_seminorm_sq(u)
        delta = 0.1 * lag
        grid.laplacian(u, out=mem.lap_field)
        ev = mem.evaluate(h1, delta)
        for k, weight in enumerate(("mu", "mu_prime")):
            # the modes match mu' to 1e-12 of its scale, so a node where the
            # signed rows cancel errs by up to 1e-12 of the field's scale;
            # the evaluation holds lap of the convolution
            expected = grid.laplacian(oracle.convolution_field(u, delta,
                                                               weight))
            np.testing.assert_allclose(
                ev.conv[k], expected, rtol=1e-12,
                atol=1e-12 * np.max(np.abs(expected)))
            assert ev.scalar[k] == pytest.approx(
                oracle.scalar_convolution(weight, delta, h1), rel=1e-13,
                abs=1e-300)
            assert ev.total[k] == pytest.approx(
                oracle._weights(weight, delta)[2], rel=1e-13)
            memory_integral = oracle.memory_integral(u, weight, delta)
            assert ev.integral(k, h1, u) == pytest.approx(
                memory_integral, rel=1e-10, abs=1e-12)
            # each view is one evaluation: the convolution is the
            # Dirichlet inverse of ev.conv, the scalar ev.scalar itself
            np.testing.assert_allclose(
                grid.laplacian(mem.convolution_field(u, delta, weight)),
                ev.conv[k], rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
            assert mem.scalar_convolution(weight, delta, h1) == ev.scalar[k]
            assert mem.memory_integral(u, weight, delta) == pytest.approx(
                memory_integral, rel=1e-10, abs=1e-12)

    def test_push_records_the_laplacian_and_seminorm_it_is_given(self):
        # a push takes no field, and M keeps lap field and ||grad field||^2
        grid = SpatialGrid.rectangle((math.pi, 2.0), (7, 5))
        datum = HistoryDatum.from_template(grid, 0.2, modes=(1, 2),
                                           profile="ramp", support_T0=0.3)
        mem = MemoryState(datum, POLY15, ds=0.1, s_depth=0.5)
        assert list(inspect.signature(mem.push).parameters) == [
            "t", "h1", "lap_u"]
        assert mem.M.shape == (len(mem.lam) + 5, grid.size + 1)
        f = np.random.default_rng(5).standard_normal(grid.shape)
        h1, lap = grid.h1_seminorm_sq(f), grid.laplacian(f)
        mem.push(0.1, h1, lap)
        # D_0 is the deviation from the zero extension: lap f and h1 itself
        assert np.array_equal(mem.M[-5], np.append(lap.ravel(), h1))

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.sampled_from([EXP11, POLY15]),
           ops=st.lists(st.one_of(st.none(), st.sampled_from(LAGS)),
                        max_size=16),
           lag=st.sampled_from(LAGS), seed=st.integers(0, 2 ** 32 - 1))
    def test_evaluate_leaves_no_trace(self, kernel, ops, lag, seed):
        # evaluations (a lag) interleaved with pushes (None) end in exactly
        # the state of the same pushes alone: the current field's workspace
        # never reaches a push or a later lag
        grid = SpatialGrid.rectangle((math.pi, 2.0), (7, 5))
        rng = np.random.default_rng(seed)
        datum = HistoryDatum.from_template(grid, 0.2, modes=(1, 2),
                                           profile="ramp", support_T0=0.3,
                                           mode="frozen")
        mem = MemoryState(datum, kernel, ds=0.1, s_depth=0.5)
        fresh = MemoryState(datum, kernel, ds=0.1, s_depth=0.5)
        t = 0.0
        for op in ops:
            f = rng.standard_normal(grid.shape)
            if op is None:
                t += 0.1
                push_field(mem, f, t)
                push_field(fresh, f, t)
            else:
                grid.laplacian(f, out=mem.lap_field)
                mem.evaluate(grid.h1_seminorm_sq(f), 0.1 * op)
        u = rng.standard_normal(grid.shape)
        h1 = grid.h1_seminorm_sq(u)
        mem.lap_field[...] = fresh.lap_field[...] = grid.laplacian(u)
        a = mem.evaluate(h1, 0.1 * lag)
        b = fresh.evaluate(h1, 0.1 * lag)
        for field in ("conv", "scalar", "total"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

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
        # pushes over the whole depth, oldest first
        for j in range(mem.depth, -1, -1):
            push_field(mem, (t - j * ds) * U, t - j * ds)
        F = grid.laplacian(mem.convolution_field(t * U))
        expected = (t - 1.0) * grid.laplacian(U)
        assert np.allclose(F, expected, rtol=1e-3, atol=1e-6)
        # dense-quadrature oracle for the scalar weight
        s = np.linspace(0.0, 60.0, 100_000)
        oracle = float(np.trapezoid(EXP11.mu(s) * (t - s), s))
        assert oracle == pytest.approx(t - 1.0, rel=1e-6)


def row0(datum, p=3.0):
    """Ledger row 0's terms of datum on [0, pi] with EXP11, under the
    default time and memory settings."""
    cfg = ScenarioConfig(n=datum.grid.n[0], p=p)
    return initial_terms(cfg, datum, EXP11)


class TestDatumFunctionals:
    def test_functional_I_zero(self):
        datum = HistoryDatum.from_template(grid_pi(30), 0.0)
        assert row0(datum)["I"] == 0.0

    def test_functional_I_constant_in_time(self):
        grid = grid_pi(120)
        datum = HistoryDatum.from_template(grid, 0.5, mode="frozen")
        U = datum.value_at(0.0)
        expected = (0.5 * grid.h1_seminorm_sq(U)
                    - grid.lp_norm_pow(U, 4.0) / 4.0)
        assert row0(datum)["I"] == pytest.approx(expected, rel=1e-12)

    def test_gap_sign_small_vs_large_amplitude(self):
        grid = grid_pi(100)
        small = HistoryDatum.from_template(grid, 1e-3)
        large = HistoryDatum.from_template(grid, 50.0)
        assert row0(small)["nehari_gap"] > 0
        assert row0(large)["nehari_gap"] < 0


@pytest.fixture(scope="module")
def setup():
    grid = grid_pi(100)
    consts = wellconst.cached_constants(grid, 3.0, EXP11.k0)
    return grid, consts


class TestClassify:
    def test_zero_datum_is_w1(self, setup):
        grid, consts = setup
        datum = HistoryDatum.from_template(grid, 0.0)
        assert classify(row0(datum), consts.d) is Classification.W1

    def test_small_ground_state_is_w1(self, setup):
        grid, consts = setup
        shape = wellconst.ground_state(grid, 3.0)
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        datum.shape_field = 0.05 * shape
        terms = row0(datum)
        assert terms["nehari_gap"] > 0
        assert terms["I"] < consts.d
        assert classify(terms, consts.d) is Classification.W1

    def test_mountain_pass_datum_on_manifold(self, setup):
        # tilde v = ||u||_4^{-2} u with ||grad u|| = 1, constant in time:
        # lands on the manifold with functional value at the pass level
        grid, consts = setup
        u = wellconst.ground_state(grid, 3.0)
        l4 = grid.lp_norm_pow(u, 4.0) ** 0.25
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        datum.shape_field = u / l4 ** 2
        terms = row0(datum)
        assert classify(terms, consts.d) is Classification.ON_MANIFOLD
        assert terms["I"] == pytest.approx(consts.d, rel=1e-6)

    def test_w2_construction(self, setup):
        grid, consts = setup
        shape = wellconst.ground_state(grid, 3.0)
        found = None
        for A in np.geomspace(0.1, 100.0, 200):
            datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
            datum.shape_field = A * shape
            terms = row0(datum)
            if classify(terms, consts.d) is Classification.W2:
                found = terms
                break
        assert found is not None
        assert found["nehari_gap"] < 0
        assert found["I"] < consts.d

    def test_scale_covariance_unique_root(self, setup):
        grid, consts = setup
        datum = HistoryDatum.from_template(grid, 1.0, mode="frozen")
        terms = row0(datum)
        quad = terms["nehari_gap"] + terms["lp_pow"]
        power = grid.lp_norm_pow(datum.value_at(0.0), 4.0)

        def gap_of(alpha):
            scaled = HistoryDatum.from_template(grid, alpha, mode="frozen")
            return row0(scaled)["nehari_gap"]

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

    def test_huge_datum_is_w2(self, setup):
        # the quadratic part is below the rounding of lp_pow - gap: the zero
        # test must not read it from them
        grid, consts = setup
        datum = HistoryDatum.from_template(grid, 1e9)
        assert classify(row0(datum), consts.d) is Classification.W2

    def test_partition_is_total(self, setup):
        grid, consts = setup
        for A in (0.0, 0.01, 0.3, 1.0, 3.0, 30.0):
            datum = HistoryDatum.from_template(grid, A, mode="frozen")
            verdict = classify(row0(datum), consts.d)
            assert verdict in Classification
