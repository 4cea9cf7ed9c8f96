import math

import numpy as np
import pytest

from viscowave import wellconst
from viscowave.acceptance import gamma_shooting_oracle
from viscowave.grid import SpatialGrid


class TestSobolevGamma:
    def test_poincare_limit(self):
        # p = 1 reduces to the inverse square root of the first Dirichlet
        # eigenvalue, which is 1 on (0, pi)
        grid = SpatialGrid.line(math.pi, 400)
        gamma = wellconst.sobolev_gamma(grid, 1.0)
        assert abs(gamma - 1.0) <= 1e-3

    def test_agrees_with_ascent_oracle_unit_interval(self):
        grid = SpatialGrid.line(1.0, 100)
        gamma = wellconst.sobolev_gamma(grid, 3.0)
        oracle = gamma_shooting_oracle(grid, 3.0)
        assert gamma == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("n", [200, 400, 800])
    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_shooting_oracle_agrees_and_profile_is_a_single_bump(
            self, n, p, monkeypatch):
        profiles = []
        ratio = wellconst.rayleigh_ratio

        def spy(grid, u, p):
            profiles.append(u)
            return ratio(grid, u, p)

        monkeypatch.setattr(wellconst, "rayleigh_ratio", spy)
        grid = SpatialGrid.line(math.pi, n)
        oracle = gamma_shooting_oracle(grid, p)
        monkeypatch.undo()
        assert oracle == pytest.approx(wellconst.sobolev_gamma(grid, p),
                                       rel=1e-10)
        (u,) = profiles
        assert u.shape == grid.shape and np.all(u > 0)
        # rising to one maximum, then falling; mirror symmetry may leave the
        # two middle nodes of an even grid equal
        d = np.diff(u)
        top = int(np.argmax(u))
        assert 0 < top < n - 1
        assert np.all(d[:top] > 0) and d[top] <= 0 and np.all(d[top + 1:] < 0)

    def test_scale_invariance_of_ratio(self):
        grid = SpatialGrid.line(math.pi, 80)
        u = wellconst.ground_state(grid, 3.0)
        r1 = wellconst.rayleigh_ratio(grid, u, 3.0)
        r2 = wellconst.rayleigh_ratio(grid, 2.0 * u, 3.0)
        assert r1 == pytest.approx(r2, rel=1e-13)

    def test_mesh_refinement_monotone_and_cauchy(self):
        # converges monotonically (from above for this stencil/quadrature
        # pairing) and is Cauchy between successive halvings
        values = [wellconst.sobolev_gamma(SpatialGrid.line(math.pi, n), 3.0)
                  for n in (50, 100, 200, 400)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d <= 0 for d in diffs) or all(d >= 0 for d in diffs)
        assert abs(values[-1] - values[-2]) <= 1e-4

    def test_defining_inequality_on_random_fields(self):
        grid = SpatialGrid.line(math.pi, 50)
        gamma = wellconst.sobolev_gamma(grid, 3.0)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            u = rng.standard_normal(grid.shape)
            lhs = grid.lp_norm_pow(u, 4.0) ** 0.25
            rhs = gamma * math.sqrt(grid.h1_seminorm_sq(u))
            assert lhs <= rhs * (1.0 + 1e-8)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            wellconst.sobolev_gamma(SpatialGrid.line(1.0, 10), 0.5)


class TestMountainPass:
    def test_p3_closed_form(self):
        gamma = 0.83
        assert wellconst.mountain_pass_d(gamma, 3.0) == gamma ** -4.0 / 4.0

    def test_gamma_one(self):
        assert wellconst.mountain_pass_d(1.0, 3.0) == 0.25

    def test_gamma_two_p_two(self):
        assert wellconst.mountain_pass_d(2.0, 2.0) == pytest.approx(
            1.0 / 384.0, rel=1e-14)

    def test_degenerate_p(self):
        with pytest.raises(ValueError):
            wellconst.mountain_pass_d(1.0, 1.0)
        with pytest.raises(ValueError):
            wellconst.mountain_pass_d(-1.0, 3.0)


class TestThresholds:
    def test_y0_at_p3(self):
        y0, M, reason = wellconst.thresholds(0.4, 3.0, 2.0)
        assert y0 == 0.8

    def test_M_ratio_p3_k0_2(self):
        d = 0.37
        y0, M, reason = wellconst.thresholds(d, 3.0, 2.0)
        target = ((math.sqrt(2) + 1) / 2) * ((3 - math.sqrt(2)) / 2)
        assert M / d == pytest.approx(target, abs=1e-12)
        assert M == pytest.approx(0.957107 * d, rel=1e-5)
        assert M < d

    def test_M_absent_when_p_below_sqrt_k0(self):
        y0, M, reason = wellconst.thresholds(0.4, 1.2, 2.0)
        assert M is None
        assert "sqrt(k0)" in reason

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wellconst.thresholds(-1.0, 3.0, 2.0)


class TestComputeConstants:
    def test_closed_form_relations_hold_exactly(self):
        grid = SpatialGrid.line(math.pi, 100)
        consts = wellconst.compute_constants(grid, 3.0, 2.0)
        assert consts.d == wellconst.mountain_pass_d(consts.gamma, 3.0)
        assert consts.y0 == 2.0 * consts.d
        assert consts.M < consts.d

    def test_cache_returns_same_object(self):
        grid = SpatialGrid.line(math.pi, 60)
        a = wellconst.cached_constants(grid, 3.0, 2.0)
        b = wellconst.cached_constants(grid, 3.0, 2.0)
        assert a is b

    def test_fingerprint_mentions_grid(self):
        grid = SpatialGrid.line(math.pi, 60)
        consts = wellconst.cached_constants(grid, 3.0, 2.0)
        assert "60" in consts.grid_fingerprint
        assert consts.as_dict()["gamma"] == consts.gamma
