import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave.config import ScenarioConfig
from viscowave.kernel import MODES_RTOL, KernelError, RelaxationKernel

MODE_RATES = np.linspace(1.01, 1.999, 12)


def k_at(kernel, s):
    """k(s) = 1 + tail_mass(s); strictly decreasing to k(inf) = 1."""
    return 1.0 + kernel.tail_mass(s)


def assumption_violations(kernel, n_samples=200):
    """The admissibility conditions the kernel fails on a geometric grid in
    s, each with the first failing s: mu > 0, mu' <= 0, the decay-class
    inequality with C = decay_constant(), and mu in L1."""
    s_top = 6.0
    if kernel.family == "exponential":
        # keep exp(-c*s) above the double-precision underflow threshold
        s_top = min(s_top, math.log10(700.0 / kernel.c))
    s = np.concatenate([[0.0], np.logspace(-6, s_top, n_samples)])
    mu, mup = kernel.mu(s), kernel.mu_prime(s)
    weight = mu if kernel.family == "exponential" else mu ** kernel.r
    violations = []
    for name, bad in (("mu > 0", mu <= 0), ("mu' <= 0", mup > 0),
                      ("decay-class inequality",
                       mup + kernel.decay_constant() * weight
                       > 1e-12 * np.maximum(1.0, mu))):
        if np.any(bad):
            violations.append((name, float(s[np.argmax(bad)])))
    if not math.isfinite(kernel.tail_mass(0.0)):
        violations.append(("mu in L1", 0.0))
    return violations


def mode_horizons(kernel):
    # 5.05 is about the poly_memory benchmark's t_end + T0 + ds
    return (1.0, 5.05, 50.0, 500.0, 1e4, kernel.memory_horizon)


class TestExponential:
    def test_mu_at_zero(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert k.mu(0.0) == 1.0

    def test_mu_at_one(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert k.mu(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_mu_prime_at_zero(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert k.mu_prime(0.0) == -1.0

    def test_tail_mass_and_k0(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert k.tail_mass(0.0) == 1.0
        assert k.k0 == 2.0

    def test_tail_mass_at_ln100(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert k.tail_mass(math.log(100.0)) == pytest.approx(0.01, rel=1e-14)

    def test_k_at_infinity_limit(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        assert abs(k_at(k, 1e9) - 1.0) < 1e-6

    def test_report(self):
        k = RelaxationKernel.exponential(1.0, 2.0)
        assert assumption_violations(k) == []
        assert k.decay_constant() == 2.0
        assert k.k0 == 1.5

    def test_modes_are_the_kernel(self):
        k = RelaxationKernel.exponential(0.7, 2.5)
        lam, a = k.modes(k.memory_horizon)
        assert lam.tolist() == [2.5] and a.tolist() == [0.7]


class TestPolynomial:
    def test_mu_at_one(self):
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert k.mu(1.0) == pytest.approx(0.25, rel=1e-15)

    def test_mu_prime_at_zero(self):
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert k.mu_prime(0.0) == -2.0

    def test_mu_prime_vanishes_at_large_s(self):
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert abs(k.mu_prime(1e9)) < 1e-20

    def test_tail_mass_and_k0(self):
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert k.tail_mass(0.0) == pytest.approx(1.0, rel=1e-15)
        assert k.k0 == pytest.approx(2.0, rel=1e-15)

    def test_k_at_one(self):
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert k_at(k, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_decay_constant(self):
        # -mu'/mu^r is the constant 2 for this kernel, so no sampled lag
        # may violate the inequality at C = 2
        k = RelaxationKernel.polynomial(1.0, 1.5)
        assert assumption_violations(k) == []
        assert k.decay_constant() == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("c, r, expected", [
        (1.0, 1.5, 2.0),
        (4.0, 1.5, 1.0),
        (0.25, 1.5, 4.0),
        (1.0, 1.25, 4.0),
        (16.0, 1.75, 1.0 / 6.0),
        (2.0, 1.5, math.sqrt(2.0)),
        (0.3, 1.1, 10.0 * 0.3 ** -0.1),
        (7.5, 1.9, 7.5 ** -0.9 / 0.9),
    ])
    def test_decay_constant_closed_form(self, c, r, expected):
        # -mu'/mu^r = q c^(1-r) at every s; at s = 0 it is q c / c^r exactly
        k = RelaxationKernel.polynomial(c, r)
        C = k.decay_constant()
        assert C == pytest.approx(expected, rel=1e-15)
        assert C == pytest.approx(-k.mu_prime(0.0) / k.mu(0.0) ** r, rel=1e-15)

    @pytest.mark.parametrize("r", MODE_RATES)
    def test_modes_relative_error(self, r):
        # sum_k a_k exp(-lam_k s) against mu and -a_k lam_k against mu', to
        # each horizon, wherever mu is still a normal double
        k = RelaxationKernel.polynomial(1.3, r)
        for horizon in mode_horizons(k):
            lam, a = k.modes(horizon)
            s = np.concatenate([[0.0], np.geomspace(1e-6, horizon, 400)])
            s = s[k.mu(s) > 1e-300]
            decay = np.exp(-np.outer(s, lam))
            np.testing.assert_allclose(decay @ a, k.mu(s), rtol=1e-12, atol=0)
            np.testing.assert_allclose(-decay @ (a * lam), k.mu_prime(s),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("r", MODE_RATES)
    def test_fitted_modes_never_outnumber_the_trapezoid(self, r):
        k = RelaxationKernel.polynomial(1.3, r)
        for horizon in mode_horizons(k):
            lam, a = k.modes(horizon)
            assert lam.size <= k._trapezoid(horizon, MODES_RTOL)[0].size
            assert not (lam.flags.writeable or a.flags.writeable)
            assert k.modes(horizon)[0] is lam

    def test_subnormal_kernel_keeps_the_trapezoid(self):
        # mu(0) = 1e-300 leaves the fit no node where mu is a normal double
        k = RelaxationKernel.polynomial(1e-300, 1.5)
        lam, a = k.modes(5.0)
        assert lam.size == k._trapezoid(5.0, MODES_RTOL)[0].size

    def test_poly_memory_horizon_takes_few_modes(self):
        # the benchmark's poly_memory run: t_end = 5 and one stride ds; the
        # fit holds between the check grid's lags as well
        cfg = ScenarioConfig(n=200, kernel_family="polynomial", r=1.5,
                             extension="frozen", t_end=5.0, stride=8)
        k = cfg.make_kernel()
        horizon = 5.0 + cfg.stride * cfg.resolved_dt(cfg.make_grid(), k)
        lam, a = k.modes(horizon)
        assert lam.size <= 32
        s = np.linspace(0.0, horizon, 20001)
        decay = np.exp(-np.outer(s, lam))
        np.testing.assert_allclose(decay @ a, k.mu(s), rtol=1e-12, atol=0)
        np.testing.assert_allclose(-decay @ (a * lam), k.mu_prime(s),
                                   rtol=1e-12, atol=0)

    def test_r_out_of_range_rejected(self):
        with pytest.raises(KernelError):
            RelaxationKernel.polynomial(1.0, 2.5)
        with pytest.raises(KernelError):
            RelaxationKernel.polynomial(1.0, 1.0)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(KernelError):
            RelaxationKernel.exponential(0.0, 1.0)
        with pytest.raises(KernelError):
            RelaxationKernel.exponential(1.0, -1.0)
        with pytest.raises(KernelError):
            RelaxationKernel(family="gaussian", mu0=1.0)

    def test_negative_s_rejected(self):
        k = RelaxationKernel.exponential(1.0, 1.0)
        with pytest.raises(KernelError):
            k.mu(-0.1)
        with pytest.raises(KernelError):
            k.mu_prime(-0.1)
        with pytest.raises(KernelError):
            k.tail_mass(-0.1)


@pytest.mark.parametrize("kernel", [
    RelaxationKernel.exponential(1.0, 1.0),
    RelaxationKernel.exponential(0.5, 3.0),
    RelaxationKernel.polynomial(1.0, 1.5),
    RelaxationKernel.polynomial(2.0, 1.8),
], ids=["exp11", "exp053", "poly115", "poly218"])
class TestSharedInvariants:
    def test_sampled_signs_and_decay_inequality(self, kernel):
        s = np.concatenate([[0.0], np.logspace(-6, 2, 500)])
        mu = kernel.mu(s)
        mup = kernel.mu_prime(s)
        C = kernel.decay_constant()
        assert np.all(mu > 0)
        assert np.all(mup <= 0)
        if kernel.family == "exponential":
            assert np.all(mup + C * mu <= 1e-12 * np.maximum(1.0, mu))
        else:
            assert np.all(mup + C * mu ** kernel.r
                          <= 1e-12 * np.maximum(1.0, mu))

    def test_k_at_consistency(self, kernel):
        assert k_at(kernel, 0.0) - 1.0 == pytest.approx(
            kernel.tail_mass(0.0), rel=1e-12)
        s = np.linspace(0.0, 20.0, 50)
        k = k_at(kernel, s)
        # strictly decreasing until the tail falls below double-precision
        # resolution of 1 + tail
        assert np.all(np.diff(k) <= 0)
        assert k[1] < k[0]

    def test_tail_mass_against_dense_quadrature(self, kernel):
        from scipy.integrate import simpson

        s1, s2 = 0.3, 7.0
        s = np.linspace(s1, s2, 10_001)
        quad = float(simpson(kernel.mu(s), x=s))
        exact = kernel.tail_mass(s1) - kernel.tail_mass(s2)
        assert quad == pytest.approx(exact, rel=1e-8)

    def test_mu_prime_tail_is_minus_mu(self, kernel):
        for s in (0.0, 1.0, 12.5):
            assert kernel.mu_prime_tail(s) == -kernel.mu(s)


@settings(max_examples=60, deadline=None)
@given(mu0=st.floats(0.01, 10.0), c=st.floats(0.01, 10.0),
       s=st.floats(0.0, 100.0))
def test_exponential_pointwise_properties(mu0, c, s):
    k = RelaxationKernel.exponential(mu0, c)
    if c * s < 700.0:  # beyond this exp(-c s) underflows to exactly 0
        assert k.mu(s) > 0
    assert k.mu_prime(s) <= 0
    assert k.mu_prime(s) + c * k.mu(s) <= 1e-12 * max(1.0, k.mu(s))


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.01, 10.0), r=st.floats(1.05, 1.95),
       s=st.floats(0.0, 100.0))
def test_polynomial_pointwise_properties(c, r, s):
    k = RelaxationKernel.polynomial(c, r)
    assert k.mu(s) > 0
    assert k.mu_prime(s) <= 0
    assert math.isfinite(k.tail_mass(0.0))
