import atexit
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from viscowave import energetics, integrator
from viscowave.acceptance import w1_scenario
from viscowave.config import ScenarioConfig, loads
from viscowave.grid import SpatialGrid
from viscowave.history import MemoryState
from viscowave.integrator import (GUESS, PADE, SOLVE, Stepper,
                                  _damp_midpoint, _pade_certificate,
                                  damping_solve_field, run)
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


# Damping-solve outputs, which later changes must reproduce bit for bit: per
# function and m, the first 16 hex digits of the sha256 of the outputs' bytes
# over DAMP_DTS x DAMP_INPUTS.  Every entry and POINTWISE_GOLDEN were
# re-recorded when every m took the guess and Newton, the m = 3 closed form
# gone, and the inputs came from Python's float power in place of
# np.logspace.  Each solve maps 0 and -0.0 to 0.0, and for m > 1 the
# smallest subnormal to itself; a certified array is the guess, the rest
# converge in at most 7 Newton iterations.  The m = 1 midpoint is v times
# the Cayley factor (1 - dt/2)/(1 + dt/2), a product that keeps -0.0 where
# the factor is positive.  The m = 3 midpoint's arrays cover its three
# tiers: the certified guess (the short arrays at tau = 1e-3), the Pade
# factor (the short arrays at tau = 1) and the solve (the rest).  Recorded
# on x86-64 with AVX-512 and NumPy 2.4.6.  The guess and the Pade factor are
# products, sums and divides, each rounded correctly, and the inputs' power
# is libm's, which follows no NumPy dispatch; NumPy's power at exponents
# other than 1/2, 1 and 2 does.  Of these digests only SIMD_DEPENDENT's
# follow it, through Newton's powers at 4 and 8: the solve at m = 5 and 9
# and the midpoint at m = 5, a ulp apart at 1 to 3 nodes each
# (test_digests_hold_with_simd_off).
_MAG = np.array([10.0 ** x for x in np.linspace(-3, 4, 36).tolist()])
_TINY = np.finfo(float).smallest_subnormal
_WIDE = np.r_[_MAG, -_MAG, 0.0, -0.0, _TINY]
_SMALL = np.r_[_MAG[:6], -_MAG[:6], 0.0, -0.0, _TINY]
DAMP_DTS = (1e-3, 1.0, 100.0)
# nodes of one array that converge early keep iterating with the rest
_SPAN = np.array([10.0 ** x for x in np.linspace(-8, 8, 401).tolist()])
DAMP_INPUTS = (_WIDE, _WIDE.reshape(3, 25), _SMALL, _SMALL.reshape(3, 5),
               _SPAN)
DAMP_GOLDEN = {
    "damping_solve_field": {
        1.0: "d149de0e3106066f",
        1.5: "7fed36c9fa935e4e",
        2.0: "2fc259c98d03d87c",
        3.0: "c33329ed9c4bd2ec",
        5.0: "a4fa2f4959dece5a",
        9.0: "32c5324b01578200",
    },
    "_damp_midpoint": {
        1.0: "5f3991e123383bfa",
        1.5: "8e954cbdb32aa38e",
        2.0: "cb7aad42000dd11b",
        3.0: "f9e62b1d05edf50e",
        5.0: "2df6d7f3a4c190e3",
        9.0: "f5832628260d57c5",
    },
}
POINTWISE_GOLDEN = "1b7797939058fd16"
SIMD_DEPENDENT = {("damping_solve_field", 5.0), ("damping_solve_field", 9.0),
                  ("_damp_midpoint", 5.0)}


def field_digest(name, m):
    """The DAMP_GOLDEN digest of ``name`` at m, as the code gives it now."""
    h = hashlib.sha256()
    for dt in DAMP_DTS:
        for a in DAMP_INPUTS:
            if name == "_damp_midpoint":
                out = _damp_midpoint(a, dt, m)[0]
            else:
                out = damping_solve_field(a, dt, m)
            assert out.shape == a.shape
            h.update(out.tobytes())
    return h.hexdigest()[:16]


def pointwise_digest():
    """The POINTWISE_GOLDEN digest, as the code gives it now."""
    h = hashlib.sha256()
    for m in sorted(DAMP_GOLDEN["damping_solve_field"]):
        for dt in DAMP_DTS:
            for a in (1e-3, -0.7, 2.5, -1e4, _TINY, -0.0):
                h.update(np.float64(solve_one(a, dt, m)).tobytes())
    return h.hexdigest()[:16]


class TestDampingSolveBitIdentity:
    @pytest.mark.parametrize("m", sorted(DAMP_GOLDEN["damping_solve_field"]))
    @pytest.mark.parametrize("name", ["damping_solve_field", "_damp_midpoint"])
    def test_field_outputs(self, name, m):
        assert field_digest(name, m) == DAMP_GOLDEN[name][m]

    def test_linear_solve_is_the_closed_form(self):
        # the m = 1 solve equals a / (1 + dt) elementwise; only zeros may
        # differ in their bytes, as -0.0 maps to 0.0
        for dt in DAMP_DTS:
            for a in DAMP_INPUTS:
                out, closed = damping_solve_field(a, dt, 1.0), a / (1.0 + dt)
                assert np.array_equal(out, closed)
                moved = out.view(np.int64) != closed.view(np.int64)
                assert np.all(a[moved] == 0.0)

    def test_pointwise_outputs(self):
        assert pointwise_digest() == POINTWISE_GOLDEN


# the CPU features whose NumPy loops a digest must not need
SIMD_OFF = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
_SIMD_OFF_DIGESTS = """
import json, test_integrator as t
print(json.dumps([[name, m, t.field_digest(name, m)]
                  for name, by_m in t.DAMP_GOLDEN.items() for m in by_m]
                 + [["pointwise", None, t.pointwise_digest()]]))
"""


@pytest.mark.skipif(
    not all(__cpu_features__.get(name) for name in SIMD_OFF),
    reason="the CPU lacks a SIMD feature that the digests were recorded with")
def test_digests_hold_with_simd_off():
    # NumPy's baseline loops round exp, power and the other transcendentals
    # differently from its SIMD ones; only SIMD_DEPENDENT may follow them
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(SIMD_OFF))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(integrator.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SIMD_OFF_DIGESTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == 13
    for name, m, digest in got:
        if name == "pointwise":
            assert digest == POINTWISE_GOLDEN
        elif (name, m) not in SIMD_DEPENDENT:
            assert digest == DAMP_GOLDEN[name][m], (name, m)


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
    """The operations a step runs in place of energetics.damping_power and
    of the source's |u|^2 give the same values, bit for bit, on inputs (0,
    the smallest subnormal, 1e100) that the ledger digests leave out."""

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
    """m = 3: the guess and Newton, as at every m, are the uncertified loop
    bit for bit, and a certified array stops at the guess."""

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
        np.testing.assert_array_equal(
            v.view(np.int64), uncertified_solve(a, dt, 3.0).view(np.int64))

    @pytest.mark.parametrize("dt", DTS)
    def test_certified_arrays_are_the_guess(self, dt):
        for amax in (certificate_amax(dt, 3.0) / 2.0, 1e-300, 0.0):
            a = self.A[np.abs(self.A) <= amax]
            # the signed guess; adding 0.0 maps -0.0 to 0.0
            expected = a / (1.0 + dt * a * a) + 0.0
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


def pade_amax(dt):
    """The largest max|a| at which the m = 3 midpoint over 2 dt takes its
    Pade tier, to a relative 1e-14 in ln max|a|, by bisection over
    [-700, 700]; the tier holds at the value returned."""
    lo, hi = -700.0, 700.0
    while hi - lo > 1e-14 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        a = math.exp(mid)
        holds = _pade_certificate(dt * (a * a), a, dt)
        lo, hi = (mid, hi) if holds else (lo, mid)
    return math.exp(lo)


# |2w - a - 2 uncertified_solve + a| <= 2 (1e-14 + 0.9e-14) max(1, |a|): w and
# the loop's root each meet their residual bound, and the residual's slope in
# w is at least 1.  Measured at most 1.8e-14 over 60,000 arrays drawn as in
# test_pade_midpoint_meets_the_solve_contract
MIDPOINT_TO_LOOP = 3.8e-14


def assert_midpoint_contract(got, a, tau):
    """The m = 3 midpoint's w = (got + a)/2 meets test_contraction_and_residual
    elementwise, and got is 2 uncertified_solve - a to MIDPOINT_TO_LOOP."""
    dt = 0.5 * tau
    for w, x in zip((0.5 * (got + a)).ravel().tolist(), a.ravel().tolist()):
        assert abs(w) <= abs(x)
        assert w * x >= 0.0
        res = w + dt * abs(w) ** 2.0 * w - x
        assert abs(res) <= 1e-14 * max(1.0, abs(x))
    want = np.subtract(np.multiply(uncertified_solve(a, dt, 3.0), 2.0), a)
    assert np.all(np.abs(got - want)
                  <= MIDPOINT_TO_LOOP * np.maximum(1.0, np.abs(a)))


# Over 60,000 arrays drawn as below, a quarter of them with depth below
# 1e-3, w's residual measured at most 5.03e-15 max(1, |a|): the test's 1e-14
# leaves a factor 2
@settings(max_examples=300, deadline=None)
@given(tau=st.floats(1e-6, 1e2), depth=st.floats(0.0, 1.0),
       unit=hnp.arrays(np.float64, st.integers(1, 40),
                       elements=st.floats(-1.0, 1.0)),
       extras=st.lists(st.sampled_from((-0.0, _TINY)), max_size=2))
@example(tau=1e2, depth=0.0, unit=np.array([-1.0]), extras=[-0.0, _TINY])
@example(tau=1e-6, depth=0.0, unit=np.array([1.0, 0.5]), extras=[])
def test_pade_midpoint_meets_the_solve_contract(tau, depth, unit, extras):
    # max|a| log-uniform from the certificate's threshold (depth 1) up to the
    # Pade tier's (depth 0); -0.0 stays -0.0, and the midpoint in place gives
    # the same bits in the caller's v
    dt, amax = 0.5 * tau, pade_amax(0.5 * tau)
    top, bottom = math.log(amax), math.log(certificate_amax(dt, 3.0))
    scale = min(math.exp(top - depth * (top - bottom)), amax)
    a = unit * scale
    a[0] = math.copysign(scale, a[0])
    a = np.r_[a, extras]
    got, tier = _damp_midpoint(a, tau, 3.0)
    assert tier == PADE or (depth > 0.99 and tier == GUESS)
    assert_midpoint_contract(got, a, tau)
    if tier == PADE:
        zero = a == 0.0
        np.testing.assert_array_equal(np.signbit(got[zero]),
                                      np.signbit(a[zero]))
    v = a.copy()
    scratch = tuple(np.empty(a.shape) for _ in range(3))
    out, again = _damp_midpoint(v, tau, 3.0, SOLVE, scratch)
    assert out is v and again == tier
    np.testing.assert_array_equal(v.view(np.int64), got.view(np.int64))


SPECIALS = (-0.0, np.finfo(float).smallest_subnormal, math.inf, -math.inf,
            math.nan)


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(st.just(3.0), st.floats(1.0, 20.0, exclude_min=True)),
       dt=st.floats(1e-6, 1e2),
       shift=st.one_of(st.floats(-40.0, 40.0), st.floats(-700.0, 700.0)),
       unit=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                       elements=st.floats(-1.0, 1.0)),
       extras=st.lists(st.sampled_from(SPECIALS), max_size=3))
def test_certified_guess_matches_uncertified_loop(m, dt, shift, unit, extras):
    # max|a| within 2^40 of the certificate's threshold, or anywhere in
    # [1e-300, 1e300]; an inf or NaN anywhere sends the array to the loop
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


# |cayley - three-rounding| over 3,000 arrays of 500 with |v| log-uniform in
# [1e-300, 1e300] and tau log-uniform in [1e-8, 1e4], subnormals included,
# measured at most 2 ulps of |v|; the bound gives twice that
CAYLEY_ULPS = 4.0


@settings(max_examples=200, deadline=None)
@given(tau=st.one_of(st.floats(1e-8, 1.0), st.floats(1e-8, 1e4)),
       v=hnp.arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-1e307, 1e307)),
       zeros=st.lists(st.sampled_from((0.0, -0.0)), max_size=2))
def test_linear_midpoint_is_the_cayley_factor(tau, v, zeros):
    # m = 1: the midpoint v <- 2 v/(1 + tau/2) - v is v times
    # (1 - tau/2)/(1 + tau/2), which keeps the sign of zero where the
    # factor is not negative.  Below 1e307 the doubling cannot overflow,
    # which the factor never does
    v = np.r_[v, zeros]
    got, certified = _damp_midpoint(v, tau, 1.0)
    assert certified and got.shape == v.shape
    three_roundings = np.subtract(np.multiply(v / (1.0 + 0.5 * tau), 2.0), v)
    assert np.all(np.abs(got - three_roundings)
                  <= CAYLEY_ULPS * np.spacing(np.abs(v)))
    zero = v == 0.0
    np.testing.assert_array_equal(np.signbit(got[zero]),
                                  np.signbit(v[zero]) ^ (tau > 2.0))


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(st.just(3.0), st.floats(1.0, 20.0, exclude_min=True)),
       tau=st.floats(1e-6, 1e2),
       shift=st.one_of(st.floats(-40.0, 1.0), st.floats(1.0, 40.0)),
       unit=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                       elements=st.floats(-1.0, 1.0)),
       extras=st.lists(st.sampled_from(
           (-0.0, _TINY, -9.0 * _TINY, 1e-310, -2.5e-308)), max_size=3))
# where a halved divisor 1/2 + 25|a|^0.01 would round -9 _TINY's quotient
# once, not twice, and land a ulp off
@example(m=1.01, tau=100.0, shift=-1.0, unit=np.array([1.0]),
         extras=[-9.0 * _TINY, 1e-310])
def test_certified_midpoint_is_the_doubled_solve(m, tau, shift, unit, extras):
    # max|a| around the certificate's threshold for the half-step's solve,
    # or up to 2^40 above it; a certified half-step doubles the guess in no
    # pass of its own, and the next half-step that reuses its certificate
    # skips max|a|, both bit for bit, also for subnormal a at m near 1.  At
    # m = 3 an array between the certificate and the Pade tier's threshold
    # takes the Pade factor, which meets the solve's contract instead, and so
    # does the next half-step that reuses its tier.  In place, each tier
    # gives the same bits in the caller's v
    scale = certificate_amax(0.5 * tau, m) * 2.0 ** shift
    a = unit * min(max(scale, 1e-300), 1e300)
    a = np.r_[a.reshape(-1), extras] if extras else a
    got, tier = _damp_midpoint(a, tau, m)
    if tier == PADE:
        assert m == 3.0
        assert_midpoint_contract(got, a, tau)
    else:
        w = damping_solve_field(a, 0.5 * tau, m)
        want = np.subtract(np.multiply(w, 2.0), a)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    v = a.copy()
    scratch = tuple(np.empty(a.shape) for _ in range(3))
    out, in_place_tier = _damp_midpoint(v, tau, m, SOLVE, scratch)
    assert out is v and in_place_tier == tier
    np.testing.assert_array_equal(v.view(np.int64), got.view(np.int64))
    if tier:
        again, still = _damp_midpoint(got, tau, m, tier)
        full, full_tier = _damp_midpoint(got, tau, m)
        assert still == tier and full_tier in (GUESS, tier)
        if tier == PADE:
            assert_midpoint_contract(again, got, tau)
        else:
            np.testing.assert_array_equal(again.view(np.int64),
                                          full.view(np.int64))


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, 1e100,
                                     -1e100])
def test_cubic_midpoint_past_its_tiers_is_the_doubled_solve(special):
    # NaN and inf fail both certificates, and at 1e100 y^5 overflows: such
    # arrays take Newton, bit for bit as the solve does
    a = np.r_[0.3, -0.0, _TINY, special]
    for tau in (1e-6, 1.0, 100.0):
        with np.errstate(invalid="ignore"):
            got, tier = _damp_midpoint(a, tau, 3.0)
            w = damping_solve_field(a, 0.5 * tau, 3.0)
        want = np.subtract(np.multiply(w, 2.0), a)
        assert tier == SOLVE
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_cubic_midpoint_needs_a_normal_dt_squared():
    # at tau/2 = 1e-160 the Pade tier's window is max|a| in about (2e76,
    # 3e78), where (tau/2)^2 is subnormal and the factor's folded
    # coefficients would lose their digits: such arrays take the solve
    dt = 1e-160
    a = np.array([1.0, -0.5, 0.0]) * math.sqrt(1e-5 / dt)
    got, tier = _damp_midpoint(a, 2.0 * dt, 3.0)
    want = np.subtract(np.multiply(damping_solve_field(a, dt, 3.0), 2.0), a)
    assert tier == SOLVE
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
        assert len(kept.trajectory.u) == len(kept.ledger)
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
        dt = cfg.resolved_dt(coarse.state.grid, coarse.kernel)
        fine = run(replace(cfg, dt=dt / 20.0), trajectory=True)

        def first_crossing(result):
            mid = result.state.grid.size // 2
            series = [u[mid] for u in result.trajectory.u]
            times = result.ledger.column("t")
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
        dt = cfg.resolved_dt(result.state.grid, result.kernel)
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

    def test_finished_run_memory_size_independent_of_depth(self,
                                                            monkeypatch):
        # the polynomial frozen depth is 100 * t_end, yet the memory's arrays
        # have no axis of that depth, only the K modes of the run's horizon
        # t_end + T0 + ds, each row a field's Laplacian and its ||grad||^2,
        # the K_h modes of memory_horizon with their per-mode depth sums C
        # that a lag's quadrature takes, the push's buffer of one row and
        # its 0-d ds; the kept state still gives the last convolution, whose
        # Laplacian a wrapper around Stepper.record copies at every row
        record, lap_convs = integrator.Stepper.record, []

        def record_and_keep(stepper, b, ledger, kept):
            record(stepper, b, ledger, kept)
            lap_convs.append(stepper.member(b)[2].conv[0].copy())

        monkeypatch.setattr(integrator.Stepper, "record", record_and_keep)

        def mode_count(t_end):
            cfg = quick_config(kernel_family="polynomial", r=1.5,
                               extension="frozen", t_end=t_end)
            res = run(cfg)
            memory, u = res.state.memory, res.state.u
            conv = memory.convolution_field(u, res.state.t - memory.t_push)
            lap_conv = lap_convs[-1]
            np.testing.assert_allclose(
                res.state.grid.laplacian(conv), lap_conv, rtol=1e-12,
                atol=1e-12 * np.max(np.abs(lap_conv)))
            K, N = len(memory.lam), cfg.n
            K_h = len(res.kernel.modes(res.kernel.memory_horizon)[0])
            assert {k: v.shape for k, v in vars(memory).items()
                    if isinstance(v, np.ndarray)} == {
                "lam": (K,), "weights": (2, K), "w0": (2,), "decay": (K, 1),
                "lam_h": (K_h,), "weights_h": (2, K_h), "C": (K_h,),
                "M": (K + 5, N + 1), "_push_buf": (N + 1,), "_ds": ()}
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

    def test_linear_damping_takes_no_solve(self, monkeypatch):
        # an m = 1 step scales v by the Cayley factor inline
        def refuse(*args, **kwargs):
            raise AssertionError("an m = 1 step took a damping solve")

        monkeypatch.setattr(integrator, "damping_solve_field", refuse)
        monkeypatch.setattr(integrator, "_damp_midpoint", refuse)
        result = run(quick_config(t_end=0.5))
        assert result.flags["completed"] and result.state.step_index > 10
        assert result.ledger.column("damp_cum")[-1] > 0.0
        with pytest.raises(AssertionError, match="damping solve"):
            run(quick_config(t_end=0.5, m=3.0))

    @pytest.mark.parametrize("amplitude, tiers", [
        (0.003, {GUESS, PADE}), (0.1, {PADE, SOLVE})])
    def test_cubic_damping_keeps_v_in_place(self, monkeypatch, amplitude,
                                            tiers):
        # an m = 3 step damps v in place through each tier: the stepper's v
        # is one array from the start of the run to its end
        made, taken = [], set()

        class Kept(integrator.Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self.v)

        damp = integrator._damp_midpoint

        def recording(*args):
            out = damp(*args)
            taken.add(out[1])
            return out

        monkeypatch.setattr(integrator, "Stepper", Kept)
        monkeypatch.setattr(integrator, "_damp_midpoint", recording)
        result = run(quick_config(dim=2, n=12, n_y=10, extent_y=2.0,
                                  t_end=2.0, modes=(1, 2), m=3.0,
                                  amplitude=amplitude))
        assert result.flags["completed"] and result.state.step_index > 10
        assert len(made) == 1 and result.state.v is made[0]
        assert taken == tiers

    def test_wave2d_band_datum_takes_no_solve(self, monkeypatch):
        # a datum of the wave2d benchmark's band, max|v| 0.40: each half-step
        # that the certificate leaves takes the Pade tier.  (At the band's
        # top, modes (2, 2) reach max|v| 0.52, and 20 of their 4,682
        # half-steps take the solve.)
        def refuse(*args, **kwargs):
            raise AssertionError("a wave2d-band step took a damping solve")

        monkeypatch.setattr(integrator, "damping_solve_field", refuse)
        result = run(ScenarioConfig(
            dim=2, extent=math.pi, extent_y=math.pi, n=64, n_y=64, m=3.0,
            p=3.0, modes=(1, 2), amplitude=0.15, t_end=40.0, stride=8,
            output_every=10))
        assert result.flags["completed"] and result.state.step_index > 2000

    @pytest.mark.parametrize("overrides", [
        {}, {"dim": 2, "n": 12, "n_y": 10, "modes": (1, 2)},
    ], ids=["1d", "2d"])
    def test_step_buffers_start_on_cache_lines(self, overrides):
        # every field a step writes starts on a 64-byte line, so that its
        # passes store whole lines: into an output off the line a pass over
        # 64 x 64 doubles costs about 80% more (grid.aligned).  The
        # Laplacian's full-field outputs are lap u and its scratch field
        stepper = run(quick_config(t_end=0.5, m=3.0, **overrides)).state
        memory, plan = stepper.memory, stepper.grid._bound[2]
        (_, (work, kick, spare)), = stepper._members
        fields = {"u": stepper.u, "v": stepper.v, "F": stepper.F,
                  "kick": kick, "work": work, "damping scratch": spare,
                  "lap_field": memory.lap_field,
                  "push buffer": memory._push_buf}
        fields.update((f"Laplacian output {i}", step.args[-1])
                      for i, step in enumerate(plan)
                      if isinstance(step.func, np.ufunc)
                      and step.args[-1].size == stepper.u.size)
        assert len(fields) > 8
        for name, field in fields.items():
            offset = field.ctypes.data % 64
            assert offset == 0, (
                f"{name} starts {offset} B past a 64-byte line: the step's "
                "stores into it split cache lines")
        assert memory.M.flags.c_contiguous, (
            "the memory's M is strided: rows padded through a view "
            "M[..., :N+1] make the push's R += buf take about twice as long")

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


# the tables that small_scenarios draws, each written once, named by its
# content
TABLES = Path(tempfile.mkdtemp(prefix="viscowave-tables-"))
atexit.register(shutil.rmtree, TABLES, True)


def table_file(times, samples) -> str:
    """The path of a history table: a CSV row of t and the field per time."""
    rows = np.column_stack([times, np.reshape(samples, (len(times), -1))])
    path = TABLES / (hashlib.sha256(rows.tobytes()).hexdigest()[:16] + ".csv")
    if not path.exists():
        np.savetxt(path, rows, delimiter=",")
    return str(path)


@st.composite
def small_scenarios(draw):
    """Small benign scenarios: amplitude <= 0.1 keeps every datum in W1.
    A tabulated datum holds the sine field at t = 0 and at one to three
    past times 0.2 to 1 apart, scaled there by 0.8 to 1, so that its
    velocity at 0 stays below the amplitude."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        grid = dict(n=draw(st.integers(8, 40)), modes=(draw(st.integers(1, 3)),))
    else:
        grid = dict(n=draw(st.integers(5, 12)), n_y=draw(st.integers(5, 12)),
                    modes=(draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    unit = st.floats(0.1, 1.0)
    cfg = ScenarioConfig(
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
    if not draw(st.booleans()):
        return cfg
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3))
    times = -np.cumsum([0.0] + gaps)
    factors = [1.0] + draw(st.lists(st.floats(0.8, 1.0), min_size=len(gaps),
                                    max_size=len(gaps)))
    field = cfg.amplitude * cfg.make_grid().sine_mode(cfg.modes)
    return replace(cfg, template="table", support_T0=float(-times[-1]),
                   table_path=table_file(times, [f * field for f in factors]))


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
    terms = Stepper(cfg, [record.result.datum], record.result.kernel).terms()
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


# sha256 of ledger.csv for a 2-D run with m = 3, re-recorded when the m = 3
# solve changed and ||.||_4^4 became a squared square, again, with
# the digests below, when the step took ||grad u||^2 by parts from lap u and
# the memory's rows their Laplacians (every column moved by at most 2e-16
# absolute, E by at most 6e-15 relative), and once more, with
# exponential_m3_1d, when the midpoint damping took the Pade tier (every
# column moved by at most 1.7e-18 absolute); later changes must reproduce it
# byte for byte.  Its velocities are small enough that its 64 damping
# half-steps take the certified guess (28) or the Pade factor (36), none the
# solve, which the midpoint's DAMP_GOLDEN entry, closed_form_m3_2d and
# test_cubic_damping_keeps_v_in_place cover.  Recorded on x86-64 with
# AVX-512 and NumPy 2.4.6.  Its damping and source (p = 3) are products, sums
# and divides alone, each rounded correctly: it depends on the order of the
# step's sums, of which np.vdot and the memory's @ follow the BLAS kernel
# that NumPy's OpenBLAS picks.
LEDGER_2D_M3 = (quick_config(dim=2, n=12, n_y=10, extent_y=2.0, t_end=2.0,
                             modes=(1, 2), m=3.0, output_every=1,
                             amplitude=0.003),
                "421da46c7360e17bf588ef55e1de554cc71541b0d4eb165d6520e4763dacb0c2")

# The same for 1-D runs, a row per step.  The polynomial one was re-recorded
# when the memory took the modes fitted to the run's horizon (19 modes in
# place of 133; its columns moved by at most 1.5e-12 relative, the identity
# residual by 4e-17 absolute), and once more when the mode fit's triangular
# solve became a back substitution.  The m = 1 digests (exponential_m1_1d,
# polynomial_frozen_1d, source_p2_1d, sourceless_1d and halving_1d) were
# re-recorded when a step took its two midpoint dampings as the Cayley
# factor alpha = (1 - dt/4)/(1 + dt/4), u += (alpha dt) v and v *= alpha^2,
# in place of three roundings each (every column moved by at most 9e-16
# absolute, and halving_1d's by at most 7.5e-11 relative).  Their damping
# is products alone, with no solve and no power: they depend on alpha's
# rounding and on the order of the step's sums, of which np.vdot and the
# memory's @ follow the BLAS kernel that NumPy's OpenBLAS picks.
# exponential_m3_1d was re-recorded when the m = 3 midpoint damping took the
# Pade tier (every column moved by at most 1.0e-15 absolute, in grad_norm);
# its 438 half-steps take the certified guess (36) or the Pade factor (402),
# so it depends on the same sums alone.
# Every digest here and LEDGER_2D_M3 were re-recorded once more when a push
# kept the mode rows less half their newest deviation, R = P - (ds/2) D_0,
# and a new lag took its quadrature from the horizon's modes in O(K): every
# column moved by at most 2.5e-16 absolute, but halving_1d's, which moved by
# at most 8.6e-12 relative and stops at the same step.
LEDGER_BYTES = {
    "exponential_m1_1d": (
        quick_config(output_every=1),
        "fd6756265322316376ca28471b98a8fdfcf76e975e464c0a5f51914bd64a2f71"),
    "polynomial_frozen_1d": (
        quick_config(n=60, t_end=2.0, kernel_family="polynomial", r=1.5,
                     extension="frozen", output_every=1),
        "ede2e864bb8267671d4f165ba2672412db2e83f6d400b0d11ac93d5d7d81b45f"),
    "exponential_m3_1d": (
        quick_config(m=3.0, output_every=1),
        "35654e292b78d2a0af0f56bce8ebc6e77bad7a976b3029bb0634e96a5db86e17"),
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
        "ea34005a51ff0b540cce209337a193aa43b80c03874129677f4fcb9d564fd1b8"),
    "newton_m1.5_1d": (
        quick_config(m=1.5, output_every=1),
        "bec686c3696de59da8d39d8f0ac48df18ed661aaefbe2d21fe1108a989dc91dc"),
    "undamped_1d": (
        quick_config(damping_enabled=False, output_every=1),
        "7b1d276cf40191bb69101839ead437201a69e3ad4d9e88d8e70886fe1d80f51c"),
    "sourceless_1d": (
        quick_config(source_enabled=False, output_every=1),
        "e7986ee1a8c6749a76894241f07521b820a6aa12fd173456b89ce0bba33bc2c6"),
    "halving_1d": (
        quick_config(amplitude=2.0, output_every=1),
        "00c744fee0f3a30a4518da749412640c7af3d7b43416f45fda6db88a7280b966"),
    # Recorded when m = 3 took the Pade tier, which left the solve to none
    # of the runs above: here 22 of the 64 damping half-steps take it and
    # the rest the Pade factor.  Re-recorded when the m = 3 solve became
    # the guess and Newton, as at every m (every column moved by at most
    # 3.7e-15 absolute, in grad_norm).  dt max|v|^2 stays below 0.5, so
    # Newton takes no power but its square, and its damping is products,
    # sums and divides alone, each rounded correctly.
    "closed_form_m3_2d": (
        replace(LEDGER_2D_M3[0], amplitude=0.1),
        "0cf19b76e04e410a5e25e0299a1cb93f049e8b1773306da366bcca854b8dc9a3"),
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


def test_cubic_solve_takes_the_tier_tests_max(monkeypatch):
    # an m = 3 array that falls to the SOLVE tier hands the solve the max|v|
    # of its tier test, sqrt(max v*v), which is max|v| to the bit
    solve, exact = integrator.damping_solve_field, []

    def checking(a, dt, m, absa, amax):
        exact.append(amax == float(np.abs(a).max()))
        return solve(a, dt, m, absa, amax)

    monkeypatch.setattr(integrator, "damping_solve_field", checking)
    run(LEDGER_BYTES["closed_form_m3_2d"][0])
    assert exact == [True] * 22


@settings(max_examples=30, deadline=None)
@given(cfg=st.one_of(small_scenarios(),
                     st.just(LEDGER_BYTES["halving_1d"][0])),
       where=st.floats(0.0, 1.0))
# halving_1d's stop row, after which a stepper must not move
@example(cfg=LEDGER_BYTES["halving_1d"][0], where=1.0)
def test_a_run_paused_at_a_row_goes_on_bit_for_bit(cfg, where):
    # run's one advance taken as two, to ledger row j of the unbroken run
    # and on to t_end, leaves the same ledger and the same state
    whole = run(cfg)
    t_row = whole.ledger.rows[round(where * (len(whole.ledger) - 1))]["t"]
    advance = Stepper.advance

    def paused(stepper, end_tick, ledger, kept):
        advance(stepper, round(t_row / stepper.tick_dt), ledger, kept)
        advance(stepper, end_tick, ledger, kept)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Stepper, "advance", paused)
        split = run(cfg)
    assert split.ledger.to_csv() == whole.ledger.to_csv()
    assert split.flags == whole.flags
    assert split.state.step_index == whole.state.step_index
    assert split.state.u.tobytes() == whole.state.u.tobytes()
    assert split.state.v.tobytes() == whole.state.v.tobytes()
