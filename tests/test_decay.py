import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from viscowave import decay
from viscowave.decay import DecayError, DecayModel
from viscowave.energetics import LEDGER_COLUMNS, EnergyLedger


def ledger_from_series(t, E):
    led = EnergyLedger()
    for ti, Ei in zip(t, E):
        row = {k: 0.0 for k in LEDGER_COLUMNS}
        row["t"], row["E"] = float(ti), float(Ei)
        led.append(**row)
    return led


class TestFitRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        led = ledger_from_series(t, np.exp(-2.0 * t))
        fit = decay.fit_rate(led, (0.0, 10.0), "exponential")
        assert fit["rate"] == pytest.approx(2.0, rel=1e-10)
        assert fit["goodness"] == pytest.approx(1.0, abs=1e-12)

    def test_pure_polynomial(self):
        t = np.linspace(0.0, 50.0, 300)
        led = ledger_from_series(t, (1.0 + t) ** -1.0)
        fit = decay.fit_rate(led, (0.0, 50.0), "polynomial")
        assert fit["rate"] == pytest.approx(1.0, rel=1e-10)
        assert fit["goodness"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 50)
        led = ledger_from_series(t, np.full_like(t, 0.3))
        fit = decay.fit_rate(led, (0.0, 5.0))
        assert fit["rate"] == pytest.approx(0.0, abs=1e-14)

    def test_window_too_small(self):
        t = np.linspace(0.0, 1.0, 50)
        led = ledger_from_series(t, np.exp(-t))
        with pytest.raises(DecayError):
            decay.fit_rate(led, (0.9, 0.91))


class TestPredictedRate:
    def test_case1(self):
        pred = decay.predicted_rate(1.0, "exponential")
        assert pred.kind == "exponential" and pred.case == 1

    def test_case2(self):
        pred = decay.predicted_rate(3.0, "exponential")
        assert pred.kind == "polynomial"
        assert pred.exponent == 1.0
        assert pred.case == 2

    def test_case3_sigma(self):
        pred = decay.predicted_rate(1.0, "polynomial", r=1.5, sigma=0.3)
        assert pred.exponent == pytest.approx(0.6)
        assert pred.case == 3

    def test_case4_compact(self):
        pred = decay.predicted_rate(3.0, "polynomial", r=1.5,
                                    compact_support=True)
        assert pred.exponent == 2.0
        assert pred.case == 4

    def test_sigma_domain_enforced(self):
        with pytest.raises(DecayError):
            decay.predicted_rate(1.0, "polynomial", r=1.5, sigma=0.7)
        with pytest.raises(DecayError):
            decay.predicted_rate(1.0, "polynomial", r=2.5, sigma=0.1)


class TestResolventAndOde:
    def test_linear_phi_closed_form(self):
        # phi_C = 0.5 makes Phi(s) = s, so S(t) = E0 exp(-t/2)
        model = DecayModel(phi_C=0.5, m=1.0, T_reiter=1.0)
        times, S = decay.lt_ode_solve(model, 3.0, 10.0)
        exact = 3.0 * np.exp(-times / 2.0)
        assert np.max(np.abs(S - exact) / exact) <= 1e-6

    def test_zero_initial_energy(self):
        model = DecayModel(phi_C=1.0, m=1.0, T_reiter=1.0)
        _, S = decay.lt_ode_solve(model, 0.0, 5.0)
        assert np.all(S == 0.0)

    def test_strictly_decreasing_positive(self):
        model = DecayModel(phi_C=1.0, m=3.0, T_reiter=1.0)
        _, S = decay.lt_ode_solve(model, 1.0, 20.0)
        assert np.all(S > 0.0)
        assert np.all(np.diff(S) < 0.0)

    def test_superlinear_damping_envelope_bounded(self):
        # m = 3, C = 1: S(t) (1+t) stays bounded out to t = 100
        model = DecayModel(phi_C=1.0, m=3.0, T_reiter=1.0)
        times, S = decay.lt_ode_solve(model, 1.0, 100.0, n_steps=5000)
        env = S * (1.0 + times)
        assert env.max() <= 20.0 * env[0]
        # step-halving agreement backs the integration accuracy
        times2, S2 = decay.lt_ode_solve(model, 1.0, 100.0, n_steps=10_000)
        assert S[-1] == pytest.approx(S2[-1], rel=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(S=st.floats(1e-8, 1e4), C=st.floats(1e-3, 1e3),
           m=st.floats(1.0, 5.0))
    @example(S=1e-8, C=375.0, m=3.0)
    def test_resolvent_residual_contract(self, S, C, m):
        model = DecayModel(phi_C=C, m=m, T_reiter=1.0)
        z = decay.resolvent(model.phi, S)
        assert 0.0 <= z <= S
        assert abs(z + model.phi(z) - S) <= 1e-13 * max(1.0, S)

    def test_resolvent_identity_scalar(self):
        # (I + Phi^{-1})^{-1} = I - (I + Phi)^{-1} on sampled points,
        # left side via two nested scalar root-finds
        model = DecayModel(phi_C=0.7, m=3.0, T_reiter=1.0)
        rng = np.random.default_rng(8)

        def phi_inv(z):
            lo, hi = 0.0, z / model.phi_C
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if model.phi(mid) > z:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        for x in rng.uniform(1e-3, 10.0, 100):
            lo, hi = 0.0, x
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid + phi_inv(mid) > x:
                    hi = mid
                else:
                    lo = mid
            lhs = 0.5 * (lo + hi)
            rhs = x - decay.resolvent(model.phi, x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# Outputs recorded before Phi got its Python-float path, which must
# reproduce them bit for bit: S as the first 16 hex digits of the sha256 of
# its bytes, and S(t_end).  Recorded on x86-64 with AVX-512 and NumPy 2.4.6.
ODE_GOLDEN = {
    "phi_m1": (DecayModel(phi_C=0.7, m=1.0, T_reiter=1.0),
               "1fb05b8f436dd61d", "0x1.fc07c015d0326p-6"),
    "phi_m3": (DecayModel(phi_C=0.7, m=3.0, T_reiter=1.0),
               "c4f6ff33eb64598f", "0x1.2419925d9d464p-3"),
}
# E at t = 10, 12, ..., 20 of the acceptance suite's w1_scenario() ledger:
# all that comparison_check(ledger, 1.0, 2.0, t_start=10.0) reads from it.
W1_SAMPLES = ["0x1.617483ab472a6p-21", "0x1.b4fdeaf3e98e6p-24",
              "0x1.148cc415f0a6ap-26", "0x1.67c7df0dacf63p-29",
              "0x1.d7e2e6105d630p-32", "0x1.3c1578445c731p-34"]
W1_CALIBRATED_C = "0x1.5798ee2308c3ap-27"


class TestComparisonOdeBitIdentity:
    @pytest.mark.parametrize("name", sorted(ODE_GOLDEN))
    def test_lt_ode_solve(self, name):
        model, digest, last = ODE_GOLDEN[name]
        _, S = decay.lt_ode_solve(model, 2.0, 10.0)
        assert hashlib.sha256(S.tobytes()).hexdigest()[:16] == digest
        assert S[-1] == float.fromhex(last)

    def test_comparison_check_calibration(self):
        E = [float.fromhex(x) for x in W1_SAMPLES]
        led = ledger_from_series(10.0 + 2.0 * np.arange(len(E)), E)
        report = decay.comparison_check(led, 1.0, 2.0, t_start=10.0)
        assert report["calibrated_C"] == float.fromhex(W1_CALIBRATED_C)

    def test_calibration_at_bracket_end_skips_bisection(self, monkeypatch):
        # the w1 samples' constant is the bracket's lower end, 1e-8: one
        # solve finds it and one checks the bound, where bisecting took 82
        solve, calls = decay.lt_ode_solve, []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(decay, "lt_ode_solve", counting)
        E = [float.fromhex(x) for x in W1_SAMPLES]
        led = ledger_from_series(10.0 + 2.0 * np.arange(len(E)), E)
        report = decay.comparison_check(led, 1.0, 2.0, t_start=10.0)
        assert len(calls) <= 2
        assert report["calibrated_C"] == 1e-8
        assert report["ok"]


class TestComparisonCheck:
    def test_energy_equal_to_model_passes(self):
        model = DecayModel(phi_C=0.5, m=1.0, T_reiter=1.0)
        t = np.linspace(0.0, 10.0, 400)
        led = ledger_from_series(t, 2.0 * np.exp(-t / 2.0))
        report = decay.comparison_check(led, 1.0, 1.0, tol=0.05)
        assert report["ok"]

    def test_zero_energy_passes(self):
        t = np.linspace(0.0, 10.0, 50)
        led = ledger_from_series(t, np.zeros_like(t))
        assert decay.comparison_check(led, 1.0, 2.0)["ok"]

    def test_slowing_decay_fails(self):
        # fast first interval then a long plateau violates the calibrated bound
        t = np.linspace(0.0, 10.0, 400)
        E = np.where(t < 1.0, np.exp(-5.0 * t), math.exp(-5.0))
        led = ledger_from_series(t, E)
        report = decay.comparison_check(led, 1.0, 1.0, tol=0.05)
        assert not report["ok"]

    def test_bracket_end_reported(self):
        # the w1 samples calibrate to the 1e-8 floor, a flat energy needs
        # more than the 1e8 cap, and a model's own energy lies between
        E = [float.fromhex(x) for x in W1_SAMPLES]
        led = ledger_from_series(10.0 + 2.0 * np.arange(len(E)), E)
        report = decay.comparison_check(led, 1.0, 2.0, t_start=10.0)
        assert (report["calibrated_C"], report["bracket_end"]) == (1e-8,
                                                                   "floor")
        t = np.linspace(0.0, 10.0, 400)
        for E, C, end in ((np.ones_like(t), 1e8, "cap"),
                          (2.0 * np.exp(-t / 2.0), None, None)):
            report = decay.comparison_check(ledger_from_series(t, E), 1.0,
                                            1.0, tol=0.05)
            assert report["bracket_end"] == end
            assert C is None or report["calibrated_C"] == C
        zero = ledger_from_series(t, np.zeros_like(t))
        assert decay.comparison_check(zero, 1.0, 2.0)["bracket_end"] is None

    def test_needs_two_intervals(self):
        t = np.linspace(0.0, 1.0, 40)
        led = ledger_from_series(t, np.exp(-t))
        with pytest.raises(DecayError):
            decay.comparison_check(led, 1.0, 1.0)


class TestBootstrap:
    def test_reference_pair_r15(self):
        out = decay.optimal_rate_bootstrap(0.2, 1.5)
        assert out["iterations"] == 2
        assert out["sigma_sequence"] == pytest.approx([0.2, 0.45, 0.7])

    def test_reference_pair_r19(self):
        out = decay.optimal_rate_bootstrap(0.05, 1.9)
        assert out["iterations"] == 17
        assert out["final_sigma"] > 0.9

    def test_immediate_case(self):
        out = decay.optimal_rate_bootstrap(0.6, 1.5)
        assert out["iterations"] == 0
        assert out["optimal_exponent"] == 2.0

    def test_domain_checks(self):
        with pytest.raises(DecayError):
            decay.optimal_rate_bootstrap(0.2, 2.5)
        with pytest.raises(DecayError):
            decay.optimal_rate_bootstrap(1.5, 1.5)
        with pytest.raises(DecayError):
            decay.optimal_rate_bootstrap(0.5, 1.5)
