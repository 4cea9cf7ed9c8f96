import numpy as np
import pytest

from viscowave import blowup
from viscowave.energetics import LEDGER_COLUMNS, EnergyLedger
from viscowave.integrator import run
from viscowave.config import ScenarioConfig


def ledger_from(t, grad, E=None):
    led = EnergyLedger()
    if E is None:
        E = np.zeros_like(np.asarray(t, dtype=float))
    for ti, gi, Ei in zip(t, grad, E):
        row = {k: 0.0 for k in LEDGER_COLUMNS}
        row["t"], row["grad_norm"], row["E"] = float(ti), float(gi), float(Ei)
        led.append(**row)
    return led


class TestHypotheses:
    def test_negative_energy(self):
        hyp = blowup.check_hypotheses(E0=-0.2, scriptE0=1.0, m=1.0, p=3.0,
                                      k0=2.0, y0=1.0, M=0.5)
        assert hyp == blowup.NEGATIVE_ENERGY

    def test_negative_energy_needs_superlinear_source(self):
        # p must dominate both the damping exponent and sqrt(k0)
        assert blowup.check_hypotheses(-0.2, 1.0, m=3.5, p=3.0, k0=2.0,
                                       y0=1.0, M=0.5) is None
        assert blowup.check_hypotheses(-0.2, 1.0, m=1.0, p=1.2, k0=2.0,
                                       y0=1.0, M=0.5) is None

    def test_zero_datum(self):
        assert blowup.check_hypotheses(0.0, 0.0, m=1.0, p=3.0, k0=2.0,
                                       y0=1.0, M=0.5) is None

    def test_positive_energy_window(self):
        hyp = blowup.check_hypotheses(E0=0.3, scriptE0=2.0, m=1.0, p=3.0,
                                      k0=2.0, y0=1.0, M=0.5)
        assert hyp == blowup.POSITIVE_ENERGY_WINDOW

    def test_window_requires_high_initial_quadratic_energy(self):
        assert blowup.check_hypotheses(0.3, 0.9, m=1.0, p=3.0, k0=2.0,
                                       y0=1.0, M=0.5) is None

    def test_window_requires_energy_below_M(self):
        assert blowup.check_hypotheses(0.6, 2.0, m=1.0, p=3.0, k0=2.0,
                                       y0=1.0, M=0.5) is None

    def test_w2_gradient_criterion(self):
        # gradient clears the well radius gamma^{-(p+1)/(p-1)} = gamma^{-2}
        gamma = 0.8
        hyp = blowup.check_hypotheses(E0=0.3, scriptE0=0.9, m=3.5, p=3.0,
                                      k0=2.0, y0=1.0, M=0.5,
                                      grad0=1.0 / gamma ** 2 + 0.1,
                                      gamma=gamma, is_w2=True)
        assert hyp == blowup.W2_WELL

    def test_w2_flag_required(self):
        gamma = 0.8
        assert blowup.check_hypotheses(0.3, 0.9, m=3.5, p=3.0, k0=2.0,
                                       y0=1.0, M=0.5,
                                       grad0=1.0 / gamma ** 2 + 0.1,
                                       gamma=gamma, is_w2=False) is None


class TestDetect:
    def power_law_ledger(self):
        # grad = 1 / (1 - t): the reciprocal is exactly linear, vanishing
        # at t = 1
        t = 1.0 - np.geomspace(1.0, 2e-4, 200)
        return ledger_from(t, 1.0 / (1.0 - t))

    def test_detects_with_exhausted_controller(self):
        v = blowup.detect(self.power_law_ledger(), {"dt_exhausted": True})
        assert v.detected
        assert v.t_estimate == pytest.approx(1.0, rel=0.05)

    def test_not_fired_without_flags(self):
        v = blowup.detect(self.power_law_ledger(), {})
        assert not v.detected
        assert v.t_estimate is None

    def test_not_fired_on_bounded_gradient(self):
        t = np.linspace(0.0, 5.0, 50)
        v = blowup.detect(ledger_from(t, 1.0 + 0.1 * t),
                          {"dt_exhausted": True})
        assert not v.detected

    def test_nonfinite_flag_suffices(self):
        v = blowup.detect(self.power_law_ledger(), {"nonfinite": True})
        assert v.detected

    def test_estimate_never_before_last_sample(self):
        # corrupt the tail so the straight-line root lands inside the data;
        # the estimate must clamp to the final time
        t = 1.0 - np.geomspace(1.0, 2e-4, 200)
        grad = 1.0 / (1.0 - t)
        grad[-1] = grad[-2] * 4.0
        v = blowup.detect(ledger_from(t, grad), {"dt_exhausted": True})
        assert v.detected
        assert v.t_estimate >= t[-1]


class TestVerdictOnRealRun:
    def test_negative_energy_run_blows_up_consistently(self):
        cfg = ScenarioConfig(n=100, t_end=10.0, stride=4, output_every=5,
                             amplitude=3.0)
        result = run(cfg)
        assert result.blew_up
        led = result.ledger
        assert led.E0 < 0.0
        v = blowup.verdict(led, result.flags, m=1.0, p=3.0, k0=2.0,
                           y0=1.0, M=0.5)
        assert v.hypothesis == blowup.NEGATIVE_ENERGY
        assert v.detected
        assert (v.hypothesis is not None) == v.detected
        assert v.t_estimate is not None
        # energy never rises above its initial value along the way
        E = led.column("E")
        assert np.all(E <= E[0] + 1e-10)

    def test_small_datum_neither_predicts_nor_detects(self):
        cfg = ScenarioConfig(n=80, t_end=3.0, stride=4, output_every=5,
                             amplitude=0.1)
        result = run(cfg)
        v = blowup.verdict(result.ledger, result.flags, m=1.0, p=3.0,
                           k0=2.0, y0=1.0, M=0.5)
        assert v.hypothesis is None
        assert not v.detected
        assert (v.hypothesis is not None) == v.detected
