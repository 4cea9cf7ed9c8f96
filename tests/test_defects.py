"""Acceptance criteria that can fail: each test plants one plausible defect
in the program and asserts that a criterion reports FAIL at its unchanged
tolerance, through the same ``run_all`` that ``viscowave verify`` prints.

The defects sit in three places.  ``integrator.Stepper.terms``, the
ledger-row arithmetic that every row and a new stepper's terms (and so the
classification) share, takes the memory term with the wrong weight or the
source with the wrong sign.  ``integrator.Stepper.step`` and the stepper's
controller drop a power from the energy identity or never halve dt.
``energetics.dissipation_increment`` sums the powers by the wrong rule.
"""
import math

import pytest

from viscowave import acceptance, energetics, integrator

TERMS = integrator.Stepper.terms
STEP = integrator.Stepper.step


def mu_prime_for_mu(stepper, b=0):
    """The memory term taken with the weight mu' in place of mu."""
    mem = stepper.mem
    stepper.mem = mem._replace(conv=mem.conv[::-1], scalar=mem.scalar[::-1],
                               total=mem.total[::-1])
    try:
        return TERMS(stepper, b)
    finally:
        stepper.mem = mem


def flipped_source_sign(stepper, b=0):
    """The source's potential and its share of the Nehari gap added, not
    subtracted."""
    row = TERMS(stepper, b)
    source_part = row["scriptE"] - row["E"]
    row["E"] += 2.0 * source_part
    row["I"] += 2.0 * source_part
    row["nehari_gap"] += 2.0 * row["lp_pow"]
    return row


def no_viscous_power(*args, **kwargs):
    """The step's viscous powers returned as 0."""
    return [(h1, damp, 0.0) for h1, damp, _ in STEP(*args, **kwargs)]


def no_damping_power(*args, **kwargs):
    """The step's damping powers returned as 0."""
    return [(h1, 0.0, visc) for h1, _, visc in STEP(*args, **kwargs)]


def rectangle_rule_increment(dt, damp_before, damp_after, visc_before,
                             visc_after):
    """A step's dissipation by the rectangle rule at its end, not the
    trapezoid: first order in dt where the identity is second."""
    return dt * damp_after, dt * visc_after


@pytest.mark.parametrize("number, owner, name, defect", [
    (3, integrator.Stepper, "terms", mu_prime_for_mu),
    (3, integrator.Stepper, "terms", flipped_source_sign),
    (9, integrator.Stepper, "terms", mu_prime_for_mu),
    (1, integrator.Stepper, "step", no_viscous_power),
    (1, integrator.Stepper, "step", no_damping_power),
    (1, energetics, "dissipation_increment", rectangle_rule_increment),
    # a controller that never halves dt: the run overflows, as it does in
    # ``viscowave verify``, where NumPy's overflow is a warning, not an error
    pytest.param(8, integrator, "GRAD_DOUBLING_FACTOR", math.inf,
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["03-mu_prime_for_mu", "03-flipped_source_sign", "09-mu_prime_for_mu",
        "01-no_viscous_power", "01-no_damping_power",
        "01-rectangle_rule_increment", "08-never_halves"])
def test_criterion_fails_on_defect(monkeypatch, number, owner, name, defect):
    criteria = [c for c in acceptance.CRITERIA if c[0] == number]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setattr(owner, name, defect)
    lines = []
    assert not acceptance.run_all(quick=True, printer=lines.append)
    assert len(lines) == 1 and lines[0].startswith(f"[FAIL] {number:2d} ")
    assert "error:" not in lines[0]     # a verdict, not a crash
