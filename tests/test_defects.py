"""Acceptance criteria that can fail: each test plants one plausible defect
in the program and asserts that a criterion reports FAIL at its unchanged
tolerance, through the same ``run_all`` that ``viscowave verify`` prints.

The defects sit in two places.  ``integrator._row_terms``, the ledger-row
arithmetic that ledger row 0 and ``initial_terms`` (and so the
classification) share, takes the memory term with the wrong weight or the
source with the wrong sign.  ``integrator.Stepper.step`` and the run's step
controller drop a power from the energy identity or never halve dt.
"""
import math

import pytest

from viscowave import acceptance, integrator

ROW_TERMS = integrator._row_terms
STEP = integrator.Stepper.step


def mu_prime_for_mu(grid, u, v, mem, h1, p, source):
    """The memory term taken with the weight mu' in place of mu."""
    swapped = mem._replace(conv=mem.conv[::-1], scalar=mem.scalar[::-1],
                           total=mem.total[::-1])
    return ROW_TERMS(grid, u, v, swapped, h1, p, source)


def flipped_source_sign(*args):
    """The source's potential and its share of the Nehari gap added, not
    subtracted."""
    row = ROW_TERMS(*args)
    source_part = row["scriptE"] - row["E"]
    row["E"] += 2.0 * source_part
    row["I"] += 2.0 * source_part
    row["nehari_gap"] += 2.0 * row["lp_pow"]
    return row


def no_viscous_power(*args, **kwargs):
    """The step's viscous power returned as 0."""
    h1, damp, _ = STEP(*args, **kwargs)
    return h1, damp, 0.0


def no_damping_power(*args, **kwargs):
    """The step's damping power returned as 0."""
    h1, _, visc = STEP(*args, **kwargs)
    return h1, 0.0, visc


@pytest.mark.parametrize("number, owner, name, defect", [
    (3, integrator, "_row_terms", mu_prime_for_mu),
    (3, integrator, "_row_terms", flipped_source_sign),
    (9, integrator, "_row_terms", mu_prime_for_mu),
    (1, integrator.Stepper, "step", no_viscous_power),
    (1, integrator.Stepper, "step", no_damping_power),
    # a controller that never halves dt: the run overflows, as it does in
    # ``viscowave verify``, where NumPy's overflow is a warning, not an error
    pytest.param(8, integrator, "GRAD_DOUBLING_FACTOR", math.inf,
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["03-mu_prime_for_mu", "03-flipped_source_sign", "09-mu_prime_for_mu",
        "01-no_viscous_power", "01-no_damping_power", "08-never_halves"])
def test_criterion_fails_on_defect(monkeypatch, number, owner, name, defect):
    criteria = [c for c in acceptance.CRITERIA if c[0] == number]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setattr(owner, name, defect)
    lines = []
    assert not acceptance.run_all(quick=True, printer=lines.append)
    assert len(lines) == 1 and lines[0].startswith(f"[FAIL] {number:2d} ")
    assert "error:" not in lines[0]     # a verdict, not a crash
