"""Acceptance criteria that can fail: each test plants one plausible defect
in the program and asserts that a criterion reports FAIL at its unchanged
tolerance, through the same ``run_all`` that ``viscowave verify`` prints.

The defects sit in ``integrator._row_terms``, the ledger-row arithmetic that
ledger row 0 and ``initial_terms`` (and so the classification) share.
"""
import pytest

from viscowave import acceptance, integrator

ROW_TERMS = integrator._row_terms


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


@pytest.mark.parametrize("number, defect", [
    (3, mu_prime_for_mu),
    (3, flipped_source_sign),
    (9, mu_prime_for_mu),
], ids=["03-mu_prime_for_mu", "03-flipped_source_sign", "09-mu_prime_for_mu"])
def test_criterion_fails_on_defect(monkeypatch, number, defect):
    criteria = [c for c in acceptance.CRITERIA if c[0] == number]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setattr(integrator, "_row_terms", defect)
    lines = []
    assert not acceptance.run_all(quick=True, printer=lines.append)
    assert len(lines) == 1 and lines[0].startswith(f"[FAIL] {number:2d} ")
