"""Energy functionals, the run ledger, and the identity/inequality checks.

All energies use the same discrete norms as the integrator, never analytic
re-derivations, so the energy-identity residual is a pure time-quadrature
statement.  Ledger CSV column names are frozen identifiers.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid
from .history import MemoryState

LEDGER_COLUMNS = [
    "t", "scriptE", "E", "I", "D_cum", "damp_cum", "visc_cum",
    "grad_norm", "lp_pow", "nehari_gap", "identity_residual",
]
_COLUMN_SET = frozenset(LEDGER_COLUMNS)


# ---------------------------------------------------------------------------
# pointwise functionals


def quadratic_energy(grid: SpatialGrid, v, h1: float, mem_mu: float) -> float:
    """scriptE = (||u_t||^2 + ||grad u||^2 + integral mu ||grad w||^2) / 2
    from v = u_t, h1 = ||grad u||^2 and the memory term mem_mu."""
    return 0.5 * (grid.lp_norm_pow(v, 2.0) + h1 + mem_mu)


def damping_power(grid: SpatialGrid, v, m: float) -> float:
    """||u_t||_{m+1}^{m+1}, the instantaneous frictional dissipation rate."""
    return grid.lp_norm_pow(v, m + 1.0)


def viscous_power(grid: SpatialGrid, u, memory: MemoryState,
                  delta: float = 0.0) -> float:
    """-(1/2) integral mu'(s) ||grad w||^2 ds >= 0."""
    return -0.5 * memory.memory_integral(u, "mu_prime", delta)


def dissipation_increment(dt: float, damp_before: float, damp_after: float,
                          visc_before: float, visc_after: float) -> tuple:
    """Trapezoid-in-time dissipation over one step: (damp, visc)."""
    return (0.5 * dt * (damp_before + damp_after),
            0.5 * dt * (visc_before + visc_after))


# ---------------------------------------------------------------------------
# ledger


@dataclass
class EnergyLedger:
    rows: list = field(default_factory=list)

    def append(self, **kwargs):
        if kwargs.keys() != _COLUMN_SET:
            missing = _COLUMN_SET - kwargs.keys()
            extra = kwargs.keys() - _COLUMN_SET
            raise ValueError(f"ledger row mismatch: missing={missing}, extra={extra}")
        self.rows.append({k: float(kwargs[k]) for k in LEDGER_COLUMNS})

    def __len__(self):
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])

    @property
    def E0(self) -> float:
        return self.rows[0]["E"]

    def to_csv(self) -> str:
        # ``append`` keeps each row's values in LEDGER_COLUMNS order
        line = ",".join(["%.17g"] * len(LEDGER_COLUMNS)) + "\n"
        return ",".join(LEDGER_COLUMNS) + "\n" + "".join(
            line % tuple(row.values()) for row in self.rows)

    @classmethod
    def from_csv(cls, text: str) -> "EnergyLedger":
        reader = csv.DictReader(io.StringIO(text))
        ledger = cls()
        for rec in reader:
            ledger.append(**{k: float(rec[k]) for k in LEDGER_COLUMNS})
        return ledger

    @classmethod
    def read(cls, path) -> "EnergyLedger":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh.read())


# ---------------------------------------------------------------------------
# ledger-level checks


def monotonicity_tolerance(E0: float, residual: float) -> float:
    """Per-row slack: scheme-error scale plus the current identity residual."""
    return 1e-8 * max(1.0, abs(E0)) + residual


def monotonicity_check(ledger: EnergyLedger) -> dict:
    """E(t_{j+1}) <= E(t_j) + tol_step at every row pair."""
    E = ledger.column("E")
    res = ledger.column("identity_residual")
    violations = []
    for j in range(len(E) - 1):
        tol = monotonicity_tolerance(E[0], max(res[j], res[j + 1]))
        if E[j + 1] > E[j] + tol:
            violations.append({"row": j + 1, "E_prev": E[j], "E": E[j + 1],
                               "tol": tol})
    return {"ok": not violations, "violations": violations}


def sandwich_check(ledger: EnergyLedger, p: float, tol: float = 1e-9) -> dict:
    """0 <= (p-1)/(p+1) scriptE <= E <= scriptE at every row (W1 runs)."""
    sE = ledger.column("scriptE")
    E = ledger.column("E")
    slack = tol * max(1.0, abs(ledger.E0)) + ledger.column("identity_residual")
    violations = []
    lower = (p - 1.0) / (p + 1.0) * sE
    for j in range(len(E)):
        if not (-slack[j] <= lower[j] <= E[j] + slack[j]
                and E[j] <= sE[j] + slack[j]):
            violations.append({"row": j, "scriptE": sE[j], "E": E[j]})
    return {"ok": not violations, "violations": violations}
