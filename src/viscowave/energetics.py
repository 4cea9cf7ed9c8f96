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
from .kernel import RelaxationKernel
from .history import MemoryState

LEDGER_COLUMNS = [
    "t", "scriptE", "E", "I", "D_cum", "damp_cum", "visc_cum",
    "grad_norm", "lp_pow", "nehari_gap", "identity_residual",
]


# ---------------------------------------------------------------------------
# pointwise functionals


def quadratic_energy(grid: SpatialGrid, u, v, memory: MemoryState,
                     delta: float = 0.0, h1: float | None = None,
                     mem_mu: float | None = None) -> float:
    """scriptE = (||u_t||^2 + ||grad u||^2 + integral mu ||grad w||^2) / 2;
    pass ``h1`` = ||grad u||^2 and ``mem_mu`` = the memory integral if held."""
    if h1 is None:
        h1 = grid.h1_seminorm_sq(u)
    if mem_mu is None:
        mem_mu = memory.memory_integral(u, "mu", delta, h1=h1)
    return 0.5 * (grid.l2_norm_sq(v) + h1 + mem_mu)


def total_energy(grid: SpatialGrid, u, v, memory: MemoryState, p: float,
                 delta: float = 0.0) -> float:
    """E = scriptE - ||u||_{p+1}^{p+1} / (p+1)."""
    return (quadratic_energy(grid, u, v, memory, delta)
            - grid.lp_norm_pow(u, p + 1.0) / (p + 1.0))


def damping_power(grid: SpatialGrid, v, m: float) -> float:
    """||u_t||_{m+1}^{m+1}, the instantaneous frictional dissipation rate."""
    return grid.lp_norm_pow(v, m + 1.0)


def viscous_power(grid: SpatialGrid, u, memory: MemoryState,
                  delta: float = 0.0, conv_mu_prime=None, h1=None,
                  lap_u=None) -> float:
    """-(1/2) integral mu'(s) ||grad w||^2 ds >= 0; pieces as memory_integral."""
    val = memory.memory_integral(u, "mu_prime", delta, conv=conv_mu_prime,
                                 h1=h1, lap_u=lap_u)
    return -0.5 * val


def dissipation_increment(grid: SpatialGrid, dt: float,
                          damp_before: float, damp_after: float,
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
        if set(kwargs) != set(LEDGER_COLUMNS):
            missing = set(LEDGER_COLUMNS) - set(kwargs)
            extra = set(kwargs) - set(LEDGER_COLUMNS)
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(LEDGER_COLUMNS)
        for row in self.rows:
            writer.writerow([f"{row[k]:.17g}" for k in LEDGER_COLUMNS])
        return buf.getvalue()

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


def dissipation_monotone_check(ledger: EnergyLedger) -> dict:
    """damp_cum and visc_cum never decrease (they are sums of nonnegatives)."""
    bad = []
    for name in ("damp_cum", "visc_cum"):
        col = ledger.column(name)
        if np.any(np.diff(col) < 0):
            bad.append(name)
    return {"ok": not bad, "violations": bad}


# ---------------------------------------------------------------------------
# weak-form residual


def variational_residual(trajectory, grid: SpatialGrid,
                         kernel: RelaxationKernel, m: float, p: float,
                         test_field: np.ndarray, test_profile,
                         test_profile_dt) -> float:
    """Discrete residual of the weak formulation for phi(x,t) = X(x)g(t).

    ``trajectory`` provides arrays: times, u (rows of fields), v, conv (the
    mu-weighted past convolution field per output time).  All time integrals
    use the trapezoid rule on the output grid.
    """
    times = trajectory.times
    X = grid.check(test_field)
    g = np.array([float(test_profile(t)) for t in times])
    gdot = np.array([float(test_profile_dt(t)) for t in times])

    u_rows = trajectory.u
    v_rows = trajectory.v
    conv_rows = trajectory.conv

    lapX = grid.laplacian(X)

    def series(fn):
        return np.array([fn(j) for j in range(len(times))])

    # boundary terms
    t_idx = len(times) - 1
    term = (grid.inner(v_rows[t_idx], X) * g[t_idx]
            - grid.inner(v_rows[0], X) * g[0])
    # - int <u_t, phi_t>
    integrand = series(lambda j: grid.inner(v_rows[j], X) * gdot[j])
    term -= np.trapezoid(integrand, times)
    # + k0 int <grad u, grad phi>   (summation by parts, exact)
    integrand = series(lambda j: -grid.inner(u_rows[j], lapX) * g[j])
    term += kernel.k0 * np.trapezoid(integrand, times)
    # + int int k'(s) <grad u(tau - s), grad phi> ds dtau
    #   = - int <grad conv(tau), grad phi(tau)> dtau
    integrand = series(lambda j: -(-grid.inner(conv_rows[j], lapX)) * g[j])
    term += np.trapezoid(integrand, times)
    # + int <|u_t|^{m-1} u_t, phi>
    integrand = series(lambda j: grid.inner(
        np.abs(v_rows[j]) ** (m - 1.0) * v_rows[j], X) * g[j])
    term += np.trapezoid(integrand, times)
    # - int <|u|^{p-1} u, phi>
    integrand = series(lambda j: grid.inner(
        np.abs(u_rows[j]) ** (p - 1.0) * u_rows[j], X) * g[j])
    term -= np.trapezoid(integrand, times)
    return abs(float(term))
