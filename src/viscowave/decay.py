"""Decay-rate fitting, predicted rates, the comparison ODE, and the
polynomial-rate bootstrap arithmetic.

The comparison machinery follows the Lasiecka--Tataru route: the sampled
energy E(nT) is dominated by the solution of the scalar ODE

    S'(t) + (I + Phi)^{-1} S(t) = 0,    S(0) = E(0),

where Phi is a monotone increasing perturbation function vanishing at the
origin.  The theory asserts only the existence of the constant in Phi, so
the comparison check calibrates it from the first two reiteration points
and tests the shape on the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energetics import EnergyLedger


class DecayError(ValueError):
    pass


# ---------------------------------------------------------------------------
# comparison functions


@dataclass
class DecayModel:
    """Perturbation function Phi and the reiteration time T."""

    phi_C: float
    m: float
    T_reiter: float

    def __post_init__(self):
        if self.phi_C <= 0 or self.T_reiter <= 0 or self.m < 1:
            raise DecayError("need phi_C > 0, T_reiter > 0, m >= 1")

    def phi(self, s):
        """Phi(s) = C * (s^(2/(m+1)) + s); increasing, Phi(0) = 0.  A float
        gives a float, an array an array."""
        if not isinstance(s, float):
            s = np.asarray(s, dtype=float)
        return self.phi_C * (_power(s, 2.0 / (self.m + 1.0)) + s)


def _power(s, e):
    """s ** e, rounded as NumPy's ** rounds it; a float for a float.

    s ** 1 is s exactly, and NumPy takes s ** 0.5 as sqrt, which is
    correctly rounded everywhere.  Other powers go through NumPy: its power
    may be a SIMD routine that differs in the last bit from the C library's
    pow behind Python's **, and Phi must not depend on the argument's type.
    """
    if e == 1.0:
        return s
    if e == 0.5 and isinstance(s, float):
        return math.sqrt(s)
    out = np.asarray(s) ** e
    return float(out) if out.ndim == 0 else out


def resolvent(fn, S: float, rtol: float = 1e-13, max_iter: int = 200) -> float:
    """z = (I + fn)^{-1}(S): the unique root of z + fn(z) = S, z in [0, S].

    Safeguarded Newton with bisection fallback; fn must be monotone
    increasing with fn(0) = 0.
    """
    if S < 0:
        raise DecayError("resolvent argument must be nonnegative")
    if S == 0.0:
        return 0.0
    tol = rtol * max(1.0, S)
    lo, hi = 0.0, S
    z = 0.5 * S
    for _ in range(max_iter):
        res = z + fn(z) - S
        if abs(res) <= tol:
            return z
        if res > 0:
            hi = z
        else:
            lo = z
        # a central difference over a step relative to z in (0, S], or the
        # least subnormal below z ~ 5e-316, where 1e-8 z underflows to 0
        eps = max(1e-8 * z, 5e-324)
        deriv = 1.0 + (fn(z + eps) - fn(z - eps)) / (2.0 * eps)
        z_new = z - res / deriv
        if not (lo < z_new < hi):
            z_new = 0.5 * (lo + hi)
        z = z_new
    return z


def lt_ode_solve(model: DecayModel, E0: float, t_end: float,
                 n_steps: int | None = None):
    """Integrate S' = -(I + Phi)^{-1} S by classical RK4.

    Step defaults to 1e-3 * t_end.  Returns (times, S) arrays; S is strictly
    decreasing and positive for E0 > 0.
    """
    if E0 < 0:
        raise DecayError("E0 must be nonnegative")
    phi = model.phi
    if n_steps is None:
        n_steps = 1000
    times = np.linspace(0.0, t_end, n_steps + 1)
    h = float(times[1] - times[0]) if n_steps else 0.0
    # Python floats in the loop: fn then takes its float path
    s = float(E0)
    S = [s]

    def rhs(s):
        return -resolvent(phi, max(s, 0.0))

    for _ in range(n_steps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = max(s + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), 0.0)
        S.append(s)
    return times, np.array(S)


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(ledger: EnergyLedger, window: tuple[float, float],
             model: str = "exponential") -> dict:
    """Least-squares decay rate of E over [t_lo, t_hi].

    exponential: slope alpha of -ln E vs t; polynomial: slope of -ln E vs
    ln(1+t).  Rows with E below 1e-14 * E(0) are skipped.  Returns
    {"rate", "goodness"} with goodness the coefficient of determination.
    """
    t = ledger.column("t")
    E = ledger.column("E")
    t_lo, t_hi = window
    keep = (t >= t_lo) & (t <= t_hi) & (E > 1e-14 * max(abs(ledger.E0), 1e-300))
    if np.count_nonzero(keep) < 10:
        raise DecayError(f"window [{t_lo}, {t_hi}] has fewer than 10 usable rows")
    y = np.log(E[keep])
    x = t[keep] if model == "exponential" else np.log1p(t[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    goodness = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"rate": float(-slope), "goodness": goodness, "model": model,
            "n_rows": int(np.count_nonzero(keep))}


@dataclass(frozen=True)
class RatePrediction:
    kind: str                  # "exponential" or "polynomial"
    exponent: Optional[float]  # polynomial exponent of (1+t); None if exponential
    case: int


def predicted_rate(m: float, kernel_class: str, r: Optional[float] = None,
                   sigma: Optional[float] = None,
                   compact_support: bool = False) -> RatePrediction:
    """Decay-rate prediction from the damping exponent and kernel class.

    Case 1: m = 1, exponential kernel -> exponential decay.
    Case 2: m > 1, exponential kernel -> (1+t)^(-2/(m-1)).
    Case 3: m = 1, polynomial kernel  -> (1+t)^(-sigma/(r-1)), or the optimal
            (1+t)^(-1/(r-1)) for compactly supported history.
    Case 4: m > 1, polynomial kernel  -> max of the Case 3 and Case 2 exponents.
    """
    if kernel_class == "exponential":
        if m == 1.0:
            return RatePrediction("exponential", None, 1)
        return RatePrediction("polynomial", 2.0 / (m - 1.0), 2)
    if r is None or not (1.0 < r < 2.0):
        raise DecayError(f"polynomial class needs r in (1, 2), got {r}")
    if compact_support:
        mem_exp = 1.0 / (r - 1.0)
    else:
        if sigma is None or not (0.0 < sigma < 2.0 - r):
            raise DecayError(
                f"sigma must lie in (0, 2-r) without compact support, got {sigma}")
        mem_exp = sigma / (r - 1.0)
    if m == 1.0:
        return RatePrediction("polynomial", mem_exp, 3)
    return RatePrediction("polynomial", max(mem_exp, 2.0 / (m - 1.0)), 4)


# ---------------------------------------------------------------------------
# comparison check


C_FLOOR, C_CAP = 1e-8, 1e8     # comparison_check's bracket for C


def comparison_check(ledger: EnergyLedger, model_m: float, T_reiter: float,
                     t_start: float = 0.0, tol: float = 0.1) -> dict:
    """Verify E(t_start + n T) <= S(n) * (1 + tol) after 2-point calibration.

    The perturbation constant is calibrated (by bisection on the ODE
    solution) so that S(1) matches the observed E at the first reiteration
    point; the bound is then tested at every further point covered by the
    ledger.  The calibration is documented in the returned report, with
    ``bracket_end`` "floor" or "cap" where C sits at the bracket's 1e-8 or
    1e8 end (the bound then calibrates no constant inside it), else None.
    """
    t = ledger.column("t")
    E = ledger.column("E")
    n_max = int(math.floor((t[-1] - t_start) / T_reiter))
    if n_max < 2:
        raise DecayError("ledger does not cover two reiteration intervals")
    samples = np.array([float(np.interp(t_start + n * T_reiter, t, E))
                        for n in range(n_max + 1)])
    E0 = samples[0]
    if E0 <= 0:
        return {"ok": True, "calibrated_C": None, "bracket_end": None,
                "violations": [],
                "note": "E at window start is zero; bound holds trivially"}

    target = samples[1]

    def S1_for(C: float) -> float:
        model = DecayModel(phi_C=C, m=model_m, T_reiter=T_reiter)
        ts, S = lt_ode_solve(model, E0, 1.0, n_steps=200)
        return float(S[-1])

    # S(1) is increasing in C (larger perturbation -> slower comparison decay)
    lo, hi = C_FLOOR, 1.0
    if S1_for(lo) >= target:
        # the bisection would close on the bracket's lower end, to the bit
        C = lo
    else:
        while S1_for(hi) < target and hi < C_CAP:
            hi *= 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if S1_for(mid) < target:
                lo = mid
            else:
                hi = mid
        C = hi  # smallest constant with S(1) >= E at the first point

    model = DecayModel(phi_C=C, m=model_m, T_reiter=T_reiter)
    times, S = lt_ode_solve(model, E0, float(n_max),
                            n_steps=max(200, 50 * n_max))
    S_at_n = np.array([float(np.interp(n, times, S)) for n in range(n_max + 1)])
    violations = [
        {"n": n, "E": samples[n], "S": S_at_n[n]}
        for n in range(n_max + 1)
        if samples[n] > S_at_n[n] * (1.0 + tol) + 1e-300
    ]
    bracket_end = {C_FLOOR: "floor", C_CAP: "cap"}.get(C)
    return {"ok": not violations, "calibrated_C": C,
            "bracket_end": bracket_end, "n_points": n_max + 1,
            "violations": violations, "t_start": t_start, "T": T_reiter}


# ---------------------------------------------------------------------------
# optimal-rate bootstrap


def optimal_rate_bootstrap(sigma1: float, r: float) -> dict:
    """Iterate sigma_{n+1} = (2-r)/2 + sigma_n until sigma_n > r - 1.

    Each pass lifts a non-optimal polynomial rate (1+t)^(-sigma/(r-1)) by a
    fixed increment; once sigma exceeds r-1 the optimal rate 1/(r-1) is
    reached.  Terminates in at most ceil((r-1)/((2-r)/2)) + 1 updates.
    """
    if not (1.0 < r < 2.0):
        raise DecayError(f"r must lie in (1, 2), got {r}")
    if not (0.0 < sigma1 < 1.0):
        raise DecayError(f"sigma1 must lie in (0, 1), got {sigma1}")
    if sigma1 == r - 1.0:
        raise DecayError("sigma1 = r - 1 is excluded")
    step = (2.0 - r) / 2.0
    seq = [sigma1]
    while seq[-1] <= r - 1.0:
        seq.append(step + seq[-1])
    return {"iterations": len(seq) - 1, "sigma_sequence": seq,
            "final_sigma": seq[-1], "optimal_exponent": 1.0 / (r - 1.0)}
