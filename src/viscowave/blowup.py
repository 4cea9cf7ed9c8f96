"""Blow-up hypothesis checks and runtime blow-up detection.

Three sufficient conditions for finite-time blow-up are recognized:

* NegativeEnergy: E(0) < 0 with p > max(m, sqrt(k0)).
* PositiveEnergyWindow: 0 <= E(0) < M together with scriptE(0) > y0.
* W2Well: a W2 datum whose gradient norm clears the well radius, which
  forces scriptE(0) > y0 through the variational characterization.

Runtime detection is heuristic: the gradient norm must exceed a large
multiple of its initial value while the step controller has already spent
every halving.  The blow-up time estimate comes from a straight-line fit of
1 / ||grad u|| against t over the final doubling, since the reciprocal of the
norm vanishes linearly at the blow-up time for power-type growth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energetics import EnergyLedger

GRAD_EXPLOSION_FACTOR = 1e3

NEGATIVE_ENERGY = "NegativeEnergy"
POSITIVE_ENERGY_WINDOW = "PositiveEnergyWindow"
W2_WELL = "W2Well"


@dataclass(frozen=True)
class BlowupVerdict:
    hypothesis: Optional[str]        # which sufficient condition applies, if any
    detected: bool                   # runtime explosion observed
    t_estimate: Optional[float]      # fitted blow-up time, when detected
    details: dict


def check_hypotheses(E0: float, scriptE0: float, m: float, p: float,
                     k0: float, y0: float, M: Optional[float],
                     grad0: Optional[float] = None,
                     gamma: Optional[float] = None,
                     is_w2: bool = False) -> Optional[str]:
    """First sufficient blow-up condition met by the data, or None.

    Checked in order of strength: negative energy, then the positive-energy
    window, then the W2 gradient criterion (which implies the window
    condition when M covers E(0)).
    """
    rk = math.sqrt(k0)
    if E0 < 0.0 and p > max(m, rk):
        return NEGATIVE_ENERGY
    if (M is not None and 0.0 <= E0 < M and scriptE0 > y0
            and p > max(m, rk)):
        return POSITIVE_ENERGY_WINDOW
    if (is_w2 and M is not None and 0.0 <= E0 < M
            and grad0 is not None and gamma is not None
            and grad0 > gamma ** (-(p + 1.0) / (p - 1.0))):
        return W2_WELL
    return None


def _reciprocal_fit(t: np.ndarray, grad: np.ndarray) -> Optional[float]:
    """Root of the least-squares line through (t, 1/grad); None if not decreasing."""
    if len(t) < 2:
        return None
    y = 1.0 / grad
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        return None
    return float(-intercept / slope)


def detect(ledger: EnergyLedger, flags: dict) -> BlowupVerdict:
    """Decide from a finished run whether it blew up, and estimate when.

    The gradient must exceed GRAD_EXPLOSION_FACTOR * grad(0) + 1 and the
    integrator must have exhausted its dt halvings (or hit non-finite
    values).  The time estimate uses rows from the final doubling of the
    gradient norm, where the reciprocal is closest to linear.
    """
    t = ledger.column("t")
    grad = ledger.column("grad_norm")
    grad0 = grad[0]
    threshold = GRAD_EXPLOSION_FACTOR * grad0 + 1.0
    exceeded = bool(grad[-1] > threshold)
    exhausted = bool(flags.get("dt_exhausted") or flags.get("nonfinite"))
    detected = exceeded and exhausted

    t_estimate = None
    if detected:
        final = grad[-1]
        window = grad >= 0.5 * final
        if np.count_nonzero(window) >= 2:
            t_estimate = _reciprocal_fit(t[window], grad[window])
        if t_estimate is None or t_estimate < t[-1]:
            t_estimate = float(t[-1])

    details = {
        "grad_final": float(grad[-1]),
        "threshold": threshold,
        "grad_exceeded": exceeded,
        "dt_exhausted": bool(flags.get("dt_exhausted", False)),
        "nonfinite": bool(flags.get("nonfinite", False)),
        "t_last": float(t[-1]),
    }
    return BlowupVerdict(hypothesis=None, detected=detected,
                         t_estimate=t_estimate, details=details)


def verdict(ledger: EnergyLedger, flags: dict, m: float, p: float, k0: float,
            y0: float, M: Optional[float], gamma: Optional[float] = None,
            is_w2: bool = False) -> BlowupVerdict:
    """Hypothesis check plus runtime detection, combined in one report."""
    E0 = ledger.rows[0]["E"]
    sE0 = ledger.rows[0]["scriptE"]
    grad0 = ledger.rows[0]["grad_norm"]
    hyp = check_hypotheses(E0, sE0, m, p, k0, y0, M, grad0=grad0,
                           gamma=gamma, is_w2=is_w2)
    det = detect(ledger, flags)
    details = dict(det.details)
    details.update({"E0": E0, "scriptE0": sE0, "y0": y0, "M": M})
    return BlowupVerdict(hypothesis=hyp, detected=det.detected,
                         t_estimate=det.t_estimate, details=details)
