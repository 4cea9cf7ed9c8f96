"""Discrete Sobolev best constant and the potential-well thresholds.

gamma is the best constant in ||u||_{p+1} <= gamma ||grad u||_2 over discrete
fields, computed by a deterministic inverse-Laplacian fixed-point iteration
on the ground state.  The thresholds follow in closed form:

    d  = (p-1)/(2(p+1)) * gamma^(-2(p+1)/(p-1))
    y0 = (p+1)/(p-1) * d
    M  = ((sqrt(k0)+1)/2)^(2/(p-1)) * (p - sqrt(k0))/(p-1) * d   (p > sqrt(k0) > 1)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import SpatialGrid


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to settle; carries the last ratio."""

    def __init__(self, message: str, last_ratio: float):
        super().__init__(message)
        self.last_ratio = last_ratio


@dataclass(frozen=True)
class WellConstants:
    gamma: float
    d: float
    y0: float
    M: Optional[float]
    p: float
    k0: float
    grid_fingerprint: str
    M_absent_reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma, "d": self.d, "y0": self.y0, "M": self.M,
            "p": self.p, "k0": self.k0, "grid": self.grid_fingerprint,
            "M_absent_reason": self.M_absent_reason,
        }


def rayleigh_ratio(grid: SpatialGrid, u: np.ndarray, p: float) -> float:
    """||u||_{p+1} / ||grad u||_2; zero-homogeneous in u."""
    num = grid.lp_norm_pow(u, p + 1.0) ** (1.0 / (p + 1.0))
    den = math.sqrt(grid.h1_seminorm_sq(u))
    return num / den


def _ground_state_iteration(grid: SpatialGrid, p: float, rtol: float,
                            max_iter: int) -> tuple[np.ndarray, float]:
    """Fixed point u <- poisson_solve(|u|^(p-1) u), normalized in H1.

    Starts from the first Dirichlet eigenmode; iterates until the Rayleigh
    ratio is stationary to ``rtol`` relative.  Returns (u, ratio).
    """
    u = grid.sine_mode((1,) * grid.dim)
    u = u / math.sqrt(grid.h1_seminorm_sq(u))
    ratio = rayleigh_ratio(grid, u, p)
    for _ in range(max_iter):
        u = grid.poisson_solve(np.abs(u) ** (p - 1.0) * u)
        u = u / math.sqrt(grid.h1_seminorm_sq(u))
        new_ratio = rayleigh_ratio(grid, u, p)
        if abs(new_ratio - ratio) <= rtol * abs(new_ratio):
            return u, new_ratio
        ratio = new_ratio
    raise ConvergenceError(
        f"ground-state iteration did not converge in {max_iter} steps "
        f"(last ratio {ratio})", ratio)


def sobolev_gamma(grid: SpatialGrid, p: float, rtol: float = 1e-10,
                  max_iter: int = 10_000) -> float:
    """The Rayleigh ratio of the ground state; deterministic."""
    if p < 1:
        raise ValueError("sobolev_gamma needs p >= 1")
    return _ground_state_iteration(grid, p, rtol, max_iter)[1]


def ground_state(grid: SpatialGrid, p: float, rtol: float = 1e-10,
                 max_iter: int = 10_000) -> np.ndarray:
    """Converged ground-state profile with ||grad u||_2 = 1."""
    return _ground_state_iteration(grid, p, rtol, max_iter)[0]


def mountain_pass_d(gamma: float, p: float) -> float:
    """d = (p-1)/(2(p+1)) * gamma^(-2(p+1)/(p-1))."""
    if p <= 1:
        raise ValueError("mountain-pass level degenerates at p = 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (p - 1.0) / (2.0 * (p + 1.0)) * gamma ** (-2.0 * (p + 1.0) / (p - 1.0))


def thresholds(d: float, p: float, k0: float) -> tuple[float, Optional[float], Optional[str]]:
    """y0 and (when defined) M; returns (y0, M_or_None, absence_reason)."""
    if d <= 0 or p <= 1:
        raise ValueError("thresholds need d > 0 and p > 1")
    y0 = (p + 1.0) / (p - 1.0) * d
    rk = math.sqrt(k0)
    if not (p > rk > 1.0):
        return y0, None, f"M requires p > sqrt(k0) > 1 (p={p}, sqrt(k0)={rk:.6g})"
    M = ((rk + 1.0) / 2.0) ** (2.0 / (p - 1.0)) * (p - rk) / (p - 1.0) * d
    return y0, M, None


def compute_constants(grid: SpatialGrid, p: float, k0: float) -> WellConstants:
    gamma = sobolev_gamma(grid, p)
    d = mountain_pass_d(gamma, p)
    y0, M, reason = thresholds(d, p, k0)
    fp = f"{grid.dim}d:{'x'.join(f'{L:g}' for L in grid.extents)}:" \
         f"{'x'.join(str(k) for k in grid.n)}"
    return WellConstants(gamma=gamma, d=d, y0=y0, M=M, p=p, k0=k0,
                         grid_fingerprint=fp, M_absent_reason=reason)


_CONSTANTS_CACHE: dict = {}


def cached_constants(grid: SpatialGrid, p: float, k0: float) -> WellConstants:
    key = (grid.extents, grid.n, p, k0)
    if key not in _CONSTANTS_CACHE:
        _CONSTANTS_CACHE[key] = compute_constants(grid, p, k0)
    return _CONSTANTS_CACHE[key]
