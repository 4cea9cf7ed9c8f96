"""Relaxation kernels mu(s) = -k'(s) for the fading-memory convolution.

Two closed-form families are supported:

* exponential: ``mu(s) = mu0 * exp(-c*s)``
* polynomial:  ``mu(s) = c * (1+s)**(-1/(r-1))`` with ``r in (1, 2)``

Only these families are built in, so tail integrals are exact.  Each kernel
carries ``k0 = k(0) = 1 + integral of mu``, the effective instantaneous
stiffness of the wave operator, and is a sum of decaying exponentials
(``modes``), which lets a memory keep its past as a few fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"

# relative accuracy of the polynomial kernel's exponential modes
MODES_RTOL = 1e-13
# Chebyshev nodes of a horizon's mode fit, and the residual per node at
# which it stops picking modes
FIT_NODES = 60
FIT_RESIDUAL = 1e-15

# modes per (mu0, r, horizon), computed once a process
_MODES_CACHE: dict = {}


class KernelError(ValueError):
    """Raised for ill-formed kernel parameters or out-of-domain arguments."""


@dataclass(frozen=True)
class RelaxationKernel:
    """Immutable relaxation kernel; safe for concurrent reads."""

    family: str
    mu0: float = 0.0   # exponential: mu(0); polynomial: leading coefficient c
    c: float = 0.0     # exponential decay rate (unused for polynomial)
    r: float = 0.0     # polynomial rate in (1, 2) (unused for exponential)

    def __post_init__(self):
        if self.family == EXPONENTIAL:
            if self.mu0 <= 0 or self.c <= 0:
                raise KernelError(
                    f"exponential kernel needs mu0 > 0 and c > 0, got "
                    f"mu0={self.mu0}, c={self.c}"
                )
        elif self.family == POLYNOMIAL:
            if self.mu0 <= 0:
                raise KernelError(f"polynomial kernel needs c > 0, got {self.mu0}")
            if not (1.0 < self.r < 2.0):
                raise KernelError(
                    f"polynomial rate r must lie in (1, 2), got r={self.r}"
                )
        else:
            raise KernelError(f"unknown kernel family {self.family!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def exponential(cls, mu0: float, c: float) -> "RelaxationKernel":
        return cls(family=EXPONENTIAL, mu0=float(mu0), c=float(c))

    @classmethod
    def polynomial(cls, c: float, r: float) -> "RelaxationKernel":
        return cls(family=POLYNOMIAL, mu0=float(c), r=float(r))

    # -- pointwise values ---------------------------------------------------

    def mu(self, s):
        """mu(s) > 0 for s >= 0."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise KernelError("mu is defined for s >= 0 only")
        if self.family == EXPONENTIAL:
            out = self.mu0 * np.exp(-self.c * s)
        else:
            q = 1.0 / (self.r - 1.0)
            out = self.mu0 * (1.0 + s) ** (-q)
        return float(out) if out.ndim == 0 else out

    def mu_prime(self, s):
        """Analytic derivative mu'(s) <= 0."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise KernelError("mu' is defined for s >= 0 only")
        if self.family == EXPONENTIAL:
            out = -self.c * self.mu0 * np.exp(-self.c * s)
        else:
            q = 1.0 / (self.r - 1.0)
            out = -self.mu0 * q * (1.0 + s) ** (-q - 1.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, s_max):
        """Exact integral of mu over [s_max, infinity)."""
        s_max = np.asarray(s_max, dtype=float)
        if np.any(s_max < 0):
            raise KernelError("tail_mass is defined for s_max >= 0 only")
        if self.family == EXPONENTIAL:
            out = (self.mu0 / self.c) * np.exp(-self.c * s_max)
        else:
            a = (2.0 - self.r) / (self.r - 1.0)
            out = self.mu0 * (self.r - 1.0) / (2.0 - self.r) * (1.0 + s_max) ** (-a)
        return float(out) if out.ndim == 0 else out

    def mu_prime_tail(self, s_max):
        """Exact integral of mu' over [s_max, infinity) = -mu(s_max)."""
        return -self.mu(s_max)

    def modes(self, horizon: float) -> tuple:
        """(lam, a) with mu(s) = sum_k a_k exp(-lam_k s) for 0 <= s <= horizon;
        mu'(s) is the same sum with weights -a_k lam_k.  The arrays are
        cached per (kernel, horizon) and read-only.

        Exponential: the kernel itself, one exact mode.  Polynomial: the
        trapezoid rule in x = ln(lam) on the Laplace form
        (1+s)^-q = Gamma(q)^-1 int lam^(q-1) exp(-lam (1+s)) dlam
        (Beylkin & Monzon 2010), relative error near MODES_RTOL for mu and
        mu'.  Below ``memory_horizon``, fewer modes fitted to the horizon
        (``_fitted``) where they hold to MODES_RTOL; they hold on
        [0, horizon] only.
        """
        if self.family == EXPONENTIAL:
            return np.array([self.c]), np.array([self.mu0])
        key = (self.mu0, self.r, float(horizon))
        if key not in _MODES_CACHE:
            lam, a = self._trapezoid(horizon, MODES_RTOL)
            fit = (self._fitted(horizon) if horizon < self.memory_horizon
                   else None)
            if fit is not None and fit[0].size < lam.size:
                lam, a = fit
            lam.flags.writeable = a.flags.writeable = False
            _MODES_CACHE[key] = lam, a
        return _MODES_CACHE[key]

    def _trapezoid(self, horizon: float, rtol: float) -> tuple:
        """The trapezoid modes of relative error near rtol.  The x-range
        leaves out at most rtol * mu(horizon) at small lam and, by the
        sub-gamma tail bound of Gamma(q+1), an rtol share of mu' at large
        lam."""
        q = 1.0 / (self.r - 1.0)
        t = -math.log(rtol)
        h = math.pi ** 2 / (t + 9.0) / max(1.0, math.sqrt(q / 2.0))
        x_lo = (math.lgamma(q + 1.0) - t) / q - math.log1p(horizon)
        x_hi = math.log(q + 1.0 + math.sqrt(2.0 * (q + 1.0) * t) + t)
        x = x_lo + h * np.arange(math.ceil((x_hi - x_lo) / h) + 1)
        lam = np.exp(x)
        # weights in log space: Gamma(q) overflows for r close to 1
        return lam, self.mu0 * h * np.exp(q * x - lam - math.lgamma(q))

    def _fitted(self, horizon: float):
        """Modes for [0, horizon] picked from the trapezoid of MODES_RTOL/10,
        or None where they miss MODES_RTOL for mu or mu' on a check grid.

        Each candidate is a vector of its terms relative to mu and to mu' on
        FIT_NODES Chebyshev nodes of ln(1+s) (nodes where mu is not a normal
        double left out).  Gram-Schmidt with pivoting picks candidates until
        every residual is below FIT_RESIDUAL a node; the same sweep over the
        target vector of ones gives the picked ones' least-squares weights.
        The check grid holds the nodes, the midpoints between them, 0 and
        400 geometric lags from 1e-6 to the horizon.
        """
        lam, a = self._trapezoid(horizon, 0.1 * MODES_RTOL)
        u = 0.5 * math.log1p(horizon) * (
            1.0 - np.cos(np.linspace(0.0, math.pi, 2 * FIT_NODES - 1)))
        s = np.expm1(u)
        s = s[self.mu(s) > 1e-300]
        fit = s[::2]
        # one row a candidate, one column a node relative to mu, then to mu';
        # the last row is the target
        R = np.empty((lam.size + 1, 2 * fit.size))
        terms = np.exp(-np.outer(lam, fit))
        terms *= a[:, None]
        np.divide(terms, self.mu(fit), out=R[:-1, :fit.size])
        terms *= lam[:, None]
        np.divide(terms, -self.mu_prime(fit), out=R[:-1, fit.size:])
        R[-1] = 1.0
        norms = np.einsum("ij,ij->i", R[:-1], R[:-1])
        stop = FIT_RESIDUAL ** 2 * R.shape[1]
        picked, coef = [], []
        while len(picked) < lam.size:
            j = int(np.argmax(norms))
            if norms[j] <= stop:
                break
            q = R[j] / math.sqrt(norms[j])
            c = R @ q
            R -= np.multiply.outer(c, q)
            picked.append(j)
            coef.append(c)
            norms = np.einsum("ij,ij->i", R[:-1], R[:-1])
            norms[picked] = -1.0
        if not picked:
            return None     # mu is no normal double on any node
        # a sweep leaves its picked row zero to rounding, so coef[:, picked]
        # is upper triangular: back substitution, no LAPACK call
        coef = np.array(coef)
        U, x = coef[:, picked], coef[:, -1]
        for i in range(len(picked) - 1, -1, -1):
            x[i] = (x[i] - U[i, i + 1:] @ x[i + 1:]) / U[i, i]
        order = np.argsort(picked)
        lam = lam[picked][order]
        a = a[picked][order] * x[order]
        check = np.concatenate([[0.0], np.geomspace(1e-6, horizon, 400), s])
        check = check[self.mu(check) > 1e-300]
        terms = np.exp(-np.outer(check, lam))
        err = max(np.abs(terms @ a / self.mu(check) - 1.0).max(),
                  np.abs(terms @ (a * lam) / self.mu_prime(check) + 1.0).max())
        return (lam, a) if err <= MODES_RTOL else None

    @property
    def memory_horizon(self) -> float:
        """Lag where mu falls to MODES_RTOL * mu(0).  Its modes, the
        trapezoid's, err by at most about MODES_RTOL * (mu(s) + MODES_RTOL *
        mu(0)) at every lag, past it too: a memory's lag quadrature takes
        them at any depth, and its rows need no longer horizon."""
        if self.family == EXPONENTIAL:
            return -math.log(MODES_RTOL) / self.c
        return MODES_RTOL ** (1.0 - self.r) - 1.0

    @property
    def k0(self) -> float:
        """k(0) = 1 + total mass of mu."""
        return 1.0 + self.tail_mass(0.0)

    # -- admissibility ------------------------------------------------------

    def decay_constant(self) -> float:
        """Largest C with mu' + C*mu <= 0 (exponential) or mu' + C*mu^r <= 0.

        For the polynomial kernel -mu'/mu^r = q c^(1-r) (1+s)^(q(r-1)-1) with
        q = 1/(r-1), and q(r-1) = 1, so the ratio is the constant q c^(1-r).
        """
        if self.family == EXPONENTIAL:
            return self.c
        return self.mu0 ** (1.0 - self.r) / (self.r - 1.0)
