"""History data on t <= 0, the evolving memory buffer, and well classification.

The memory buffer realizes ``w(t, s) = u(t) - u(t - s)`` on a uniform s-grid
with spacing ``ds`` (a fixed multiple of the time step), with an exact
closed-form tail beyond the covered depth.  Two extension modes are supported
for the history beyond its tabulated support:

* ``zero``   -- u0(t) = 0 for t <= -T0 (compactly supported history); the
                tail of every memory integral is then exact.
* ``frozen`` -- u0(t) = u0(-T0) for t <= -T0; tails use the frozen field.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import SpatialGrid, GridError
from .kernel import EXPONENTIAL, RelaxationKernel

ZERO = "zero"
FROZEN = "frozen"

# |gap| below this fraction of the quadratic part counts as on-manifold;
# an exact zero is measure-zero in floating point.
ON_MANIFOLD_RTOL = 1e-8


class Classification(enum.Enum):
    W1 = "W1"
    W2 = "W2"
    ON_MANIFOLD = "OnM"
    OUTSIDE_WELL = "OutsideWell"


# ---------------------------------------------------------------------------
# temporal profiles for analytic history templates


def make_profile(name: str, T0: float, ramp_rate: float = 1.0):
    """Temporal profile g(t) on t <= 0 with g(0) = 1, and its derivative.

    ``constant``: g = 1 on the support; ``ramp``: g = exp(ramp_rate * t);
    ``bump``: smooth-ish compact bump sin^2(pi (t+T0) / (2 T0)) vanishing at
    -T0.  Returns (g, g').
    """
    if name == "constant":
        return (lambda t: np.ones_like(np.asarray(t, dtype=float)),
                lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    if name == "ramp":
        b = float(ramp_rate)
        return (lambda t: np.exp(b * np.asarray(t, dtype=float)),
                lambda t: b * np.exp(b * np.asarray(t, dtype=float)))
    if name == "bump":
        if T0 <= 0:
            raise ValueError("bump profile needs support_T0 > 0")
        w = np.pi / (2.0 * T0)

        def g(t):
            t = np.asarray(t, dtype=float)
            return np.sin(w * (t + T0)) ** 2

        def gp(t):
            t = np.asarray(t, dtype=float)
            return 2.0 * w * np.sin(w * (t + T0)) * np.cos(w * (t + T0))

        return g, gp
    raise ValueError(f"unknown temporal profile {name!r}")


# ---------------------------------------------------------------------------
# history datum


@dataclass
class HistoryDatum:
    """History value u0(x, t) for t <= 0, with an extension mode beyond -T0."""

    grid: SpatialGrid
    shape_field: np.ndarray                 # spatial profile, amplitude included
    # temporal factor g(t), g(0) = 1, and g'(t); both take arrays of times.
    # None for a table, which interpolates between its rows instead
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    profile_dt: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_T0: float = 0.0
    mode: str = ZERO
    _velocity: Optional[np.ndarray] = None

    def __post_init__(self):
        self.shape_field = self.grid.check(self.shape_field)
        if self.mode not in (ZERO, FROZEN):
            raise ValueError(f"unknown history extension mode {self.mode!r}")
        if self.support_T0 < 0:
            raise ValueError("support_T0 must be nonnegative")

    @classmethod
    def from_template(cls, grid: SpatialGrid, amplitude: float,
                      modes=(1,), profile: str = "constant",
                      support_T0: float = 0.0, mode: str = ZERO,
                      ramp_rate: float = 1.0) -> "HistoryDatum":
        """Product-of-sine-modes spatial shape times a temporal profile."""
        modes = tuple(int(k) for k in np.atleast_1d(modes))
        if len(modes) != grid.dim:
            raise GridError("one mode number per grid axis required")
        coords = grid.coords() if grid.dim > 1 else (grid.coords(),)
        shape = np.ones(grid.shape)
        for x, k, L in zip(coords, modes, grid.extents):
            shape = shape * np.sin(k * np.pi * x / L)
        g, gp = make_profile(profile, support_T0, ramp_rate)
        return cls(grid=grid, shape_field=amplitude * shape, profile=g,
                   profile_dt=gp, support_T0=support_T0, mode=mode)

    @classmethod
    def from_table(cls, grid: SpatialGrid, times: np.ndarray,
                   samples: np.ndarray, mode: str = ZERO) -> "HistoryDatum":
        """Tabulated history: times <= 0 descending to -T0, one field per row.

        Linear interpolation in t between rows.
        """
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if times.ndim != 1 or np.any(times > 0) or times[0] != 0.0:
            raise ValueError("table times must start at 0 and be nonpositive")
        order = np.argsort(times)
        times, samples = times[order], samples[order]

        datum = cls(grid=grid, shape_field=samples[-1],
                    support_T0=-float(times[0]), mode=mode)
        # ascending in t, ending at t = 0
        datum._table_times = times
        datum._table_flat = samples.reshape(len(times), -1)
        return datum

    @property
    def tabulated(self) -> bool:
        return hasattr(self, "_table_times")

    def _extended(self, t):
        """t clamped into the support, and whether u0 keeps its value there:
        beyond -T0 the zero mode gives 0 and the frozen mode u0(-T0)."""
        t = np.asarray(t, dtype=float)
        return (np.maximum(t, -self.support_T0),
                (t >= -self.support_T0) | (self.mode == FROZEN))

    def value_at(self, t: float) -> np.ndarray:
        """u0(., t) for t <= 0, honoring the extension mode."""
        if t > 0:
            raise ValueError("history is defined for t <= 0 only")
        t, kept = self._extended(t)
        if not kept:
            return self.grid.zeros()
        t = float(t)
        if self.tabulated:
            ts, rows = self._table_times, self._table_flat
            j = int(np.searchsorted(ts, t, side="right")) - 1
            if j == len(ts) - 1:
                return rows[j].reshape(self.grid.shape).copy()
            # np.interp's arithmetic, on the two bracketing rows at once
            slope = (rows[j + 1] - rows[j]) / (ts[j + 1] - ts[j])
            return (slope * (t - ts[j]) + rows[j]).reshape(self.grid.shape)
        return self.shape_field * float(self.profile(t))

    def ring_fields(self, ts: np.ndarray) -> tuple:
        """u0 at the times ts <= 0 as (len(ts), N) rows, and ||grad||^2 of
        each row; a table fills one array in place, holding its rows once."""
        ts = np.asarray(ts, dtype=float)
        if self.tabulated:
            fields = np.empty((len(ts),) + self.grid.shape)
            for f, t in zip(fields, ts):
                f[...] = self.value_at(float(t))
            return (fields.reshape(len(ts), -1),
                    np.array([self.grid.h1_seminorm_sq(f) for f in fields]))
        clamped, kept = self._extended(ts)
        g = np.where(kept, self.profile(clamped), 0.0)
        return (np.outer(g, self.shape_field),
                g * g * self.grid.h1_seminorm_sq(self.shape_field))

    @property
    def velocity_at_0(self) -> np.ndarray:
        if self._velocity is not None:
            return self._velocity
        if self.tabulated:
            ts = self._table_times
            if len(ts) < 2:
                return self.grid.zeros()
            dt = float(ts[-1] - ts[-2])
            return (self.value_at(0.0) - self.value_at(float(ts[-2]))) / dt
        return self.shape_field * float(self.profile_dt(0.0))

    @velocity_at_0.setter
    def velocity_at_0(self, v: np.ndarray):
        self._velocity = self.grid.check(v)

    def frozen_field(self) -> np.ndarray:
        """Extension field beyond the support: zero or u0(-T0)."""
        if self.mode == ZERO:
            return self.grid.zeros()
        return self.value_at(-self.support_T0)


# ---------------------------------------------------------------------------
# datum-level functionals


def _datum_memory_quadratic(datum: HistoryDatum, kernel: RelaxationKernel,
                            ds: float) -> float:
    """integral_0^inf ||grad(v(0) - v(-s))||^2 mu(s) ds for a history datum.

    Trapezoid over the tabulated support plus the exact closed-form tail for
    the extension mode.
    """
    grid = datum.grid
    v0 = datum.value_at(0.0)
    T0 = datum.support_T0
    total = 0.0
    s_edge = 0.0
    if T0 > 0:
        n = max(2, int(np.ceil(T0 / ds)) + 1)
        s = np.linspace(0.0, T0, n)
        vals = np.array([grid.h1_seminorm_sq(v0 - datum.value_at(-si))
                         for si in s])
        total += float(np.trapezoid(vals * kernel.mu(s), s))
        s_edge = T0
    tail_field = v0 - datum.frozen_field()
    total += grid.h1_seminorm_sq(tail_field) * kernel.tail_mass(s_edge)
    return total


def quadratic_part(datum: HistoryDatum, kernel: RelaxationKernel,
                   ds: float = 1e-2) -> float:
    """||grad v(0)||^2 + integral ||grad(v(0)-v(-s))||^2 mu ds."""
    v0 = datum.value_at(0.0)
    return (datum.grid.h1_seminorm_sq(v0)
            + _datum_memory_quadratic(datum, kernel, ds))


def functional_I(datum: HistoryDatum, p: float, kernel: RelaxationKernel,
                 ds: float = 1e-2) -> float:
    """Potential functional: half the quadratic part minus the source term."""
    v0 = datum.value_at(0.0)
    return (0.5 * quadratic_part(datum, kernel, ds)
            - datum.grid.lp_norm_pow(v0, p + 1.0) / (p + 1.0))


def nehari_gap(datum: HistoryDatum, p: float, kernel: RelaxationKernel,
               ds: float = 1e-2) -> float:
    """Quadratic part minus ||v(0)||_{p+1}^{p+1}; sign splits W1 from W2."""
    v0 = datum.value_at(0.0)
    return (quadratic_part(datum, kernel, ds)
            - datum.grid.lp_norm_pow(v0, p + 1.0))


def classify(datum: HistoryDatum, d: float, p: float,
             kernel: RelaxationKernel, ds: float = 1e-2) -> Classification:
    """Classify a history datum against the potential well at level d.

    The zero datum is W1 by convention.  On-manifold is declared when the gap
    is below ON_MANIFOLD_RTOL relative to the quadratic part (checked before
    the well-level test so that near-manifold data at the mountain-pass level
    are reported as on-manifold rather than outside the well).
    """
    quad = quadratic_part(datum, kernel, ds)
    if quad == 0.0:
        return Classification.W1
    gap = quad - datum.grid.lp_norm_pow(datum.value_at(0.0), p + 1.0)
    if abs(gap) <= ON_MANIFOLD_RTOL * quad:
        return Classification.ON_MANIFOLD
    if functional_I(datum, p, kernel, ds) >= d:
        return Classification.OUTSIDE_WELL
    return Classification.W1 if gap > 0 else Classification.W2


# ---------------------------------------------------------------------------
# live memory state


_WEIGHT_INDEX = {"mu": 0, "mu_prime": 1}


class MemoryState:
    """Circular ring of past fields plus exact closed-form tails.

    Logical row j holds u(t_push - j*ds), where t_push is the latest push
    time.  It is stored at ``rows[(head + j) % (depth + 1)]``: a push moves
    ``head`` back one row and overwrites the oldest field there.  Between
    pushes the current field enters as an extra node on the nonuniform first
    interval [0, delta], delta = t - t_push.  The buffer has fixed depth: it
    is prefilled from the history datum at construction, so s-coverage never
    needs to grow and no interpolation is ever required.  Quadratures are
    cached per lag delta (``stride`` lags per push, doubled by each dt
    halving) and emptied at ``max_cached_lags`` lags, so that the cached
    weights, 2 (depth + 1) floats a lag, never outgrow the ring; a finished
    run drops them (``drop_caches``).
    """

    def __init__(self, datum: HistoryDatum, kernel: RelaxationKernel,
                 ds: float, s_depth: float):
        self.grid = datum.grid
        self.kernel = kernel
        self.ds = float(ds)
        self.depth = int(np.ceil(s_depth / ds - 1e-12))
        if self.depth < 1:
            raise ValueError("memory depth must cover at least one stride")
        self.ext_field = datum.frozen_field().ravel()
        self.ext_h1 = self.grid.h1_seminorm_sq(datum.frozen_field())
        self.rows, self.row_h1 = datum.ring_fields(
            -self.ds * np.arange(self.depth + 1))
        self.max_cached_lags = max(1, self.grid.size // 2)
        self.head = 0
        self.t_push = 0.0
        self._quadratures = {}
        self._push_sum = None   # exponential family: mu row sum at delta = 0
        self._row_sums = None   # (delta, row sums) of the latest lag

    @property
    def s_max_at_push(self) -> float:
        return self.depth * self.ds

    def push(self, u: np.ndarray, t: float):
        """Record u(t); t must advance by exactly one stride."""
        u = self.grid.check(u)
        self.head = (self.head - 1) % (self.depth + 1)
        self.rows[self.head] = u.ravel()
        self.row_h1[self.head] = self.grid.h1_seminorm_sq(u)
        self.t_push = t
        self._push_sum = self._row_sums = None

    def drop_caches(self):
        """Forget the per-lag quadratures and row sums; they refill lazily."""
        self._quadratures.clear()
        self._push_sum = self._row_sums = None

    # -- quadrature weights -------------------------------------------------

    def _quadrature(self, delta: float) -> tuple:
        """(rows, now, tail, total) at lag delta, index 0 for mu and 1 for mu':
        (2, depth + 1) trapezoid row weights in logical order, then the weight
        of the current field, the exact tail and the weight's quadrature."""
        quad = self._quadratures.get(delta)
        if quad is not None:
            return quad
        if len(self._quadratures) >= self.max_cached_lags:
            self._quadratures.clear()
        kern = self.kernel
        s = delta + self.ds * np.arange(self.depth + 1)
        coef = np.full(self.depth + 1, self.ds)
        coef[0] = 0.5 * (delta + self.ds)
        coef[-1] = 0.5 * self.ds
        s_max = delta + self.s_max_at_push
        rows = coef * np.stack([kern.mu(s), kern.mu_prime(s)])
        now = 0.5 * delta * np.array([kern.mu(0.0), kern.mu_prime(0.0)])
        tail = np.array([kern.tail_mass(s_max), kern.mu_prime_tail(s_max)])
        quad = self._quadratures[delta] = (rows, now, tail,
                                           rows.sum(axis=1) + now + tail)
        return quad

    def _ordered(self, weights: np.ndarray) -> np.ndarray:
        """Logical-order row weights rearranged into the ring's storage order."""
        return np.roll(weights, self.head, axis=-1)

    def _sums(self, delta: float) -> np.ndarray:
        """(2, n) mu and mu' weighted row sums at lag delta, kept until the
        next push or lag.  Exponential family: the push-time mu sum scaled by
        exp(-c*delta), so one pass over the ring per push serves every lag and
        both weights; polynomial: one stacked product per lag."""
        if self._row_sums is not None and self._row_sums[0] == delta:
            return self._row_sums[1]
        kern = self.kernel
        if kern.family == EXPONENTIAL:
            if self._push_sum is None:
                mu_rows = self._quadrature(0.0)[0][0]
                self._push_sum = self._ordered(mu_rows) @ self.rows
            # at lag delta the first cell widens by delta; its extra weight
            # 0.5 * delta * mu(0) is the weight of the current field
            now_mu = self._quadrature(delta)[1][0]
            scale = float(np.exp(-kern.c * delta))
            mu_sum = scale * (self._push_sum + now_mu * self.rows[self.head])
            sums = np.stack([mu_sum, -kern.c * mu_sum])
        else:
            sums = self._ordered(self._quadrature(delta)[0]) @ self.rows
        self._row_sums = (delta, sums)
        return sums

    # -- convolutions -------------------------------------------------------

    def convolution_field(self, u_now: np.ndarray, delta: float = 0.0,
                          weight: str = "mu") -> np.ndarray:
        """integral weight(s) * u(t - s) ds, including tail extension."""
        u_now = self.grid.check(u_now)
        k = _WEIGHT_INDEX[weight]
        _, now, tail, _ = self._quadrature(delta)
        out = self._sums(delta)[k] + now[k] * u_now.ravel()
        out = out + tail[k] * self.ext_field
        return out.reshape(self.grid.shape)

    def scalar_convolution(self, weight: str, delta: float,
                           h1_now: float) -> float:
        """integral weight(s) * ||grad u(t-s)||^2 ds via the h1 ring."""
        k = _WEIGHT_INDEX[weight]
        rows, now, tail, _ = self._quadrature(delta)
        return (float(self._ordered(rows[k]) @ self.row_h1)
                + now[k] * h1_now + tail[k] * self.ext_h1)

    def memory_integral(self, u_now: np.ndarray, weight: str = "mu",
                        delta: float = 0.0, conv: np.ndarray | None = None,
                        h1: float | None = None,
                        lap_u: np.ndarray | None = None) -> float:
        """integral weight(s) * ||grad w(t, s)||^2 ds with exact tail.

        Expands the square through bilinearity; agrees with the direct
        row-by-row trapezoid (memory_integral_direct) to round-off.  Pieces
        the caller holds (conv, h1 = ||grad u||^2, lap_u) are reused.
        """
        u_now = self.grid.check(u_now)
        if h1 is None:
            h1 = self.grid.h1_seminorm_sq(u_now)
        if lap_u is None:
            lap_u = self.grid.laplacian(u_now)
        if conv is None:
            conv = self.convolution_field(u_now, delta, weight)
        Q = float(self._quadrature(delta)[3][_WEIGHT_INDEX[weight]])
        # <grad u, grad conv>, by summation by parts
        cross = -self.grid.inner(lap_u, conv)
        q = self.scalar_convolution(weight, delta, h1)
        return Q * h1 - 2.0 * cross + q

    def memory_integral_direct(self, u_now: np.ndarray, weight: str = "mu",
                               delta: float = 0.0) -> float:
        """Reference row-by-row evaluation of memory_integral (O(J*n))."""
        u_now = self.grid.check(u_now)
        k = _WEIGHT_INDEX[weight]
        rows, _, tail, _ = self._quadrature(delta)
        flat = u_now.ravel()
        diffs = flat[None, :] - self.rows
        vals = np.array([self.grid.h1_seminorm_sq(d.reshape(self.grid.shape))
                         for d in diffs])
        # w(t, 0) = 0, so the current node adds nothing
        total = float(self._ordered(rows[k]) @ vals)
        tail_f = (flat - self.ext_field).reshape(self.grid.shape)
        total += tail[k] * self.grid.h1_seminorm_sq(tail_f)
        return total
