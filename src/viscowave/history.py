"""History data on t <= 0, the fading memory, and well classification.

The memory realizes ``w(t, s) = u(t) - u(t - s)`` on a uniform s-grid with
spacing ``ds`` (a fixed multiple of the time step), with an exact closed-form
tail beyond the covered depth, and keeps the past as a few exponential modes
of the kernel rather than as stored fields.  Two extension modes are
supported for the history beyond its tabulated support:

* ``zero``   -- u0(t) = 0 for t <= -T0 (compactly supported history); the
                tail of every memory integral is then exact.
* ``frozen`` -- u0(t) = u0(-T0) for t <= -T0; tails use the frozen field.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import SpatialGrid, GridError
from .kernel import RelaxationKernel

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

    def fields_at(self, ts: np.ndarray) -> tuple:
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
        if self.tabulated:
            ts = self._table_times
            if len(ts) < 2:
                return self.grid.zeros()
            dt = float(ts[-1] - ts[-2])
            return (self.value_at(0.0) - self.value_at(float(ts[-2]))) / dt
        return self.shape_field * float(self.profile_dt(0.0))

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
    lp_pow = datum.grid.lp_norm_pow(datum.value_at(0.0), p + 1.0)
    gap = quad - lp_pow
    if abs(gap) <= ON_MANIFOLD_RTOL * quad:
        return Classification.ON_MANIFOLD
    if 0.5 * quad - lp_pow / (p + 1.0) >= d:  # functional_I
        return Classification.OUTSIDE_WELL
    return Classification.W1 if gap > 0 else Classification.W2


# ---------------------------------------------------------------------------
# live memory state


_WEIGHT_INDEX = {"mu": 0, "mu_prime": 1}


class MemoryEval(NamedTuple):
    """The memory at one lag, index 0 for mu and 1 for mu' throughout."""

    grid: SpatialGrid
    conv: np.ndarray      # (2, *grid.shape): integral weight(s) u(t - s) ds
    scalar: np.ndarray    # (2,): integral weight(s) ||grad u(t - s)||^2 ds
    total: np.ndarray     # (2,): integral weight(s) ds, the quadrature's Q

    def integral(self, k: int, h1: float, lap_u: np.ndarray) -> float:
        """integral weight_k(s) ||grad w(t, s)||^2 ds from h1 = ||grad u||^2
        and lap u: the square expanded through bilinearity, so it agrees
        with the row-by-row trapezoid to round-off, and
        <grad u, grad conv> = -inner(lap u, conv) by summation by parts."""
        return (self.total[k] * h1 + 2.0 * self.grid.inner(lap_u, self.conv[k])
                + self.scalar[k])


class MemoryState:
    """The past of u as K exponential modes plus the extension field.

    Each past field is the extension field (zero, or u0(-T0)) plus a
    deviation D, which is zero beyond the history's support.  Logical row j,
    the past field u(t_push - j*ds), sits on the node s = delta + j*ds at lag
    delta = t - t_push after the latest push.  With the kernel's modes
    w(s) = sum_k b_k exp(-lam_k s) (b = a for mu, -a*lam for mu'), the
    trapezoid sum of w over the rows' deviations is
    sum_k b_k exp(-lam_k delta) (P_k + delta/2 D_0), where
    P_k = sum_j c_j exp(-lam_k j ds) D_j with c_0 = ds/2 and c_j = ds beyond;
    a push updates P in O(K N).  The extension field takes the whole
    quadrature weight Q(delta): the trapezoid over the ``s_depth`` nodes, the
    current field's node and the exact tail.

    The state is one matrix ``M`` (K+3, N+1), which neither ``s_depth`` nor
    the run's length grows: the K modes P, D_0, the extension field and a
    workspace row for the current field, each with its ||grad||^2 as the last
    column, which the scalar convolution sums the same way.  Each lag keeps
    one entry (G, Q), G the (2, K+3) matrix [b_k exp(-lam_k delta) |
    delta/2 sum_k | Q - now | now] for mu and mu', now = delta/2 w(0) the
    current node's weight.  ``evaluate`` takes the one product G @ M of a
    step; ``convolution_field``, ``scalar_convolution`` and
    ``memory_integral`` are views of it.
    """

    def __init__(self, datum: HistoryDatum, kernel: RelaxationKernel,
                 ds: float, s_depth: float):
        self.grid = datum.grid
        self.kernel = kernel
        self.ds = float(ds)
        self.depth = int(np.ceil(s_depth / ds - 1e-12))
        if self.depth < 1:
            raise ValueError("memory depth must cover at least one stride")
        self.lam, a = kernel.modes(kernel.memory_horizon)
        self.weights = np.stack([a, -a * self.lam])
        self.w0 = np.array([kernel.mu(0.0), kernel.mu_prime(0.0)])
        self.decay = np.exp(-self.lam * self.ds)[:, None]
        ext = datum.frozen_field()
        ext = np.append(ext.ravel(), self.grid.h1_seminorm_sq(ext))
        # the support's rows, j*ds <= min(T0, s_depth); the rows beyond it
        # are the extension field
        lags = self.ds * np.arange(
            int(min(datum.support_T0, s_depth) / self.ds + 1e-12) + 1)
        dev = np.column_stack(datum.fields_at(-lags)) - ext
        coef = self.ds * np.exp(-np.outer(self.lam, lags))
        coef[:, 0] *= 0.5
        self.M = np.vstack([coef @ dev, dev[0], ext, np.zeros_like(ext)])
        self.t_push = 0.0
        self._lags = {}

    def push(self, u: np.ndarray, t: float):
        """Record u(t); t must advance by exactly one stride."""
        P, D0 = self.M[:-3], self.M[-3]
        # the old row 0 moves to node ds, where its weight doubles
        P += 0.5 * self.ds * D0
        P *= self.decay
        D0[:-1] = self.grid.check(u).ravel()
        D0[-1] = self.grid.h1_seminorm_sq(u)
        D0 -= self.M[-2]
        P += 0.5 * self.ds * D0
        self.t_push = t

    def _lag(self, delta: float) -> tuple:
        """(G, Q) at lag delta, row 0 for mu and 1 for mu': the coefficients
        that take M to the convolutions, and the weight's whole quadrature."""
        entry = self._lags.get(delta)
        if entry is None:
            kern = self.kernel
            now = 0.5 * delta * self.w0
            s = delta + self.ds * np.arange(self.depth + 1)
            coef = np.full(self.depth + 1, self.ds)
            coef[0] = 0.5 * (delta + self.ds)
            coef[-1] = 0.5 * self.ds
            rows = coef * np.stack([kern.mu(s), kern.mu_prime(s)])
            tail = np.array([kern.tail_mass(s[-1]), kern.mu_prime_tail(s[-1])])
            total = rows.sum(axis=1) + now + tail
            f = self.weights * np.exp(-self.lam * delta)
            # row 0's first cell widens by delta
            G = np.column_stack([f, 0.5 * delta * f.sum(axis=1), total - now,
                                 now])
            entry = self._lags[delta] = (G, total)
        return entry

    def evaluate(self, u_now: np.ndarray, h1_now: float,
                 delta: float = 0.0) -> MemoryEval:
        """Both weights' convolutions at lag delta, u_now = u(t) on the grid
        and h1_now = ||grad u(t)||^2 taking the current node."""
        G, total = self._lag(delta)
        self.M[-1, :-1] = u_now.ravel()
        self.M[-1, -1] = h1_now
        out = G @ self.M
        return MemoryEval(self.grid, out[:, :-1].reshape(2, *self.grid.shape),
                          out[:, -1], total)

    # -- views --------------------------------------------------------------

    def convolution_field(self, u_now: np.ndarray, delta: float = 0.0,
                          weight: str = "mu") -> np.ndarray:
        """integral weight(s) * u(t - s) ds, including tail extension."""
        u_now = self.grid.check(u_now)
        return self.evaluate(u_now, 0.0, delta).conv[_WEIGHT_INDEX[weight]]

    def scalar_convolution(self, weight: str, delta: float,
                           h1_now: float) -> float:
        """integral weight(s) * ||grad u(t-s)||^2 ds, including the tail."""
        ev = self.evaluate(self.grid.zeros(), h1_now, delta)
        return float(ev.scalar[_WEIGHT_INDEX[weight]])

    def memory_integral(self, u_now: np.ndarray, weight: str = "mu",
                        delta: float = 0.0) -> float:
        """integral weight(s) * ||grad w(t, s)||^2 ds with exact tail."""
        u_now = self.grid.check(u_now)
        h1 = self.grid.h1_seminorm_sq(u_now)
        return float(self.evaluate(u_now, h1, delta).integral(
            _WEIGHT_INDEX[weight], h1, self.grid.laplacian(u_now)))
