"""History data on t <= 0, the fading memory, and well classification.

``MemoryState`` is the one representation of the memory energy: ledger rows
take their memory terms from it, and ``classify`` reads row 0's terms.

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
import math
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


def classify(terms, d: float) -> Classification:
    """Classify a datum against the potential well at level d from the
    ``nehari_gap``, ``lp_pow`` and ``I`` of its run's ledger row 0 (or of
    ``integrator.initial_terms``, which equal them without the run).

    The zero datum (gap and lp_pow 0) is W1 by convention.  On-manifold
    (|gap| within ON_MANIFOLD_RTOL of the quadratic part gap + lp_pow) is
    checked before the well level, so near-manifold data at the
    mountain-pass level are not reported outside the well.
    """
    gap, lp_pow = terms["nehari_gap"], terms["lp_pow"]
    if gap == 0.0 and lp_pow == 0.0:
        return Classification.W1
    if abs(gap) <= ON_MANIFOLD_RTOL * (gap + lp_pow):
        return Classification.ON_MANIFOLD
    if terms["I"] >= d:
        return Classification.OUTSIDE_WELL
    return Classification.W1 if gap > 0 else Classification.W2


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
# live memory state


_WEIGHT_INDEX = {"mu": 0, "mu_prime": 1}


class MemoryEval(NamedTuple):
    """The memory at one lag, index 0 for mu and 1 for mu' throughout."""

    grid: SpatialGrid
    conv: np.ndarray      # (2, *grid.shape): lap integral weight(s) u(t-s) ds
    scalar: np.ndarray    # (2,): integral weight(s) ||grad u(t - s)||^2 ds
    total: np.ndarray     # (2,): integral weight(s) ds, the quadrature's Q

    def integral(self, k: int, h1: float, u: np.ndarray) -> float:
        """integral weight_k(s) ||grad w(t, s)||^2 ds from h1 = ||grad u||^2
        and u: the square expanded through bilinearity, so it agrees with
        the row-by-row trapezoid to round-off, and <grad u, grad conv> =
        -inner(u, lap conv) by summation by parts, one dot product."""
        inner = float(np.vdot(u, self.conv[k])) * self.grid.cell_volume
        return self.total[k] * h1 + 2.0 * inner + self.scalar[k]


class MemoryState:
    """The past of u as K exponential modes plus the extension field.

    Each past field is kept once, as its Laplacian: each row of the state
    ``M`` (K+5, N+1) is [lap field | ||grad field||^2], and the rows are:
    the K modes P_k = sum_j c_j exp(-lam_k j ds) D_j of the deviations D_j
    of the past fields u(t_push - j*ds) from the extension field
    (c_0 = ds/2, c_j = ds beyond), D_0, the extension field, the current
    field u(t) (``lap_field``) and two product rows.  The modes hold on
    lags up to ``horizon``, which a push may not pass
    (``kernel.memory_horizon`` if None or shorter).  ``evaluate`` takes
    G @ M[:-2] into the product rows: lap of the mu and mu' convolutions
    and their scalars.
    """

    def __init__(self, datum: HistoryDatum, kernel: RelaxationKernel,
                 ds: float, s_depth: float, horizon: Optional[float] = None):
        self.grid = grid = datum.grid
        self.kernel = kernel
        self.ds = float(ds)
        self.depth = int(np.ceil(s_depth / ds - 1e-12))
        if self.depth < 1:
            raise ValueError("memory depth must cover at least one stride")
        self.horizon = math.inf if horizon is None else horizon
        self.lam, a = kernel.modes(min(self.horizon, kernel.memory_horizon))
        self.T0 = datum.support_T0
        self.weights = np.stack([a, -a * self.lam])
        self.w0 = np.array([kernel.mu(0.0), kernel.mu_prime(0.0)])
        self.decay = np.exp(-self.lam * self.ds)[:, None]
        ext = datum.frozen_field()
        ext = np.append(grid.laplacian(ext).ravel(), grid.h1_seminorm_sq(ext))
        # the support's rows, j*ds <= min(T0, s_depth); the rows beyond it
        # are the extension field
        lags = self.ds * np.arange(
            int(min(datum.support_T0, s_depth) / self.ds + 1e-12) + 1)
        fields, h1 = datum.fields_at(-lags)
        lap = grid.laplacian(fields.reshape(lags.shape + grid.shape))
        dev = np.column_stack([lap.reshape(lags.size, -1) - ext[:-1],
                               h1 - ext[-1]])
        coef = self.ds * np.exp(-np.outer(self.lam, lags))
        coef[:, 0] *= 0.5
        self.M = np.zeros((self.lam.size + 5, grid.size + 1))
        self.M[:-3] = np.vstack([coef @ dev, dev[0], ext])
        self.t_push = 0.0
        self._lags = {}

    @property
    def lap_field(self) -> np.ndarray:
        """lap u(t), the view of the current row that ``evaluate`` reads."""
        return self.M[-3, :-1].reshape(self.grid.shape)

    def push(self, t: float, h1: float, lap_u: np.ndarray):
        """Record u(t) by h1 = ||grad u(t)||^2 and lap_u = lap u(t); t must
        advance by exactly one stride, and t + T0 stay within the horizon."""
        if t + self.T0 > self.horizon:
            raise ValueError(f"push at t = {t} takes the history's lags past "
                             f"the memory's horizon {self.horizon}")
        P, D0 = self.M[:-5], self.M[-5]
        # the old row 0 moves to node ds, where its weight doubles
        P += 0.5 * self.ds * D0
        P *= self.decay
        D0[:-1] = lap_u.ravel()
        D0[-1] = h1
        D0 -= self.M[-4]
        P += 0.5 * self.ds * D0
        self.t_push = t

    def _lag(self, delta: float) -> tuple:
        """(G, ev, source, product) at lag delta: G takes M's source columns
        to the convolutions in its product rows, and ev views the product
        rows with the weight's whole quadrature Q as its total.

        Row j sits on the node s = delta + j*ds.  With the modes
        w(s) = sum_k b_k exp(-lam_k s) (b = a for mu, -a*lam for mu'), the
        trapezoid of w over the deviations is
        sum_k b_k exp(-lam_k delta) (P_k + delta/2 D_0); the extension field
        takes Q(delta), the trapezoid over the depth's nodes, the current
        node and the exact tail, less the current node's now = delta/2 w(0).
        """
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
            ev = MemoryEval(self.grid, self.M[-2:, :-1].reshape(
                (2,) + self.grid.shape), self.M[-2:, -1], total)
            entry = self._lags[delta] = (G, ev, self.M[:-2], self.M[-2:])
        return entry

    def evaluate(self, h1_now: float, delta: float = 0.0) -> MemoryEval:
        """Both weights' convolutions at lag delta, the current node taking
        ``lap_field`` and h1_now = ||grad u(t)||^2.  The result views the
        product rows, which the next ``evaluate`` overwrites."""
        G, ev, source, product = self._lags.get(delta) or self._lag(delta)
        self.M[-3, -1] = h1_now
        np.matmul(G, source, product)
        return ev

    # -- views, kept while bench/tracing.TARGETS names them ------------------

    def convolution_field(self, u_now: np.ndarray, delta: float = 0.0,
                          weight: str = "mu") -> np.ndarray:
        """integral weight(s) * u(t - s) ds, including the tail extension:
        the Dirichlet inverse of ``evaluate``'s lap of it at u(t) = u_now.
        Kept only until the benchmark's upkeep drops it from
        bench/tracing.TARGETS."""
        self.grid.laplacian(u_now, self.lap_field)
        conv = self.evaluate(0.0, delta).conv[_WEIGHT_INDEX[weight]]
        return self.grid.poisson_solve(-conv)

    def scalar_convolution(self, weight: str, delta: float,
                           h1_now: float) -> float:
        """integral weight(s) * ||grad u(t-s)||^2 ds, including the tail:
        ``evaluate``'s scalar.  Kept only until the benchmark's upkeep drops
        it from bench/tracing.TARGETS."""
        ev = self.evaluate(h1_now, delta)
        return float(ev.scalar[_WEIGHT_INDEX[weight]])

    def memory_integral(self, u_now: np.ndarray, weight: str = "mu",
                        delta: float = 0.0) -> float:
        """integral weight(s) * ||grad w(t, s)||^2 ds with exact tail, by
        ``evaluate`` at u(t) = u_now.  Kept only until the benchmark's
        upkeep drops it from bench/tracing.TARGETS."""
        u_now = self.grid.check(u_now)
        h1 = self.grid.h1_seminorm_sq(u_now)
        self.grid.laplacian(u_now, self.lap_field)
        return float(self.evaluate(h1, delta).integral(
            _WEIGHT_INDEX[weight], h1, u_now))
