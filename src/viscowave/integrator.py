"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A step runs the phases kick (velocity
half-kick), damp and drift (implicit pointwise damping split symmetrically
around the drift: a guess that one scalar bound certifies for the whole
field, else an in-place Newton solve whose first step is clipped to a bound
on the root), memory (fold u into the memory's exponential modes on
the s-grid), force (lap u, ||grad u||^2 and one memory product, which gives
the mu and mu' convolutions for the force and the viscous power, then the
second half-kick) and diagnostics (dissipation, ledger rows, step
controller), which reuse the force phase's values.  A step costs O(K N) for
the kernel's K memory modes.

Near blow-up the step controller halves dt each time ||grad u|| doubles,
from the larger of ||grad u(0)|| and the potential well's gradient radius
gamma^(-(p+1)/(p-1)), down to dt0 / 2^10, then stops and flags.  Time is
tracked in integer ticks of dt0 / 2^10 so that memory pushes land exactly on
the s-grid after halvings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import energetics, wellconst
from .config import ScenarioConfig
from .energetics import EnergyLedger
from .grid import SpatialGrid
from .history import HistoryDatum, MemoryState
from .kernel import RelaxationKernel

MAX_DT_HALVINGS = 10
GRAD_DOUBLING_FACTOR = 2.0


# ---------------------------------------------------------------------------
# pointwise damping solve


def _guess(absa: np.ndarray, dt: float, m: float) -> np.ndarray:
    """|a|/(1 + dt|a|^(m-1)), a lower bound on the root, into a new array."""
    x = absa ** (m - 1.0)
    x *= dt
    x += 1.0
    return np.divide(absa, x, out=x)


def damping_solve_field(a: np.ndarray, dt: float, m: float) -> np.ndarray:
    """The unique real v with v + dt*|v|^(m-1)*v = a, elementwise, into a new
    array: closed form for m = 1, otherwise Newton on the magnitude x.

    The residual x + dt*x^m - |a| is convex and increasing in x.  The guess
    |a|/(1 + dt|a|^(m-1)) lies below the root; where |a|^(m-1) overflows it
    is 0, still below the root.  With y = dt|a|^(m-1) its residual is
    bounded, |r0| <= (m-1)|a|y^2, so one scalar y_max over the nodes
    certifies the whole array: if (m-1) y_max^2 min(max|a|, 1) <= 0.5e-14,
    every node meets the stopping test below at the guess, rounding
    included, and the guess is returned as it is.  NaN, inf and empty input
    take the loop.

    Otherwise the first Newton step lands above the root; it is clipped to
    U = min(|a|, |a|^(1/m) dt^(-1/m)), and U/2 <= root <= U.  U is |a|
    where y <= 1; for y_max <= 1/2 the powers are skipped, a margin that
    keeps their rounding clear of |a|.  They are formed as a product
    because (|a|/dt)^(1/m) underflows to 0 for the smallest subnormal at
    dt = 100.  From there Newton descends monotonically to
    |residual| <= 1e-14 * max(1, m/45) * max(1, |a|): rounding alone leaves
    residuals near m * 1.1e-16 * |a|, which the factor m/45 clears.
    Measured over dt in [1e-6, 1e3] and |a| in [1e-12, 1e15], every node
    stops within 8 iterations for m <= 50, 9 for m <= 100 and 11 for
    m = 1000.  The cap of 100 iterations stops non-finite input.
    """
    if m == 1.0:
        return a / (1.0 + dt)
    # as Python floats the scalar bound overflows to inf or raises, never warns
    dt, m = float(dt), float(m)
    absa = np.abs(a)
    amax = y_max = math.inf
    if absa.size:
        amax = float(absa.max())
        try:
            y_max = dt * amax ** (m - 1.0)
        except OverflowError:
            pass
    # entering np.errstate costs microseconds, so only where it can overflow
    if y_max < 1e300:
        x = _guess(absa, dt, m)
    else:
        with np.errstate(over="ignore"):
            x = _guess(absa, dt, m)
    if (m - 1.0) * y_max * y_max * min(amax, 1.0) <= 0.5e-14:
        return np.multiply(np.sign(a), x, out=x)
    tol = np.maximum(absa, 1.0)
    tol *= 1e-14 * max(1.0, m / 45.0)
    for i in range(100):
        xm1 = x ** (m - 1.0)
        res = xm1 * dt
        res *= x
        res += x
        res -= absa
        if (np.abs(res) <= tol).all():
            break
        # Newton step res / (1 + dt*m*x^(m-1))
        xm1 *= dt * m
        xm1 += 1.0
        res /= xm1
        x -= res
        if i == 0:
            if y_max <= 0.5:
                bound = absa
            else:
                bound = absa ** (1.0 / m)
                bound *= dt ** (-1.0 / m)
                np.minimum(bound, absa, out=bound)
            np.minimum(x, bound, out=x)
    return np.multiply(np.sign(a), x, out=x)


def pointwise_damping_solve(a: float, dt: float, m: float) -> float:
    """damping_solve_field for one value, with its arguments checked."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    return float(damping_solve_field(np.array([a]), dt, m)[0])


def _damp_midpoint(v: np.ndarray, tau: float, m: float) -> np.ndarray:
    """Implicit-midpoint integration of v' = -|v|^(m-1) v over [0, tau].

    The midpoint velocity w solves w + (tau/2)|w|^(m-1) w = v, so the energy
    removed is exactly tau * |w|^(m+1) -- the damping power at the midpoint,
    which keeps the measured dissipation consistent with the trapezoid
    bookkeeping to second order.
    """
    w = damping_solve_field(v, 0.5 * tau, m)
    return np.subtract(np.multiply(w, 2.0, out=w), v, out=w)


# ---------------------------------------------------------------------------
# state and results


@dataclass
class SimState:
    t: float
    u: np.ndarray
    v: np.ndarray
    memory: MemoryState
    dt: float
    step_index: int = 0


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    u: list = field(default_factory=list)
    v: list = field(default_factory=list)
    conv: list = field(default_factory=list)

    def append(self, t, u, v, conv):
        self.times.append(float(t))
        self.u.append(u.copy())
        self.v.append(v.copy())
        self.conv.append(conv.copy())


@dataclass
class RunResult:
    config: ScenarioConfig
    grid: SpatialGrid
    kernel: RelaxationKernel
    datum: HistoryDatum
    ledger: EnergyLedger
    trajectory: Trajectory
    flags: dict
    state: SimState

    @property
    def blew_up(self) -> bool:
        return bool(self.flags.get("dt_exhausted") or self.flags.get("nonfinite"))


# ---------------------------------------------------------------------------
# the run loop


def _terms(grid: SpatialGrid, memory: MemoryState, u: np.ndarray,
           delta: float, k0: float, p: float, source: bool):
    """Each quantity a step needs at (u, delta), computed once: the force
    F = k0 lap u - lap conv (+ |u|^(p-1) u), the memory's evaluation, lap u,
    ||grad u||^2 and the viscous power -(1/2) integral mu' ||grad w||^2 ds."""
    lap_u = grid.laplacian(u)
    h1 = grid.h1_seminorm_sq(u)
    mem = memory.evaluate(u, h1, delta)
    F = k0 * lap_u - grid.laplacian(mem.conv[0])
    if source:
        F = F + np.abs(u) ** (p - 1.0) * u
    return F, mem, lap_u, h1, -0.5 * mem.integral(1, h1, lap_u)


def run(config: ScenarioConfig) -> RunResult:
    """Advance the scenario to t_end or blow-up; returns ledger + trajectory.

    Deterministic for a fixed config: fixed iteration orders, no time-based
    seeding.
    """
    config.validate()
    grid = config.make_grid()
    kernel = config.make_kernel()
    datum = config.make_history(grid)

    dt0 = config.resolved_dt(grid, kernel)
    ds = config.stride * dt0
    s_cap = config.resolved_s_cap(kernel)
    memory = MemoryState(datum, kernel, ds, max(s_cap, ds))

    u = datum.value_at(0.0).copy()
    v = datum.velocity_at_0.copy()

    m, p = config.m, config.p
    damping = config.damping_enabled
    source = config.source_enabled
    k0 = kernel.k0

    # integer time ticks: 1 tick = dt0 / 2^MAX_DT_HALVINGS
    tick_dt = dt0 / 2 ** MAX_DT_HALVINGS
    ticks_per_push = config.stride * 2 ** MAX_DT_HALVINGS
    halvings = 0
    dt = dt0

    total_ticks = int(round(config.t_end / tick_dt))

    ledger = EnergyLedger()
    trajectory = Trajectory()
    flags = {"completed": False, "nonfinite": False, "dt_exhausted": False,
             "dt_halvings": 0}

    damp_cum = 0.0
    visc_cum = 0.0

    def record_row(t, u, v, mem, lap_u, h1):
        mem_mu = mem.integral(0, h1, lap_u)
        sE = energetics.quadratic_energy(grid, u, v, memory, h1=h1,
                                         mem_mu=mem_mu)
        lp_pow = grid.lp_norm_pow(u, p + 1.0)
        source_part = lp_pow / (p + 1.0) if source else 0.0
        E = sE - source_part
        I = 0.5 * (h1 + mem_mu) - source_part
        gap = h1 + mem_mu - lp_pow
        E0 = ledger.E0 if len(ledger) else E
        resid = abs(E + damp_cum + visc_cum - E0)
        ledger.append(t=t, scriptE=sE, E=E, I=I,
                      D_cum=damp_cum + visc_cum, damp_cum=damp_cum,
                      visc_cum=visc_cum, grad_norm=math.sqrt(h1),
                      lp_pow=lp_pow, nehari_gap=gap,
                      identity_residual=resid)
        trajectory.append(t, u, v, mem.conv[0])

    # initial diagnostics
    tick = 0
    F, mem, lap_u, h1, visc_prev = _terms(grid, memory, u, 0.0, k0, p, source)
    damp_prev = energetics.damping_power(grid, v, m) if damping else 0.0
    record_row(0.0, u, v, mem, lap_u, h1)

    # a datum at rest grows inside the well without blowing up: the
    # controller's scale is never below the well's gradient radius
    gamma = wellconst.cached_constants(grid, p, k0).gamma
    grad_ref = max(math.sqrt(h1), gamma ** (-(p + 1.0) / (p - 1.0)))
    step_index = 0
    steps_since_output = 0

    while tick < total_ticks:
        ticks_per_step = 2 ** (MAX_DT_HALVINGS - halvings)
        dt = ticks_per_step * tick_dt

        # kick: first half-kick
        v = v + 0.5 * dt * F
        # damp and drift: damping split symmetrically around the drift
        if damping:
            v = _damp_midpoint(v, 0.5 * dt, m)
        u = u + dt * v
        if damping:
            v = _damp_midpoint(v, 0.5 * dt, m)
        tick += ticks_per_step
        step_index += 1
        t = tick * tick_dt
        # memory: push on the fixed s-grid
        if tick % ticks_per_push == 0:
            memory.push(u, t)
        delta = (tick % ticks_per_push) * tick_dt
        # force: second half-kick with the recomputed force
        F, mem, lap_u, h1, visc_now = _terms(grid, memory, u, delta, k0, p,
                                             source)
        v = v + 0.5 * dt * F

        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            flags["nonfinite"] = True
            flags["stop_step"] = step_index
            break

        # diagnostics: dissipation by the trapezoid rule in time, every step
        damp_now = energetics.damping_power(grid, v, m) if damping else 0.0
        d_inc, v_inc = energetics.dissipation_increment(
            dt, damp_prev, damp_now, visc_prev, visc_now)
        damp_cum += d_inc
        visc_cum += v_inc
        damp_prev, visc_prev = damp_now, visc_now

        steps_since_output += 1
        if steps_since_output >= config.output_every or tick >= total_ticks:
            record_row(t, u, v, mem, lap_u, h1)
            steps_since_output = 0

        # blow-up step controller
        grad = math.sqrt(h1)
        if grad >= GRAD_DOUBLING_FACTOR * grad_ref:
            if halvings >= MAX_DT_HALVINGS:
                flags["dt_exhausted"] = True
                flags["stop_step"] = step_index
                if steps_since_output:
                    record_row(t, u, v, mem, lap_u, h1)
                break
            halvings += 1
            flags["dt_halvings"] = halvings
            grad_ref = grad
    else:
        flags["completed"] = True

    state = SimState(t=tick * tick_dt, u=u, v=v, memory=memory, dt=dt,
                     step_index=step_index)
    return RunResult(config=config, grid=grid, kernel=kernel, datum=datum,
                     ledger=ledger, trajectory=trajectory, flags=flags,
                     state=state)
