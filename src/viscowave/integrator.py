"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A step runs the phases kick (velocity
half-kick), damp and drift (implicit pointwise damping split symmetrically
around the drift), memory (push u into the circular history ring on the
s-grid), force (lap u, the memory convolutions, ||grad u||^2 and the viscous
power, each once, then the second half-kick) and diagnostics (dissipation,
ledger rows, step controller), which reuse the force phase's values.  The
only implicit piece is a scalar monotone solve per node, so a step costs O(N)
plus at most one pass over the memory ring.

Near blow-up the step controller halves dt each time ||grad u|| doubles, down
to dt0 / 2^10, then stops and flags.  Time is tracked in integer ticks of
dt0 / 2^10 so that memory pushes land exactly on the s-grid after halvings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import energetics
from .config import ScenarioConfig
from .energetics import EnergyLedger
from .grid import SpatialGrid
from .history import HistoryDatum, MemoryState
from .kernel import RelaxationKernel

MAX_DT_HALVINGS = 10
GRAD_DOUBLING_FACTOR = 2.0


# ---------------------------------------------------------------------------
# pointwise damping solve


def pointwise_damping_solve(a: float, dt: float, m: float) -> float:
    """Unique real v with v + dt*|v|^(m-1)*v = a.

    Closed form for m = 1; otherwise Newton on the magnitude (the residual is
    convex and monotone, so iteration from |a| descends monotonically), with a
    bisection fallback.  |residual| <= 1e-14 * max(1, |a|).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1.0:
        return a / (1.0 + dt)
    if a == 0.0:
        return 0.0
    return math.copysign(_solve_magnitude(np.array([abs(a)]), dt, m)[0], a)


def _solve_magnitude(absa: np.ndarray, dt: float, m: float) -> np.ndarray:
    """Solve x + dt*x^m = absa for x >= 0, elementwise."""
    tol = 1e-14 * np.maximum(1.0, absa)
    x = absa / (1.0 + dt * np.maximum(absa, 1e-300) ** (m - 1.0))
    x = np.maximum(x, 0.0)
    lo = np.zeros_like(absa)
    hi = absa.copy()
    for _ in range(100):
        xm1 = x ** (m - 1.0)
        res = x + dt * xm1 * x - absa
        if np.all(np.abs(res) <= tol):
            break
        lo = np.where(res < 0, x, lo)
        hi = np.where(res > 0, x, hi)
        step = res / (1.0 + dt * m * xm1)
        x_new = x - step
        bad = (x_new < lo) | (x_new > hi)
        x = np.where(bad, 0.5 * (lo + hi), x_new)
    return x


def damping_solve_field(a: np.ndarray, dt: float, m: float) -> np.ndarray:
    """Vectorized pointwise_damping_solve."""
    if m == 1.0:
        return a / (1.0 + dt)
    out = np.sign(a) * _solve_magnitude(np.abs(a).ravel(), dt, m).reshape(a.shape)
    return out


def _damp_midpoint(v: np.ndarray, tau: float, m: float) -> np.ndarray:
    """Implicit-midpoint integration of v' = -|v|^(m-1) v over [0, tau].

    The midpoint velocity w solves w + (tau/2)|w|^(m-1) w = v, so the energy
    removed is exactly tau * |w|^(m+1) -- the damping power at the midpoint,
    which keeps the measured dissipation consistent with the trapezoid
    bookkeeping to second order.
    """
    w = damping_solve_field(v, 0.5 * tau, m)
    return 2.0 * w - v


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
    F = k0 lap u - lap conv (+ |u|^(p-1) u), the mu-convolution conv, lap u,
    ||grad u||^2 and the viscous power."""
    lap_u = grid.laplacian(u)
    h1 = grid.h1_seminorm_sq(u)
    conv = memory.convolution_field(u, delta, "mu")
    F = k0 * lap_u - grid.laplacian(conv)
    if source:
        F = F + np.abs(u) ** (p - 1.0) * u
    visc = energetics.viscous_power(
        grid, u, memory, delta,
        conv_mu_prime=memory.convolution_field(u, delta, "mu_prime"),
        h1=h1, lap_u=lap_u)
    return F, conv, lap_u, h1, visc


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
             "dt_halvings": 0, "truncated_tail_mass": kernel.tail_mass(
                 memory.s_max_at_push)}

    damp_cum = 0.0
    visc_cum = 0.0

    def record_row(t, delta, u, v, conv, lap_u, h1):
        mem_mu = memory.memory_integral(u, "mu", delta, conv=conv, h1=h1,
                                        lap_u=lap_u)
        sE = energetics.quadratic_energy(grid, u, v, memory, delta, h1=h1,
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
        trajectory.append(t, u, v, conv)

    # initial diagnostics
    tick = 0
    F, conv, lap_u, h1, visc_prev = _terms(grid, memory, u, 0.0, k0, p, source)
    damp_prev = energetics.damping_power(grid, v, m) if damping else 0.0
    record_row(0.0, 0.0, u, v, conv, lap_u, h1)

    grad_ref = max(math.sqrt(h1), 1e-12)
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
        F, conv, lap_u, h1, visc_now = _terms(grid, memory, u, delta, k0, p,
                                              source)
        v = v + 0.5 * dt * F

        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            flags["nonfinite"] = True
            flags["stop_step"] = step_index
            break

        # diagnostics: dissipation by the trapezoid rule in time, every step
        damp_now = energetics.damping_power(grid, v, m) if damping else 0.0
        d_inc, v_inc = energetics.dissipation_increment(
            grid, dt, damp_prev, damp_now, visc_prev, visc_now)
        damp_cum += d_inc
        visc_cum += v_inc
        damp_prev, visc_prev = damp_now, visc_now

        steps_since_output += 1
        if steps_since_output >= config.output_every or tick >= total_ticks:
            record_row(t, delta, u, v, conv, lap_u, h1)
            steps_since_output = 0

        # blow-up step controller
        grad = math.sqrt(h1)
        if grad >= GRAD_DOUBLING_FACTOR * grad_ref:
            if halvings >= MAX_DT_HALVINGS:
                flags["dt_exhausted"] = True
                flags["stop_step"] = step_index
                if steps_since_output:
                    record_row(t, delta, u, v, conv, lap_u, h1)
                break
            halvings += 1
            flags["dt_halvings"] = halvings
            grad_ref = grad
    else:
        flags["completed"] = True
    memory.drop_caches()

    state = SimState(t=tick * tick_dt, u=u, v=v, memory=memory, dt=dt,
                     step_index=step_index)
    return RunResult(config=config, grid=grid, kernel=kernel, datum=datum,
                     ledger=ledger, trajectory=trajectory, flags=flags,
                     state=state)
