"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A step is a half-kick of v, implicit
pointwise damping (in closed form for m = 1 and 3, by Newton otherwise)
split symmetrically around the drift of u, a push of u onto the memory's
s-grid, the force (one memory product gives the mu and mu' convolutions,
one stacked Laplacian takes u and the mu convolution), the second
half-kick and the diagnostics.  It costs O(K N) for the kernel's K memory
modes.  The phases write into buffers in place, each with the operand
order of the plain expression, so every value is the same to the bit.

Near blow-up the step controller halves dt each time ||grad u|| doubles,
down to dt0 / 2^10, then stops and flags.  Time is tracked in integer ticks
of dt0 / 2^10 so that memory pushes land exactly on the s-grid after
halvings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import energetics, wellconst
from .config import ScenarioConfig
from .energetics import EnergyLedger
from .grid import SpatialGrid
from .history import HistoryDatum, MemoryState
from .kernel import RelaxationKernel

MAX_DT_HALVINGS = 10
GRAD_DOUBLING_FACTOR = 2.0
# largest scaled argument 3|a|/(2k) of the m = 3 closed form: from about
# 1e28 on, the rounding of asinh takes its residual past 1e-14 max(1, |a|)
CUBIC_ARG_MAX = 1e20


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
    array.  m = 1 is a / (1 + dt).  Otherwise the guess |a|/(1 + dt y),
    y = |a|^(m-1), lies below the root within (m-1)|a|(dt y)^2, so one scalar
    certifies a whole array whose (m-1)(dt y_max)^2 min(max|a|, 1) <= 0.5e-14:
    the guess meets Newton's stopping test and is returned.  Other arrays
    take, for m = 3 and 3 max|a|/(2k) <= CUBIC_ARG_MAX, the cubic's real root
    2k sinh(asinh(3|a|/(2k))/3), k = (3 dt)^(-1/2), clamped to |a|.  The rest
    take Newton on |v| from the guess, its first step clipped to
    U = min(|a|, (|a|/dt)^(1/m)) >= root, down to |residual| <=
    1e-14 max(1, m/45) max(1, |a|), the factor m/45 clearing rounding.  NaN,
    inf and empty input take Newton, capped at 100 steps.
    """
    if m == 1.0:
        return a / (1.0 + dt)
    # as Python floats the scalar bounds overflow to inf or raise, never warn
    dt, m = float(dt), float(m)
    if m == 3.0 and a.size:
        amax = max(float(a.max()), -float(a.min()))
        root3dt = math.sqrt(3.0 * dt)       # 1 / k
        scale = 1.5 * root3dt               # 3 / (2k)
        if scale * amax <= CUBIC_ARG_MAX:   # false for NaN and inf
            y = dt * amax * amax
            if 2.0 * y * y * min(amax, 1.0) <= 0.5e-14:
                x = np.multiply(a, a)
                x *= dt
                x += 1.0
                return np.divide(a, x, out=x)
            absa = np.abs(a)
            v = np.multiply(absa, scale)
            np.arcsinh(v, out=v)
            v /= 3.0
            np.sinh(v, out=v)
            v *= 2.0 / root3dt
            # where dt a^2 is tiny the rounding may land 1 ulp above |a|
            np.minimum(v, absa, out=v)
            return np.copysign(v, a, out=v)
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
            # U = |a| where dt|a|^(m-1) <= 1, with a margin for rounding;
            # a product, as (|a|/dt)^(1/m) underflows for tiny |a|
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
    trajectory: Optional[Trajectory]
    flags: dict
    state: SimState

    @property
    def blew_up(self) -> bool:
        return bool(self.flags.get("dt_exhausted") or self.flags.get("nonfinite"))


# ---------------------------------------------------------------------------
# the run loop


def run(config: ScenarioConfig, trajectory: bool = False) -> RunResult:
    """Advance the scenario to t_end or blow-up.

    With ``trajectory`` the result keeps u, v and the mu convolution at every
    ledger row; it is an argument, not a config key, so that it leaves the
    content hash alone.  Deterministic for a fixed config: fixed iteration
    orders, no time-based seeding.
    """
    config.validate()
    grid = config.make_grid()
    kernel = config.make_kernel()
    datum = config.make_history(grid)

    dt0 = config.resolved_dt(grid, kernel)
    ds = config.stride * dt0
    s_cap = config.resolved_s_cap(kernel)
    memory = MemoryState(datum, kernel, ds, max(s_cap, ds))

    # u is stepped in place in the memory's current row
    u = memory.field
    u[...] = datum.value_at(0.0)
    stack = memory.stack
    v = datum.velocity_at_0.copy()
    F = np.empty(grid.shape)
    kick = np.empty(grid.shape)   # (dt/2) F
    work = np.empty(grid.shape)

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
    kept = Trajectory() if trajectory else None
    flags = {"completed": False, "nonfinite": False, "dt_exhausted": False,
             "dt_halvings": 0}

    damp_cum = 0.0
    visc_cum = 0.0

    def force(h1, delta):
        """F = k0 lap u - lap conv (+ |u|^(p-1) u) into F, from
        h1 = ||grad u||^2 at lag delta; returns the memory's evaluation, lap u
        and the viscous power -(1/2) integral mu' ||grad w||^2 ds."""
        mem = memory.evaluate(h1, delta)
        lap_u, lap_conv = grid.laplacian(stack)
        f = np.multiply(lap_u, k0, out=F)
        f -= lap_conv
        if source:
            x = np.abs(u, out=work)
            x **= p - 1.0
            x *= u
            f += x
        return mem, lap_u, -0.5 * mem.integral(1, h1, lap_u)

    def record_row(t, v, mem, lap_u, h1):
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
        if kept is not None:
            kept.append(t, u, v, mem.conv[0])

    # initial diagnostics
    tick = 0
    h1 = grid.h1_seminorm_sq(u)
    mem, lap_u, visc_prev = force(h1, 0.0)
    damp_prev = energetics.damping_power(grid, v, m) if damping else 0.0
    record_row(0.0, v, mem, lap_u, h1)

    # a datum at rest grows inside the well without blowing up: the
    # controller's scale is never below the well's gradient radius
    gamma = wellconst.cached_constants(grid, p, k0).gamma
    grad_ref = max(math.sqrt(h1), gamma ** (-(p + 1.0) / (p - 1.0)))
    step_index = 0
    steps_since_output = 0
    kick_dt = None

    while tick < total_ticks:
        ticks_per_step = 2 ** (MAX_DT_HALVINGS - halvings)
        dt = ticks_per_step * tick_dt
        half_dt = 0.5 * dt

        # kick: first half-kick, v + (dt/2) F; the last step's second
        # half-kick added the same increment unless dt has been halved since
        if half_dt != kick_dt:
            np.multiply(F, half_dt, out=kick)
            kick_dt = half_dt
        np.add(v, kick, out=v)
        # damp and drift: damping split symmetrically around the drift
        if damping:
            v = _damp_midpoint(v, half_dt, m)
        np.multiply(v, dt, out=work)
        np.add(u, work, out=u)
        if damping:
            v = _damp_midpoint(v, half_dt, m)
        tick += ticks_per_step
        step_index += 1
        t = tick * tick_dt
        h1 = grid.h1_seminorm_sq(u)
        # memory: push on the fixed s-grid
        if tick % ticks_per_push == 0:
            memory.push(u, t, h1)
        delta = (tick % ticks_per_push) * tick_dt
        # force: second half-kick with the recomputed force
        mem, lap_u, visc_now = force(h1, delta)
        np.multiply(F, half_dt, out=kick)
        np.add(v, kick, out=v)
        damp_now = energetics.damping_power(grid, v, m) if damping else 0.0

        # ||grad u||^2 is non-finite wherever u is, and the damping power
        # wherever v is: the exact tests run only when a scalar says so
        if not (math.isfinite(h1) and math.isfinite(damp_now)
                and (damping or np.isfinite(v).all())):
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                flags["nonfinite"] = True
                flags["stop_step"] = step_index
                break

        # diagnostics: dissipation by the trapezoid rule in time, every step
        d_inc, v_inc = energetics.dissipation_increment(
            dt, damp_prev, damp_now, visc_prev, visc_now)
        damp_cum += d_inc
        visc_cum += v_inc
        damp_prev, visc_prev = damp_now, visc_now

        steps_since_output += 1
        if steps_since_output >= config.output_every or tick >= total_ticks:
            record_row(t, v, mem, lap_u, h1)
            steps_since_output = 0

        # blow-up step controller
        grad = math.sqrt(h1)
        if grad >= GRAD_DOUBLING_FACTOR * grad_ref:
            if halvings >= MAX_DT_HALVINGS:
                flags["dt_exhausted"] = True
                flags["stop_step"] = step_index
                if steps_since_output:
                    record_row(t, v, mem, lap_u, h1)
                break
            halvings += 1
            flags["dt_halvings"] = halvings
            grad_ref = grad
    else:
        flags["completed"] = True

    # the memory's later evaluations rewrite its current row
    state = SimState(t=tick * tick_dt, u=u.copy(), v=v, memory=memory, dt=dt,
                     step_index=step_index)
    return RunResult(config=config, grid=grid, kernel=kernel, datum=datum,
                     ledger=ledger, trajectory=kept, flags=flags,
                     state=state)
