"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A step is a half-kick of v, implicit
pointwise damping (in closed form for m = 1 and 3, by Newton otherwise)
split symmetrically around the drift of u, one Laplacian of u (into the
memory's current row, ||grad u||^2 following by summation by parts), a push
of u and lap u onto the memory's s-grid, the force (one memory product over
the rows' Laplacians gives lap of the mu and mu' convolutions), the second
half-kick and the diagnostics.  It costs O(K N) for the K memory modes of
the run's horizon, t_end + T0 + ds, which ``ScenarioConfig.make_memory``
builds; ``initial_terms`` gives ledger row 0's terms without the run.

On small grids a step costs its calls, not its arithmetic.  So the kicks,
the drift, the m = 1 damping (in place), the force and both powers run
inline on ufuncs bound once a run, into buffers bound once a run, each with
the operand order of the plain expression: every value is the same to the
bit.  dt, dt/2, the m = 1 divisor 1 + dt/4 and the first half-kick's
(dt/2) F are computed once per dt.  A step still calls ``grid.laplacian``
and ``memory.evaluate`` once each, which keep their bound views.

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
    absa = np.abs(a)
    amax = float(absa.max()) if a.size else math.inf
    if m == 3.0 and a.size:
        root3dt = math.sqrt(3.0 * dt)       # 1 / k
        scale = 1.5 * root3dt               # 3 / (2k)
        if scale * amax <= CUBIC_ARG_MAX:   # false for NaN and inf
            y = dt * amax * amax
            if 2.0 * y * y * min(amax, 1.0) <= 0.5e-14:
                x = np.multiply(a, a)
                x *= dt
                x += 1.0
                return np.divide(a, x, out=x)
            v = np.multiply(absa, scale)
            np.arcsinh(v, out=v)
            v /= 3.0
            np.sinh(v, out=v)
            v *= 2.0 / root3dt
            # where dt a^2 is tiny the rounding may land 1 ulp above |a|
            np.minimum(v, absa, out=v)
            return np.copysign(v, a, out=v)
    y_max = math.inf
    if a.size:
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
    lap_conv: list = field(default_factory=list)

    def append(self, t, u, v, lap_conv):
        self.times.append(float(t))
        self.u.append(u.copy())
        self.v.append(v.copy())
        self.lap_conv.append(lap_conv.copy())


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


def _start(config: ScenarioConfig, datum: HistoryDatum,
           kernel: RelaxationKernel) -> tuple:
    """The run's memory, u0 and lap u0 in its current row (views a run steps
    in place), h1 = ||grad u0||^2 by parts and the memory at lag 0."""
    memory = config.make_memory(datum, kernel)
    grid, u, lap_u = memory.grid, memory.field, memory.lap_field
    u[...] = datum.value_at(0.0)
    h1 = grid.h1_by_parts(u, grid.laplacian(u, out=lap_u))
    return memory, u, lap_u, h1, memory.evaluate(h1, 0.0)


def _row_terms(grid: SpatialGrid, u: np.ndarray, v: np.ndarray, mem,
               h1: float, p: float, source: bool) -> dict:
    """scriptE, E, I, lp_pow and nehari_gap of a ledger row, from
    h1 = ||grad u||^2 and the memory evaluated at the row's lag."""
    mem_mu = mem.integral(0, h1, u)
    sE = energetics.quadratic_energy(grid, v, h1, mem_mu)
    lp_pow = grid.lp_norm_pow(u, p + 1.0)
    source_part = lp_pow / (p + 1.0) if source else 0.0
    return {"scriptE": sE, "E": sE - source_part,
            "I": 0.5 * (h1 + mem_mu) - source_part, "lp_pow": lp_pow,
            "nehari_gap": h1 + mem_mu - lp_pow}


def initial_terms(config: ScenarioConfig, datum: HistoryDatum,
                  kernel: RelaxationKernel) -> dict:
    """``_row_terms`` of ledger row 0 of a run of config from datum without
    the run: the same memory and arithmetic, so equal to the bit."""
    _, u, _, h1, mem = _start(config, datum, kernel)
    return _row_terms(datum.grid, u, datum.velocity_at_0, mem, h1, config.p,
                      config.source_enabled)


def run(config: ScenarioConfig, trajectory: bool = False) -> RunResult:
    """Advance the scenario to t_end or blow-up.

    With ``trajectory`` the result keeps u, v and lap of the mu convolution
    at every ledger row; it is an argument, not a config key, so that it
    leaves the content hash alone.  Deterministic for a fixed config: fixed
    iteration orders, no time-based seeding.
    """
    config.validate()
    grid = config.make_grid()
    kernel = config.make_kernel()
    datum = config.make_history(grid)

    dt0 = config.resolved_dt(grid, kernel)
    # u and lap u are views of the memory's current row, stepped in place
    memory, u, lap_u, h1, mem = _start(config, datum, kernel)
    v = datum.velocity_at_0.copy()
    F = np.empty(grid.shape)
    kick = np.empty(grid.shape)   # (dt/2) F
    work = np.empty(grid.shape)

    m, p = config.m, config.p
    damping = config.damping_enabled
    linear = damping and m == 1.0
    source = config.source_enabled
    k0 = kernel.k0
    cell = grid.cell_volume
    power_e, source_e = 0.5 * (m + 1.0), p - 1.0
    # every evaluation writes the same product rows
    lap_conv_mu, lap_conv_mup = mem.conv
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, vdot, reduce = np.abs, np.vdot, np.add.reduce
    laplacian, h1_by_parts = grid.laplacian, grid.h1_by_parts
    evaluate = memory.evaluate

    # integer time ticks: 1 tick = dt0 / 2^MAX_DT_HALVINGS
    tick_dt = dt0 / 2 ** MAX_DT_HALVINGS
    ticks_per_push = config.stride * 2 ** MAX_DT_HALVINGS
    total_ticks = int(round(config.t_end / tick_dt))
    output_every = config.output_every

    ledger = EnergyLedger()
    kept = Trajectory() if trajectory else None
    flags = {"completed": False, "nonfinite": False, "dt_exhausted": False,
             "dt_halvings": 0}

    damp_cum = visc_cum = 0.0

    def record_row(t, v, mem, h1):
        row = _row_terms(grid, u, v, mem, h1, p, source)
        E0 = ledger.E0 if len(ledger) else row["E"]
        resid = abs(row["E"] + damp_cum + visc_cum - E0)
        ledger.append(t=t, D_cum=damp_cum + visc_cum, damp_cum=damp_cum,
                      visc_cum=visc_cum, grad_norm=math.sqrt(h1),
                      identity_residual=resid, **row)
        if kept is not None:
            kept.append(t, u, v, mem.conv[0])

    record_row(0.0, v, mem, h1)
    # a datum at rest grows inside the well without blowing up: the
    # controller's scale is never below the well's gradient radius
    gamma = wellconst.cached_constants(grid, p, k0).gamma
    grad_ref = max(math.sqrt(h1), gamma ** (-(p + 1.0) / (p - 1.0)))
    tick = step_index = steps_since_output = halvings = 0
    scaled, dt = None, dt0   # the halvings dt's scalars below hold for

    # A pass of the loop ends one step and begins the next: the force and
    # the diagnostics of the state reached (of the datum on the first pass),
    # then the first half of the next step.
    while True:
        # force: F = k0 lap u - lap conv (+ |u|^(p-1) u) and the viscous
        # power -(1/2) integral mu' ||grad w||^2 ds, mem.integral(1, h1, u)
        multiply(lap_u, k0, F)
        subtract(F, lap_conv_mu, F)
        if source:
            absolute(u, work)
            if source_e != 1.0:
                work **= source_e
            multiply(work, u, work)
            add(F, work, F)
        inner = float(vdot(u, lap_conv_mup)) * cell
        visc_now = -0.5 * (mem.total[1] * h1 + 2.0 * inner + mem.scalar[1])
        if step_index:
            # the second half-kick, with the recomputed force
            multiply(F, half_dt, kick)
            add(v, kick, v)
        # the damping power ||v||_{m+1}^{m+1}: lp_norm_pow's operations
        if damping:
            multiply(v, v, work)
            if power_e != 1.0:
                work **= power_e
            damp_now = float(reduce(work, None)) * cell
        else:
            damp_now = 0.0

        if step_index:
            # ||grad u||^2 is non-finite wherever u is, and the damping
            # power wherever v is: the exact tests run only when a scalar
            # says so
            if not (math.isfinite(h1) and math.isfinite(damp_now)
                    and (damping or np.isfinite(v).all())):
                if not (np.isfinite(u).all() and np.isfinite(v).all()):
                    flags["nonfinite"] = True
                    flags["stop_step"] = step_index
                    break
            # dissipation by the trapezoid rule in time, every step
            d_inc, v_inc = energetics.dissipation_increment(
                dt, damp_prev, damp_now, visc_prev, visc_now)
            damp_cum += d_inc
            visc_cum += v_inc
            steps_since_output += 1
            if steps_since_output >= output_every or tick >= total_ticks:
                record_row(t, v, mem, h1)
                steps_since_output = 0
            # blow-up step controller
            grad = math.sqrt(h1)
            if grad >= GRAD_DOUBLING_FACTOR * grad_ref:
                if halvings >= MAX_DT_HALVINGS:
                    flags["dt_exhausted"] = True
                    flags["stop_step"] = step_index
                    if steps_since_output:
                        record_row(t, v, mem, h1)
                    break
                halvings += 1
                flags["dt_halvings"] = halvings
                grad_ref = grad
        damp_prev, visc_prev = damp_now, visc_now
        if tick >= total_ticks:
            flags["completed"] = True
            break

        if halvings != scaled:
            # the scalars of dt, and the first half-kick's increment, which
            # otherwise the last second half-kick left in kick
            ticks_per_step = 2 ** (MAX_DT_HALVINGS - halvings)
            dt = ticks_per_step * tick_dt
            half_dt = 0.5 * dt
            linear_div = 1.0 + 0.5 * half_dt
            multiply(F, half_dt, kick)
            scaled = halvings
        # kick, then the damping split symmetrically around the drift; m = 1
        # in place, _damp_midpoint's v / (1 + tau/2), doubled, less v
        add(v, kick, v)
        if linear:
            divide(v, linear_div, work)
            multiply(work, 2.0, work)
            subtract(work, v, v)
        elif damping:
            v = _damp_midpoint(v, half_dt, m)
        multiply(v, dt, work)
        add(u, work, u)
        if linear:
            divide(v, linear_div, work)
            multiply(work, 2.0, work)
            subtract(work, v, v)
        elif damping:
            v = _damp_midpoint(v, half_dt, m)
        tick += ticks_per_step
        step_index += 1
        t = tick * tick_dt
        h1 = h1_by_parts(u, laplacian(u, lap_u))
        # memory: push on the fixed s-grid, evaluate at the lag since the
        # last push
        rem = tick % ticks_per_push
        if not rem:
            memory.push(u, t, h1, lap_u)
        mem = evaluate(h1, rem * tick_dt)

    # the memory's later evaluations rewrite its current row
    state = SimState(t=tick * tick_dt, u=u.copy(), v=v, memory=memory, dt=dt,
                     step_index=step_index)
    return RunResult(config=config, grid=grid, kernel=kernel, datum=datum,
                     ledger=ledger, trajectory=kept, flags=flags,
                     state=state)
