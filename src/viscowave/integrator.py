"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A ``Stepper`` owns a run's state and its
step: a half-kick of v, implicit pointwise damping (in closed form for m = 1
and 3, by Newton otherwise) split symmetrically around the drift of u, one
Laplacian of u (into the memory's current row, ||grad u||^2 following by
summation by parts), a push of lap u and ||grad u||^2 onto the memory's
s-grid when one is due, the force (one memory product over the rows'
Laplacians gives lap of the mu and mu' convolutions), the second half-kick
and the damping and viscous powers.  A step costs O(K N) for the K memory
modes of the run's horizon, t_end + T0 + ds, which
``ScenarioConfig.make_memory`` builds.  On small grids it costs its calls,
not its arithmetic: the phases run inline in one method, on ufuncs into
buffers bound once a run, each with the operand order of the plain
expression, so every value is the same to the bit.
``initial_terms`` gives ledger row 0's terms without the run.

``run`` drives the stepper.  It keeps time in integer ticks of dt0 / 2^10,
so that memory pushes land exactly on the s-grid after halvings, sums the
powers by the trapezoid rule, stops on a nonfinite state and records the
ledger rows.  Its step controller halves dt each time ||grad u|| doubles,
down to dt0 / 2^10, then stops and flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy import absolute, add, divide, multiply, subtract, vdot

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
    0.9e-14 max(1, m/45) max(1, |a|), the factor m/45 clearing rounding and
    the tenth below 1e-14 a residual taken with another pow, which may land
    a ulp of |a| higher.  NaN, inf and empty input take Newton, capped at
    100 steps.
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
    tol *= 0.9e-14 * max(1.0, m / 45.0)
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
# the stepper and the run


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


class Stepper:
    """The state of a run of config from datum, and its leapfrog step.

    u is the stepper's own array and lap u the view of the memory's current
    row that ``evaluate`` reads, the same arrays for the whole run, so that
    ``grid.laplacian`` reruns the plan it bound to them.  v, h1 =
    ||grad u||^2 and the memory at the state's lag (``mem``) follow the
    state, and F is its force.  The grid's and the memory's methods are
    bound once, from their classes' attributes, when the stepper is built.
    """

    def __init__(self, config: ScenarioConfig, datum: HistoryDatum,
                 kernel: RelaxationKernel):
        self.memory = memory = config.make_memory(datum, kernel)
        self.grid = grid = memory.grid
        self.u = u = datum.value_at(0.0).copy()
        lap_u = memory.lap_field
        self.h1 = grid.h1_by_parts(u, grid.laplacian(u, lap_u))
        self.mem = memory.evaluate(self.h1, 0.0)
        self.v = datum.velocity_at_0.copy()
        self.F, self.kick = np.empty(grid.shape), np.empty(grid.shape)
        m, self.p, self.source = config.m, config.p, config.source_enabled
        self.damping = config.damping_enabled
        # what a step reads, as one tuple that it unpacks into locals (the
        # cheapest names); every evaluation writes the same product rows
        self._operands = (
            u, lap_u, self.F, self.kick, np.empty(grid.shape), *self.mem.conv,
            grid.laplacian, grid.h1_by_parts, memory.evaluate, memory.push,
            kernel.k0, grid.cell_volume, self.damping,
            self.damping and m == 1.0, m, self.source, self.p - 1.0,
            0.5 * (m + 1.0))

    def terms(self) -> dict:
        """``_row_terms`` of the state."""
        return _row_terms(self.grid, self.u, self.v, self.mem, self.h1,
                          self.p, self.source)

    def set_dt(self, dt: float):
        """Step by dt from now on: dt/2, the m = 1 divisor 1 + dt/4, and the
        first half-kick (dt/2) F, which a step otherwise leaves in kick."""
        half_dt = 0.5 * dt
        self._scalars = dt, half_dt, 1.0 + 0.5 * half_dt
        multiply(self.F, half_dt, self.kick)

    def step(self, t: float = 0.0, lag: float = 0.0, push: bool = False,
             move: bool = True) -> tuple:
        """Advance by dt to time t, pushing u onto the memory if ``push`` and
        evaluating the memory at ``lag`` since the last push; with ``move``
        false, stay at the current state.  Returns h1 and the damping and
        viscous powers of the state reached."""
        (u, lap_u, F, kick, work, conv_mu, conv_mup, laplacian, h1_by_parts,
         evaluate, push_u, k0, cell, damping, linear, m, source, source_e,
         power_e) = self._operands
        v = self.v
        if move:
            # kick, then the damping split symmetrically around the drift;
            # m = 1 in place: _damp_midpoint's v / (1 + tau/2), doubled,
            # less v
            dt, half_dt, linear_div = self._scalars
            add(v, kick, v)
            if linear:
                divide(v, linear_div, work)
                multiply(work, 2.0, work)
                subtract(work, v, v)
            elif damping:
                v = self.v = _damp_midpoint(v, half_dt, m)
            multiply(v, dt, work)
            add(u, work, u)
            if linear:
                divide(v, linear_div, work)
                multiply(work, 2.0, work)
                subtract(work, v, v)
            elif damping:
                v = self.v = _damp_midpoint(v, half_dt, m)
            h1 = self.h1 = h1_by_parts(u, laplacian(u, lap_u))
            if push:
                push_u(t, h1, lap_u)
            mem = self.mem = evaluate(h1, lag)
        else:
            h1, mem = self.h1, self.mem
        # the force F = k0 lap u - lap conv (+ |u|^(p-1) u) and the viscous
        # power -(1/2) integral mu' ||grad w||^2 ds, mem.integral(1, h1, u),
        # in Python floats; a square is a product, which rounds as pow does
        multiply(lap_u, k0, F)
        subtract(F, conv_mu, F)
        if source:
            if source_e == 2.0:
                multiply(u, u, work)
            else:
                absolute(u, work)
                if source_e != 1.0:
                    work **= source_e
            multiply(work, u, work)
            add(F, work, F)
        inner = float(vdot(u, conv_mup)) * cell
        visc = -0.5 * (mem.total.item(1) * h1 + 2.0 * inner
                       + mem.scalar.item(1))
        if move:
            # the second half-kick, with the new force
            multiply(F, half_dt, kick)
            add(v, kick, v)
        if not damping:
            return h1, 0.0, visc
        # the damping power ||v||_{m+1}^{m+1}: lp_norm_pow's operations
        multiply(v, v, work)
        if power_e == 2.0:
            multiply(work, work, work)
        elif power_e != 1.0:
            work **= power_e
        return h1, float(add.reduce(work, None)) * cell, visc


def initial_terms(config: ScenarioConfig, datum: HistoryDatum,
                  kernel: RelaxationKernel) -> dict:
    """``_row_terms`` of ledger row 0 of a run of config from datum without
    the run: the same memory and arithmetic, so equal to the bit."""
    return Stepper(config, datum, kernel).terms()


def _record_row(ledger: EnergyLedger, kept: Optional[Trajectory],
                stepper: Stepper, t: float, damp_cum: float, visc_cum: float):
    """Append the stepper's state at time t to the ledger, and to kept."""
    row = stepper.terms()
    E0 = ledger.E0 if len(ledger) else row["E"]
    resid = abs(row["E"] + damp_cum + visc_cum - E0)
    ledger.append(t=t, D_cum=damp_cum + visc_cum, damp_cum=damp_cum,
                  visc_cum=visc_cum, grad_norm=math.sqrt(stepper.h1),
                  identity_residual=resid, **row)
    if kept is not None:
        kept.append(t, stepper.u, stepper.v, stepper.mem.conv[0])


def run(config: ScenarioConfig, trajectory: bool = False) -> RunResult:
    """Advance the scenario to t_end or blow-up, deterministically, keeping
    u, v and lap of the mu convolution at every row if ``trajectory``."""
    config.validate()
    grid, kernel = config.make_grid(), config.make_kernel()
    datum, dt = config.make_history(grid), config.resolved_dt(grid, kernel)
    stepper = Stepper(config, datum, kernel)
    step, damping, p = stepper.step, stepper.damping, config.p
    tick_dt = dt / 2 ** MAX_DT_HALVINGS    # time in integer ticks
    ticks_per_push = config.stride * 2 ** MAX_DT_HALVINGS
    total_ticks = int(round(config.t_end / tick_dt))
    output_every = config.output_every
    ledger, kept = EnergyLedger(), Trajectory() if trajectory else None
    flags = {"completed": False, "nonfinite": False, "dt_exhausted": False,
             "dt_halvings": 0}
    h1, damp_prev, visc_prev = step(move=False)
    damp_cum = visc_cum = 0.0
    _record_row(ledger, kept, stepper, 0.0, damp_cum, visc_cum)
    # a datum at rest grows inside the well without blowing up: the
    # controller's scale is never below the well's gradient radius
    gamma = wellconst.cached_constants(grid, p, kernel.k0).gamma
    grad_ref = max(math.sqrt(h1), gamma ** (-(p + 1.0) / (p - 1.0)))
    tick = step_index = halvings = 0
    ticks_per_step = 2 ** MAX_DT_HALVINGS
    stepper.set_dt(dt)
    while tick < total_ticks:
        tick += ticks_per_step
        step_index += 1
        t, rem = tick * tick_dt, tick % ticks_per_push
        h1, damp_now, visc_now = step(t, rem * tick_dt, not rem)
        # h1 is nonfinite where u is, the damping power where v is
        if not (math.isfinite(h1) and math.isfinite(damp_now) and (
                damping or np.isfinite(stepper.v).all())) and not (
                np.isfinite(stepper.u).all() and np.isfinite(stepper.v).all()):
            flags.update(nonfinite=True, stop_step=step_index)
            break
        d_inc, v_inc = energetics.dissipation_increment(
            dt, damp_prev, damp_now, visc_prev, visc_now)
        damp_cum, visc_cum = damp_cum + d_inc, visc_cum + v_inc
        damp_prev, visc_prev = damp_now, visc_now
        grad = math.sqrt(h1)    # the blow-up step controller
        doubled = grad >= GRAD_DOUBLING_FACTOR * grad_ref
        stop = doubled and halvings >= MAX_DT_HALVINGS
        if stop or tick >= total_ticks or not step_index % output_every:
            _record_row(ledger, kept, stepper, t, damp_cum, visc_cum)
        if stop:
            flags.update(dt_exhausted=True, stop_step=step_index)
            break
        if doubled:
            halvings = flags["dt_halvings"] = halvings + 1
            ticks_per_step //= 2
            dt, grad_ref = ticks_per_step * tick_dt, grad
            stepper.set_dt(dt)
    else:
        flags["completed"] = True
    state = SimState(t=tick * tick_dt, u=stepper.u, v=stepper.v,
                     memory=stepper.memory, dt=dt, step_index=step_index)
    return RunResult(config=config, grid=grid, kernel=kernel, datum=datum,
                     ledger=ledger, trajectory=kept, flags=flags, state=state)
