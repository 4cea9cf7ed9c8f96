"""Time integration of the semi-discrete system

    u_tt = k(0) lap(u) - integral mu(s) lap(u(t-s)) ds
           - |u_t|^(m-1) u_t + |u|^(p-1) u

by an operator-split leapfrog.  A ``Stepper`` owns the whole state of a
batch of runs that differ only in their datum, the clock, the step
controller and the dissipation sums included, and its step: a half-kick of
v, implicit midpoint damping of v in place (at m = 1 a scaling of v,
otherwise a certified guess, at m = 3 a Pade factor, or Newton, each member
by its own call) split symmetrically around the drift of u, one Laplacian
of u (into the memory's current rows, ||grad u||^2 following by summation
by parts), a push of lap u and ||grad u||^2 onto the memory's s-grid when
one is due, the force (one memory product over the rows' Laplacians gives
lap of the mu and mu' convolutions), the second half-kick and the damping
and viscous powers.  A step costs O(K N) a member for the K memory modes of
the run's horizon, t_end + T0 + ds, which ``ScenarioConfig.make_memory``
builds.  On small grids it costs its calls, not its arithmetic: the phases
run inline in one method, on ufuncs into buffers bound once a run, each
with the operand order of the plain expression, so every value is that
expression's to the bit, and a batch makes each call but the damping once
for all its members.  The fields a step writes start on 64-byte cache lines
(``grid.aligned``), the memory's current row included: a pass that stores
into an output off a line costs up to about 80% more on 64 x 64 fields, so
the step's speed would otherwise follow where the heap put them.
``Stepper.advance`` steps to a tick under the controller and records the
ledger rows; ``run_batch`` records row 0, advances to t_end and reruns the
members that left the batch, and ``run`` is the batch of one.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy import (absolute, add, divide, maximum, multiply, subtract, vdot,
                   vecdot)

from . import energetics, wellconst
from .config import ScenarioConfig
from .energetics import EnergyLedger
from .grid import aligned
from .history import HistoryDatum
from .kernel import RelaxationKernel

MAX_DT_HALVINGS = 10
GRAD_DOUBLING_FACTOR = 2.0


# ---------------------------------------------------------------------------
# pointwise damping solve


def _guess(absa: np.ndarray, dt: float, m: float) -> np.ndarray:
    """|a|/(1 + dt|a|^(m-1)), into a new array, a lower bound on the root."""
    x = absa ** (m - 1.0)
    x *= dt
    x += 1.0
    return np.divide(absa, x, out=x)


def _certificate(amax: float, dt: float, m: float) -> tuple:
    """y = dt max|a|^(m-1) (inf where it overflows) and whether one scalar
    certifies a whole array: the guess |a|/(1 + dt|a|^(m-1)) lies below the
    root within (m-1)|a|(dt|a|^(m-1))^2, so where (m-1) y^2 min(max|a|, 1)
    <= 0.5e-14 it meets Newton's stopping test.  False for NaN and inf;
    monotone in max|a|."""
    try:
        y = dt * (amax * amax if m == 3.0 else amax ** (m - 1.0))
    except OverflowError:
        y = math.inf
    return y, (m - 1.0) * y * y * min(amax, 1.0) <= 0.5e-14


def _pade_certificate(y: float, amax: float, dt: float) -> bool:
    """Whether the m = 3 midpoint's Pade factor (``_damp_midpoint``) meets
    the solve's stopping test on an array with y = dt max|a|^2: with
    s = dt a^2 the factor is 2w/a - 1 within (52/3) s^5, so w's residual is
    within (26/3) s^5 (1 + 3s) |a|, and 9 y^5 (1 + 3y) min(max|a|, 1) <=
    0.5e-14 bounds it by 0.5e-14 max(1, |a|), leaving 0.4e-14 of the
    solve's 0.9e-14 max(1, |a|) for rounding.  False for NaN and inf, where
    y^5 overflows, and for dt <= 1e-150, where the factor's coefficient
    dt^2/3 would be subnormal and lose its digits; monotone in max|a|."""
    try:
        return dt > 1e-150 and (
            9.0 * y ** 5 * (1.0 + 3.0 * y) * min(amax, 1.0) <= 0.5e-14)
    except OverflowError:
        return False


def damping_solve_field(a: np.ndarray, dt: float, m: float,
                        absa: Optional[np.ndarray] = None,
                        amax: float = math.nan) -> np.ndarray:
    """The unique real v with v + dt*|v|^(m-1)*v = a, elementwise, into a new
    array; ``absa`` and ``amax``, |a| and max|a|, from a caller that has
    taken them.  Newton on |v| from the guess, its first step clipped to
    U = min(|a|, (|a|/dt)^(1/m)) >= root, down to |residual| <= 0.9e-14
    max(1, m/45) max(1, |a|), the factor m/45 clearing rounding and the
    tenth below 1e-14 a residual taken with another pow, which may land a
    ulp of |a| higher.  An array that ``_certificate`` certifies stops at
    the guess, and 0 and -0.0 map to 0.0.  NaN and inf run to the cap of
    100 steps.
    """
    # as Python floats the scalar bounds overflow to inf or raise, never warn
    dt, m = float(dt), float(m)
    if absa is None:
        absa = np.abs(a)
        amax = float(absa.max()) if a.size else math.inf
    y_max = _certificate(amax, dt, m)[0]
    # entering np.errstate costs microseconds, so only where it can overflow
    if y_max < 1e300:
        x = _guess(absa, dt, m)
    else:
        with np.errstate(over="ignore"):
            x = _guess(absa, dt, m)
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


def _cayley(tau: float) -> float:
    """(1 - tau/2)/(1 + tau/2), the factor by which the implicit midpoint
    over tau scales v in v' = -v."""
    return (1.0 - 0.5 * tau) / (1.0 + 0.5 * tau)


# the tiers of a midpoint damping over tau, as ``_damp_midpoint`` returns
# them for the next call with the same tau to reuse: SOLVE leaves that call
# to take its own max|v|
SOLVE, GUESS, PADE = 0, 1, 2


def _tier(amax: float, dt: float, m: float) -> int:
    """The tier (``_damp_midpoint``) of a midpoint damping over 2 dt of an
    array with max|v| = amax."""
    y, certified = _certificate(amax, dt, m)
    if certified:
        return GUESS
    return PADE if m == 3.0 and _pade_certificate(y, amax, dt) else SOLVE


@lru_cache(maxsize=32)
def _cubic_scalars(dt: float) -> tuple:
    """``_damp_midpoint``'s m = 3 scalars at a half-step dt, as read-only
    0-d arrays, faster ufunc operands than floats with the same bits: the
    guess's dt/2 and 1/2, then the Pade factor's 1 and its Horner
    coefficients dt^2/3, 13 dt/3, 7 dt^2 and 19 dt/3."""
    dt_sq = dt * dt
    scalars = np.array([0.5 * dt, 0.5, 1.0, dt_sq / 3.0, 13.0 / 3.0 * dt,
                        7.0 * dt_sq, 19.0 / 3.0 * dt])
    scalars.flags.writeable = False
    return tuple(scalars[i, ...] for i in range(len(scalars)))


def _damp_midpoint(v: np.ndarray, tau: float, m: float, tier: int = SOLVE,
                   scratch: Optional[tuple] = None) -> tuple:
    """Implicit-midpoint integration of v' = -|v|^(m-1) v over [0, tau]: the
    new v, in a new array or, given ``scratch``, in v itself, and its tier.

    The midpoint velocity w solves w + (tau/2)|w|^(m-1) w = v, so the energy
    removed is exactly tau * |w|^(m+1) -- the damping power at the midpoint,
    which keeps the measured dissipation consistent with the trapezoid
    bookkeeping to second order.  The new v is 2w - v, by one of three
    tiers, each certified by one scalar per array (``_tier``):

    * GUESS, where ``_certificate`` holds: the solve's guess doubled, in no
      pass of its own, exactly.  At m = 3 the guess's divisor is halved,
      otherwise 2 sign(v) scales the guess (a halved general divisor would
      round a subnormal quotient once where the doubling rounds it twice).
      At m = 1 this is v times ``_cayley(tau)``.
    * PADE, at m = 3 where ``_pade_certificate`` holds: v times the [2/2]
      Pade approximant (1 + 13s/3 + s^2/3)/(1 + 19s/3 + 7s^2) of 2w/v - 1,
      s = (tau/2) v^2, by Horner in v^2 with tau folded into the
      coefficients: ten passes and a divide.  Its w meets the solve's
      stopping test, and its factor lies in [0, 1].  It keeps -0.0 where
      the solve's 2w - v gave 0.0; no run value depends on that sign (the
      m = 3 ledger digests hold with each new v's zeros made 0.0).
    * SOLVE otherwise: ``damping_solve_field``, Newton from the guess.

    |v| cannot grow through GUESS or PADE, and both certificates are
    monotone in max|v|, so a second call with the same tau and m takes the
    first call's tier as ``tier`` and skips max|v|.  At m = 3 max v^2 comes
    from the v*v that both tiers read, and the passes run in ``scratch``,
    three fields of v's shape that the caller does not need; without
    scratch, the same passes run in three new fields, the second of which
    is returned.  Their scalars are ``_cubic_scalars``.  A batch's step
    makes this call on each live member's rows, as its solo run does.
    """
    out = None if scratch is None else v
    if m == 1.0:
        return np.multiply(v, _cayley(tau), out=out), GUESS
    dt = 0.5 * float(tau)
    if m == 3.0:
        t, x, q = scratch or tuple(np.empty(v.shape) for _ in range(3))
        multiply(v, v, t)
        if not tier:
            # sqrt(max v*v) is max|v| to the bit unless v*v under- or
            # overflows, where the verdicts are those of max|v| still
            amax = math.sqrt(maximum.reduce(t, None) if v.size else math.inf)
            tier = _tier(amax, dt, m)
        end = x if out is None else out
        half_dt, half, one, x2, x1, q2, q1 = _cubic_scalars(dt)
        if tier == GUESS:
            multiply(t, half_dt, x)
            add(x, half, x)
            divide(v, x, x)
            return subtract(x, v, end), GUESS
        if tier == PADE:
            multiply(t, x2, x)
            add(x, x1, x)
            multiply(x, t, x)
            add(x, one, x)
            multiply(t, q2, q)
            add(q, q1, q)
            multiply(q, t, q)
            add(q, one, q)
            divide(x, q, x)
            return multiply(v, x, end), PADE
    absa = np.abs(v)
    if m != 3.0 and not tier:   # m = 3 took max|v| for its tier
        amax = float(absa.max()) if v.size else math.inf
        tier = _tier(amax, dt, m)
    if tier == SOLVE:
        w = damping_solve_field(v, dt, m, absa, amax)
        w = np.multiply(w, 2.0, out=w)
        return np.subtract(w, v, out=w if out is None else out), SOLVE
    x = _guess(absa, dt, m)
    x *= np.copysign(2.0, v)
    return np.subtract(x, v, out=x if out is None else out), GUESS


# ---------------------------------------------------------------------------
# results


@dataclass
class Trajectory:
    """u at every ledger row, whose times are the ledger's t column."""
    u: list = field(default_factory=list)


@dataclass
class RunResult:
    """A run; its ``state`` is the stepper that ran it, where it stopped,
    with the run's grid, ``member`` the run's row in the stepper's batch,
    and ``wall_seconds`` its share of the batch's wall time."""
    config: ScenarioConfig
    kernel: RelaxationKernel
    datum: HistoryDatum
    ledger: EnergyLedger
    trajectory: Optional[Trajectory]
    flags: dict
    state: Stepper
    member: int
    wall_seconds: float

    @property
    def blew_up(self) -> bool:
        return bool(self.flags.get("dt_exhausted") or self.flags.get("nonfinite"))


# ---------------------------------------------------------------------------
# the stepper and the run


class Stepper:
    """The whole state of a batch of runs of config, one per datum, and its
    leapfrog step.

    The members share the grid, the kernel, m, p, dt, the clock and the
    memory's lag quadrature.  In a batch of B > 1 every field has a leading
    member axis: u, v, F, kick and work are (B, *grid.shape), and the
    memory's M is (B, K+5, N+1), so that a step makes each pass once for
    the batch.  A batch of one, a solo run, keeps no member axis, through
    which its step would cost about a fifth more.  Each live member's v is
    damped by its solo run's ``_damp_midpoint`` call on its rows
    (``_members``; a batch of one's are its fields).  B selects only the
    step's three reductions, h1 by parts, the damping power and the viscous
    inner product, which a solo run takes over the whole field, vdot and
    add.reduce, and a batch along rows, ``np.vecdot`` and ``add.reduce``,
    with the same bits: as (1, N) rows they would cost a solo step of w1 or
    poly_memory 11-12% more (a row vecdot into a buffer takes 0.72 us, a
    vdot's float 0.67 us, before the rows' list; 2-core AVX-512 x86-64).
    Those and the stacked memory product give each member its solo bits.
    Each member keeps its own scalars, in lists indexed by member: the last
    step's h1 = ||grad u||^2 and powers (``prev``), the trapezoid sums
    ``damp_cum`` and ``visc_cum``, ``grad_ref`` and ``flags``.

    u and v are the stepper's own arrays, which a step updates in place,
    and lap u the view of the memory's current rows that ``evaluate``
    reads, the same arrays for the whole run, so that ``grid.laplacian``
    reruns the plan it bound to them.  The memory at the state's lag
    (``mem``) follows the state, and F is its force.  The grid's and the
    memory's methods are bound once, from their classes' attributes, when
    the stepper is built.

    The clock counts integer ticks of dt0 / 2^10, so that pushes land on
    the s-grid after halvings.  The controller halves dt when a member's
    ||grad u|| doubles from its ``grad_ref``, down to dt0 / 2^10, then stops
    the member and flags it.  While another member is live, a member whose
    ||grad u|| doubles or whose state goes nonfinite leaves the batch
    instead: its rows are zeroed, so that it rests at the zero equilibrium,
    and ``left`` lists it for a rerun from t = 0 (``run_batch``).
    """

    def __init__(self, config: ScenarioConfig, data: list,
                 kernel: RelaxationKernel):
        self.memory = memory = config.make_memory(data, kernel)
        self.grid = grid = memory.grid
        B, shape = len(data), memory.M.shape[:-2] + grid.shape
        self.u, self.v, self.F, self.kick, work, spare = (
            aligned(shape) for _ in range(6))
        u, v = self.u, self.v
        u[...] = np.reshape([datum.value_at(0.0) for datum in data], shape)
        v[...] = np.reshape([datum.velocity_at_0 for datum in data], shape)
        m, p, self.source = config.m, config.p, config.source_enabled
        self.p, self.damping = p, config.damping_enabled
        lap_u, conv_mu, conv_mup = memory.lap_field, *memory.conv_fields
        # each member's rows of v and of the damping's scratch, work and
        # kick, free while v is damped, and one more field
        v_rows, *scratch = (f.reshape((B,) + grid.shape)
                            for f in (v, work, self.kick, spare))
        self._members = list(zip(v_rows, zip(*scratch)))
        # what a step reads, one tuple it unpacks into locals (the cheapest)
        self._operands = (
            u, v, lap_u, self.F, self.kick, work, conv_mu, conv_mup, B == 1,
            grid.laplacian, grid.h1_by_parts, memory.evaluate, memory.push,
            np.array(kernel.k0), grid.cell_volume, self.damping,
            self.damping and m == 1.0, m, self.source, p - 1.0,
            0.5 * (m + 1.0), self._members)
        # a batch's per-member reductions: the fields' rows as (B, N) views,
        # and a buffer for their B values
        self._rows = (u.reshape(B, -1), lap_u.reshape(B, -1),
                      conv_mup.reshape(B, -1), work.reshape(B, -1),
                      np.empty(B))
        self.tick_dt = config.resolved_dt(grid, kernel) / 2 ** MAX_DT_HALVINGS
        self.ticks_per_push = config.stride * 2 ** MAX_DT_HALVINGS
        self.output_every = config.output_every
        self.tick = self.step_index = 0
        self.live, self.left = list(range(B)), []
        self.flags = [{"completed": False, "nonfinite": False,
                       "dt_exhausted": False, "dt_halvings": 0}
                      for _ in range(B)]
        self.prev = self.step(move=False)
        self.damp_cum, self.visc_cum = [0.0] * B, [0.0] * B
        # a datum at rest grows inside the well without blowing up: the
        # controller's scale is never below the well's gradient radius
        gamma = wellconst.cached_constants(grid, p, kernel.k0).gamma
        radius = gamma ** (-(p + 1.0) / (p - 1.0))
        self.grad_ref = [max(math.sqrt(h1), radius) for h1, _, _ in self.prev]
        self.set_step(2 ** MAX_DT_HALVINGS)

    @property
    def t(self) -> float:
        return self.tick * self.tick_dt

    def member(self, b: int) -> tuple:
        """Member b's u, v and memory evaluation (``mem`` as it stands),
        views of the batch's rows, and its h1 = ||grad u||^2, which the step
        that reached the state returned."""
        rows, mem = (len(self.flags),) + self.grid.shape, self.mem
        return (self.u.reshape(rows)[b], self.v.reshape(rows)[b],
                mem._replace(conv=mem.conv.reshape((2,) + rows)[:, b],
                             scalar=mem.scalar.reshape(2, -1)[:, b]),
                self.prev[b][0])

    def terms(self, b: int = 0) -> dict:
        """scriptE, E, I, lp_pow and nehari_gap of member b's ledger row."""
        (u, v, mem, h1), grid, p = self.member(b), self.grid, self.p
        mem_mu = mem.integral(0, h1, u)
        sE = energetics.quadratic_energy(grid, v, h1, mem_mu)
        lp_pow = grid.lp_norm_pow(u, p + 1.0)
        source_part = lp_pow / (p + 1.0) if self.source else 0.0
        return {"scriptE": sE, "E": sE - source_part,
                "I": 0.5 * (h1 + mem_mu) - source_part, "lp_pow": lp_pow,
                "nehari_gap": h1 + mem_mu - lp_pow}

    def record(self, b: int, ledger: EnergyLedger,
               kept: Optional[Trajectory]):
        """Append member b's row to its ledger, and its u to kept."""
        row, h1 = self.terms(b), self.prev[b][0]
        damp_cum, visc_cum = self.damp_cum[b], self.visc_cum[b]
        E0 = ledger.E0 if len(ledger) else row["E"]
        resid = abs(row["E"] + damp_cum + visc_cum - E0)
        ledger.append(t=self.t, D_cum=damp_cum + visc_cum, damp_cum=damp_cum,
                      visc_cum=visc_cum, grad_norm=math.sqrt(h1),
                      identity_residual=resid, **row)
        if kept is not None:
            kept.u.append(self.member(b)[0].copy())

    def set_step(self, ticks: int):
        """Step by ticks ticks, dt, from now on: dt/2; for m = 1 the factor
        alpha by which each midpoint damping over dt/2 scales v
        (``_cayley``), as alpha dt for the drift between the two and alpha^2
        for both, as 0-d arrays, faster ufunc operands than floats; and the
        first half-kick (dt/2) F, which a step otherwise leaves in kick."""
        self.ticks_per_step, dt = ticks, ticks * self.tick_dt
        self.dt, half_dt, alpha = dt, 0.5 * dt, _cayley(0.5 * dt)
        self._scalars = (half_dt, *map(np.array, (
            dt, half_dt, alpha * dt, alpha * alpha)))
        multiply(self.F, half_dt, self.kick)

    def step(self, t: float = 0.0, lag: float = 0.0, push: bool = False,
             move: bool = True) -> list:
        """Advance the batch by dt to time t, pushing u onto the memory if
        ``push``, and evaluate the memory at ``lag`` since the last push;
        with ``move`` false, take the current state as it is.  Returns each
        member's h1 and damping and viscous powers at the state reached, a
        list of B tuples."""
        (u, v, lap_u, F, kick, work, conv_mu, conv_mup, single, laplacian,
         h1_by_parts, evaluate, push_u, k0, cell, damping, linear, m, source,
         source_e, power_e, members) = self._operands
        if move:
            # kick, then the damping split symmetrically around the drift;
            # at m = 1 the dampings scale v by alpha before and after it
            half_dt, dt, kick_dt, alpha_dt, alpha_sq = self._scalars
            add(v, kick, v)
            if linear:
                multiply(v, alpha_dt, work)
                add(u, work, u)
                multiply(v, alpha_sq, v)
            else:
                live = [members[b] for b in self.live] if damping else ()
                tiers = [_damp_midpoint(v_b, half_dt, m, SOLVE, scratch)[1]
                         for v_b, scratch in live]
                multiply(v, dt, work)
                add(u, work, u)
                for (v_b, scratch), tier in zip(live, tiers):
                    _damp_midpoint(v_b, half_dt, m, tier, scratch)
        # ||grad u||^2 by parts from lap u, a row's dot product a member
        laplacian(u, lap_u)
        if single:
            h1 = h1_by_parts(u, lap_u)
        else:
            u_rows, lap_rows, conv_rows, work_rows, sums = self._rows
            h1 = [abs(x) * cell for x in
                  vecdot(lap_rows, u_rows, out=sums).tolist()]
        if push:
            push_u(t, h1, lap_u)
        mem = self.mem = evaluate(h1, lag)
        # the force F = k0 lap u - lap conv (+ |u|^(p-1) u); a square is a
        # product, which rounds as pow does
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
        if move:
            # the second half-kick, with the new force
            multiply(F, kick_dt, kick)
            add(v, kick, v)
        if damping:
            # the damping power ||v||_{m+1}^{m+1}: lp_norm_pow's operations
            multiply(v, v, work)
            if power_e == 2.0:
                multiply(work, work, work)
            elif power_e != 1.0:
                work **= power_e
        # and the viscous power -(1/2) integral mu' ||grad w||^2 ds,
        # mem.integral(1, h1, u), in Python floats
        total = mem.total.item(1)
        if single:
            inner = float(vdot(u, conv_mup)) * cell
            return [(h1, float(add.reduce(work, None)) * cell if damping
                     else 0.0, -0.5 * (total * h1 + 2.0 * inner
                                       + mem.scalar.item(1)))]
        damp = ([x * cell for x in add.reduce(work_rows, -1, out=sums).tolist()]
                if damping else [0.0] * len(h1))
        visc = [-0.5 * (total * h + 2.0 * (inner * cell) + scalar)
                for h, inner, scalar in zip(
                    h1, vecdot(u_rows, conv_rows, out=sums).tolist(),
                    mem.scalar[1].tolist())]
        return list(zip(h1, damp, visc))

    def leave(self, b: int):
        """Take member b out of the batch, for a rerun: its rows rest at the
        zero equilibrium, where a step raises no warning."""
        for array in (self.u, self.v, self.F, self.kick, self.memory.M):
            array[b] = 0.0
        self.live = [a for a in self.live if a != b]
        self.left.append(b)

    def advance(self, end_tick: int, ledgers: list, kept: list):
        """Step to end_tick or until no member is live, recording each live
        member's every output_every-th row, its last and its stop's into its
        ledger, and its u into its ``kept`` trajectory (None for none); a
        member that stops or leaves does not move on."""
        step, flags, damping = self.step, self.flags, self.damping
        isfinite, sqrt = math.isfinite, math.sqrt
        increment = energetics.dissipation_increment
        tick_dt, ticks_per_push = self.tick_dt, self.ticks_per_push
        output_every, ticks_per_step = self.output_every, self.ticks_per_step
        damp_cum, visc_cum = self.damp_cum, self.visc_cum
        prev, grad_ref = self.prev, self.grad_ref
        # locals, saved before each row and on return, beat attributes by 5%
        tick, step_index, dt, live = (
            self.tick, self.step_index, self.dt, self.live)
        while tick < end_tick and live:
            tick += ticks_per_step
            step_index += 1
            t, rem = tick * tick_dt, tick % ticks_per_push
            rows = step(t, rem * tick_dt, not rem)
            due = tick >= end_tick or not step_index % output_every
            for b in live:
                h1, damp_now, visc_now = rows[b]
                # h1 is nonfinite where u is, the damping power where v is
                if not (isfinite(h1) and isfinite(damp_now) and (
                        damping or np.isfinite(self._members[b][0]).all())) \
                        and not all(np.isfinite(field).all()
                                    for field in self.member(b)[:2]):
                    if len(live) > 1:
                        self.leave(b)
                    else:
                        flags[b].update(nonfinite=True, stop_step=step_index)
                        self.live = []
                    live = self.live
                    continue
                _, damp_prev, visc_prev = prev[b]
                d_inc, v_inc = increment(dt, damp_prev, damp_now, visc_prev,
                                         visc_now)
                damp_cum[b] += d_inc
                visc_cum[b] += v_inc
                grad = sqrt(h1)
                doubled = grad >= GRAD_DOUBLING_FACTOR * grad_ref[b]
                if not (doubled or due):
                    continue
                if doubled and len(live) > 1:
                    self.leave(b)
                    live = self.live
                    continue
                stop = doubled and flags[b]["dt_halvings"] >= MAX_DT_HALVINGS
                if stop or due:
                    self.tick, self.step_index, self.prev = (
                        tick, step_index, rows)
                    self.record(b, ledgers[b], kept[b])
                if stop:
                    flags[b].update(dt_exhausted=True, stop_step=step_index)
                    live = self.live = []
                elif doubled:
                    flags[b]["dt_halvings"] += 1
                    grad_ref[b] = grad
                    self.set_step(ticks_per_step // 2)
                    ticks_per_step, dt = self.ticks_per_step, self.dt
            prev = rows
        self.tick, self.step_index, self.prev = tick, step_index, prev


def run_batch(configs: list, trajectory: bool = False) -> list:
    """Advance the scenarios to t_end or blow-up, deterministically, as one
    batch, keeping u at every row if ``trajectory``: a RunResult per config,
    each its solo run's to the byte.  The configs may differ in
    ``config.DATUM_FIELDS`` alone.  Members that left the batch are rerun
    from t = 0, together, which gives each its solo run by determinism."""
    t_start = time.monotonic()
    config = configs[0]
    for other in configs:
        other.validate()
    for other in configs[1:]:
        if other.shared_fields() != config.shared_fields():
            raise ValueError("a batch's configs may differ in their datum "
                             f"alone: {other!r} against {config!r}")
    grid, kernel = config.make_grid(), config.make_kernel()
    data = [other.make_history(grid) for other in configs]
    stepper = Stepper(config, data, kernel)
    ledgers = [EnergyLedger() for _ in configs]
    kept = [Trajectory() if trajectory else None for _ in configs]
    for b, ledger in enumerate(ledgers):
        stepper.record(b, ledger, kept[b])
    stepper.advance(round(config.t_end / stepper.tick_dt), ledgers, kept)
    wall = (time.monotonic() - t_start) / len(configs)
    results = []
    for b, flags in enumerate(stepper.flags):
        flags["completed"] = "stop_step" not in flags
        results.append(RunResult(
            config=configs[b], kernel=kernel, datum=data[b],
            ledger=ledgers[b], trajectory=kept[b], flags=flags, state=stepper,
            member=b, wall_seconds=wall))
    if stepper.left:
        reruns = run_batch([configs[b] for b in stepper.left], trajectory)
        for b, result in zip(stepper.left, reruns):
            results[b] = result
    return results


def run(config: ScenarioConfig, trajectory: bool = False) -> RunResult:
    """Advance the scenario to t_end or blow-up, deterministically, keeping
    u at every row if ``trajectory``: the batch of one."""
    return run_batch([config], trajectory)[0]
