import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from viscowave import energetics, integrator
from viscowave.config import ScenarioConfig
from viscowave.energetics import LEDGER_COLUMNS, EnergyLedger
from viscowave.grid import SpatialGrid
from viscowave.history import HistoryDatum, MemoryState
from viscowave.integrator import run
from viscowave.kernel import RelaxationKernel

EXP11 = RelaxationKernel.exponential(1.0, 1.0)


def inner(grid, f, g):
    """The midpoint-quadrature L2 inner product of f and g."""
    return float(np.add.reduce(f * g, axis=None)) * grid.cell_volume


def memory_for(datum, ds=0.02, depth=30.0):
    return MemoryState(datum, EXP11, ds=ds, s_depth=depth)


def scriptE_at_rest(datum, **memory_kwargs):
    """scriptE of u = u0(0) at rest, the memory term from the datum's
    memory at lag 0."""
    grid = datum.grid
    U = datum.value_at(0.0)
    mem_mu = memory_for(datum, **memory_kwargs).memory_integral(U)
    return energetics.quadratic_energy(grid, grid.zeros(),
                                       grid.h1_seminorm_sq(U), mem_mu)


class TestPointwiseFunctionals:
    def test_zero_state(self):
        grid = SpatialGrid.line(math.pi, 40)
        datum = HistoryDatum.from_template(grid, 0.0)
        z = grid.zeros()
        assert scriptE_at_rest(datum) == 0.0
        assert (scriptE_at_rest(datum)
                - grid.lp_norm_pow(z, 4.0) / 4.0) == 0.0

    def test_constant_frozen_history(self):
        # w vanishes, so only the gradient term survives
        grid = SpatialGrid.line(math.pi, 120)
        datum = HistoryDatum.from_template(grid, 0.7, mode="frozen")
        U = datum.value_at(0.0)
        sE = scriptE_at_rest(datum)
        assert sE == pytest.approx(0.5 * grid.h1_seminorm_sq(U), rel=1e-12)

    def test_step_history_doubles_gradient_part(self):
        grid = SpatialGrid.line(math.pi, 120)
        datum = HistoryDatum.from_template(grid, 0.7)
        U = datum.value_at(0.0)
        sE = scriptE_at_rest(datum, ds=0.005, depth=40.0)
        # w jumps at s = 0+, so the first quadrature cell carries O(ds) error
        assert sE == pytest.approx(grid.h1_seminorm_sq(U), rel=5e-3)

    def test_total_energy_signs(self):
        grid = SpatialGrid.line(math.pi, 100)
        small = HistoryDatum.from_template(grid, 0.05)
        big = HistoryDatum.from_template(grid, 5.0)
        for datum, sign in ((small, 1.0), (big, -1.0)):
            U = datum.value_at(0.0)
            E = scriptE_at_rest(datum) - grid.lp_norm_pow(U, 4.0) / 4.0
            assert sign * E > 0

    def test_dissipation_increment_values(self):
        grid = SpatialGrid.line(math.pi, 50)
        assert energetics.dissipation_increment(0.1, 0, 0, 0, 0) == (0, 0)
        V = 0.3 * np.sin(grid.coords()[0])
        d = energetics.damping_power(grid, V, 1.0)
        damp, visc = energetics.dissipation_increment(0.1, d, d, 0.0, 0.0)
        assert damp == pytest.approx(0.1 * grid.lp_norm_pow(V, 2.0),
                                     rel=1e-14)
        assert visc == 0.0

    def test_viscous_power_nonnegative(self):
        grid = SpatialGrid.line(math.pi, 60)
        datum = HistoryDatum.from_template(grid, 0.4)
        mem = memory_for(datum)
        assert energetics.viscous_power(grid, datum.value_at(0.0), mem) >= 0.0


class TestLedger:
    def row(self, **overrides):
        base = {k: 0.0 for k in LEDGER_COLUMNS}
        base.update(overrides)
        return base

    def test_append_and_columns(self):
        led = EnergyLedger()
        led.append(**self.row(t=0.0, E=1.0))
        led.append(**self.row(t=0.5, E=0.8))
        assert led.E0 == 1.0
        assert np.allclose(led.column("E"), [1.0, 0.8])
        assert len(led) == 2

    def test_append_rejects_wrong_columns(self):
        led = EnergyLedger()
        bad = self.row()
        bad.pop("E")
        with pytest.raises(ValueError):
            led.append(**bad)
        with pytest.raises(ValueError):
            led.append(extra=1.0, **self.row())

    def test_csv_round_trip_bit_exact(self):
        led = EnergyLedger()
        led.append(**self.row(t=1.0 / 3.0, E=0.1 + 1e-16, scriptE=math.pi))
        text = led.to_csv()
        again = EnergyLedger.from_csv(text)
        assert again.rows == led.rows
        assert again.to_csv() == text

    def test_header_row(self):
        led = EnergyLedger()
        led.append(**self.row())
        assert led.to_csv().splitlines()[0] == ",".join(LEDGER_COLUMNS)


class TestChecks:
    def synthetic(self, energies, residual=0.0):
        led = EnergyLedger()
        for j, E in enumerate(energies):
            led.append(t=float(j), scriptE=abs(E), E=E, I=0.0, D_cum=0.0,
                       damp_cum=0.0, visc_cum=0.0, grad_norm=0.0, lp_pow=0.0,
                       nehari_gap=1.0, identity_residual=residual)
        return led

    def test_monotone_pass(self):
        assert energetics.monotonicity_check(self.synthetic([1.0, 0.7, 0.5]))["ok"]

    def test_monotone_fail(self):
        report = energetics.monotonicity_check(self.synthetic([1.0, 1.5]))
        assert not report["ok"]
        assert report["violations"][0]["row"] == 1

    def test_monotone_tolerates_residual(self):
        led = self.synthetic([1.0, 1.0 + 1e-5], residual=1e-4)
        assert energetics.monotonicity_check(led)["ok"]

    def test_sandwich_on_conforming_rows(self):
        led = EnergyLedger()
        for j in range(5):
            sE = 1.0 / (j + 1)
            led.append(t=float(j), scriptE=sE, E=0.7 * sE, I=0.0, D_cum=0.0,
                       damp_cum=0.0, visc_cum=0.0, grad_norm=0.0, lp_pow=0.0,
                       nehari_gap=1.0, identity_residual=0.0)
        assert energetics.sandwich_check(led, 3.0)["ok"]

    def test_sandwich_detects_violation(self):
        led = self.synthetic([-1.0])
        assert not energetics.sandwich_check(led, 3.0)["ok"]

    def test_dissipation_monotone(self):
        # trapezoid increments of nonnegative powers never lower the sums
        powers = [(0.0, 0.3), (0.2, 0.0), (5e-324, 5.0), (0.0, 0.0)]
        for dt in (1e-3, 0.5):
            for (d0, v0), (d1, v1) in zip(powers, powers[1:]):
                d_inc, v_inc = energetics.dissipation_increment(dt, d0, d1,
                                                                v0, v1)
                assert d_inc >= 0.0 and v_inc >= 0.0


def variational_residual(trajectory, grid, kernel, m, p, test_field,
                         test_profile, test_profile_dt) -> float:
    """Discrete residual of the weak formulation for phi(x,t) = X(x)g(t).

    ``trajectory`` holds, per ledger row, times, u, v and lap_conv (lap of
    the mu convolution), as ``run_keeping_rows`` collects them.  Every time
    integral is the trapezoid rule on the rows' times; every gradient pairing
    goes onto X by summation by parts, which is exact on the grid.
    """
    times = trajectory.times
    X = grid.check(test_field)
    lapX = grid.laplacian(X)
    g = np.array([float(test_profile(t)) for t in times])
    gdot = np.array([float(test_profile_dt(t)) for t in times])

    def integral(fn, weight):
        return np.trapezoid(
            [fn(j) * w for j, w in enumerate(weight)], times)

    u, v = trajectory.u, trajectory.v
    # <u_t, phi> at the ends, - int <u_t, phi_t>
    term = inner(grid, v[-1], X) * g[-1] - inner(grid, v[0], X) * g[0]
    term -= integral(lambda j: inner(grid, v[j], X), gdot)
    # + k0 int <grad u, grad phi> = - k0 int <u, lap phi>
    term += kernel.k0 * integral(lambda j: -inner(grid, u[j], lapX), g)
    # + int int k'(s) <grad u(tau - s), grad phi> ds dtau
    #   = - int <grad conv, grad phi> = int <lap conv, phi>
    term += integral(lambda j: inner(grid, trajectory.lap_conv[j], X), g)
    # + int <|u_t|^{m-1} u_t, phi> - int <|u|^{p-1} u, phi>
    term += integral(
        lambda j: inner(grid, np.abs(v[j]) ** (m - 1.0) * v[j], X), g)
    term -= integral(
        lambda j: inner(grid, np.abs(u[j]) ** (p - 1.0) * u[j], X), g)
    return abs(float(term))


def run_keeping_rows(monkeypatch, config):
    """run(config, trajectory=True), and its rows for variational_residual:
    the kept times and u, and copies of v and of lap of the mu convolution
    taken by a wrapper around integrator.Stepper.record."""
    rows = SimpleNamespace(v=[], lap_conv=[])
    record = integrator.Stepper.record

    def record_and_keep(stepper, b, ledger, kept):
        record(stepper, b, ledger, kept)
        _, v, mem, _ = stepper.member(b)
        rows.v.append(v.copy())
        rows.lap_conv.append(mem.conv[0].copy())

    with monkeypatch.context() as patch:
        patch.setattr(integrator.Stepper, "record", record_and_keep)
        result = run(config, trajectory=True)
    rows.times, rows.u = result.ledger.column("t"), result.trajectory.u
    return result, rows


class TestVariationalResidual:
    def config(self, **overrides):
        # record every step so the output-grid time quadrature refines along
        # with dt
        base = ScenarioConfig(n=60, t_end=2.0, stride=4, output_every=1,
                              amplitude=0.1)
        return replace(base, **overrides)

    def test_zero_solution(self, monkeypatch):
        result, rows = run_keeping_rows(monkeypatch,
                                        self.config(amplitude=0.0))
        grid = result.state.grid
        X = np.sin(grid.coords()[0])
        res = variational_residual(
            rows, grid, result.kernel, 1.0, 3.0, X,
            lambda t: math.cos(t), lambda t: -math.sin(t))
        assert res == 0.0

    def test_zero_test_function(self, monkeypatch):
        result, rows = run_keeping_rows(monkeypatch, self.config())
        grid = result.state.grid
        res = variational_residual(
            rows, grid, result.kernel, 1.0, 3.0, grid.zeros(),
            lambda t: 1.0, lambda t: 0.0)
        assert res == 0.0

    def test_residual_shrinks_with_dt(self, monkeypatch):
        coarse, coarse_rows = run_keeping_rows(monkeypatch, self.config())
        base_dt = self.config().resolved_dt(coarse.state.grid, coarse.kernel)
        fine, fine_rows = run_keeping_rows(monkeypatch,
                                           self.config(dt=base_dt / 2.0))
        X = np.sin(coarse.state.grid.coords()[0])
        args = (X, lambda t: math.cos(t), lambda t: -math.sin(t))
        r_coarse = variational_residual(
            coarse_rows, coarse.state.grid, coarse.kernel, 1.0, 3.0, *args)
        r_fine = variational_residual(
            fine_rows, fine.state.grid, fine.kernel, 1.0, 3.0, *args)
        assert r_fine <= r_coarse / 2.0
