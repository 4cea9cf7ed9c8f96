"""The solution's observed order of accuracy in dt, by self-convergence.

Each case runs to t_end = 1 at dt = 2^-7, 2^-8, 2^-9 and 2^-10, which land on
t_end exactly, with a fixed stride, so that the memory's ds = stride * dt
refines with dt.  For a scheme of order q the successive differences
max |u_dt(1) - u_dt/2(1)| fall by 2^q: the ratios read about 4 for the
second-order leapfrog and about 2 where the error is first order.  This is
observed-order testing as in Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124(1), 2002, with the finest run
standing in for the exact solution.
"""
from dataclasses import replace

import numpy as np
import pytest

from viscowave.config import ScenarioConfig
from viscowave.integrator import run

DTS = [2.0 ** -k for k in (7, 8, 9, 10)]

# Measured ratios (first, second): frozen exponential m = 1 4.010, 4.005;
# m = 3 4.032, 4.017; frozen polynomial m = 1 3.917, 3.957; the 16 x 16
# square-cell grid at m = 3 3.867, 3.935.  The bounds leave 7% headroom
# below the lowest and 9% above the highest, and sit far from first
# order's 2.
RATIO_BOUNDS = (3.6, 4.4)

# n = 50 keeps dt = 2^-7 under the CFL bound, 0.5 h / sqrt(k0) = 0.022
BASE = ScenarioConfig(dim=1, n=50, m=1.0, p=3.0, amplitude=0.1, stride=8,
                      t_end=1.0, output_every=1000)
POLY = {"kernel_family": "polynomial", "r": 1.5}

# A zero extension's history jumps at the support's oldest node, which the
# memory's trapezoid weights as if the support went on: an O(ds) error
# (ROADMAP item 18).  Measured ratios: exponential 1.993, 1.996; polynomial
# 2.007, 2.004.
FIRST_ORDER = pytest.mark.xfail(strict=True, reason="item 18")

CASES = [
    pytest.param(replace(BASE, extension="frozen"), id="frozen_exp_m1_1d"),
    pytest.param(replace(BASE, extension="frozen", m=3.0),
                 id="frozen_exp_m3_1d"),
    pytest.param(replace(BASE, extension="frozen", **POLY),
                 id="frozen_poly_m1_1d"),
    pytest.param(replace(BASE, extension="frozen", m=3.0, dim=2, n=16,
                         n_y=16, modes=(1, 2)), id="frozen_exp_m3_2d"),
    pytest.param(BASE, id="zero_exp_m1_1d", marks=FIRST_ORDER),
    pytest.param(replace(BASE, **POLY), id="zero_poly_m1_1d",
                 marks=FIRST_ORDER),
]


def convergence_ratios(cfg):
    """Successive ratios of max |u_dt(t_end) - u_dt/2(t_end)| over DTS."""
    us = [run(replace(cfg, dt=dt)).state.u for dt in DTS]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(us, us[1:])]
    return [d / d_half for d, d_half in zip(diffs, diffs[1:])]


@pytest.mark.parametrize("cfg", CASES)
def test_solution_converges_at_second_order_in_dt(cfg):
    lo, hi = RATIO_BOUNDS
    ratios = convergence_ratios(cfg)
    assert all(lo <= r <= hi for r in ratios), ratios
