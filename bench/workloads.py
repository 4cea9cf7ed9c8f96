"""Benchmark workloads and the scenario INI text each seed generates.

The program under test sees only the INI text built here.  A seed fixes the
order in which a scenario workload visits its sine-mode strata and the
amplitude of each datum.  Every run covers every stratum (modes 1-2 per
axis), because the identity residual relative to E0 grows about 2.5x per
mode step: drawing the modes themselves from the seed would make the
accuracy metric differ from seed to seed by that factor.
"""
from __future__ import annotations

import itertools
import random

SCENARIO_WORKLOADS = ("wave2d", "poly_memory")
WORKLOADS = SCENARIO_WORKLOADS + ("verify_quick",)

# Every datum in this band stays in the stable well W1 for both geometries.
AMPLITUDE_BAND = (0.05, 0.15)

_WAVE2D = """\
[grid]
dim = 2
extent = pi
extent_y = pi
n = 64
n_y = 64

[kernel]
family = exponential
mu0 = 1
c = 1

[dynamics]
m = 3
p = 3

[history]
template = sine
modes = {modes}
amplitude = {amplitude!r}

[time]
t_end = {t_end}
output_every = 10

[memory]
stride = 8
"""

_POLY_MEMORY = """\
[grid]
dim = 1
extent = pi
n = 200

[kernel]
family = polynomial
mu0 = 1
r = 1.5

[dynamics]
m = 1
p = 3

[history]
template = sine
modes = {modes}
amplitude = {amplitude!r}
extension = frozen

[time]
t_end = {t_end}
output_every = 10

[memory]
stride = 8
"""

_SCENARIOS = {
    # (template, spatial dimension, t_end)
    "wave2d": (_WAVE2D, 2, 40),
    "poly_memory": (_POLY_MEMORY, 1, 5),
}


def scenario_inis(workload: str, seed: int, t_end: float | None = None) -> list:
    """INI texts of the workload's data, one per mode stratum, in seed order.

    ``t_end`` overrides the workload's end time (0 gives the set-up run).
    """
    template, dim, default_t_end = _SCENARIOS[workload]
    rng = random.Random(f"{workload}:{seed}")
    strata = list(itertools.product((1, 2), repeat=dim))
    rng.shuffle(strata)
    texts = []
    for modes in strata:
        amplitude = round(rng.uniform(*AMPLITUDE_BAND), 4)
        texts.append(template.format(
            modes=",".join(str(k) for k in modes), amplitude=amplitude,
            t_end=default_t_end if t_end is None else t_end))
    return texts
