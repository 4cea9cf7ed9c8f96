"""Scenario configuration: INI-style key = value files, validated all at once.

Sections mirror the subsystems: [grid], [kernel], [dynamics], [history],
[time], [memory].  Unknown sections or keys are rejected.  Floats are
serialized with 17 significant digits so that persist -> load round-trips are
lossless and reruns are bit-identical.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, SpatialGrid
from .kernel import KernelError, RelaxationKernel, EXPONENTIAL, POLYNOMIAL
from .history import HistoryDatum, ZERO, FROZEN


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


_SCHEMA = {
    "grid": {"dim", "extent", "extent_y", "n", "n_y"},
    "kernel": {"family", "mu0", "c", "r"},
    "dynamics": {"m", "p", "damping_enabled", "source_enabled"},
    "history": {"template", "modes", "amplitude", "profile", "ramp_rate",
                "support_T0", "extension", "table_path"},
    "time": {"dt", "t_end", "cfl_safety", "output_every"},
    "memory": {"stride"},
}

_PI_NAMES = {"pi": math.pi, "2pi": 2 * math.pi, "pi/2": math.pi / 2}


def _parse_length(text: str) -> float:
    t = text.strip().lower()
    if t in _PI_NAMES:
        return _PI_NAMES[t]
    return float(t)


@dataclass
class ScenarioConfig:
    # grid
    dim: int = 1
    extent: float = math.pi
    extent_y: float = math.pi
    n: int = 200
    n_y: int = 0
    # kernel
    kernel_family: str = EXPONENTIAL
    mu0: float = 1.0
    c: float = 1.0
    r: float = 1.5
    # dynamics
    m: float = 1.0
    p: float = 3.0
    damping_enabled: bool = True
    source_enabled: bool = True
    # history
    template: str = "sine"
    modes: tuple = (1,)
    amplitude: float = 0.1
    profile: str = "constant"
    ramp_rate: float = 1.0
    support_T0: float = 0.0
    extension: str = ZERO
    table_path: str = ""
    # time
    dt: float = 0.0            # 0 means "auto" from the CFL bound
    t_end: float = 20.0
    cfl_safety: float = 0.5
    output_every: int = 10
    # memory
    stride: int = 1            # s-grid spacing = stride * dt

    # -- derived objects ----------------------------------------------------

    def make_grid(self) -> SpatialGrid:
        if self.dim == 1:
            return SpatialGrid.line(self.extent, self.n)
        return SpatialGrid.rectangle((self.extent, self.extent_y),
                                     (self.n, self.n_y))

    def make_kernel(self) -> RelaxationKernel:
        if self.kernel_family == EXPONENTIAL:
            return RelaxationKernel.exponential(self.mu0, self.c)
        return RelaxationKernel.polynomial(self.mu0, self.r)

    def make_history(self, grid: SpatialGrid) -> HistoryDatum:
        if self.template == "table":
            data = np.loadtxt(self.table_path, delimiter=",")
            times = data[:, 0]
            samples = data[:, 1:].reshape(len(times), *grid.shape)
            return HistoryDatum.from_table(grid, times, samples,
                                           mode=self.extension)
        return HistoryDatum.from_template(
            grid, self.amplitude, modes=self.modes, profile=self.profile,
            support_T0=self.support_T0, mode=self.extension,
            ramp_rate=self.ramp_rate)

    def resolved_dt(self, grid: SpatialGrid, kernel: RelaxationKernel) -> float:
        bound = self.cfl_safety * min(grid.h) / math.sqrt(kernel.k0)
        if self.dt <= 0:
            return bound
        return self.dt

    def resolved_s_cap(self, kernel: RelaxationKernel) -> float:
        """Depth of the memory's s-grid quadrature; the exact tail covers
        the lags beyond it.

        Exponential: 50/c.  Compactly supported history: t_end + T0 suffices
        since the zero-extension tail is exact beyond that depth.  Polynomial
        frozen mode: depth with tail_mass <= 1e-10 * (k0 - 1), capped at
        100 * t_end.
        """
        if self.extension == ZERO:
            compact = self.t_end + self.support_T0
        else:
            compact = math.inf
        if kernel.family == EXPONENTIAL:
            return min(50.0 / kernel.c, compact)
        target = 1e-10 * (kernel.k0 - 1.0)
        a = (2.0 - kernel.r) / (kernel.r - 1.0)
        coeff = kernel.mu0 * (kernel.r - 1.0) / (2.0 - kernel.r)
        s_rule = (coeff / target) ** (1.0 / a) - 1.0
        return min(s_rule, compact, 100.0 * self.t_end)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        probs = []
        if self.dim not in (1, 2):
            probs.append(f"grid.dim must be 1 or 2, got {self.dim}")
        if self.n < 3 or (self.dim == 2 and self.n_y < 3):
            probs.append("grid needs at least 3 interior nodes per axis")
        if self.extent <= 0 or (self.dim == 2 and self.extent_y <= 0):
            probs.append("grid extents must be positive")
        if self.kernel_family not in (EXPONENTIAL, POLYNOMIAL):
            probs.append(f"kernel.family must be exponential or polynomial, "
                         f"got {self.kernel_family!r}")
        if self.mu0 <= 0:
            probs.append("kernel.mu0 must be positive")
        if self.kernel_family == EXPONENTIAL and self.c <= 0:
            probs.append("kernel.c must be positive")
        if self.kernel_family == POLYNOMIAL and not (1.0 < self.r < 2.0):
            probs.append(f"kernel.r must lie in (1, 2), got {self.r}")
        if self.m < 1:
            probs.append(f"dynamics.m must satisfy m >= 1, got {self.m}")
        if self.p <= 1:
            probs.append(f"dynamics.p must satisfy p > 1, got {self.p}")
        if self.template not in ("sine", "table"):
            probs.append(f"history.template must be sine or table, got "
                         f"{self.template!r}")
        if self.template == "table" and not self.table_path:
            probs.append("history.table_path required for table template")
        if self.profile not in ("constant", "ramp", "bump"):
            probs.append(f"history.profile must be constant, ramp, or bump, "
                         f"got {self.profile!r}")
        if self.profile == "bump" and self.support_T0 <= 0:
            probs.append("bump profile needs support_T0 > 0")
        if self.support_T0 < 0:
            probs.append("history.support_T0 must be nonnegative")
        if self.extension not in (ZERO, FROZEN):
            probs.append(f"history.extension must be zero or frozen, got "
                         f"{self.extension!r}")
        if self.t_end < 0:
            probs.append("time.t_end must be nonnegative")
        if not (0 < self.cfl_safety <= 1):
            probs.append("time.cfl_safety must lie in (0, 1]")
        if self.output_every < 1:
            probs.append("time.output_every must be a positive integer")
        if self.stride < 1:
            probs.append("memory.stride must be a positive integer")
        if self.dt > 0:
            try:
                bound = self.cfl_safety * min(self.make_grid().h) / \
                    math.sqrt(self.make_kernel().k0)
                if self.dt > bound * (1 + 1e-12):
                    probs.append(f"time.dt={self.dt:g} violates the stability "
                                 f"bound {bound:g}")
            except (GridError, KernelError):
                pass  # grid/kernel problems already reported
        if probs:
            raise ConfigError(probs)

    # -- serialization ------------------------------------------------------

    def to_ini(self) -> str:
        def f(x):
            return f"{x:.17g}" if isinstance(x, float) else str(x)

        lines = [
            "[grid]",
            f"dim = {self.dim}",
            f"extent = {f(self.extent)}",
        ]
        if self.dim == 2:
            lines.append(f"extent_y = {f(self.extent_y)}")
        lines.append(f"n = {self.n}")
        if self.dim == 2:
            lines.append(f"n_y = {self.n_y}")
        lines += ["", "[kernel]", f"family = {self.kernel_family}"]
        if self.kernel_family == EXPONENTIAL:
            lines += [f"mu0 = {f(self.mu0)}", f"c = {f(self.c)}"]
        else:
            lines += [f"mu0 = {f(self.mu0)}", f"r = {f(self.r)}"]
        lines += [
            "", "[dynamics]",
            f"m = {f(self.m)}", f"p = {f(self.p)}",
            f"damping_enabled = {str(self.damping_enabled).lower()}",
            f"source_enabled = {str(self.source_enabled).lower()}",
            "", "[history]",
            f"template = {self.template}",
        ]
        if self.template == "sine":
            lines += [
                f"modes = {','.join(str(k) for k in self.modes)}",
                f"amplitude = {f(self.amplitude)}",
                f"profile = {self.profile}",
            ]
            if self.profile == "ramp":
                lines.append(f"ramp_rate = {f(self.ramp_rate)}")
        else:
            lines.append(f"table_path = {self.table_path}")
        lines += [
            f"support_T0 = {f(self.support_T0)}",
            f"extension = {self.extension}",
            "", "[time]",
            f"dt = {f(self.dt) if self.dt > 0 else 'auto'}",
            f"t_end = {f(self.t_end)}",
            f"cfl_safety = {f(self.cfl_safety)}",
            f"output_every = {self.output_every}",
            "", "[memory]",
            f"stride = {self.stride}",
        ]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode()).hexdigest()[:12]


def _get(cp, sec, key, conv, default, probs):
    if not cp.has_option(sec, key):
        return default
    raw = cp.get(sec, key).strip()
    try:
        return conv(raw)
    except Exception:
        probs.append(f"[{sec}] {key} = {raw!r} is not a valid value")
        return default


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _auto_float(raw: str) -> float:
    return 0.0 if raw.lower() == "auto" else float(raw)


def loads(text: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive identifiers
    cp.read_file(io.StringIO(text))
    probs = []
    for sec in cp.sections():
        if sec not in _SCHEMA:
            probs.append(f"unknown section [{sec}]")
            continue
        for key in cp.options(sec):
            if key not in _SCHEMA[sec]:
                probs.append(f"unknown key {key!r} in section [{sec}]")
    cfg = ScenarioConfig(
        dim=_get(cp, "grid", "dim", int, 1, probs),
        extent=_get(cp, "grid", "extent", _parse_length, math.pi, probs),
        extent_y=_get(cp, "grid", "extent_y", _parse_length, math.pi, probs),
        n=_get(cp, "grid", "n", int, 200, probs),
        n_y=_get(cp, "grid", "n_y", int, 0, probs),
        kernel_family=_get(cp, "kernel", "family", str, EXPONENTIAL, probs),
        mu0=_get(cp, "kernel", "mu0", float, 1.0, probs),
        c=_get(cp, "kernel", "c", float, 1.0, probs),
        r=_get(cp, "kernel", "r", float, 1.5, probs),
        m=_get(cp, "dynamics", "m", float, 1.0, probs),
        p=_get(cp, "dynamics", "p", float, 3.0, probs),
        damping_enabled=_get(cp, "dynamics", "damping_enabled", _bool, True, probs),
        source_enabled=_get(cp, "dynamics", "source_enabled", _bool, True, probs),
        template=_get(cp, "history", "template", str, "sine", probs),
        modes=_get(cp, "history", "modes",
                   lambda s: tuple(int(k) for k in s.split(",")), (1,), probs),
        amplitude=_get(cp, "history", "amplitude", float, 0.1, probs),
        profile=_get(cp, "history", "profile", str, "constant", probs),
        ramp_rate=_get(cp, "history", "ramp_rate", float, 1.0, probs),
        support_T0=_get(cp, "history", "support_T0", float, 0.0, probs),
        extension=_get(cp, "history", "extension", str, ZERO, probs),
        table_path=_get(cp, "history", "table_path", str, "", probs),
        dt=_get(cp, "time", "dt", _auto_float, 0.0, probs),
        t_end=_get(cp, "time", "t_end", float, 20.0, probs),
        cfl_safety=_get(cp, "time", "cfl_safety", float, 0.5, probs),
        output_every=_get(cp, "time", "output_every", int, 10, probs),
        stride=_get(cp, "memory", "stride", int, 1, probs),
    )
    if probs:
        raise ConfigError(probs)
    cfg.validate()
    return cfg


def load(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
