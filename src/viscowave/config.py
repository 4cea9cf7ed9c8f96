"""Scenario configuration: INI-style key = value files, validated all at once.

Sections mirror the subsystems: [grid], [kernel], [dynamics], [history],
[time], [memory]; the table _KEYS lists their keys.  Unknown sections or
keys are rejected.  Floats are serialized with 17 significant digits so that
persist -> load round-trips are lossless and reruns are bit-identical.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridError, SpatialGrid
from .kernel import KernelError, RelaxationKernel, EXPONENTIAL, POLYNOMIAL
from .history import HistoryDatum, MemoryState, ZERO, FROZEN


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


_PI_NAMES = {"pi": math.pi, "2pi": 2 * math.pi, "pi/2": math.pi / 2}


def _parse_length(text: str) -> float:
    t = text.strip().lower()
    if t in _PI_NAMES:
        return _PI_NAMES[t]
    return float(t)


def _parse_modes(text: str) -> tuple:
    return tuple(int(k) for k in text.split(","))


# the fields that only the history datum reads: runs that differ in these
# alone may share one batch (``integrator.run_batch``)
DATUM_FIELDS = frozenset({"template", "modes", "amplitude", "profile",
                          "ramp_rate", "table_path"})


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

    def shared_fields(self) -> dict:
        """The fields outside DATUM_FIELDS, which a batch's runs share."""
        return {k: v for k, v in vars(self).items() if k not in DATUM_FIELDS}

    def make_grid(self) -> SpatialGrid:
        return SpatialGrid.rectangle((self.extent, self.extent_y)[:self.dim],
                                     (self.n, self.n_y)[:self.dim])

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

    def make_memory(self, data: list,
                    kernel: RelaxationKernel) -> MemoryState:
        """The memory of a batch of runs of the data, which share their grid
        and support (with no member axis for one datum): ds = stride * dt,
        depth max(s_cap, ds), horizon t_end + T0 + ds (the last step may
        pass t_end by under ds)."""
        grid, T0 = data[0].grid, data[0].support_T0
        ds = self.stride * self.resolved_dt(grid, kernel)
        return MemoryState(data if len(data) > 1 else data[0], kernel, ds,
                           max(self.resolved_s_cap(kernel), ds),
                           horizon=self.t_end + T0 + ds)

    def _cfl_bound(self, grid: SpatialGrid, kernel: RelaxationKernel) -> float:
        return self.cfl_safety * min(grid.h) / math.sqrt(kernel.k0)

    def resolved_dt(self, grid: SpatialGrid, kernel: RelaxationKernel) -> float:
        return self.dt if self.dt > 0 else self._cfl_bound(grid, kernel)

    def resolved_s_cap(self, kernel: RelaxationKernel) -> float:
        """Depth of the memory's s-grid quadrature, the exact tail beyond:
        exponential 50/c, polynomial where tail_mass <= 1e-10 (k0 - 1) up to
        100 t_end, and t_end + T0 at most for a zero extension, whose tail
        is exact past it."""
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
        if self.template == "sine" and len(self.modes) != self.dim:
            probs.append(f"history.modes needs one mode number per grid axis, "
                         f"got {len(self.modes)} for dim {self.dim}")
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
                bound = self._cfl_bound(self.make_grid(), self.make_kernel())
                if self.dt > bound * (1 + 1e-12):
                    probs.append(f"time.dt={self.dt:g} violates the stability "
                                 f"bound {bound:g}")
            except (GridError, KernelError):
                pass  # grid/kernel problems already reported
        if probs:
            raise ConfigError(probs)

    # -- serialization ------------------------------------------------------

    def to_ini(self) -> str:
        lines, section = [], None
        for row in _KEYS:
            if not row.when(self):
                continue
            if row.section != section:
                section = row.section
                lines += ["", f"[{section}]"]
            lines.append(f"{row.key} = {row.text(getattr(self, row.field))}")
        return "\n".join(lines[1:]) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode()).hexdigest()[:12]


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _g17(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _sine(cfg: ScenarioConfig) -> bool:
    return cfg.template == "sine"


class _Key(NamedTuple):
    """One config key: INI parser, canonical text, and when it is written."""
    section: str
    key: str
    parse: Callable = float
    text: Callable = _g17
    when: Callable = lambda cfg: True
    field_name: str = ""          # dataclass field, when it is not ``key``

    @property
    def field(self) -> str:
        return self.field_name or self.key


# The key reference, in canonical order: loads parses (and reports problems)
# in this order, and to_ini writes the rows whose ``when`` holds.  Defaults
# live only on ScenarioConfig.
_KEYS = (
    _Key("grid", "dim", int, str),
    _Key("grid", "extent", _parse_length),
    _Key("grid", "extent_y", _parse_length, when=lambda cfg: cfg.dim == 2),
    _Key("grid", "n", int, str),
    _Key("grid", "n_y", int, str, lambda cfg: cfg.dim == 2),
    _Key("kernel", "family", str, str, field_name="kernel_family"),
    _Key("kernel", "mu0"),
    _Key("kernel", "c", when=lambda cfg: cfg.kernel_family == EXPONENTIAL),
    _Key("kernel", "r", when=lambda cfg: cfg.kernel_family != EXPONENTIAL),
    _Key("dynamics", "m"),
    _Key("dynamics", "p"),
    _Key("dynamics", "damping_enabled", _bool, lambda b: str(b).lower()),
    _Key("dynamics", "source_enabled", _bool, lambda b: str(b).lower()),
    _Key("history", "template", str, str),
    _Key("history", "modes", _parse_modes,
         lambda modes: ",".join(str(k) for k in modes), _sine),
    _Key("history", "amplitude", when=_sine),
    _Key("history", "profile", str, str, _sine),
    _Key("history", "ramp_rate",
         when=lambda cfg: _sine(cfg) and cfg.profile == "ramp"),
    _Key("history", "table_path", str, str, lambda cfg: not _sine(cfg)),
    _Key("history", "support_T0"),
    _Key("history", "extension", str, str),
    _Key("time", "dt", lambda s: 0.0 if s.lower() == "auto" else float(s),
         lambda dt: _g17(dt) if dt > 0 else "auto"),
    _Key("time", "t_end"),
    _Key("time", "cfl_safety"),
    _Key("time", "output_every", int, str),
    _Key("memory", "stride", int, str),
)


def loads(text: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive identifiers
    cp.read_file(io.StringIO(text))
    keys = {(row.section, row.key) for row in _KEYS}
    probs = []
    for sec in cp.sections():
        if sec not in {row.section for row in _KEYS}:
            probs.append(f"unknown section [{sec}]")
            continue
        probs += [f"unknown key {key!r} in section [{sec}]"
                  for key in cp.options(sec) if (sec, key) not in keys]
    parsed = {}
    for row in _KEYS:
        if not cp.has_option(row.section, row.key):
            continue
        raw = cp.get(row.section, row.key).strip()
        try:
            parsed[row.field] = row.parse(raw)
        except ValueError:
            probs.append(f"[{row.section}] {row.key} = {raw!r} "
                         "is not a valid value")
    if probs:
        raise ConfigError(probs)
    cfg = ScenarioConfig(**parsed)
    cfg.validate()
    return cfg


def load(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
