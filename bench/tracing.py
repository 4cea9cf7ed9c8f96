"""Spans around calls into viscowave's public functions, and the per-layer
metrics computed from them.

The tracer patches each target under the name its caller looks it up by (a
class attribute, or a module global of the calling module), so the program
itself is unchanged.  Spans are kept in flat in-memory arrays: name id,
start and end (``perf_counter_ns``), parent span index and run id.  All work
is serial, so a span's children are disjoint sub-intervals of it and its
self time is its duration minus the sum of its direct children's durations.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# (span name, module, class or None, attribute)
TARGETS = (
    ("grid.laplacian", "viscowave.grid", "SpatialGrid", "laplacian"),
    ("grid.h1_seminorm_sq", "viscowave.grid", "SpatialGrid", "h1_seminorm_sq"),
    ("grid.lp_norm_pow", "viscowave.grid", "SpatialGrid", "lp_norm_pow"),
    ("grid.poisson_solve", "viscowave.grid", "SpatialGrid", "poisson_solve"),
    ("kernel.mu", "viscowave.kernel", "RelaxationKernel", "mu"),
    ("kernel.mu_prime", "viscowave.kernel", "RelaxationKernel", "mu_prime"),
    ("history.memory_init", "viscowave.history", "MemoryState", "__init__"),
    ("history.push", "viscowave.history", "MemoryState", "push"),
    ("history.convolution_field", "viscowave.history", "MemoryState",
     "convolution_field"),
    ("history.scalar_convolution", "viscowave.history", "MemoryState",
     "scalar_convolution"),
    ("history.memory_integral", "viscowave.history", "MemoryState",
     "memory_integral"),
    ("history.classify", "viscowave.runner", None, "classify"),
    ("integrator.run", "viscowave.runner", None, "run"),
    ("integrator.damping_solve_field", "viscowave.integrator", None,
     "damping_solve_field"),
    ("energetics.viscous_power", "viscowave.energetics", None, "viscous_power"),
    ("energetics.quadratic_energy", "viscowave.energetics", None,
     "quadratic_energy"),
    ("energetics.damping_power", "viscowave.energetics", None, "damping_power"),
    ("wellconst.compute_constants", "viscowave.wellconst", None,
     "compute_constants"),
    ("wellconst.sobolev_gamma", "viscowave.wellconst", None, "sobolev_gamma"),
    ("decay.lt_ode_solve", "viscowave.decay", None, "lt_ode_solve"),
    ("decay.resolvent", "viscowave.decay", None, "resolvent"),
    ("decay.comparison_check", "viscowave.decay", None, "comparison_check"),
    ("blowup.verdict", "viscowave.blowup", None, "verdict"),
    ("runner.run_scenario", "viscowave.runner", None, "run_scenario"),
    ("runner.run_scenario", "viscowave.acceptance", None, "run_scenario"),
    ("runner.persist_record", "viscowave.runner", None, "persist_record"),
)

# which statistics each span name reports
SPAN_STATS = {
    "grid.laplacian": ("calls", "self_s", "per_step"),
    "grid.h1_seminorm_sq": ("calls", "self_s"),
    "grid.lp_norm_pow": ("calls", "self_s"),
    "grid.poisson_solve": ("calls", "self_s"),
    "kernel.mu": ("calls", "self_s", "per_step"),
    "kernel.mu_prime": ("calls", "self_s"),
    "history.memory_init": ("busy_s",),
    "history.push": ("calls", "self_s"),
    "history.convolution_field": ("calls", "self_s", "per_step"),
    "history.scalar_convolution": ("calls", "self_s"),
    "history.memory_integral": ("calls", "busy_s"),
    "history.classify": ("busy_s",),
    "integrator.run": ("busy_s", "self_s"),
    "integrator.damping_solve_field": ("calls", "self_s"),
    "energetics.viscous_power": ("calls", "busy_s"),
    "energetics.quadratic_energy": ("calls", "busy_s"),
    "energetics.damping_power": ("calls", "self_s"),
    "wellconst.compute_constants": ("calls", "busy_s"),
    "wellconst.sobolev_gamma": ("calls", "busy_s"),
    "decay.lt_ode_solve": ("calls", "busy_s"),
    "decay.resolvent": ("calls", "self_s"),
    "decay.comparison_check": ("busy_s",),
    "blowup.verdict": ("busy_s",),
    "runner.run_scenario": ("calls", "busy_s"),
    "runner.persist_record": ("calls", "busy_s"),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s",
              "per_step": "1/step"}

# counts taken from the RunRecords the benchmark sees, not from spans
COUNTERS = {
    "integrator.steps": "count",
    "integrator.dt_halvings": "count",
    "energetics.ledger_rows": "count",
    "history.state_bytes": "B",
    "runner.bytes_written": "B",
}
CRITERIA = range(1, 15)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    units.update(COUNTERS)
    units["wellconst.poisson_per_gamma"] = "1/call"
    for number in CRITERIA:
        units[f"acceptance.criterion_{number:02d}.busy_s"] = "s"
    units["tracing.overhead_s"] = "s"
    return units


class Tracer:
    """Records one span per call of each installed target."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.run_id = 0
        self._patched: list = []
        self.absent: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call; returns exactly what ``fn`` does."""
        nid = self._name_id(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Patch every target that exists; names with no target are absent.

        All modules are imported before the first patch, so that no module
        binds an already patched function at import time.
        """
        modules = {t[1]: importlib.import_module(t[1]) for t in targets}
        found = set()
        for name, module, cls, attr in targets:
            owner = modules[module]
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))
            found.add(name)
        self.absent = {t[0] for t in targets} - found

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, run_id: int):
        """Targets patched, and spans tagged ``run_id``, inside the block."""
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.spans())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = (np.asarray(end) - np.asarray(start)).astype(np.float64)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def nested_in_same_name(name, parent) -> np.ndarray:
    """True for spans that have an ancestor of the same name."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    nested = np.zeros(len(name), dtype=bool)
    idx = np.arange(len(name))
    anc = parent.copy()
    while True:
        live = anc[idx] >= 0
        idx = idx[live]
        if not len(idx):
            return nested
        nested[idx] |= name[anc[idx]] == name[idx]
        anc[idx] = parent[anc[idx]]


def layer_metrics(names: list, spans: dict, absent: set, counters: dict,
                  criteria: dict, overhead_s: float) -> dict:
    """Per-layer metric values; ``None`` marks a name the program lacks.

    ``criteria`` maps criterion number to seconds; a criterion missing from
    it is absent unless it is empty (the workload ran no acceptance suite).
    """
    ids = {n: i for i, n in enumerate(names)}
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    own = self_times(spans["start"], spans["end"], parent)
    outer = ~nested_in_same_name(name, parent)
    steps = counters["integrator.steps"]
    values = {}
    for span, stats in SPAN_STATS.items():
        sel = name == ids.get(span, -1)
        calls = int(np.count_nonzero(sel))
        for stat in stats:
            if span in absent:
                value = None
            elif stat == "calls":
                value = calls
            elif stat == "busy_s":
                value = float(np.sum(dur[sel & outer])) * 1e-9
            elif stat == "self_s":
                value = float(np.sum(own[sel])) * 1e-9
            else:
                value = calls / steps if steps else 0.0
            values[f"{span}.{stat}"] = value
    values.update(counters)
    gamma, poisson = "wellconst.sobolev_gamma", "grid.poisson_solve"
    if {gamma, poisson} & absent:
        values["wellconst.poisson_per_gamma"] = None
    else:
        is_gamma = name == ids.get(gamma, -1)
        under = (name == ids.get(poisson, -1)) & (parent >= 0)
        under[under] = is_gamma[parent[under]]
        n_gamma = int(np.count_nonzero(is_gamma))
        values["wellconst.poisson_per_gamma"] = (
            int(np.count_nonzero(under)) / n_gamma if n_gamma else 0.0)
    for number in CRITERIA:
        values[f"acceptance.criterion_{number:02d}.busy_s"] = (
            criteria.get(number, None if criteria else 0.0))
    values["tracing.overhead_s"] = overhead_s
    return values
