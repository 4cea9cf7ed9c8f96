"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, scenario_inis  # noqa: E402


def _spans(rows):
    """rows: (name id, start, end, parent)."""
    a = np.array(rows, dtype=np.int64)
    return {"name": a[:, 0].astype(np.int32), "start": a[:, 1],
            "end": a[:, 2], "parent": a[:, 3].astype(np.int32),
            "run": np.zeros(len(a), dtype=np.int32)}


def test_self_time_on_nested_call_tree():
    # run_scenario [0, 100] -> run [10, 60] -> laplacian [15, 25]
    #                                       -> laplacian [30, 32]
    #                       -> persist_record [70, 90]
    spans = _spans([
        (0, 0, 100, -1), (1, 10, 60, 0), (2, 15, 25, 1), (2, 30, 32, 1),
        (3, 70, 90, 0)])
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert own.tolist() == [30.0, 38.0, 10.0, 2.0, 20.0]
    assert own.sum() == 100.0  # self times partition the root span

    names = ["runner.run_scenario", "integrator.run", "grid.laplacian",
             "runner.persist_record"]
    counters = {"integrator.steps": 4}
    values = layer_metrics(names, spans, set(), counters, {}, 0.0)
    assert values["grid.laplacian.calls"] == 2
    assert values["grid.laplacian.self_s"] == pytest.approx(12e-9)
    assert values["grid.laplacian.per_step"] == 0.5
    assert values["integrator.run.self_s"] == pytest.approx(38e-9)
    assert values["runner.run_scenario.busy_s"] == pytest.approx(100e-9)
    assert values["kernel.mu.calls"] == 0
    assert values["acceptance.criterion_01.busy_s"] == 0.0


def test_busy_time_counts_a_recursive_span_once():
    spans = _spans([(0, 0, 100, -1), (0, 10, 50, 0)])
    values = layer_metrics(["runner.run_scenario"], spans, set(),
                           {"integrator.steps": 0}, {}, 0.0)
    assert values["runner.run_scenario.busy_s"] == pytest.approx(100e-9)
    assert values["runner.run_scenario.calls"] == 2


def test_missing_target_is_absent_not_zero():
    from viscowave.grid import SpatialGrid

    original = vars(SpatialGrid)["laplacian"]
    tracer = Tracer()
    tracer.install([("grid.laplacian", "viscowave.grid", "SpatialGrid",
                     "laplacian_removed"),
                    ("kernel.mu", "viscowave.kernel", "RelaxationKernel", "mu")])
    tracer.uninstall()
    assert tracer.absent == {"grid.laplacian"}
    assert vars(SpatialGrid)["laplacian"] is original
    values = layer_metrics(tracer.names, tracer.spans(), tracer.absent,
                           {"integrator.steps": 0}, {3: 1.5}, 0.0)
    assert values["grid.laplacian.calls"] is None
    assert values["grid.laplacian.self_s"] is None
    assert values["kernel.mu.calls"] == 0
    assert values["acceptance.criterion_03.busy_s"] == 1.5
    assert values["acceptance.criterion_04.busy_s"] is None


def test_wrapped_calls_return_exactly_what_unwrapped_calls_return():
    from viscowave import config, runner
    from viscowave.grid import SpatialGrid
    from viscowave.kernel import RelaxationKernel

    grid = SpatialGrid.rectangle((np.pi, 2.0), (7, 5))
    field = np.random.default_rng(0).standard_normal(grid.shape)
    kernel = RelaxationKernel.polynomial(1.0, 1.5)
    s = np.linspace(0.0, 3.0, 11)
    text = scenario_inis("poly_memory", 0)[0].replace("t_end = 5", "t_end = 0.5")

    def calls():
        return (grid.laplacian(field), grid.h1_seminorm_sq(field),
                grid.poisson_solve(field), kernel.mu(0.0), kernel.mu(s),
                runner.run_scenario(config.loads(text)).result.ledger.to_csv())

    plain = calls()
    tracer = Tracer()
    with tracer.active(1):
        traced = calls()
    assert not tracer.absent
    assert len(tracer.name) > 0
    for a, b in zip(plain, traced):
        assert type(a) is type(b)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b
    spans = tracer.spans()
    assert np.all(spans["end"] >= spans["start"])
    assert not hasattr(vars(SpatialGrid)["laplacian"], "__wrapped__")


def test_speed_probe_runs_beside_the_call_and_is_left_out_of_its_time():
    import speed

    previous = signal.getsignal(signal.SIGALRM)

    def call():  # 0.5 s of wall time, chunks included
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        return "result"

    probe = speed.Probe()
    result, wall, scale = probe.run(call)
    assert result == "result"
    assert len(probe.chunks) >= 1
    assert 0.0 < wall < 0.5  # the chunks' time is subtracted
    chunks = [s for _, s in probe.chunks]
    ref = speed.REFERENCE_CHUNK_S
    assert ref / max(chunks) <= scale <= ref / min(chunks)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_seed_fixes_the_generated_inputs():
    assert scenario_inis("wave2d", 5) == scenario_inis("wave2d", 5)
    assert scenario_inis("wave2d", 5) != scenario_inis("wave2d", 6)
    modes = sorted(line for text in scenario_inis("wave2d", 5)
                   for line in text.splitlines() if line.startswith("modes"))
    assert modes == ["modes = 1,1", "modes = 1,2", "modes = 2,1", "modes = 2,2"]


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    proc, lines = _result(["--workload", "poly_memory", "--seed", "0",
                           "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result(["--workload", "wave2d", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
