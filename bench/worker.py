"""Benchmark worker: one fresh process per set-up sample or measured run.

    python3 bench/worker.py setup --workload W --seed S
    python3 bench/worker.py measure --workload W --seed S --seconds N \
        --trace 0|1
    python3 bench/worker.py reference

Each mode prints one JSON object as its last line of standard output.
``reference`` prints the default-seed values stored in bench/reference.json.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"  # run directories while measuring, span files
sys.path.insert(0, str(ROOT / "src"))

from workloads import SCENARIO_WORKLOADS, WORKLOADS, scenario_inis  # noqa: E402

DEFAULT_SEED = 0
# Relative tolerance of the default-seed reference check.  A last-bit change
# of the datum moves E(t_end) by ~1e-15 and the final residual by ~1e-10
# relative; reordered sums in the stepper or memory stay at that scale.
REFERENCE_RTOL = 1e-6
LINE = re.compile(r"^\[(PASS|FAIL)\]\s+(\d+)\s")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _array_bytes(obj) -> int:
    """nbytes of the arrays an object holds, one container level deep."""
    import numpy as np

    total = 0
    for value in vars(obj).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else [value])
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def _verify_setup_ini() -> str:
    from viscowave import acceptance

    return replace(acceptance.w1_scenario(), t_end=0.0).to_ini()


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int) -> dict:
    """Time what a `viscowave run` pays before its first step."""
    t0 = time.perf_counter()
    import viscowave.cli  # noqa: F401  (the console entry point's imports)
    from viscowave import config, runner

    import_rss = _rss_mb()
    if workload == "verify_quick":
        text = _verify_setup_ini()
    else:
        text = scenario_inis(workload, seed, t_end=0)[0]
    runner.run_scenario(config.loads(text))
    return {"wall_s": time.perf_counter() - t0, "import_rss_mb": import_rss}


# ---------------------------------------------------------------------------
# scenario workloads


def _summarize(record, ledger_sha: bool = True) -> dict:
    """The few numbers the checks and counters need from a RunRecord.

    The ledger digest is of the persisted ledger.csv when there is one.
    """
    res = record.result
    ledger = res.ledger
    last = ledger.rows[-1]
    bytes_written = 0
    csv_text = None
    if record.run_dir is not None:
        csv_text = (record.run_dir / "ledger.csv").read_text(encoding="utf-8")
        bytes_written = sum(p.stat().st_size for p in record.run_dir.iterdir())
    elif ledger_sha:
        csv_text = ledger.to_csv()
    return {
        "steps": res.state.step_index,
        "dt_halvings": res.flags.get("dt_halvings", 0),
        "completed": bool(res.flags.get("completed")),
        "classification": record.classification,
        "rows": len(ledger),
        "E0": ledger.E0,
        "E_end": last["E"],
        "residual": last["identity_residual"],
        "residual_rel": last["identity_residual"] / abs(ledger.E0),
        "state_bytes": _array_bytes(res.state.memory),
        "bytes_written": bytes_written,
        "ledger_sha": csv_text and _sha(csv_text),
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _timed(call, probed: bool):
    """(result, wall seconds, scale to reference seconds) of ``call()``.

    With ``probed`` the speed probe runs during the call and its chunks'
    time is left out of the wall time; without it the scale is 1.
    """
    if probed:
        import speed  # numpy: not imported before a set-up is timed

        return speed.Probe().run(call)
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0, 1.0


def _scenario_sample(text: str, tmp: Path, index: int, probed: bool):
    from viscowave import config, energetics, runner

    cfg = config.loads(text)
    out_root = tmp / f"s{index}"
    record, wall, scale = _timed(
        lambda: runner.run_scenario(cfg, persist=True, out_root=out_root),
        probed)
    info = _summarize(record)
    info["monotone"] = energetics.monotonicity_check(record.result.ledger)["ok"]
    info["wall_s"], info["scale"] = wall, scale
    del record
    shutil.rmtree(out_root)
    return wall * scale, info


def _check_sample(checks: Checks, info: dict, label: str):
    checks.check(info["completed"] and info["dt_halvings"] == 0,
                 f"{label}: run did not complete without dt halvings")
    checks.check(info["classification"] == "W1",
                 f"{label}: classified {info['classification']}, not W1")
    checks.check(info["monotone"], f"{label}: monotonicity check failed")


def _check_reference(checks: Checks, workload: str, text: str, info: dict,
                     label: str):
    ref = json.loads((BENCH / "reference.json").read_text())[workload][_sha(text)]
    for key in ("E_end", "residual"):
        rel = abs(info[key] - ref[key]) / abs(ref[key])
        checks.check(rel <= REFERENCE_RTOL,
                     f"{label}: {key} {info[key]!r} differs from reference "
                     f"{ref[key]!r} by {rel:.2e} relative")


def _warm(texts, records=None):
    """Zero-length runs of every datum: fills the well-constants cache."""
    from viscowave import config, runner

    for text in texts:
        cfg = config.loads(text)
        record = runner.run_scenario(cfg)
        if records is not None:
            records.append(_summarize(record))


def measure_scenarios(workload, seed, seconds, trace, tmp):
    texts = scenario_inis(workload, seed)
    zero = scenario_inis(workload, seed, t_end=0)
    checks = Checks()
    first_sha = {}

    def sample(i, pass_name):
        k = i % len(texts)
        run_s, info = _scenario_sample(texts[k], tmp, i, not trace)
        label = f"{pass_name} sample {i} datum {k}"
        _check_sample(checks, info, label)
        if k in first_sha:
            checks.check(info["ledger_sha"] == first_sha[k],
                         f"{label}: ledger differs from the first run")
        else:
            first_sha[k] = info["ledger_sha"]
            if seed == DEFAULT_SEED:
                _check_reference(checks, workload, texts[k], info, label)
        return run_s, info

    out = {"checks": checks}
    if not trace:
        _warm(zero)
        run_s, infos = [], []
        t_start = time.perf_counter()
        while True:
            r, info = sample(len(run_s), "timed")
            run_s.append(r)
            infos.append(info)
            elapsed = time.perf_counter() - t_start
            if (len(run_s) > len(texts) and elapsed + statistics.median(
                    i["wall_s"] for i in infos) > seconds):
                break
        out["run_s"] = run_s
        out["wall_s"] = [i["wall_s"] for i in infos]
        out["scale"] = [i["scale"] for i in infos]
        out["steps"] = [i["steps"] for i in infos]
        out["residual_rel"] = [infos[k]["residual_rel"]
                               for k in range(len(texts))]
        return out

    from tracing import Tracer

    tracer = Tracer()
    traced_infos = []
    with tracer.active(0):
        _warm(zero, traced_infos)
    untraced = [sample(i, "untraced")[0] for i in range(len(texts))]
    traced = []
    for i in range(len(texts)):
        with tracer.active(i + 1):
            r, info = sample(i, "traced")
        traced.append(r)
        traced_infos.append(info)
    out.update(tracer=tracer, infos=traced_infos, criteria={},
               overhead_s=statistics.median(traced) - statistics.median(untraced))
    return out


# ---------------------------------------------------------------------------
# verify_quick


def _run_suite(captured: list, ledger_sha: bool, probed: bool = False):
    """One acceptance.run_all(quick=True); returns (wall seconds, scale to
    reference seconds, printed lines with their timestamps, start time).  A
    summary of every run_scenario call is appended to ``captured``."""
    from viscowave import acceptance

    original = acceptance.run_scenario
    w1 = acceptance.w1_scenario()

    def capture(cfg, *args, **kwargs):
        record = original(cfg, *args, **kwargs)
        info = _summarize(record, ledger_sha)
        info["is_w1"] = cfg == w1
        captured.append(info)
        return record

    lines = []

    def printer(line):
        lines.append((time.perf_counter(), line))

    acceptance.run_scenario = capture
    try:
        t0 = time.perf_counter()
        _, wall, scale = _timed(
            lambda: acceptance.run_all(quick=True, printer=printer), probed)
    finally:
        acceptance.run_scenario = original
    return wall, scale, lines, t0


def _check_lines(checks: Checks, lines, label):
    for _, line in lines:
        match = LINE.match(line)
        checks.check(match is not None and match.group(1) == "PASS",
                     f"{label}: {line}")


def measure_verify(seconds, trace):
    from viscowave import config, runner

    checks = Checks()
    out = {"checks": checks}
    if not trace:
        runner.run_scenario(config.loads(_verify_setup_ini()))
        walls, scales, infos = [], [], []
        t_start = time.perf_counter()
        while True:
            captured = []
            wall, scale, lines, _ = _run_suite(captured, ledger_sha=False,
                                               probed=True)
            _check_lines(checks, lines, f"sample {len(walls)}")
            walls.append(wall)
            scales.append(scale)
            infos.append(captured)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(walls) > seconds:
                break
        out["run_s"] = [w * s for w, s in zip(walls, scales)]
        out["wall_s"] = walls
        out["scale"] = scales
        out["steps"] = [sum(i["steps"] for i in c) for c in infos]
        out["residual_rel"] = [i["residual_rel"] for c in infos for i in c
                               if i["is_w1"]][:1]
        return out

    from tracing import Tracer

    tracer = Tracer()
    with tracer.active(0):
        record = runner.run_scenario(config.loads(_verify_setup_ini()))
    traced_infos = [_summarize(record)]
    untraced_infos = []
    untraced_s, _, lines, _ = _run_suite(untraced_infos, ledger_sha=True)
    _check_lines(checks, lines, "untraced")
    suite_infos = []
    with tracer.active(1):
        traced_s, _, lines, t0 = _run_suite(suite_infos, ledger_sha=True)
    _check_lines(checks, lines, "traced")
    for j, (a, b) in enumerate(zip(untraced_infos, suite_infos)):
        checks.check(a["ledger_sha"] == b["ledger_sha"],
                     f"run_scenario call {j}: traced ledger differs")
    checks.check(len(untraced_infos) == len(suite_infos),
                 "traced suite made a different number of runs")
    criteria = {}
    previous = t0
    for stamp, line in lines:
        match = LINE.match(line)
        if match:
            criteria[int(match.group(2))] = stamp - previous
        previous = stamp
    out.update(tracer=tracer, infos=traced_infos + suite_infos,
               criteria=criteria, overhead_s=traced_s - untraced_s)
    return out


# ---------------------------------------------------------------------------
# fingerprint and entry point


def _openblas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
    }


def measure(workload, seed, seconds, trace) -> dict:
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "verify_quick":
            out = measure_verify(seconds, trace)
        else:
            out = measure_scenarios(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checks = out.pop("checks")
    result = {"attempted": checks.attempted, "failed": checks.failed,
              "peak_rss_mb": _rss_mb(), "fingerprint": fingerprint()}
    if not trace:
        for key in ("run_s", "wall_s", "scale", "steps", "residual_rel"):
            result[key] = out[key]
        return result

    from tracing import layer_metrics

    tracer = out["tracer"]
    infos = out["infos"]
    counters = {
        "integrator.steps": sum(i["steps"] for i in infos),
        "integrator.dt_halvings": sum(i["dt_halvings"] for i in infos),
        "energetics.ledger_rows": sum(i["rows"] for i in infos),
        "history.state_bytes": max(i["state_bytes"] for i in infos),
        "runner.bytes_written": sum(i["bytes_written"] for i in infos),
    }
    spans_path = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans_path)
    result["layers"] = layer_metrics(tracer.names, tracer.spans(),
                                     tracer.absent, counters, out["criteria"],
                                     out["overhead_s"])
    result["absent"] = sorted(tracer.absent)
    result["spans"] = len(tracer.name)
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def reference() -> dict:
    """Default-seed E(t_end) and final residual of every scenario datum."""
    from viscowave import config, runner

    ref = {}
    for workload in SCENARIO_WORKLOADS:
        ref[workload] = {}
        for text in scenario_inis(workload, DEFAULT_SEED):
            record = runner.run_scenario(config.loads(text))
            cfg = record.result.config
            last = record.result.ledger.rows[-1]
            ref[workload][_sha(text)] = {
                "modes": list(cfg.modes), "amplitude": cfg.amplitude,
                "E_end": last["E"], "residual": last["identity_residual"]}
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "reference":
        result = reference()
    elif args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
