"""viscowave benchmark: one workload, one closed-loop run, one JSON result.

    python3 bench/run.py --workload wave2d --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each scenario is run to completion before
the next starts, in one worker process with BLAS threads at the machine
default.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``verify_quick`` runs ``acceptance.run_all(quick=True)`` and ignores the
seed: the acceptance suite fixes its own scenarios.  Times are reported in
reference seconds (see ``speed.py``); the unscaled wall times are printed
above the result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracing import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
TIME_LIMIT_S = 175.0

END_TO_END_UNITS = {
    "run_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "identity_residual_rel": "1",
    "pass_frac": "1",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker {args[0]} printed no result")
    return json.loads(lines[-1])


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(measured: dict, setups: list) -> dict:
    """The end-to-end metrics.  A set-up is too short to interleave with
    the speed probe, so the set-ups, timed just before the measured run, are
    scaled by the median scale of that run."""
    run_s = measured["run_s"]
    return {
        "run_s": statistics.median(run_s),
        "steps_per_s": statistics.median(
            s / r for s, r in zip(measured["steps"], run_s)),
        "setup_s": statistics.median(s["wall_s"] for s in setups)
        * statistics.median(measured["scale"]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "identity_residual_rel": statistics.median(measured["residual_rel"]),
        "pass_frac": 1.0 - len(measured["failed"]) / measured["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "viscowave" / "__init__.py").is_file():
        print(f"no viscowave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [_worker(["setup", *common], 60.0)
                      for _ in range(SETUP_REPEATS)]
        measured = _worker(
            ["measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            TIME_LIMIT_S - (time.perf_counter() - started))
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    fp = measured["fingerprint"]
    if setups:
        fp["import_rss_mb"] = statistics.median(
            s["import_rss_mb"] for s in setups)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fingerprint": fp}))
    for what in measured["failed"]:
        print(f"FAILED CHECK {what}")

    if args.trace:
        values = measured["layers"]
        units = per_layer_units()
        print(f"{measured['spans']} spans written to {measured['spans_file']}")
        if measured["absent"]:
            print(f"absent (reported as null): {', '.join(measured['absent'])}")
    else:
        values = end_to_end(measured, setups)
        units = END_TO_END_UNITS
        run_s = measured["run_s"]
        tail = tail_percentile(run_s)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no tail percentile below 11 samples")
        samples = " ".join(f"{r:.3f}" for r in run_s)
        setup_samples = " ".join(f"{s['wall_s']:.3f}" for s in setups)
        print(f"run_s over {len(run_s)} samples: median "
              f"{values['run_s']:.4f} s, {tail_text}; samples {samples}")
        print(f"  unscaled wall: median "
              f"{statistics.median(measured['wall_s']):.4f} s; "
              f"speed scale median {statistics.median(measured['scale']):.3f}")
        print(f"setup_s over {len(setups)} fresh processes, unscaled wall: "
              f"{setup_samples}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {units[name]}")

    failed = len(measured["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
