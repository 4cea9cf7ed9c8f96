"""Command-line surface.

Subcommands: run, constants, classify, decay-fit, sweep, verify.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure,
3 verification-suite failure.

Compact specs used by several subcommands:
    grid    1d:LENGTH:N  or  2d:LX:LY:NX:NY    (LENGTH accepts "pi", "2pi", "pi/2")
    kernel  exp:MU0:C  or  poly:C:R
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import wellconst
from .config import ConfigError, ScenarioConfig, load, _parse_length, \
    _parse_modes
from .energetics import EnergyLedger
from .grid import SpatialGrid
from .history import classify
from .integrator import Stepper, run_batch
from .kernel import RelaxationKernel
from .runner import OutputExists, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class SpecError(ValueError):
    pass


def parse_grid_spec(spec: str) -> SpatialGrid:
    parts = spec.split(":")
    try:
        if parts[0] == "1d" and len(parts) == 3:
            return SpatialGrid.line(_parse_length(parts[1]), int(parts[2]))
        if parts[0] == "2d" and len(parts) == 5:
            return SpatialGrid.rectangle(
                (_parse_length(parts[1]), _parse_length(parts[2])),
                (int(parts[3]), int(parts[4])))
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad grid spec {spec!r}: {exc}") from exc
    raise SpecError(f"grid spec must be 1d:LENGTH:N or 2d:LX:LY:NX:NY, got {spec!r}")


def parse_kernel_spec(spec: str) -> RelaxationKernel:
    parts = spec.split(":")
    try:
        if parts[0] == "exp" and len(parts) == 3:
            return RelaxationKernel.exponential(float(parts[1]), float(parts[2]))
        if parts[0] == "poly" and len(parts) == 3:
            return RelaxationKernel.polynomial(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise SpecError(f"bad kernel spec {spec!r}: {exc}") from exc
    raise SpecError(f"kernel spec must be exp:MU0:C or poly:C:R, got {spec!r}")


def _kernel_fields(kernel: RelaxationKernel) -> dict:
    """The ScenarioConfig fields of a parsed kernel spec."""
    return dict(kernel_family=kernel.family, mu0=kernel.mu0,
                c=kernel.c or 1.0, r=kernel.r or 1.5)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        print(f"config file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    config = load(path)
    record = run_scenario(config, persist=not args.no_persist,
                          force=args.force,
                          out_root=Path(args.out) if args.out else None)
    summary = record.summary
    if record.run_dir is not None:
        summary["run_dir"] = str(record.run_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_constants(args) -> int:
    grid = parse_grid_spec(args.grid)
    kernel = parse_kernel_spec(args.kernel)
    consts = wellconst.compute_constants(grid, args.p, kernel.k0)
    print(json.dumps(consts.as_dict(), indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    """The class that ledger row 0 of a run of the datum records, with the
    default [time] and [memory] settings."""
    grid = parse_grid_spec(args.grid)
    kernel = parse_kernel_spec(args.kernel)
    cfg = ScenarioConfig(
        dim=grid.dim, **dict(zip(("extent", "extent_y"), grid.extents)),
        **dict(zip(("n", "n_y"), grid.n)), **_kernel_fields(kernel),
        p=args.p, amplitude=args.amplitude, modes=args.modes,
        profile=args.profile, ramp_rate=args.ramp_rate,
        support_T0=args.support_t0, extension=args.extension)
    cfg.validate()
    datum = cfg.make_history(grid)
    consts = wellconst.cached_constants(grid, args.p, kernel.k0)
    verdict = classify(Stepper(cfg, [datum], kernel).terms(), consts.d)
    print(json.dumps({"classification": verdict.value, "d": consts.d,
                      "gamma": consts.gamma, "p": args.p, "k0": kernel.k0},
                     indent=2))
    return EXIT_OK


def cmd_decay_fit(args) -> int:
    from . import decay

    ledger = EnergyLedger.read(args.ledger)
    t = ledger.column("t")
    window = (args.window[0], args.window[1]) if args.window \
        else (0.5 * t[-1], t[-1])
    fit = decay.fit_rate(ledger, window, args.model)
    out = {"fitted_rate": fit["rate"], "goodness": fit["goodness"],
           "model": args.model, "window": list(window),
           "predicted": None, "verdict": None}
    if args.predict:
        m, r_raw, sigma_raw, compact_raw = args.predict
        r = None if r_raw.lower() == "none" else float(r_raw)
        sigma = None if sigma_raw.lower() == "none" else float(sigma_raw)
        compact = compact_raw.lower() in ("true", "yes", "1")
        kernel_class = "exponential" if r is None else "polynomial"
        pred = decay.predicted_rate(float(m), kernel_class, r=r, sigma=sigma,
                                    compact_support=compact)
        out["predicted"] = {"kind": pred.kind, "exponent": pred.exponent,
                            "case": pred.case}
        if pred.kind == "exponential":
            out["verdict"] = "consistent" if fit["rate"] > 0 else "inconsistent"
        else:
            # the prediction is an upper envelope: observed decay at least
            # 80 percent of the predicted exponent counts as consistent
            out["verdict"] = ("consistent"
                             if fit["rate"] >= 0.8 * pred.exponent
                             else "inconsistent")
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Each (kernel, m) row's amplitudes run as one batch
    (``integrator.run_batch``), every run recorded and persisted as alone."""
    amplitudes = [float(a) for a in args.amplitudes.split(",")]
    ms = [float(m) for m in args.ms.split(",")]
    kernels = args.kernels.split(",")
    base = ScenarioConfig(p=args.p, t_end=args.t_end, stride=8)
    print("amplitude\tm\tkernel\tclass\tE0\tblew_up\thash")
    for kspec in kernels:
        kernel = parse_kernel_spec(kspec)
        for m in ms:
            configs = [replace(base, amplitude=A, m=m, **_kernel_fields(kernel))
                       for A in amplitudes]
            for A, cfg, result in zip(amplitudes, configs, run_batch(configs)):
                record = run_scenario(cfg, persist=args.persist,
                                      force=args.force, result=result)
                print(f"{A:g}\t{m:g}\t{kspec}\t{record.classification}\t"
                      f"{record.result.ledger.E0:.6g}\t"
                      f"{record.blowup_verdict.detected}\t"
                      f"{cfg.content_hash()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance

    if args.json:
        criteria = list(acceptance.verdicts(quick=args.quick))
        ok = all(c["verdict"] == "PASS" for c in criteria)
        print(json.dumps({"ok": ok, "criteria": criteria}, indent=2))
    else:
        ok = acceptance.run_all(quick=args.quick)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="Viscoelastic wave simulator and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")
    p_run.add_argument("--no-persist", action="store_true",
                       help="skip writing the run directory")
    p_run.add_argument("--out", default=None, help="output root override")
    p_run.set_defaults(fn=cmd_run)

    p_con = sub.add_parser("constants", help="print the potential-well constants")
    p_con.add_argument("--p", type=float, required=True)
    p_con.add_argument("--grid", required=True)
    p_con.add_argument("--kernel", required=True)
    p_con.set_defaults(fn=cmd_constants)

    p_cls = sub.add_parser("classify", help="classify a history datum")
    p_cls.add_argument("--p", type=float, required=True)
    p_cls.add_argument("--grid", required=True)
    p_cls.add_argument("--kernel", required=True)
    p_cls.add_argument("--amplitude", type=float, required=True)
    p_cls.add_argument("--modes", default="1", type=_parse_modes)
    p_cls.add_argument("--profile", default="constant",
                       choices=["constant", "ramp", "bump"])
    p_cls.add_argument("--ramp-rate", type=float, default=1.0)
    p_cls.add_argument("--support-t0", type=float, default=0.0)
    p_cls.add_argument("--extension", default="zero",
                       choices=["zero", "frozen"])
    p_cls.set_defaults(fn=cmd_classify)

    p_fit = sub.add_parser("decay-fit", help="fit a decay rate to a ledger")
    p_fit.add_argument("--ledger", required=True)
    p_fit.add_argument("--model", default="exponential",
                       choices=["exponential", "polynomial"])
    p_fit.add_argument("--window", nargs=2, type=float, default=None,
                       metavar=("T_LO", "T_HI"))
    p_fit.add_argument("--predict", nargs=4, default=None,
                       metavar=("M", "R", "SIGMA", "COMPACT"),
                       help="compare against the predicted rate; "
                            "R/SIGMA accept 'none'")
    p_fit.set_defaults(fn=cmd_decay_fit)

    p_swp = sub.add_parser("sweep", help="run an amplitude x m x kernel grid")
    p_swp.add_argument("--amplitudes", default="0.1,1.0,3.0")
    p_swp.add_argument("--ms", default="1,3")
    p_swp.add_argument("--kernels", default="exp:1:1")
    p_swp.add_argument("--p", type=float, default=3.0)
    p_swp.add_argument("--t-end", type=float, default=20.0)
    p_swp.add_argument("--persist", action="store_true")
    p_swp.add_argument("--force", action="store_true")
    p_swp.set_defaults(fn=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the built-in verification suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="smaller refinement ladder and shorter runs")
    p_ver.add_argument("--json", action="store_true",
                       help="print each criterion's verdict, detail and "
                            "wall seconds as JSON")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, SpecError, OutputExists, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME
