"""Scenario orchestration: run, classify, and persist reproducible artifacts.

Each run is written to a directory named by a content hash of the canonical
configuration text, under the output root (the VISCOWAVE_OUT environment
variable, or ./runs).  A directory that already exists is never silently
overwritten; rerunning an identical scenario reuses the hash and demands an
explicit overwrite flag.

Artifacts per run:
    config.ini    canonical configuration (17-digit floats, lossless reload)
    ledger.csv    the energy ledger
    summary.json  constants, classification, flags, and headline diagnostics
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import blowup, wellconst
from .config import ScenarioConfig
from .history import classify
from .integrator import RunResult, run

OUT_ENV = "VISCOWAVE_OUT"
DEFAULT_OUT = "runs"


class OutputExists(FileExistsError):
    """Run directory already present and overwriting was not requested."""


def output_root() -> Path:
    return Path(os.environ.get(OUT_ENV, DEFAULT_OUT))


@dataclass
class RunRecord:
    result: RunResult
    constants: wellconst.WellConstants
    classification: str
    blowup_verdict: blowup.BlowupVerdict
    wall_seconds: float = 0.0
    run_dir: Optional[Path] = None

    @property
    def summary(self) -> dict:
        from . import __version__

        res = self.result
        ledger = res.ledger
        last = ledger.rows[-1]
        verdict = self.blowup_verdict
        return {
            "version": __version__,
            "wall_seconds": self.wall_seconds,
            "config_hash": res.config.content_hash(),
            "classification": self.classification,
            "constants": self.constants.as_dict(),
            "kernel": {
                "family": res.kernel.family,
                "k0": res.kernel.k0,
                "decay_constant": res.kernel.decay_constant(),
            },
            "flags": dict(res.flags),
            "E0": ledger.E0,
            "E_final": last["E"],
            "t_final": last["t"],
            "max_identity_residual": max(
                row["identity_residual"] for row in ledger.rows),
            "blowup": {
                "hypothesis": verdict.hypothesis,
                "detected": verdict.detected,
                "t_estimate": verdict.t_estimate,
            },
            "n_rows": len(ledger),
        }


def run_scenario(config: ScenarioConfig,
                 persist: bool = False,
                 force: bool = False,
                 out_root: Optional[Path] = None,
                 trajectory: bool = False,
                 result: Optional[RunResult] = None) -> RunRecord:
    """Run a scenario, classify its datum from ledger row 0, and (optionally)
    persist artifacts; ``trajectory`` is passed to ``integrator.run``.
    Given ``result``, config's run made already (a member of an
    ``integrator.run_batch``), the record takes it in place of a new run."""
    if result is None:
        result = run(config, trajectory=trajectory)

    constants = wellconst.cached_constants(result.state.grid, config.p,
                                           result.kernel.k0)
    if config.source_enabled:
        cls = classify(result.ledger.rows[0], constants.d).value
    else:
        cls = "W1"  # without the source the well is all of the phase space

    verdict = blowup.verdict(
        result.ledger, result.flags, config.m, config.p, result.kernel.k0,
        constants.y0, constants.M, gamma=constants.gamma,
        is_w2=(cls == "W2"))

    record = RunRecord(result=result, constants=constants, classification=cls,
                       blowup_verdict=verdict,
                       wall_seconds=result.wall_seconds)
    if persist:
        record.run_dir = persist_record(record, force=force,
                                        out_root=out_root)
    return record


def persist_record(record: RunRecord, force: bool = False,
                   out_root: Optional[Path] = None) -> Path:
    root = Path(out_root) if out_root is not None else output_root()
    run_dir = root / record.result.config.content_hash()
    if run_dir.exists():
        if not force:
            raise OutputExists(
                f"run directory {run_dir} exists; pass force to overwrite")
        for name in ("config.ini", "ledger.csv", "summary.json"):
            path = run_dir / name
            if path.exists():
                path.unlink()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(record.result.config.to_ini(),
                                        encoding="utf-8")
    (run_dir / "ledger.csv").write_text(record.result.ledger.to_csv(),
                                        encoding="utf-8")
    (run_dir / "summary.json").write_text(
        json.dumps(record.summary, indent=2) + "\n", encoding="utf-8")
    return run_dir
