import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viscowave
from viscowave import cli, runner
from viscowave.cli import SpecError, parse_grid_spec, parse_kernel_spec
from viscowave.config import ScenarioConfig, load
from viscowave.energetics import LEDGER_COLUMNS, EnergyLedger
from viscowave.runner import OutputExists, run_scenario


def small_config(**overrides):
    base = dict(n=60, t_end=2.0, stride=4, output_every=5, amplitude=0.1)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunScenario:
    def test_persist_writes_all_artifacts(self, tmp_path):
        record = run_scenario(small_config(), persist=True, out_root=tmp_path)
        assert record.run_dir == tmp_path / record.result.config.content_hash()
        for name in ("config.ini", "ledger.csv", "summary.json"):
            assert (record.run_dir / name).is_file()

    def test_rerun_requires_force(self, tmp_path):
        cfg = small_config()
        run_scenario(cfg, persist=True, out_root=tmp_path)
        with pytest.raises(OutputExists):
            run_scenario(cfg, persist=True, out_root=tmp_path)
        run_scenario(cfg, persist=True, force=True, out_root=tmp_path)

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runner.OUT_ENV, str(tmp_path / "elsewhere"))
        record = run_scenario(small_config(), persist=True)
        assert record.run_dir.parent == tmp_path / "elsewhere"

    def test_summary_json_floats_round_trip(self, tmp_path):
        record = run_scenario(small_config(), persist=True, out_root=tmp_path)
        text = (record.run_dir / "summary.json").read_text()
        parsed = json.loads(text)
        # the shortest round-trip float repr makes the serialization lossless
        assert parsed["E0"] == record.result.ledger.E0
        assert parsed["constants"]["gamma"] == record.constants.gamma
        assert parsed["config_hash"] == record.result.config.content_hash()
        assert parsed["classification"] == "W1"
        assert parsed["n_rows"] == len(record.result.ledger)

    def test_persisted_config_reproduces_ledger(self, tmp_path):
        record = run_scenario(small_config(), persist=True, out_root=tmp_path)
        reloaded = load(record.run_dir / "config.ini")
        again = run_scenario(reloaded)
        original = (record.run_dir / "ledger.csv").read_text()
        assert again.result.ledger.to_csv() == original

    def test_load_ledger_helper(self, tmp_path):
        record = run_scenario(small_config(), persist=True, out_root=tmp_path)
        led = EnergyLedger.read(record.run_dir / "ledger.csv")
        assert led.rows == record.result.ledger.rows

    def test_no_source_classified_w1(self, tmp_path):
        record = run_scenario(small_config(source_enabled=False,
                                           amplitude=2.0))
        assert record.classification == "W1"


class TestSpecParsing:
    def test_grid_1d_pi(self):
        grid = parse_grid_spec("1d:pi:50")
        assert grid.extents[0] == pytest.approx(math.pi)
        assert grid.size == 50

    def test_grid_2d(self):
        grid = parse_grid_spec("2d:pi:pi/2:20:10")
        assert grid.dim == 2

    def test_grid_errors(self):
        for bad in ("3d:1:1", "1d:pi", "1d:zzz:10"):
            with pytest.raises(SpecError):
                parse_grid_spec(bad)

    def test_kernel_specs(self):
        k = parse_kernel_spec("exp:1:2")
        assert k.k0 == pytest.approx(1.5)
        k = parse_kernel_spec("poly:1:1.5")
        assert k.k0 == pytest.approx(2.0)

    def test_kernel_errors(self):
        for bad in ("gauss:1:1", "exp:1", "poly:1:2.5"):
            with pytest.raises(SpecError):
                parse_kernel_spec(bad)


class TestCli:
    def test_constants_closed_forms(self, capsys):
        rc = cli.main(["constants", "--p", "3", "--grid", "1d:pi:100",
                       "--kernel", "poly:1:1.5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        gamma = out["gamma"]
        assert out["d"] == pytest.approx(gamma ** -4.0 / 4.0, rel=1e-14)
        assert out["y0"] == pytest.approx(2.0 * out["d"], rel=1e-14)
        assert out["M"] / out["d"] == pytest.approx(0.957107, rel=1e-5)

    def test_run_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(small_config().to_ini())
        rc = cli.main(["run", "--config", str(path), "--out",
                       str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["classification"] == "W1"
        assert (tmp_path / "out" / summary["config_hash"]).is_dir()
        # second run without --force refuses to overwrite
        assert cli.main(["run", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 1
        assert cli.main(["run", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--force"]) == 0

    def test_run_missing_config(self, tmp_path):
        assert cli.main(["run", "--config",
                         str(tmp_path / "nope.ini")]) == 1

    def test_run_no_persist(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(runner.OUT_ENV, str(tmp_path / "should_not_exist"))
        path = tmp_path / "scenario.ini"
        path.write_text(small_config().to_ini())
        assert cli.main(["run", "--config", str(path), "--no-persist"]) == 0
        assert not (tmp_path / "should_not_exist").exists()

    def test_classify_small_amplitude(self, capsys):
        rc = cli.main(["classify", "--p", "3", "--grid", "1d:pi:80",
                       "--kernel", "exp:1:1", "--amplitude", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "W1"

    # a step in time at the exponential kernel, at amplitudes whose class
    # the first memory cell decides (a quadrature integrating the jump
    # exactly reads OutsideWell at both); a past on the support and a
    # fitted polynomial memory
    STEP = ("exp:1:1", [], {})
    RAMP = ("poly:1:1.5", ["--profile", "ramp", "--support-t0", "0.5",
                           "--extension", "frozen"],
            dict(kernel_family="polynomial", r=1.5, profile="ramp",
                 support_T0=0.5, extension="frozen"))

    @pytest.mark.parametrize("datum, amplitude, expected", [
        (STEP, 0.59, "W1"), (STEP, 2.23, "W2"), (RAMP, 0.1, "W1"),
        (RAMP, 1.0, "OutsideWell"), (RAMP, 3.0, "W2")],
        ids=["step-0.59", "step-2.23", "ramp-0.1", "ramp-1", "ramp-3"])
    def test_classify_reports_the_class_a_run_records(self, capsys, datum,
                                                      amplitude, expected):
        # with the default [time] and [memory] settings
        kernel, flags, fields = datum
        rc = cli.main(["classify", "--p", "3", "--grid", "1d:pi:40",
                       "--kernel", kernel, "--amplitude", str(amplitude),
                       *flags])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        cfg = ScenarioConfig(n=40, amplitude=amplitude, **fields)
        with np.errstate(all="ignore"):
            record = run_scenario(cfg)
        assert out["classification"] == record.classification == expected

    def test_classify_mode_count_exits_usage(self, capsys):
        assert cli.main(["classify", "--p", "3", "--grid", "2d:pi:pi:8:8",
                         "--kernel", "exp:1:1", "--amplitude", "0.1"]) == 1
        assert "one mode number per grid axis" in capsys.readouterr().err
        assert cli.main(["classify", "--p", "3", "--grid", "1d:pi:20",
                         "--kernel", "exp:1:1", "--amplitude", "0.1",
                         "--modes", "a"]) == 1

    def test_run_mode_count_exits_usage(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text("[grid]\ndim = 2\nn = 8\nn_y = 8\n")
        assert cli.main(["run", "--config", str(path), "--no-persist"]) == 1
        assert "one mode number per grid axis" in capsys.readouterr().err

    def test_decay_fit_with_prediction(self, tmp_path, capsys):
        led = EnergyLedger()
        for t in np.linspace(0.0, 10.0, 120):
            row = {k: 0.0 for k in LEDGER_COLUMNS}
            row["t"], row["E"] = float(t), math.exp(-2.0 * t)
            led.append(**row)
        path = tmp_path / "ledger.csv"
        path.write_text(led.to_csv())
        rc = cli.main(["decay-fit", "--ledger", str(path),
                       "--model", "exponential", "--window", "0", "10",
                       "--predict", "1", "none", "none", "false"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fitted_rate"] == pytest.approx(2.0, rel=1e-8)
        assert out["predicted"]["case"] == 1
        assert out["verdict"] == "consistent"

    def test_sweep_table(self, capsys):
        rc = cli.main(["sweep", "--amplitudes", "0.1", "--ms", "1",
                       "--kernels", "exp:1:1", "--t-end", "1.0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["amplitude", "m", "kernel", "class",
                                        "E0", "blew_up", "hash"]
        assert len(lines) == 2
        assert lines[1].split("\t")[3] == "W1"

    def test_unknown_flag_exits_usage(self, capsys):
        assert cli.main(["run", "--config", "x", "--bogus"]) == 1

    def test_missing_subcommand_exits_usage(self, capsys):
        assert cli.main([]) == 1

    def test_bad_grid_spec_exits_usage(self, capsys):
        assert cli.main(["constants", "--p", "3", "--grid", "zz",
                        "--kernel", "exp:1:1"]) == 1


_SETUP_WITHOUT_SCIPY = """\
import sys
import viscowave.cli
from viscowave import acceptance, config, runner

POLY_1D = '''
[grid]
n = 40
[kernel]
family = polynomial
[history]
extension = frozen
[time]
t_end = 0
'''

EXP_2D = '''
[grid]
dim = 2
n = 16
n_y = 16
[dynamics]
m = 3
[history]
modes = 1,1
[time]
t_end = 0
'''

for text in (POLY_1D, EXP_2D):
    runner.run_scenario(config.loads(text))
ok, detail = acceptance.criterion_10(acceptance.Suite(quick=True))
assert ok, detail
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_module_imports_scipy():
    # the runtime needs NumPy only; a lazy import inside a function counts
    for path in Path(viscowave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                f"{path.name}:{node.lineno} imports scipy"


# functions no package code names, kept because bench/tracing.TARGETS wraps
# them
UNREFERENCED_ALLOWED = {"convolution_field", "scalar_convolution",
                        "viscous_power", "damping_power"}


def test_every_function_is_referenced_in_the_package():
    # a function or method (dunders aside) that no name or attribute in the
    # package refers to is code no run reaches
    defined, used = {}, set()
    for path in Path(viscowave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = {name: where for name, where in defined.items()
                    if name not in used and name not in UNREFERENCED_ALLOWED}
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def test_run_setup_loads_no_scipy():
    # importing the CLI, running a scenario (well constants included) and
    # criterion 10's oracles load no SciPy module
    src = Path(viscowave.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SETUP_WITHOUT_SCIPY],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
