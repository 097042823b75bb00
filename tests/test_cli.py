"""Command-line interface tests.

Verifies: all four subcommands end to end in a temporary directory, flag
and config-file precedence, range checks on numeric settings, error exits
without partial output (bad parameter files, non-finite numbers, step
counts over the cap, FE runs whose Gauss-point records exceed their
bound, an ``--out`` that names a file, a rejected sweep value, data
angles outside the frame's range), usage errors for the retired frame
side and stress tolerance, one-line failures of parameter values whose
arithmetic leaves the range of doubles, the exit status and error output
of any ``material-point`` or ``picture-frame`` command line (a property
test), and byte-identical reruns.
"""

import filecmp
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import wovenshear
from wovenshear import save_params
from wovenshear.calibrate import synthetic_curve
from wovenshear.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def glass_file(glass_params, glass_hyper, tmp_path):
    path = tmp_path / "glass.json"
    save_params(path, glass_params, glass_hyper)
    return path


@pytest.fixture
def demo_file(demo_params, tmp_path):
    path = tmp_path / "demo.json"
    save_params(path, demo_params)
    return path


@pytest.fixture
def soft_file(soft_params, tmp_path):
    path = tmp_path / "soft.json"
    save_params(path, soft_params)
    return path


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestMaterialPoint:
    def test_basic_run(self, runner, glass_file, tmp_path):
        out = tmp_path / "mp"
        run_ok(runner, ["material-point", "--params", str(glass_file),
                        "--program", "0.3", "--out", str(out)])
        data = np.loadtxt(out / "material_point.csv", delimiter=",",
                          skiprows=1)
        with open(out / "material_point.csv") as fh:
            assert fh.readline().strip() == "phi,tau,phi_e,phi_p,q"
        assert data.shape[0] == 61        # 0.3 / 0.005 steps plus start row
        assert np.abs(data[:, 0] - (data[:, 2] + data[:, 3])).max() <= 1e-14

    def test_zero_amplitude_program(self, runner, glass_file, tmp_path):
        out = tmp_path / "mp0"
        run_ok(runner, ["material-point", "--params", str(glass_file),
                        "--program", "0", "--out", str(out)])
        data = np.loadtxt(out / "material_point.csv", delimiter=",",
                          skiprows=1)
        assert np.abs(data).max() == 0.0

    def test_cycle_unloading_slope(self, runner, soft_file, soft_params,
                                   tmp_path):
        out = tmp_path / "mpc"
        run_ok(runner, ["material-point", "--params", str(soft_file),
                        "--program", "0.3,0.25", "--out", str(out)])
        data = np.loadtxt(out / "material_point.csv", delimiter=",",
                          skiprows=1)
        un = data[data.shape[0] - 10:, :]
        slope = np.diff(un[:, 1]) / np.diff(un[:, 0])
        assert np.allclose(slope, soft_params.mu_f, rtol=1e-10)

    def test_bad_dphi(self, runner, glass_file, tmp_path):
        result = runner.invoke(main, ["material-point", "--params",
                                      str(glass_file), "--dphi", "0",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code != 0

    def test_missing_params_file(self, runner, tmp_path):
        result = runner.invoke(main, ["material-point", "--params",
                                      str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code != 0
        assert "not found" in result.output


class TestPictureFrame:
    def test_analytic_mode(self, runner, demo_file, tmp_path):
        out = tmp_path / "an"
        run_ok(runner, ["picture-frame", "--mode", "analytic", "--params",
                        str(demo_file), "--program", "30", "--out", str(out)])
        data = np.loadtxt(out / "analytic_curve.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[0] == 61        # 30 deg at 2 steps/deg plus start
        assert data[-1, 0] == pytest.approx(30.0, abs=1e-12)

    def test_verify_mode_passes(self, runner, glass_file, tmp_path):
        out = tmp_path / "ver"
        result = run_ok(runner, ["picture-frame", "--mode", "verify",
                                 "--params", str(glass_file), "--program",
                                 "10,5", "--mesh", "2x2", "--out", str(out)])
        assert "PASS" in result.output
        for name in ("fe_curve.csv", "fe_fields.csv", "analytic_curve.csv",
                     "verify_report.json"):
            assert (out / name).is_file(), name
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is True
        assert report["max_tau_rel_scale"] <= 1e-9

    def test_fe_mesh_independence(self, runner, demo_file, tmp_path):
        curves = {}
        for mesh in ("1x1", "8x8"):
            out = tmp_path / f"fe{mesh}"
            run_ok(runner, ["picture-frame", "--mode", "fe", "--params",
                            str(demo_file), "--program", "10", "--mesh",
                            mesh, "--out", str(out)])
            curves[mesh] = np.loadtxt(out / "fe_curve.csv", delimiter=",",
                                      skiprows=1)
        d = np.abs(curves["1x1"] - curves["8x8"])
        scale = np.abs(curves["8x8"]).max()
        assert d.max() <= 1e-10 * scale

    def test_mu0_defaults_to_shear_stiffness(self, runner, glass_file,
                                             glass_params, tmp_path):
        out1 = tmp_path / "m1"
        out2 = tmp_path / "m2"
        args = ["picture-frame", "--mode", "analytic", "--params",
                str(glass_file), "--program", "15"]
        run_ok(runner, args + ["--out", str(out1)])
        run_ok(runner, args + ["--mu0", str(glass_params.mu_f),
                               "--out", str(out2)])
        assert filecmp.cmp(out1 / "analytic_curve.csv",
                           out2 / "analytic_curve.csv", shallow=False)

    def test_bad_mesh_size_argument(self, runner, glass_file, tmp_path):
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(glass_file), "--mesh", "2x3",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code != 0

    def test_bad_mesh_checked_in_analytic_mode(self, runner, glass_file,
                                               tmp_path):
        out = tmp_path / "x"
        result = runner.invoke(main, ["picture-frame", "--mode", "analytic",
                                      "--params", str(glass_file), "--mesh",
                                      "2x3", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "mesh must be a square NxN subdivision" in result.output
        assert not out.exists()

    def test_program_parse_error(self, runner, glass_file, tmp_path):
        out = tmp_path / "x"
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(glass_file), "--program",
                                      "50,x,20", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot parse program: '50,x,20'" in result.output
        assert not out.exists()

    def test_solver_error_is_one_line(self, runner, glass_file, tmp_path,
                                      monkeypatch):
        # one slip sweep converges nowhere, so the FE step fails after all
        # its bisections
        monkeypatch.setattr(wovenshear.material, "_SLIP_MAX_ITER", 1)
        result = runner.invoke(main, ["picture-frame", "--mode", "fe",
                                      "--params", str(glass_file),
                                      "--program", "10", "--mesh", "2x2",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: Newton failed at load step 1 ")
        assert "theta = " in lines[0] and "max |g| = " in lines[0]
        assert not (tmp_path / "x" / "fe_curve.csv").exists()

    @pytest.mark.parametrize("args, where", [
        (["material-point", "--program", "0.5"],
         "return map failed at phi_path[1] = 0.005: "),
        (["picture-frame", "--mode", "analytic", "--program", "10"],
         "closed-form solve failed on leg 1 "),
        (["param-study", "--sweep", "tau_y=0,0.1", "--program", "10"],
         "closed-form solve failed on leg 1 "),
        # the FE half converges and the analytic half fails
        (["picture-frame", "--mode", "verify", "--program", "10",
          "--mesh", "2x2"], "closed-form solve failed on leg 1 "),
    ])
    def test_slip_failure_is_one_line(self, runner, glass_file, tmp_path,
                                      monkeypatch, args, where):
        run_program = wovenshear.cli.run_program

        def failing_run_program(*a, **kw):
            monkeypatch.setattr(wovenshear.material, "_SLIP_MAX_ITER", 1)
            return run_program(*a, **kw)

        if "verify" in args:
            monkeypatch.setattr(wovenshear.cli, "run_program",
                                failing_run_program)
        else:
            monkeypatch.setattr(wovenshear.material, "_SLIP_MAX_ITER", 1)
        result = runner.invoke(main, args + ["--params", str(glass_file),
                                             "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        lines = result.output.strip().splitlines()
        assert lines[-1].startswith("Error: " + where), result.output
        assert "max |g| = " in lines[-1]
        assert not any(line.startswith("Error") for line in lines[:-1])

    def test_reruns_byte_identical(self, runner, demo_file, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        args = ["picture-frame", "--mode", "verify", "--params",
                str(demo_file), "--program", "8", "--mesh", "2x2"]
        run_ok(runner, args + ["--out", str(out1)])
        run_ok(runner, args + ["--out", str(out2)])
        for name in ("fe_curve.csv", "fe_fields.csv", "analytic_curve.csv",
                     "verify_report.json"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


class TestParamStudy:
    def test_sweep_outputs(self, runner, soft_file, tmp_path):
        out = tmp_path / "study"
        run_ok(runner, ["param-study", "--params", str(soft_file), "--sweep",
                        "tau_y=0.1,0.3,0.5", "--program", "20",
                        "--out", str(out)])
        manifest = json.loads((out / "study_manifest.json").read_text())
        assert manifest["parameter"] == "tau_y"
        assert manifest["values"] == [0.1, 0.3, 0.5]
        assert len(manifest["files"]) == 3
        c0 = np.loadtxt(out / "study_tau_y_0.csv", delimiter=",", skiprows=1)
        c2 = np.loadtxt(out / "study_tau_y_2.csv", delimiter=",", skiprows=1)
        # higher yield stress keeps more of the curve elastic
        assert c2[-1, 2] > c0[-1, 2]

    def test_unknown_parameter(self, runner, soft_file, tmp_path):
        result = runner.invoke(main, ["param-study", "--params",
                                      str(soft_file), "--sweep", "zeta=1,2",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "unknown sweep parameter" in result.output

    def test_bad_sweep_format(self, runner, soft_file, tmp_path):
        result = runner.invoke(main, ["param-study", "--params",
                                      str(soft_file), "--sweep", "tau_y",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_inadmissible_value_rejected(self, runner, soft_file, tmp_path):
        result = runner.invoke(main, ["param-study", "--params",
                                      str(soft_file), "--sweep", "mu_f=-1",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert "rejected" in result.output

    def test_late_rejected_value_leaves_no_output(self, runner, soft_file,
                                                  tmp_path):
        # the first value is admissible, the second is not: no curve of
        # the first is written before the second is refused
        out = tmp_path / "x"
        result = runner.invoke(main, ["param-study", "--params",
                                      str(soft_file), "--sweep", "c=2,0.5",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: sweep value c = 0.5 rejected: c_h must be >= 1, got 0.5"]
        assert not out.exists()


class TestCalibrate:
    @pytest.fixture
    def data_file(self, soft_params, tmp_path):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        path = tmp_path / "data.csv"
        curve.to_csv(path)
        return path

    def test_single_stage_fit(self, runner, soft_params, data_file,
                              tmp_path):
        from wovenshear import replace_params
        start = tmp_path / "start.json"
        save_params(start, replace_params(soft_params, {"mu_f": 1.3}))
        out = tmp_path / "cal"
        result = run_ok(runner, ["calibrate", "--data", str(data_file),
                                 "--params", str(start), "--stages", "1",
                                 "--out", str(out)])
        assert "rms" in result.output
        fitted = json.loads((out / "fitted_params.json").read_text())
        assert fitted["mu_f"] == pytest.approx(1.0, abs=1e-6)
        report = json.loads((out / "fit_report.json").read_text())
        assert [e["stage"] for e in report["stages"]] == [1]
        assert report["converged"] is True

    def test_missing_data_no_partial_output(self, runner, soft_file,
                                            tmp_path):
        out = tmp_path / "cal2"
        result = runner.invoke(main, ["calibrate", "--data",
                                      str(tmp_path / "missing.csv"),
                                      "--params", str(soft_file),
                                      "--out", str(out)])
        assert result.exit_code != 0
        assert not (out / "fitted_params.json").exists()
        assert not (out / "fit_report.json").exists()

    def test_bad_stage_list(self, runner, soft_file, data_file, tmp_path):
        for stages in ("4", "", "one"):
            result = runner.invoke(main, ["calibrate", "--data",
                                          str(data_file), "--params",
                                          str(soft_file), "--stages", stages,
                                          "--out", str(tmp_path / "x")])
            assert result.exit_code == 2

    def test_bad_data_header(self, runner, soft_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("angle,force\n1,0.1\n")
        result = runner.invoke(main, ["calibrate", "--data", str(bad),
                                      "--params", str(soft_file),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert "bad data file" in result.output

    def test_header_only_data_file(self, runner, soft_file, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# no points yet\ngamma_deg,force_norm\n")
        out = tmp_path / "x"
        result = runner.invoke(main, ["calibrate", "--data", str(empty),
                                      "--params", str(soft_file),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert (f"Error: bad data file {empty}: experiment curve is empty"
                in result.output)
        assert not (out / "fit_report.json").exists()

    @pytest.mark.parametrize("gamma", [-5.0, 90.0, 95.0])
    def test_data_angle_outside_frame_range(self, runner, soft_file,
                                            tmp_path, gamma):
        # the frame reaches shear angles in [0, 90) degrees; a data point
        # beyond them is a bad data file, refused before --out is made
        data = tmp_path / "data.csv"
        data.write_text("gamma_deg,force_norm\n"
                        + ("%r,0.1\n20,0.2\n" if gamma < 0.0
                           else "20,0.2\n%r,0.3\n") % gamma)
        out = tmp_path / "x"
        result = runner.invoke(main, ["calibrate", "--data", str(data),
                                      "--params", str(soft_file),
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            f"Error: bad data file {data}: gamma_deg must lie in [0, 90)")
        assert len(result.output.splitlines()) == 1
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"program": "25", "mode": "analytic"}))
        out = tmp_path / "c1"
        run_ok(runner, ["picture-frame", "--params", str(demo_file),
                        "--config", str(cfg), "--out", str(out)])
        data = np.loadtxt(out / "analytic_curve.csv", delimiter=",",
                          skiprows=1)
        assert data[-1, 0] == pytest.approx(25.0, abs=1e-12)

    def test_flag_overrides_config(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"program": "25", "mode": "analytic"}))
        out = tmp_path / "c2"
        run_ok(runner, ["picture-frame", "--params", str(demo_file),
                        "--config", str(cfg), "--program", "12",
                        "--out", str(out)])
        data = np.loadtxt(out / "analytic_curve.csv", delimiter=",",
                          skiprows=1)
        assert data[-1, 0] == pytest.approx(12.0, abs=1e-12)

    def test_unknown_config_key_rejected(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"programme": "25"}))
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "unknown setting" in result.output

    def test_config_choice_checked(self, runner, demo_file, tmp_path):
        # a config entry goes through the option's click.Choice like a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "bogus"}))
        out = tmp_path / "x"
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--mesh", "1x1",
                                      "--config", str(cfg), "--out",
                                      str(out)])
        assert result.exit_code == 2, result.output
        assert "'bogus' is not one of" in result.output
        assert not out.exists()

    def test_config_number_read_as_text(self, runner, demo_file, tmp_path):
        # a string option given a JSON number reads it as its text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"program": 50, "mode": "analytic"}))
        out = tmp_path / "c3"
        run_ok(runner, ["picture-frame", "--params", str(demo_file),
                        "--config", str(cfg), "--out", str(out)])
        data = np.loadtxt(out / "analytic_curve.csv", delimiter=",",
                          skiprows=1)
        assert data[-1, 0] == pytest.approx(50.0, abs=1e-12)

    def test_config_supplies_required_options(self, runner, soft_file,
                                              tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": str(soft_file),
                                   "sweep": "tau_y=0.1,0.3",
                                   "program": "20"}))
        out = tmp_path / "c4"
        run_ok(runner, ["param-study", "--config", str(cfg),
                        "--out", str(out)])
        manifest = json.loads((out / "study_manifest.json").read_text())
        assert manifest["parameter"] == "tau_y"
        assert manifest["values"] == [0.1, 0.3]

    def test_config_equals_flags(self, runner, demo_file, tmp_path):
        settings = {"mode": "analytic", "program": "30,10", "mu0": 3,
                    "steps_per_degree": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        flags = []
        for key, val in settings.items():
            flags += [f"--{key.replace('_', '-')}", str(val)]
        base = ["picture-frame", "--params", str(demo_file)]
        run_ok(runner, base + ["--config", str(cfg),
                               "--out", str(tmp_path / "cfg")])
        run_ok(runner, base + flags + ["--out", str(tmp_path / "flag")])
        assert filecmp.cmp(tmp_path / "cfg" / "analytic_curve.csv",
                           tmp_path / "flag" / "analytic_curve.csv",
                           shallow=False)

    def test_config_null_keeps_default(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "analytic", "mu0": None}))
        base = ["picture-frame", "--params", str(demo_file), "--mode",
                "analytic"]
        run_ok(runner, base + ["--config", str(cfg),
                               "--out", str(tmp_path / "cfg")])
        run_ok(runner, base + ["--out", str(tmp_path / "flag")])
        assert filecmp.cmp(tmp_path / "cfg" / "analytic_curve.csv",
                           tmp_path / "flag" / "analytic_curve.csv",
                           shallow=False)

    def test_config_must_be_object(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestNumericSettings:
    # a non-positive stress, density, increment or budget is a usage
    # error, given as a flag or as a config-file entry (which click reads
    # through the flag's type), and nothing is written
    CASES = [
        (["picture-frame", "--mode", "analytic"], "steps_per_degree", 0),
        (["picture-frame", "--mode", "analytic"], "steps_per_degree", -1),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"],
         "steps_per_degree", 0),
        (["picture-frame", "--mode", "analytic"], "mu0", 0),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"], "mu0", -1),
        (["param-study", "--sweep", "tau_y=0"], "mu0", 0),
        (["calibrate"], "mu0", -1),
        (["param-study", "--sweep", "tau_y=0"], "steps_per_degree", 0),
        (["material-point"], "dphi", 0),
        (["calibrate"], "max_evals", 0),
    ]

    @pytest.fixture
    def data_file(self, soft_params, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1)).to_csv(path)
        return path

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("args, key, value", CASES)
    def test_rejected(self, runner, soft_file, data_file, tmp_path, args,
                      key, value, via):
        out = tmp_path / "out"
        argv = args + ["--params", str(soft_file), "--out", str(out)]
        if args[0] == "calibrate":
            argv += ["--data", str(data_file)]
        if via == "flag":
            argv += [f"--{key.replace('_', '-')}", str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"{key} must be positive" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, key, value", [
        # read as its flag text, 2.5 is not an integer and true is not a
        # number; int() and float() of the JSON value would take them as
        # 2 and 1
        (["calibrate"], "max_evals", 2.5),
        (["calibrate"], "max_evals", True),
        (["picture-frame", "--mode", "analytic"], "mu0", True),
    ])
    def test_config_entry_read_as_flag_text(self, runner, soft_file,
                                            data_file, tmp_path, args, key,
                                            value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        argv = args + ["--params", str(soft_file), "--config", str(cfg),
                       "--out", str(out)]
        if args[0] == "calibrate":
            argv += ["--data", str(data_file)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"{key} must be positive, got {value!r}" in result.output
        assert not out.exists()

    def test_non_number_in_config_rejected(self, runner, demo_file,
                                           tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "analytic", "mu0": "long"}))
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "mu0 must be positive" in result.output

    # the frame is the unit patch and verify's limits are fixed, so the
    # frame side and the stress tolerance are no settings: as a flag or as
    # a config-file entry, either is a usage error and nothing is written
    @pytest.mark.parametrize("args, key, value", [
        (["picture-frame", "--mode", "analytic"], "l0", 1),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"], "tol", 1e-9),
        (["param-study", "--sweep", "tau_y=0"], "l0", 1),
        (["calibrate"], "l0", 1),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_retired_option_is_usage_error(self, runner, soft_file, data_file,
                                           tmp_path, args, key, value, via):
        out = tmp_path / "out"
        argv = args + ["--params", str(soft_file), "--out", str(out)]
        if args[0] == "calibrate":
            argv += ["--data", str(data_file)]
        if via == "flag":
            argv += [f"--{key}", repr(value)]
            # the error says the flag was retired, and suggests no live flag
            # of like spelling (--mu0 for --l0, --out for --tol)
            expect = ["No such option", f"--{key}", "retired"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
            expect = [f"unknown setting {key!r}"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert all(e in result.output for e in expect), result.output
        assert "Did you mean" not in result.output
        assert not out.exists()


class TestBadInput:
    # argv of each command that reads --params, with a data file for calibrate
    COMMANDS = [
        ["material-point"],
        ["picture-frame", "--mode", "analytic"],
        ["param-study", "--sweep", "tau_y=0"],
        ["calibrate"],
    ]

    @pytest.fixture
    def data_file(self, soft_params, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1)).to_csv(path)
        return path

    @pytest.mark.parametrize("content, reason", [
        ('{"mu_f": -1, "tau_y": 0, "A": 1}', "mu_f must be > 0"),
        ('{"mu_f": NaN, "tau_y": 0, "A": 1}', "mu_f must be finite"),
        ('{"mu_f": 1, "tau_y": 0, "A": 1, "zeta": 2}', "unknown parameter"),
        ('{"mu_f": 1, "A": 1}', "missing required parameter: tau_y"),
        ('{"mu_f": 1,', "Expecting"),
        # the bending stiffnesses are no longer parameters
        ('{"mu_f": 1, "tau_y": 0, "A": 1, "beta_n": 3}',
         "unknown parameter keys: ['beta_n']"),
        ('{"mu_f": 1, "tau_y": 0, "A": 1, "beta_g": 3}',
         "unknown parameter keys: ['beta_g']"),
        ('{"mu_f": 1, "tau_y": 0, "A": 1, "beta_tau": 3}',
         "unknown parameter keys: ['beta_tau']"),
        # float() would take both
        ('{"mu_f": true, "tau_y": 0, "A": 1}',
         "mu_f must be a number, got True"),
        ('{"mu_f": "1.5", "tau_y": 0, "A": 1}',
         "mu_f must be a number, got '1.5'"),
    ], ids=["negative", "nan", "unknown-key", "missing-key", "malformed",
            "beta_n", "beta_g", "beta_tau", "bool", "string"])
    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_bad_params_file_is_one_line(self, runner, data_file, tmp_path,
                                         args, content, reason):
        params = tmp_path / "bad.json"
        params.write_text(content)
        out = tmp_path / "out"
        argv = args + ["--params", str(params), "--out", str(out)]
        if args[0] == "calibrate":
            argv += ["--data", str(data_file)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"Error: bad params file {params}: ")
        assert reason in result.output
        assert len(result.output.splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_out_naming_a_file_is_usage_error(self, runner, soft_file,
                                              data_file, tmp_path, args):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        before = sorted(tmp_path.iterdir())
        argv = args + ["--params", str(soft_file), "--out", str(out)]
        if args[0] == "calibrate":
            argv += ["--data", str(data_file)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        error = [ln for ln in result.output.splitlines()
                 if ln.startswith("Error:")]
        assert len(error) == 1
        assert error[0].startswith(
            f"Error: cannot make output directory {out}: ")
        assert sorted(tmp_path.iterdir()) == before
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("args", [
        ["material-point", "--program", "nan"],
        ["material-point", "--program", "0.5,inf"],
        ["material-point", "--program", "-inf"],
        ["param-study", "--sweep", "tau_y=0,nan"],
        ["param-study", "--sweep", "A=inf"],
    ])
    def test_non_finite_value_is_usage_error(self, runner, soft_file,
                                             tmp_path, args):
        out = tmp_path / "out"
        result = runner.invoke(main, args + ["--params", str(soft_file),
                                             "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "non-finite value" in result.output
        assert not out.exists()

    def test_step_count_overflow_is_usage_error(self, runner, soft_file,
                                                tmp_path):
        # |1e308 - 0.5| / dphi overflows; a huge but finite count is not
        # run here, since it would allocate the whole path
        out = tmp_path / "out"
        result = runner.invoke(main, ["material-point", "--program",
                                      "0.5,1e308", "--params",
                                      str(soft_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "no finite step count" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("program, dphi, steps", [
        # the count printed with %.17g, not as a 300-digit integer
        ("0.6", "1e-300", "5.9999999999999996e+299"),
        # each leg under the cap, the three together over it
        ("0.6,0,0.6", "1.5e-7", "12000000"),
        # each leg's count finite, their sum past the largest double
        ("1.7e308,0", "1", "inf"),
    ], ids=["0.6-1e-300", "0.6,0,0.6-1.5e-7", "1.7e308,0-1"])
    def test_step_count_over_cap_is_usage_error(self, runner, soft_file,
                                                tmp_path, program, dphi,
                                                steps):
        # rejected from the leg arithmetic alone, before the path is built
        out = tmp_path / "out"
        result = runner.invoke(main, ["material-point", "--program",
                                      program, "--dphi", dphi, "--params",
                                      str(soft_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"program takes {steps} steps at dphi" in result.output
        assert f"at most {wovenshear.cli._MAX_STEPS} are driven" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["picture-frame", "--mode", "analytic"],
        ["picture-frame", "--mode", "verify"],
        ["param-study", "--sweep", "tau_y=0"],
    ], ids=["analytic", "verify", "param-study"])
    @pytest.mark.parametrize("spd, steps", [
        ("1e300", None),
        ("1e9", "110000000000"),
        # the legs take 5e6, 3e6 and 3e6 steps, each under the cap
        ("1e5", "11000000"),
        # 50 degrees times the largest double overflows
        ("1.7976931348623157e308", "inf"),
    ])
    def test_frame_step_count_over_cap_is_usage_error(
            self, runner, soft_file, tmp_path, args, spd, steps):
        # rejected from the leg counts of the frame grid, before any grid
        # or output directory is made
        out = tmp_path / "out"
        result = runner.invoke(main, args + [
            "--program", "50,20,50", "--steps-per-degree", spd,
            "--params", str(soft_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = [ln for ln in result.output.splitlines()
                 if ln.startswith("Error:")]
        assert len(error) == 1
        assert error[0].startswith("Error: program takes ")
        if steps is not None:
            assert error[0].startswith(f"Error: program takes {steps} steps")
        assert error[0].endswith(
            f"at most {wovenshear.cli._MAX_STEPS} are solved")
        assert not out.exists()


    @pytest.mark.parametrize("args, mesh, steps", [
        (["--mode", "fe", "--mesh", "64x64", "--steps-per-degree", "4e4"],
         64, 4400000),
        (["--mesh", "100000x100000"], 100000, 220),
    ], ids=["fe-64x64", "verify-100000x100000"])
    def test_frame_records_over_bound_is_usage_error(
            self, runner, soft_file, tmp_path, monkeypatch, args, mesh,
            steps):
        # refused from the step count and the mesh size alone: no mesh,
        # record array or output directory is made
        def no_mesh(*args, **kwargs):
            raise AssertionError("mesh built before the record bound")

        monkeypatch.setattr(wovenshear.cli.Mesh, "square", no_mesh)
        out = tmp_path / "out"
        result = runner.invoke(main, ["picture-frame"] + args + [
            "--params", str(soft_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        error = [ln for ln in result.output.splitlines()
                 if ln.startswith("Error:")]
        bound = (wovenshear.cli._MAX_STEPS + 1) * 4
        assert error == [f"Error: a {mesh}x{mesh} mesh over {steps} steps "
                         f"records more than the {bound} Gauss-point states "
                         f"a run may hold"]
        assert not out.exists()


def _text(values):
    """Comma-joined ``repr`` of floats: the text a flag would carry."""
    return ",".join(map(repr, values))


# numbers as flag text: a small value a run can afford, an extreme one, or
# one the option refuses
def _number(small, extreme):
    return st.one_of(small, extreme,
                     st.sampled_from([0.0, -1.0, math.inf, math.nan])
                     ).map(repr)


# frame targets on a 5-degree grid, so that every leg spans at least 5
# degrees, and targets the program parser refuses
_GAMMA_PROGRAM = st.one_of(
    st.lists(st.one_of(st.integers(0, 17).map(lambda k: 5.0 * k),
                       st.sampled_from([90.0, -5.0, 1e300])),
             min_size=1, max_size=3).map(_text),
    st.sampled_from(["", "x", "10,nan"]))
# angle-cosine targets on a 0.05 grid, so that every nonzero leg takes at
# least 5e7 steps at an extreme --dphi, over the step cap
_COSINE_PROGRAM = st.one_of(
    st.lists(st.integers(-18, 18).map(lambda k: 0.05 * k),
             min_size=1, max_size=3).map(_text),
    st.sampled_from(["", "x", "0.5,inf"]))
# a mesh that runs, one over the record bound at any step count, or text
# the parser refuses
_MESH = st.one_of(st.integers(1, 2).map(str),
                  st.integers(10**4, 10**12).map(lambda n: f"{n}x{n}"),
                  st.sampled_from(["0", "2x3", "x"]))
_POSITIVE = _number(st.floats(0.1, 10.0),
                    st.sampled_from([1e300, 5e-324, 1e-300,
                                     1.7976931348623157e308]))
# --steps-per-degree: a run of at most a few hundred steps, or a density
# that takes a 5-degree leg over the step cap
_SPD = _number(st.floats(0.05, 1.0), st.floats(1e7, 1e308))
_DPHI = _number(st.floats(1e-3, 0.1), st.floats(5e-324, 1e-9))
# a parameter set: the demo set with some of its values replaced,
# extremes included
_PARAM_VALUE = st.one_of(st.floats(0.0, 100.0),
                         st.sampled_from([1e300, 5e-324, -1.0, math.inf,
                                          math.nan]))
_PARAMS = st.dictionaries(
    st.sampled_from(["mu_f", "tau_y", "A", "a", "B", "b", "C", "c", "eps_L"]),
    _PARAM_VALUE, max_size=3)
_DEMO = {"mu_f": 1.0, "tau_y": 0.0, "A": 0.05, "a": 1.0, "B": 0.01,
         "b": 55.0, "C": 0.7, "c": 5.0}


@st.composite
def _command(draw):
    """A command line of ``material-point`` or ``picture-frame``, without
    ``--params`` and ``--out``."""
    if draw(st.booleans()):
        return ["material-point", "--program", draw(_COSINE_PROGRAM),
                "--dphi", draw(_DPHI)]
    return ["picture-frame",
            "--mode", draw(st.sampled_from(["analytic", "fe", "verify"])),
            "--program", draw(_GAMMA_PROGRAM), "--mesh", draw(_MESH),
            "--steps-per-degree", draw(_SPD), "--mu0", draw(_POSITIVE)]


class TestAnyInput:
    @given(args=_command(), updates=_PARAMS)
    @settings(max_examples=100, deadline=None)
    def test_exit_status_and_output(self, args, updates):
        """Any command line ends in exit 0, 1 or 2 with no traceback; a
        usage error (2) makes no output directory and a failure (1)
        prints one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            params = Path(tmp) / "params.json"
            params.write_text(json.dumps({**_DEMO, **updates}))
            out = Path(tmp) / "out"
            result = CliRunner().invoke(
                main, args + ["--params", str(params), "--out", str(out)])
            assert result.exit_code in (0, 1, 2), result.output
            assert result.exception is None or isinstance(
                result.exception, SystemExit), result.exception
            errors = [ln for ln in result.output.splitlines()
                      if ln.startswith("Error:")]
            if result.exit_code == 2:
                assert not out.exists()
            if result.exit_code == 1:
                assert len(errors) == 1, result.output


class TestOutOfRange:
    @pytest.mark.parametrize("args, updates, error", [
        (["material-point", "--program", "0.1"], {"c": 1e300},
         "Error: bad params file "),
        (["material-point", "--program", "0.4,0.15,-0.6", "--dphi", "0.1"],
         {"mu_f": 1e300, "B": 1e300}, "Error: bad params file "),
    ], ids=["c-1e300", "mu_f-1e300"])
    def test_is_one_line(self, runner, tmp_path, args, updates, error):
        # parameter values whose arithmetic leaves the range of doubles
        # fail with one error line instead of a traceback, a warning or
        # NaNs written, before the output directory is made
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**_DEMO, **updates}))
        out = tmp_path / "x"
        result = runner.invoke(main, args + ["--params", str(params),
                                             "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error), lines
        assert not out.exists()


class TestTopLevel:
    def test_version(self, runner):
        result = run_ok(runner, ["--version"])
        assert "0.1.0" in result.output
        assert result.output.strip().endswith(wovenshear.__version__)

    def test_help_lists_commands(self, runner):
        result = run_ok(runner, ["--help"])
        for name in ("material-point", "picture-frame", "param-study",
                     "calibrate"):
            assert name in result.output
