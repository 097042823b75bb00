"""Command-line interface tests.

Verifies: all four subcommands end to end in a temporary directory, flag
and config-file precedence, range checks on numeric settings, error exits
without partial output (bad parameter files, non-finite numbers), and
byte-identical reruns.
"""

import filecmp
import json

import numpy as np
import pytest
from click.testing import CliRunner

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

    def test_config_must_be_object(self, runner, demo_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestNumericSettings:
    # a non-positive length, stress, density, tolerance or budget is a
    # usage error, given as a flag or as a config-file entry (which click
    # does not type-check), and nothing is written
    CASES = [
        (["picture-frame", "--mode", "analytic"], "steps_per_degree", 0),
        (["picture-frame", "--mode", "analytic"], "steps_per_degree", -1),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"],
         "steps_per_degree", 0),
        (["picture-frame", "--mode", "analytic"], "mu0", 0),
        (["picture-frame", "--mode", "analytic"], "l0", -1),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"], "l0", 0),
        (["picture-frame", "--mode", "verify", "--mesh", "1x1"], "tol", -1),
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

    def test_non_number_in_config_rejected(self, runner, demo_file,
                                           tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "analytic", "l0": "long"}))
        result = runner.invoke(main, ["picture-frame", "--params",
                                      str(demo_file), "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "l0 must be positive" in result.output


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
    ], ids=["negative", "nan", "unknown-key", "missing-key", "malformed"])
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
        assert not any(out.iterdir())

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
        assert not any(out.iterdir())


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
