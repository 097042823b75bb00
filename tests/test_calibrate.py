"""Calibration tests.

Verifies: experiment-curve validation and CSV round trips, the pointwise
model forces against the curve generator and against a per-point scalar
solve, the RMS objective and its rejection of failed solves, bounded
simplex fitting (recovery, pass-through, determinism), the staged
workflow with its window selection and skip logic, and the synthetic data
generator.
"""

import numpy as np
import pytest

from wovenshear import (ConvergenceError, ElastoplasticParams, IntervalState,
                        frame_force, gamma_to_theta, interval_solve,
                        replace_params, run_program)
from wovenshear import calibrate
from wovenshear.analytic import LoadProgram
from wovenshear.calibrate import (
    DEFAULT_BOUNDS,
    FIT_KEYS,
    ExperimentCurve,
    FitConfig,
    fit,
    model_forces,
    objective,
    staged_fit,
    synthetic_curve,
)


class TestExperimentCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentCurve(gamma_deg=[1.0, 1.0], force_norm=[0.1, 0.2])
        with pytest.raises(ValueError):
            ExperimentCurve(gamma_deg=[2.0, 1.0], force_norm=[0.1, 0.2])
        with pytest.raises(ValueError):
            ExperimentCurve(gamma_deg=[1.0], force_norm=[np.nan])
        with pytest.raises(ValueError):
            ExperimentCurve(gamma_deg=[1.0, 2.0], force_norm=[0.1])
        with pytest.raises(ValueError):
            ExperimentCurve(gamma_deg=[], force_norm=[])

    def test_points_property(self):
        c = ExperimentCurve(gamma_deg=[1.0, 2.0], force_norm=[0.1, 0.2])
        assert c.points == [(1.0, 0.1), (2.0, 0.2)]
        assert len(c) == 2

    def test_csv_round_trip(self, tmp_path):
        c = ExperimentCurve(gamma_deg=[0.5, 1.0, 30.0],
                            force_norm=[0.01, 0.02, 0.5], label="x")
        path = tmp_path / "data.csv"
        c.to_csv(path)
        c2 = ExperimentCurve.from_csv(path, label="x")
        assert np.array_equal(c.gamma_deg, c2.gamma_deg)
        assert np.array_equal(c.force_norm, c2.force_norm)

    def test_comments_before_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# digitized from a frame test\n"
                        "gamma_deg,force_norm\n1.0,0.1\n2.0,0.2\n")
        c = ExperimentCurve.from_csv(path)
        assert len(c) == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("gamma,force\n1.0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            ExperimentCurve.from_csv(path)


# the 136-angle grid of acceptance criterion 9 (degrees)
AC9_GRID = np.concatenate([np.arange(0.1, 1.01, 0.1),
                           np.arange(1.25, 5.01, 0.25),
                           np.arange(5.5, 60.01, 0.5)])


def scalar_model_forces(gamma_deg, p, L0, mu0):
    """Per-point reference: one scalar solve and force per angle."""
    out = []
    for g in gamma_deg:
        theta = float(gamma_to_theta(g))
        sol = interval_solve(float(np.cos(theta)), IntervalState(), p)
        out.append(frame_force(sol.tau, theta, L0) / (L0 * mu0))
    return np.array(out)


class TestModelForces:
    @pytest.mark.parametrize("L0, mu0", [(1.0, 1.0), (3.0, 2.0)])
    @pytest.mark.parametrize("name", ["glass_params", "demo_params"])
    def test_equals_per_point_scalar_solve(self, name, L0, mu0, request):
        p = request.getfixturevalue(name)
        forces = model_forces(AC9_GRID, p, L0=L0, mu0=mu0)
        assert np.array_equal(forces,
                              scalar_model_forces(AC9_GRID, p, L0, mu0))

    def test_matches_curve_generator(self, demo_params):
        # pointwise virgin evaluation equals the sampled program curve
        lp = LoadProgram.from_gamma_degrees([40.0])
        curve = run_program(lp, demo_params, sampling="gamma")
        forces = model_forces(curve.gamma_deg[1:], demo_params)
        assert np.allclose(forces, curve.frame_force_normalized[1:],
                           rtol=1e-13)

    def test_scales(self, demo_params):
        g = np.array([5.0, 20.0])
        f1 = model_forces(g, demo_params, L0=1.0, mu0=1.0)
        f2 = model_forces(g, demo_params, L0=3.0, mu0=2.0)
        assert np.allclose(f2, f1 / 2.0, rtol=1e-13)


class TestObjective:
    def test_zero_on_exact_data(self, glass_params):
        curve = synthetic_curve(glass_params, np.arange(1.0, 30.0, 1.0))
        assert objective(glass_params, curve) == 0.0

    def test_positive_on_perturbed_params(self, glass_params):
        curve = synthetic_curve(glass_params, np.arange(1.0, 30.0, 1.0))
        other = replace_params(glass_params, {"A": 9.5})
        assert objective(other, curve) > 0.0

    def test_inf_when_slip_solve_fails(self, glass_params, monkeypatch):
        curve = synthetic_curve(glass_params, np.arange(1.0, 30.0, 1.0))

        def failing(*args, **kwargs):
            raise ConvergenceError("no convergence", residual=1.0)

        monkeypatch.setattr(calibrate, "interval_solve_batch", failing)
        assert objective(glass_params, curve) == float("inf")

    def test_mask(self, glass_params):
        curve = synthetic_curve(glass_params, np.arange(1.0, 10.0, 1.0))
        mask = curve.gamma_deg <= 5.0
        assert objective(glass_params, curve, mask=mask) == 0.0
        with pytest.raises(ValueError, match="mask"):
            objective(glass_params, curve, mask=mask[:3])
        with pytest.raises(ValueError, match="no data"):
            objective(glass_params, curve, mask=np.zeros(len(curve), bool))


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(free_params=())
        with pytest.raises(ValueError):
            FitConfig(free_params=("mu",))
        with pytest.raises(ValueError):
            FitConfig(free_params=("A",), bounds={"A": (1.0, 1.0)})
        with pytest.raises(ValueError):
            FitConfig(free_params=("A",), max_evals=0)

    def test_bounds_merge(self):
        cfg = FitConfig(free_params=("A",), bounds={"A": (0.0, 10.0)})
        assert cfg.bounds["A"] == (0.0, 10.0)
        assert cfg.bounds["c"] == DEFAULT_BOUNDS["c"]

    def test_all_keys_known(self):
        assert set(FIT_KEYS) == set(DEFAULT_BOUNDS)


class TestFit:
    def test_recovers_shear_stiffness(self, soft_params):
        # elastic window: the force is linear in mu_f there
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        start = replace_params(soft_params, {"mu_f": 1.3})
        res = fit(start, curve, FitConfig(free_params=("mu_f",),
                                          max_evals=200))
        assert res.converged
        assert res.params.mu_f == pytest.approx(1.0, abs=1e-6)
        assert res.rms_error <= 1e-10

    def test_non_free_params_pass_through(self, soft_params):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        start = replace_params(soft_params, {"mu_f": 1.3})
        res = fit(start, curve, FitConfig(free_params=("mu_f",),
                                          max_evals=50))
        for field in ("tau_y", "A_h", "a_h", "B_h", "b_h", "C_h", "c_h"):
            assert getattr(res.params, field) == getattr(soft_params, field)

    def test_deterministic(self, soft_params):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid, rel_noise=0.02, seed=5)
        start = replace_params(soft_params, {"mu_f": 1.2})
        cfg = FitConfig(free_params=("mu_f",), max_evals=150)
        r1 = fit(start, curve, cfg)
        r2 = fit(start, curve, cfg)
        assert r1.params.mu_f == r2.params.mu_f
        assert r1.rms_error == r2.rms_error

    def test_start_outside_bounds_rejected(self, soft_params):
        curve = synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1))
        cfg = FitConfig(free_params=("mu_f",), bounds={"mu_f": (2.0, 3.0)})
        with pytest.raises(ValueError, match="outside bounds"):
            fit(soft_params, curve, cfg)

    def test_budget_reported(self, soft_params):
        curve = synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1))
        start = replace_params(soft_params, {"mu_f": 1.3})
        res = fit(start, curve, FitConfig(free_params=("mu_f",),
                                          max_evals=10))
        assert res.evals_used <= 10 + 2
        assert not res.converged


class TestStagedFit:
    def test_stage_windows(self, soft_params):
        grid = np.concatenate([np.arange(0.2, 1.01, 0.2),
                               np.arange(2.0, 35.01, 1.0),
                               np.arange(36.0, 55.01, 1.0)])
        curve = synthetic_curve(soft_params, grid)
        _, report = staged_fit(soft_params, curve, stages=(1, 2, 3),
                               max_evals=20)
        pts = {e["stage"]: e["points"] for e in report["stages"]}
        assert pts[1] == np.sum(grid <= 1.0)
        assert pts[2] == np.sum((grid >= 2.0) & (grid <= 35.0))
        assert pts[3] == np.sum(grid > 35.0)

    def test_skip_when_underdetermined(self, soft_params):
        curve = synthetic_curve(soft_params, np.array([3.0, 10.0, 20.0]))
        _, report = staged_fit(soft_params, curve, stages=(2,), max_evals=20)
        assert report["stages"][0]["skipped"]

    def test_unknown_stage(self, soft_params):
        curve = synthetic_curve(soft_params, np.arange(1.0, 10.0))
        with pytest.raises(ValueError, match="stage"):
            staged_fit(soft_params, curve, stages=(4,))

    def test_single_stage_recovery(self, soft_params):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        start = replace_params(soft_params, {"mu_f": 1.3})
        res, report = staged_fit(start, curve, stages=(1,), max_evals=200)
        assert res.params.mu_f == pytest.approx(1.0, abs=1e-6)
        assert report["rms_full_curve"] == res.rms_error
        entry = report["stages"][0]
        assert entry["rms_after"] < entry["rms_before"]


class TestSyntheticCurve:
    def test_noise_free_equals_model(self, glass_params):
        grid = np.arange(1.0, 20.0, 1.0)
        c = synthetic_curve(glass_params, grid)
        assert np.array_equal(c.force_norm, model_forces(grid, glass_params))

    def test_noise_deterministic_per_seed(self, glass_params):
        grid = np.arange(1.0, 20.0, 1.0)
        c1 = synthetic_curve(glass_params, grid, rel_noise=0.01, seed=7)
        c2 = synthetic_curve(glass_params, grid, rel_noise=0.01, seed=7)
        c3 = synthetic_curve(glass_params, grid, rel_noise=0.01, seed=8)
        assert np.array_equal(c1.force_norm, c2.force_norm)
        assert not np.array_equal(c1.force_norm, c3.force_norm)
