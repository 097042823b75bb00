"""Calibration tests.

Verifies: experiment-curve validation and CSV round trips, the pointwise
model forces against the curve generator and against a per-point scalar
solve, the RMS objective and its rejection of failed solves, the bounded
least-squares fit (recovery across the elastic/plastic kink, pass-through,
determinism, rejected candidates, the inadmissible bound face A = B = 0,
the exact evaluation budget, its argument checks), the exact force
Jacobian against central differences and its cost of no model
evaluation, the staged workflow with its window selection, skip logic,
identifiability report and report totals, its stopping point independent
of the force normalization mu0, its whole-curve rms against the same
stages run on scipy's trust-region reflective method, and the synthetic
data generator.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from wovenshear import (ConvergenceError, ElastoplasticParams, IntervalState,
                        frame_force, gamma_to_theta, interval_solve,
                        params_to_dict, replace_params, return_map_batch,
                        run_program)
from wovenshear import calibrate
from wovenshear.analytic import LoadProgram
from wovenshear.calibrate import (
    DEFAULT_BOUNDS,
    FIT_KEYS,
    ExperimentCurve,
    fit,
    model_forces,
    objective,
    staged_fit,
    synthetic_curve,
)

import oracles


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
        assert list(zip(c.gamma_deg, c.force_norm)) == [(1.0, 0.1),
                                                        (2.0, 0.2)]
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

    def test_comments_and_blank_lines_before_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n# digitized from a frame test\n\n# gamma in deg\n"
                        "gamma_deg,force_norm\n1.0,0.1\n2.0,0.2\n")
        c = ExperimentCurve.from_csv(path)
        assert np.array_equal(c.gamma_deg, [1.0, 2.0])
        assert np.array_equal(c.force_norm, [0.1, 0.2])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("gamma,force\n1.0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            ExperimentCurve.from_csv(path)


# the 136-angle grid of acceptance criterion 9 (degrees)
AC9_GRID = np.concatenate([np.arange(0.1, 1.01, 0.1),
                           np.arange(1.25, 5.01, 0.25),
                           np.arange(5.5, 60.01, 0.5)])


def scalar_model_forces(gamma_deg, p, mu0):
    """Per-point reference: one scalar solve and force per angle."""
    out = []
    for g in gamma_deg:
        theta = float(gamma_to_theta(g))
        sol = interval_solve(float(np.cos(theta)), IntervalState(), p)
        out.append(frame_force(sol.tau, theta) / mu0)
    return np.array(out)


class TestModelForces:
    @pytest.mark.parametrize("mu0", [1.0, 2.0])
    @pytest.mark.parametrize("name", ["glass_params", "demo_params"])
    def test_equals_per_point_scalar_solve(self, name, mu0, request):
        p = request.getfixturevalue(name)
        forces = model_forces(AC9_GRID, p, mu0=mu0)
        assert np.array_equal(forces, scalar_model_forces(AC9_GRID, p, mu0))

    def test_matches_curve_generator(self, demo_params):
        # pointwise virgin evaluation equals the sampled program curve
        lp = LoadProgram.from_gamma_degrees([40.0])
        curve = run_program(lp, demo_params)
        forces = model_forces(curve.gamma_deg[1:], demo_params)
        assert np.allclose(forces, curve.frame_force_normalized[1:],
                           rtol=1e-13)

    def test_scales(self, demo_params):
        g = np.array([5.0, 20.0])
        f1 = model_forces(g, demo_params, mu0=1.0)
        f2 = model_forces(g, demo_params, mu0=2.0)
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

        monkeypatch.setattr(calibrate, "return_map_batch", failing)
        assert objective(glass_params, curve) == float("inf")

    def test_mask(self, glass_params):
        curve = synthetic_curve(glass_params, np.arange(1.0, 10.0, 1.0))
        mask = curve.gamma_deg <= 5.0
        assert objective(glass_params, curve, mask=mask) == 0.0
        with pytest.raises(ValueError, match="mask"):
            objective(glass_params, curve, mask=mask[:3])
        with pytest.raises(ValueError, match="no data"):
            objective(glass_params, curve, mask=np.zeros(len(curve), bool))


class TestFitArguments:
    def test_validation(self, soft_params):
        curve = synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1))
        with pytest.raises(ValueError, match="free_params must be nonempty"):
            fit(soft_params, curve, ())
        with pytest.raises(ValueError, match="unknown fit parameter 'mu'"):
            fit(soft_params, curve, ("mu",))
        with pytest.raises(ValueError, match="max_evals must be >= 1"):
            fit(soft_params, curve, ("A",), max_evals=0)

    def test_all_keys_known(self):
        assert set(FIT_KEYS) == set(DEFAULT_BOUNDS)


class TestFit:
    def test_recovers_shear_stiffness(self, soft_params):
        # elastic window: the force is linear in mu_f there
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        start = replace_params(soft_params, {"mu_f": 1.3})
        res = fit(start, curve, ("mu_f",), max_evals=200)
        assert res.converged
        assert res.params.mu_f == pytest.approx(1.0, abs=1e-6)
        assert res.rms_error <= 1e-10

    def test_non_free_params_pass_through(self, soft_params):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid)
        start = replace_params(soft_params, {"mu_f": 1.3})
        res = fit(start, curve, ("mu_f",), max_evals=50)
        for field in ("tau_y", "A_h", "a_h", "B_h", "b_h", "C_h", "c_h"):
            assert getattr(res.params, field) == getattr(soft_params, field)

    def test_deterministic(self, soft_params):
        grid = np.arange(0.1, 1.01, 0.1)
        curve = synthetic_curve(soft_params, grid, rel_noise=0.02, seed=5)
        start = replace_params(soft_params, {"mu_f": 1.2})
        r1 = fit(start, curve, ("mu_f",), max_evals=150)
        r2 = fit(start, curve, ("mu_f",), max_evals=150)
        assert r1.params.mu_f == r2.params.mu_f
        assert r1.rms_error == r2.rms_error

    def test_start_outside_bounds_rejected(self, soft_params):
        curve = synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1))
        start = replace_params(soft_params, {"mu_f": 2e8})
        assert start.mu_f > DEFAULT_BOUNDS["mu_f"][1]
        with pytest.raises(ValueError, match="outside bounds"):
            fit(start, curve, ("mu_f",))

    def test_budget_reported(self, soft_params):
        # the fit needs three evaluations, the start and two damped steps
        # (the Jacobian costs none), so two stop it unconverged
        curve = synthetic_curve(soft_params, np.arange(0.1, 1.01, 0.1))
        start = replace_params(soft_params, {"mu_f": 1.3})
        assert fit(start, curve, ("mu_f",)).evals_used == 3
        res = fit(start, curve, ("mu_f",), max_evals=2)
        assert res.evals_used <= 2
        assert not res.converged
        assert res.rms_error < objective(start, curve)

    def test_kink_in_stage1_window(self, soft_params):
        # the yield angle falls inside the stage-1 window (gamma <= 1 deg)
        # and moves across the data points as mu_f changes, so the
        # residuals have elastic/plastic kinks in mu_f
        truth = replace_params(soft_params, {"tau_y": 0.01})
        grid = np.arange(0.1, 1.01, 0.1)
        elastic = np.cos(gamma_to_theta(grid)) * truth.mu_f <= truth.tau_y
        assert elastic.any() and not elastic.all()
        curve = synthetic_curve(truth, grid)
        start = replace_params(truth, {"mu_f": 1.3})
        params, report = staged_fit(start, curve, stages=(1,))
        entry = report["stages"][0]
        assert report["converged"]
        assert params.mu_f == pytest.approx(1.0, rel=1e-5)
        assert entry["rms_after"] < 1e-5 * entry["rms_before"]

    @pytest.mark.parametrize("by", ["replace_params", "slip_solve"])
    def test_rejected_candidates_near_bound(self, soft_params, monkeypatch,
                                            by):
        # the data are fitted best at c = 1 and the start is next to an
        # edge c = 1.0005 inside the search box, past which candidates are
        # rejected: by replace_params or by a slip solve that fails
        truth = replace_params(soft_params, {"c": 1.0})
        curve = synthetic_curve(truth, np.arange(36.0, 55.01, 1.0),
                                rel_noise=0.01, seed=0)
        start = replace_params(truth, {"C": 0.6, "c": 1.001})
        edge = 1.0005
        rejected = []
        if by == "replace_params":
            def rejecting(ep, updates):
                if updates["c"] < edge:
                    rejected.append(updates["c"])
                    raise ValueError(f"c_h below {edge}")
                return replace_params(ep, updates)

            monkeypatch.setattr(calibrate, "replace_params", rejecting)
        else:
            solve = calibrate.return_map_batch

            def failing(phi, phi_p, q, p):
                if p.c_h < edge:
                    rejected.append(p.c_h)
                    raise ConvergenceError("no convergence", residual=1.0)
                return solve(phi, phi_p, q, p)

            monkeypatch.setattr(calibrate, "return_map_batch", failing)
        res = fit(start, curve, ("C", "c"))
        assert rejected and all(c < edge for c in rejected)
        assert res.params.c_h >= edge
        assert np.isfinite(res.rms_error)
        assert res.rms_error == objective(res.params, curve)
        assert res.rms_error < objective(start, curve)

    def test_face_A_B_zero(self, soft_params, monkeypatch):
        # data of a set with A and B at 1e-3 of the soft set's pull the
        # stage-2 fit onto the bounds A = 0 and B = 0, where a clipped step
        # can land; at c > 1 the face A = B = 0 has f_iso'(0) = 0, which
        # replace_params rejects
        truth = replace_params(soft_params, {"A": 5e-5, "B": 1e-5})
        curve = synthetic_curve(truth, np.arange(2.0, 35.01, 0.5),
                                rel_noise=0.01, seed=1)
        rejected = []

        def recording(ep, updates):
            try:
                return replace_params(ep, updates)
            except ValueError:
                rejected.append(updates)
                raise

        monkeypatch.setattr(calibrate, "replace_params", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit(soft_params, curve, ("A", "a", "B", "b"))
        assert rejected
        assert all(u["A"] == u["B"] == 0.0 for u in rejected)
        assert res.evals_used <= 400
        # the returned set passes the admissibility checks again
        assert dataclasses.replace(res.params) == res.params
        assert res.rms_error == objective(res.params, curve)
        assert res.rms_error <= objective(soft_params, curve)


class TestForceJacobian:
    @pytest.mark.parametrize("name", ["glass_params", "soft_params"])
    def test_matches_central_differences(self, name, request):
        # every angle of the AC9 grid is plastic on the glass set; the soft
        # set yields at about 5.7 deg, so the grid has elastic points too
        p = request.getfixturevalue(name)
        mu0 = 2.0
        theta = gamma_to_theta(AC9_GRID)
        virgin = np.zeros(theta.size)
        sol = return_map_batch(np.cos(theta), virgin, virgin, p)
        assert sol.plastic.any()
        assert sol.plastic.all() == (name == "glass_params")
        jac = calibrate._force_jacobian(theta, sol, p, FIT_KEYS, mu0)
        values = params_to_dict(p)
        for k, key in enumerate(FIT_KEYS):
            u = calibrate._encode(key, values[key])
            h = 1e-4 * (max(abs(u), 1.0) if key in calibrate._LOG_KEYS
                        else abs(u))
            f_up, f_dn = (
                model_forces(AC9_GRID, replace_params(
                    p, {key: calibrate._decode(key, u + s)}), mu0)
                for s in (h, -h))
            col = jac[:, k]
            err = np.max(np.abs((f_up - f_dn) / (2.0 * h) - col))
            assert err <= 1e-6 * np.max(np.abs(col)), key

    def test_fit_evaluates_only_its_residuals(self, glass_params,
                                              monkeypatch):
        # every slip solve of a staged fit is one of its counted model
        # evaluations: the Jacobian comes from the iterate's solution
        curve = synthetic_curve(glass_params, AC9_GRID, rel_noise=0.01,
                                seed=0)
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97,
                                              "C": 1.05, "c": 11.0 * 0.95})
        solve = calibrate.return_map_batch
        calls = []

        def counting(phi, phi_p, q, p):
            calls.append(p)
            return solve(phi, phi_p, q, p)

        monkeypatch.setattr(calibrate, "return_map_batch", counting)
        for stage in (1, 2, 3):
            keys, selector = calibrate._STAGES[stage]
            n = len(calls)
            res = fit(start, curve, keys, mask=selector(curve.gamma_deg))
            assert res.converged
            assert len(calls) - n == res.evals_used
            start = res.params
        assert len(calls) <= 30


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
        params, report = staged_fit(start, curve, stages=(1,), max_evals=200)
        assert params.mu_f == pytest.approx(1.0, abs=1e-6)
        assert report["rms_full_curve"] == objective(params, curve)
        entry = report["stages"][0]
        assert entry["rms_after"] < entry["rms_before"]


    @pytest.mark.parametrize("max_evals", [2, 300])
    def test_report_totals(self, glass_params, max_evals):
        # the report's evals_used and converged sum up the fitted stages;
        # at 2 evaluations a stage the fit stops unconverged, and a skipped
        # stage counts for neither
        curve = synthetic_curve(glass_params, AC9_GRID, rel_noise=0.01,
                                seed=0)
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97})
        _, report = staged_fit(start, curve, stages=(1, 2, 3),
                               max_evals=max_evals)
        fitted = [e for e in report["stages"] if "skipped" not in e]
        assert len(fitted) == 3
        assert report["evals_used"] == sum(e["evals"] for e in fitted)
        assert report["converged"] is all(e["converged"] for e in fitted)
        assert report["converged"] is (max_evals == 300)
        curve = synthetic_curve(glass_params, np.array([3.0, 10.0, 20.0]))
        _, report = staged_fit(start, curve, stages=(2,))
        assert report["evals_used"] == 0 and report["converged"] is True

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_stop_does_not_depend_on_mu0(self, glass_params, seed):
        # the AC9 curve written and fitted at a force normalization mu0
        # takes the evaluations it takes at mu0 = 1 in every stage, and
        # ends on the same parameters up to round-off
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97,
                                              "C": 1.05, "c": 11.0 * 0.95})
        runs = {}
        for mu0 in (1.0, 1000.0, 0.01):
            curve = synthetic_curve(glass_params, AC9_GRID, rel_noise=0.01,
                                    seed=seed, mu0=mu0)
            params, report = staged_fit(start, curve, max_evals=300,
                                        mu0=mu0)
            runs[mu0] = ([e["evals"] for e in report["stages"]],
                         params_to_dict(params))
        evals, ref = runs.pop(1.0)
        for mu0, (evals_mu0, fitted) in runs.items():
            assert evals_mu0 == evals, mu0
            for key, value in ref.items():
                assert fitted[key] == pytest.approx(value, rel=1e-10), key

    def test_identifiability_flags_A_a_ridge(self, glass_params):
        # asinh(a q) ~ a q over the stage-2 window, so only A * a is
        # identified: the weakest direction of the stage-2 Jacobian in the
        # encoded parameters (A, log a, B, log b) is almost all A and log a
        curve = synthetic_curve(glass_params, AC9_GRID, rel_noise=0.01,
                                seed=0)
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97})
        _, report = staged_fit(start, curve, stages=(2,))
        entry = report["stages"][0]
        weak = entry["weakest_direction"]
        assert list(weak) == ["A", "a", "B", "b"]
        assert np.linalg.norm(list(weak.values())) == pytest.approx(1.0)
        assert weak["A"] * weak["a"] < 0.0
        assert np.hypot(weak["A"], weak["a"]) > 0.99
        assert entry["condition_number"] > 1e8
        s = entry["singular_values"]
        assert len(s) == 4 and s == sorted(s, reverse=True)
        assert entry["condition_number"] == pytest.approx(s[0] / s[-1])


class TestTrustRegionReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_rms_matches_trf(self, glass_params, monkeypatch, seed):
        # the staged fit of the AC9 curve ends as close to the data as the
        # same stages run on scipy's trust-region reflective method
        curve = synthetic_curve(glass_params, AC9_GRID, rel_noise=0.01,
                                seed=seed)
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97,
                                              "C": 1.05, "c": 11.0 * 0.95})
        _, report = staged_fit(start, curve, max_evals=300)
        monkeypatch.setattr(calibrate, "fit", oracles.trf_fit)
        _, ref_report = staged_fit(start, curve, max_evals=300)
        assert report["converged"] and ref_report["converged"]
        assert report["rms_full_curve"] == pytest.approx(
            ref_report["rms_full_curve"], rel=1e-3)


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
