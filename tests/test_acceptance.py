"""End-to-end acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line (printed in the terminal
summary) with the measured figure behind the verdict:

 1. FE Gauss-point stress matches the closed-form frame solution to 1e-9
    over a load-unload-reload cycle, under 10 s on an 8x8 mesh.
 2. Plastic residual stays below 1e-12 * mu_f over a 10^4-step drive of
    the material-point driver, and the return map's algorithmic tangent
    matches finite differences to 1e-5.
 3. The incremental driver at 0.01 deg steps matches the closed-form
    virgin solution within 1e-4 in stress and converges at first order.
 4. The virgin yield angle equals tau_y / mu_f exactly.
 5. Hardening slope stays positive over q in [0, 1.5] for both standard
    parameter sets.
 6. The cosine's Hessian by the fiber metric matches finite differences
    of its gradient; the angle split reproduces the direct cosine
    measures and is additive.
 7. The frame deformation preserves fiber lengths and maps the angle
    cosine to cos(theta) across the whole domain, at every Gauss point of
    the FE element kernel.
 8. Parameter sweeps reproduce the qualitative trends: yield-stress
    offsets, stiffness-proportional elastic slopes, and locking terms
    inert below 10 deg.
 9. A staged fit recovers the locking and primary hardening parameters
    from noisy synthetic data, deterministically, under 60 s.
10. The README states the scope limits of the artifact.
"""

import itertools
import time
from pathlib import Path

import numpy as np

import acceptance_log
import oracles
from wovenshear.analytic import LoadProgram, run_program
from wovenshear.calibrate import staged_fit, synthetic_curve
from wovenshear.fe import (Mesh, _FrameModel, solve_picture_frame,
                          verify_against_analytic)
from wovenshear.kinematics import (FRAME_FIBER_1, FRAME_FIBER_2,
                                   _angle_gradient, _angle_hessian,
                                   angle_split, picture_frame_deformation)
from wovenshear.material import (ElastoplasticParams, drive_angle_path, f_iso,
                                 f_iso_prime, params_to_dict, replace_params,
                                 return_map_batch)


def test_criterion_01_fe_matches_analytic(demo_params):
    """FE and closed-form stresses agree to 1e-9 through a full cycle."""
    with acceptance_log.criterion(1) as info:
        program = LoadProgram.from_gamma_degrees([50.0, 20.0, 50.0])
        t0 = time.perf_counter()
        sol = solve_picture_frame(Mesh.square(8), program, ep=demo_params)
        report = verify_against_analytic(sol,
                                         run_program(program, demo_params))
        elapsed = time.perf_counter() - t0
        assert report["passed"]
        assert report["max_tau_rel_scale"] <= 1e-9
        assert elapsed < 10.0
        info["detail"] = (
            f"8x8 mesh, 0-50-20-50 deg cycle: max rel stress diff "
            f"{report['max_tau_rel_scale']:.2e} (limit 1e-9), "
            f"{elapsed:.1f} s (limit 10 s)")


def test_criterion_02_return_map_residual_and_tangent(glass_params):
    """|g| <= 1e-12 mu_f on every plastic step; tangent matches FD."""
    with acceptance_log.criterion(2) as info:
        p = glass_params
        path = np.concatenate([np.linspace(0.0, 0.60, 5001)[1:],
                               np.linspace(0.60, 0.20, 2501)[1:],
                               np.linspace(0.20, 0.55, 2501)[1:]])
        t0 = time.perf_counter()
        res = drive_angle_path(path, p)
        drive_ms = 1e3 * (time.perf_counter() - t0)
        # the committed history before each step; a step is plastic where
        # the hardening variable grows
        phi_p0, q0 = (np.r_[0.0, v[:-1]] for v in (res.phi_p, res.q))
        plastic = res.q > q0
        n_plastic = int(plastic.sum())
        worst_g = float(np.abs(np.abs(res.tau)
                               - f_iso(res.q, p))[plastic].max())
        assert path.size == 10000
        assert n_plastic >= 5000
        assert worst_g <= 1e-12 * p.mu_f
        # every 250th plastic step, by frozen-history finite differences:
        # one return map call at phi - h, phi and phi + h from each probe's
        # committed history.  The slip solve is polished to round-off, so
        # its slack stays below the differencing noise floor
        h = 1e-6
        k = np.flatnonzero(plastic)[249::250]
        out = return_map_batch((path[k, None] + [-h, 0.0, h]).ravel(),
                               np.repeat(phi_p0[k], 3), np.repeat(q0[k], 3), p)
        tau, dtau = out.tau.reshape(-1, 3), out.dtau_dphi[1::3]
        used = out.plastic.reshape(-1, 3)[:, [0, 2]].all(axis=1)
        n_used = int(used.sum())
        assert n_used >= 15
        fd = (tau[used, 2] - tau[used, 0]) / (2.0 * h)
        worst_t = float(np.max(np.abs(dtau[used] - fd) / np.abs(fd)))
        assert worst_t <= 1e-5
        info["detail"] = (
            f"{n_plastic} plastic steps of 10000: max |g| = "
            f"{worst_g:.2e} (limit {1e-12 * p.mu_f:.0e}); tangent vs FD "
            f"max rel {worst_t:.2e} on {n_used} points (limit 1e-5); "
            f"drive {drive_ms:.1f} ms wall")


def test_criterion_03_driver_first_order_convergence(demo_params):
    """Driver matches the closed form; halving steps halves error."""
    with acceptance_log.criterion(3) as info:
        p = demo_params
        span = 56.0

        def driver(step_deg):
            g = np.arange(1, int(round(span / step_deg)) + 1) * step_deg
            return g, drive_angle_path(np.cos(np.radians(90.0 - g)), p).tau

        # monotone loading from the virgin state, by the oracles' own
        # bisection of the slip equation
        def analytic(gamma_deg):
            return oracles.virgin_stress(
                np.cos(np.radians(90.0 - gamma_deg)), p)

        g_fine, tau_fine = driver(0.01)
        scale = np.abs(analytic(g_fine)).max()
        grid_err = np.abs(tau_fine - analytic(g_fine)).max() / scale
        assert grid_err <= 1e-4

        # committed states reconstruct the path as a zero-order hold, so
        # first-order accuracy shows at the step midpoints
        errors = []
        for step in (0.04, 0.02, 0.01):
            g, tau = driver(step)
            held = np.concatenate([[0.0], tau[:-1]])
            errors.append(np.abs(analytic(g - 0.5 * step) - held).max()
                          / scale)
        r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
        assert errors[0] > errors[1] > errors[2]
        assert 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
        info["detail"] = (
            f"grid match {grid_err:.2e} (limit 1e-4); midpoint errors "
            f"{errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, halving "
            f"ratios {r1:.3f}, {r2:.3f} (first order = 2)")


def virgin_onset(p):
    """The last angle change that one return-map step from the virgin
    state takes elastically, by bisection on its plastic flag."""
    return oracles.flag_onset(
        lambda phi: return_map_batch([phi], [0.0], [0.0], p).plastic[0],
        0.0, 1.0)


def test_criterion_04_virgin_yield_angle(glass_params):
    """Yield onset of the untouched material sits at tau_y / mu_f."""
    with acceptance_log.criterion(4) as info:
        ya = virgin_onset(glass_params)
        assert abs(ya - 2.0e-5) <= 1e-15
        info["detail"] = (f"yield angle {ya:.17g} vs 2.0e-5, diff "
                          f"{abs(ya - 2.0e-5):.1e} (limit 1e-15)")


def test_criterion_05_hardening_slope_positive(glass_params, soft_params):
    """f_iso' > 0 on q in [0, 1.5] at 1e-3 spacing for both sets."""
    with acceptance_log.criterion(5) as info:
        q = np.arange(0.0, 1.5 + 1e-12, 1e-3)
        assert q.size == 1501
        m_glass = f_iso_prime(q, glass_params).min()
        m_soft = f_iso_prime(q, soft_params).min()
        assert m_glass > 0.0 and m_soft > 0.0
        info["detail"] = (f"min slope over 1501 samples: stiff set "
                          f"{m_glass:.3e}, soft set {m_soft:.3e} (> 0)")


def test_criterion_06_structural_tensor_and_split():
    """Cosine Hessian vs FD; split vs direct measures; additivity."""
    with acceptance_log.criterion(6) as info:
        rng = np.random.default_rng(20240806)
        L = np.stack([FRAME_FIBER_1, FRAME_FIBER_2])
        h = 1e-7
        dC = h * np.eye(3)

        worst_fd = worst_direct = worst_add = 0.0
        for _ in range(100):
            a = oracles.random_spd(rng)
            C = oracles.fiber_metric(a, L)
            _, theta12, gamma = _angle_gradient(C)
            Gamma = _angle_hessian(C, gamma)
            # column j: central difference of gamma along C_j
            fd = (_angle_gradient(C[:, None] + dC)[2]
                  - _angle_gradient(C[:, None] - dC)[2]) / (2.0 * h)
            scale = np.abs(Gamma).max()
            worst_fd = max(worst_fd, np.abs(fd - Gamma).max() / scale)
            phi_p = rng.uniform(-0.4, 0.4)
            # the frame fibers are orthogonal in the identity reference
            phi, phi_e, split_p, _, _ = angle_split(np.eye(2), a, L, 0.0,
                                                    phi_p)
            worst_direct = max(worst_direct, abs(phi - theta12),
                               abs(phi_e - (theta12 - phi_p)))
            worst_add = max(worst_add, abs(phi - (phi_e + split_p)))
        assert worst_fd <= 1e-6
        assert worst_direct <= 1e-12
        assert worst_add <= 1e-14
        info["detail"] = (
            f"100 random metrics: Hessian vs FD {worst_fd:.1e} (1e-6), "
            f"split vs direct {worst_direct:.1e} (1e-12), additivity "
            f"{worst_add:.1e} (1e-14)")


def test_criterion_07_frame_kinematics(demo_params):
    """Unit fiber stretch and theta12 = cos(theta) across the domain, at
    every Gauss point of the FE element kernel at the affine frame state."""
    with acceptance_log.criterion(7) as info:
        mesh = Mesh.square(4)
        model = _FrameModel(mesh, demo_params)
        virgin = np.zeros((model.n_elements, model.n_gauss))
        thetas = np.linspace(np.deg2rad(5.0), np.pi / 2.0, 101)[1:]
        worst_lam = worst_cos = 0.0
        for th in thetas:
            x = mesh.nodes @ picture_frame_deformation(th).T
            ev = model.evaluate(x, virgin, virgin)
            worst_lam = max(worst_lam, np.abs(ev.lam - 1.0).max())
            worst_cos = max(worst_cos, np.abs(ev.theta12 - np.cos(th)).max())
        assert worst_lam <= 1e-12
        assert worst_cos <= 1e-12
        info["detail"] = (f"100 frame angles, {virgin.size} Gauss points: "
                          f"max |stretch - 1| {worst_lam:.1e}, max cosine "
                          f"error {worst_cos:.1e} (limits 1e-12)")


def test_criterion_08_parameter_sweeps(soft_params, locking_params):
    """Sweep trends: tau_y offsets, mu_f slopes, inert locking terms."""
    with acceptance_log.criterion(8) as info:
        def tau_of(p, end, spd=2.0):
            lp = LoadProgram.from_gamma_degrees([end])
            c = run_program(lp, p, steps_per_degree=spd)
            return c.gamma_deg, c.tau

        # yield-stress sweep: identical elastic segment, onset at its own
        # tau_y, and plateau offsets equal to the tau_y offsets once the
        # hardening terms are switched off
        ty = (0.25, 0.5, 0.75)
        elastic = []
        for t in ty:
            p = replace_params(soft_params, {"tau_y": t})
            assert virgin_onset(p) * p.mu_f == t
            g, tau = tau_of(p, 20.0)
            elastic.append(tau[(g > 0.0) & (g <= 14.0)])
        assert np.array_equal(elastic[0], elastic[1])
        assert np.array_equal(elastic[1], elastic[2])
        plateau = []
        for t in ty:
            p = ElastoplasticParams(mu_f=soft_params.mu_f, tau_y=t, A_h=1e-8)
            # the stiffest proxy only yields near 49 deg, so the common
            # plateau window sits well beyond that
            g, tau = tau_of(p, 60.0)
            plateau.append(tau[g >= 55.0])
        off_10 = np.abs((plateau[1] - plateau[0]) - 0.25).max()
        off_21 = np.abs((plateau[2] - plateau[1]) - 0.25).max()
        assert max(off_10, off_21) <= 1e-8

        # stiffness sweep: stress stays pointwise proportional to mu_f
        # over a shared elastic window
        base = replace_params(soft_params, {"tau_y": 0.5})
        g, tau_ref = tau_of(base, 12.0)
        worst_mu = 0.0
        for m in (0.5, 2.0):
            _, tau = tau_of(replace_params(base, {"mu_f": m}), 12.0)
            worst_mu = max(worst_mu,
                           np.abs(tau[1:] / tau_ref[1:] - m).max() / m)
        assert worst_mu <= 1e-14

        # locking sweep: amplitude and exponent leave the curve unchanged
        # below 10 deg and dominate beyond 45 deg
        sweeps = {"C": (0.35, 0.7, 1.4), "c": (15.0, 18.0, 21.0)}
        worst_low, best_high = 0.0, np.inf
        for key, values in sweeps.items():
            curves = [tau_of(replace_params(locking_params, {key: v}), 50.0)
                      for v in values]
            g = curves[0][0]
            low = (g > 0.0) & (g < 10.0)
            high = g > 45.0
            for (_, ta), (_, tb) in itertools.combinations(curves, 2):
                worst_low = max(worst_low,
                                (np.abs(ta - tb)[low] / ta[low]).max())
                best_high = min(best_high,
                                (np.abs(ta - tb)[high] / ta[high]).max())
        assert worst_low <= 1e-10
        assert best_high > 1e-3
        info["detail"] = (
            f"plateau offsets match yield offsets to {max(off_10, off_21):.1e}"
            f" (1e-8); slope ratio error {worst_mu:.1e} (1e-14); locking "
            f"sweep rel change {worst_low:.1e} below 10 deg (1e-10), "
            f"{best_high:.1e} beyond 45 deg (> 1e-3)")


def test_criterion_09_calibration_round_trip(glass_params):
    """Staged fit recovers A, C to 5% and a, c to 10% from 1% noise."""
    with acceptance_log.criterion(9) as info:
        grid = np.concatenate([np.arange(0.1, 1.01, 0.1),
                               np.arange(1.25, 5.01, 0.25),
                               np.arange(5.5, 60.01, 0.5)])
        curve = synthetic_curve(glass_params, grid, rel_noise=0.01, seed=3)
        start = replace_params(glass_params, {"A": 8.8 * 1.02,
                                              "a": 0.0024 * 0.97,
                                              "C": 1.05,
                                              "c": 11.0 * 0.95})
        t0 = time.perf_counter()
        params, report = staged_fit(start, curve, stages=(1, 2, 3),
                                    max_evals=600)
        elapsed = time.perf_counter() - t0
        errs = {name: abs(getattr(params, field) - ref) / ref
                for name, field, ref in (("A", "A_h", 8.8),
                                         ("a", "a_h", 0.0024),
                                         ("C", "C_h", 1.0),
                                         ("c", "c_h", 11.0))}
        assert errs["A"] <= 0.05 and errs["C"] <= 0.05
        assert errs["a"] <= 0.10 and errs["c"] <= 0.10
        assert elapsed < 60.0
        params2, _ = staged_fit(start, curve, stages=(1, 2, 3),
                                max_evals=600)
        assert params_to_dict(params2) == params_to_dict(params)
        info["detail"] = (
            f"recovered A {errs['A']:.1%}, C {errs['C']:.1%} (limit 5%), "
            f"a {errs['a']:.1%}, c {errs['c']:.1%} (limit 10%); "
            f"deterministic rerun identical; {elapsed:.1f} s (limit 60 s)")


def test_criterion_10_scope_documented():
    """README states what the artifact does not attempt to reproduce."""
    with acceptance_log.criterion(10) as info:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert readme.is_file()
        text = readme.read_text(encoding="utf-8").lower()
        assert "bias extension" in text
        assert "twisting" in text
        assert "out of scope" in text
        info["detail"] = ("README documents the scope limits: bias "
                          "extension and out-of-plane twisting stay out "
                          "of scope")
