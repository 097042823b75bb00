"""Membrane finite element tests.

Verifies: mesh construction and validation, the element residual/tangent
against finite differences, the affine patch test, machine-precision
agreement of the full solver with the closed-form response, mesh
independence (the exact solution is homogeneous), the banded global system
against a dense reference, verify margins across mesh sizes, step bisection
and failure reporting, determinism, and the field CSV dump.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from wovenshear import (
    ConvergenceError,
    ElastoplasticParams,
    HyperelasticParams,
    IntervalState,
    LoadProgram,
    Mesh,
    element_residual_and_tangent,
    gamma_to_theta,
    interval_solve,
    picture_frame_deformation,
    program_theta_grid,
    run_program,
    solve_picture_frame,
    verify_against_analytic,
)
from wovenshear.fe import (FIELD_COLUMNS, ElementInversionError, SolverError,
                           _FrameModel, _shape_gradients)
from wovenshear import fe, material
from wovenshear.kinematics import FRAME_FIBER_1, FRAME_FIBER_2
from wovenshear.material import PlasticState, return_map_batch

import oracles

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestMesh:
    def test_square_shapes(self):
        mesh = Mesh.square(8)
        assert mesh.nodes.shape == (81, 2)
        assert mesh.elements.shape == (64, 4)
        assert mesh.boundary_nodes.size == 32

    def test_square_corners(self):
        mesh = Mesh.square(4, L0=2.0)
        d = np.linalg.norm(mesh.nodes, axis=1)
        assert d.min() == pytest.approx(0.0, abs=1e-15)
        pull = mesh.nodes[np.argmax(mesh.nodes[:, 1])]
        assert pull == pytest.approx([0.0, np.sqrt(2.0) * 2.0], abs=1e-14)

    def test_single_element_all_boundary(self):
        mesh = Mesh.square(1)
        assert np.array_equal(np.sort(mesh.boundary_nodes), np.arange(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh.square(0)
        with pytest.raises(ValueError):
            Mesh(nodes=UNIT_SQUARE, elements=np.array([[0, 1, 2, 4]]),
                 boundary_nodes=np.array([0]))
        with pytest.raises(ValueError):
            Mesh(nodes=UNIT_SQUARE, elements=np.array([[0, 1, 2, 3]]),
                 boundary_nodes=np.array([9]))
        with pytest.raises(ValueError):
            Mesh(nodes=UNIT_SQUARE, elements=np.array([[0, 1, 2, 3]]),
                 boundary_nodes=np.array([0]), L0=0.0)

    def test_inverted_element_rejected(self):
        # clockwise connectivity gives a negative Jacobian
        with pytest.raises(ElementInversionError):
            Mesh(nodes=UNIT_SQUARE, elements=np.array([[0, 3, 2, 1]]),
                 boundary_nodes=np.array([0]))


class TestElementResidualTangent:
    def test_reference_state_equilibrated(self, glass_params):
        r, K, trial = element_residual_and_tangent(
            UNIT_SQUARE, UNIT_SQUARE, None, glass_params)
        assert np.abs(r).max() <= 1e-14
        assert all(not s.q for s in trial)

    def test_tangent_matches_finite_differences(self, glass_params):
        # plastic trial configuration: frame map at 15 degrees of shear
        F = picture_frame_deformation(gamma_to_theta(15.0))
        X = (UNIT_SQUARE - 0.5) @ np.array([[1.0, 1.0], [-1.0, 1.0]]) / 2.0
        x = X @ F.T
        hp = HyperelasticParams(eps_L=glass_params.mu_f)
        r0, K, trial = element_residual_and_tangent(
            X, x, None, glass_params, hp)
        assert any(s.q > 0.0 for s in trial)
        h = 1e-7
        K_fd = np.zeros((8, 8))
        for j in range(8):
            xp = x.reshape(-1).copy()
            xm = x.reshape(-1).copy()
            xp[j] += h
            xm[j] -= h
            rp, _, _ = element_residual_and_tangent(
                X, xp.reshape(4, 2), None, glass_params, hp)
            rm, _, _ = element_residual_and_tangent(
                X, xm.reshape(4, 2), None, glass_params, hp)
            K_fd[:, j] = (rp - rm) / (2.0 * h)
        scale = np.abs(K).max()
        assert np.abs(K_fd - K).max() <= 1e-5 * scale

    def test_tangent_symmetric(self, glass_params):
        F = picture_frame_deformation(gamma_to_theta(10.0))
        _, K, _ = element_residual_and_tangent(
            UNIT_SQUARE, UNIT_SQUARE @ F.T, None, glass_params)
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()

    def test_committed_states_pass_through(self, soft_params):
        # soft set: |trial stress| stays below f_iso, the step is elastic
        # and the trial history equals the committed one
        states = [PlasticState(phi_p=0.01, q=0.01) for _ in range(4)]
        _, _, trial = element_residual_and_tangent(
            UNIT_SQUARE, UNIT_SQUARE, states, soft_params)
        for s in trial:
            assert s.q == 0.01 and s.phi_p == 0.01

    def test_wrong_state_count_rejected(self, glass_params):
        with pytest.raises(ValueError, match="Gauss states"):
            element_residual_and_tangent(
                UNIT_SQUARE, UNIT_SQUARE, [PlasticState()], glass_params)

    def test_inversion_checked_at_quadrature_points(self, glass_params):
        # non-convex quad: positive Jacobian at the mesh's 2x2 check
        # points, negative at one of the 3x3 points
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.37, 0.37], [0.0, 1.0]])
        element_residual_and_tangent(X, X, None, glass_params)
        with pytest.raises(ElementInversionError):
            element_residual_and_tangent(X, X, None, glass_params,
                                         quadrature_order=3)

    def test_higher_quadrature_order(self, glass_params):
        r, K, trial = element_residual_and_tangent(
            UNIT_SQUARE, UNIT_SQUARE, None, glass_params, quadrature_order=3)
        assert len(trial) == 9
        assert np.abs(r).max() <= 1e-14


def distorted_square(n, amplitude, seed):
    """``Mesh.square(n)`` with every interior node moved by ``amplitude``
    times the element size, in a seeded random direction."""
    mesh = Mesh.square(n)
    rng = np.random.default_rng(seed)
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]), mesh.boundary_nodes)
    angle = rng.uniform(0.0, 2.0 * np.pi, inner.size)
    nodes = mesh.nodes.copy()
    nodes[inner] += amplitude * mesh.L0 / n * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    return Mesh(nodes=nodes, elements=mesh.elements,
                boundary_nodes=mesh.boundary_nodes, L0=mesh.L0)


class TestVoigtKernel:
    """The fiber-metric Voigt kernel against the chart-tensor element
    arithmetic it replaced (``oracles.chart_membrane_elements``)."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("eps_L", [0.0, 1.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.3])
    def test_matches_chart_oracle(self, demo_params, order, eps_L,
                                  amplitude):
        mesh = distorted_square(4, amplitude, seed=11)
        model = _FrameModel(mesh, demo_params,
                            HyperelasticParams(eps_L=eps_L), order)
        rng = np.random.default_rng(order)
        # the frame map, disturbed so that the stretches leave one
        F = picture_frame_deformation(gamma_to_theta(20.0))
        x = mesh.nodes @ F.T + 0.0125 * rng.standard_normal(mesh.nodes.shape)
        # tau_y = 0: virgin points flow, points at q = 1 stay elastic
        shape = (model.n_elements, model.n_gauss)
        q = np.where(rng.random(shape) < 0.5, 0.0, 1.0)
        phi_p = np.zeros(shape)
        ev = model.evaluate(x, phi_p, q)
        plastic = ev.q > q
        assert plastic.any() and not plastic.all()

        def stress_of(phi):
            out = return_map_batch(phi.ravel(), phi_p.ravel(), q.ravel(),
                                   demo_params)
            return out.tau.reshape(shape), out.dtau_dphi.reshape(shape)

        dN, w = _shape_gradients(order)
        r_ref, K_ref, t12_ref = oracles.chart_membrane_elements(
            mesh.nodes[mesh.elements], x[mesh.elements], dN, w,
            np.stack([FRAME_FIBER_1, FRAME_FIBER_2], axis=1), eps_L,
            stress_of)
        assert np.abs(ev.theta12 - t12_ref).max() <= 1e-14
        assert np.abs(ev.r_e - r_ref).max() <= 1e-13 * np.abs(r_ref).max()
        assert np.abs(ev.K_e - K_ref).max() <= 1e-13 * np.abs(K_ref).max()


def diamond_element(theta):
    """Fiber-ruled single element mapped by the frame deformation."""
    mesh = Mesh.square(1)
    F = picture_frame_deformation(theta)
    return mesh.nodes[mesh.elements[0]], mesh.nodes[mesh.elements[0]] @ F.T


class TestExactMap:
    def test_gauss_point_stress_matches_interval_solve(self, glass_params):
        # one backward-Euler step at the affine map equals the closed form
        theta = gamma_to_theta(25.0)
        X, x = diamond_element(theta)
        r, K, trial = element_residual_and_tangent(X, x, None, glass_params)
        sol = interval_solve(float(np.cos(theta)), IntervalState(),
                             glass_params)
        for s in trial:
            assert s.q == pytest.approx(sol.q, rel=1e-12)

    def test_patch_interior_nodes_follow_affine_map(self, glass_params):
        # Dirichlet boundary at the frame map: the converged interior is
        # affine and every Gauss point sees theta12 = cos(theta)
        lp = LoadProgram.from_gamma_degrees([18.0])
        mesh = Mesh.square(3)
        sol = solve_picture_frame(mesh, lp, glass_params)
        theta = gamma_to_theta(18.0)
        x_affine = mesh.nodes @ picture_frame_deformation(theta).T
        assert np.abs(sol.x - x_affine).max() <= 1e-12
        assert np.abs(sol.gp_theta12[-1] - np.cos(theta)).max() <= 1e-12


class TestBandedSystem:
    def test_natural_order_bandwidth(self, demo_params):
        # interior nodes couple across one mesh row: n + 1 nodes, 2 DOFs each
        for n in (4, 16):
            assert _FrameModel(Mesh.square(n), demo_params).bw == 2 * n + 1

    def test_band_matches_dense_free_block(self, glass_params):
        # plastic, indefinite state: history committed at 10 degrees, the
        # boundary moved to 30 degrees and the interior left behind
        mesh = Mesh.square(4)
        sol = solve_picture_frame(mesh, LoadProgram.from_gamma_degrees([10.0]),
                                  glass_params)
        model = _FrameModel(mesh, glass_params,
                            HyperelasticParams(eps_L=glass_params.mu_f))
        x = sol.x.copy()
        b = mesh.boundary_nodes
        x[b] = mesh.nodes[b] @ picture_frame_deformation(
            gamma_to_theta(30.0)).T
        r, band, ev = model.assemble(x, sol.phi_p, sol.q)
        assert np.any(ev.q > sol.q)

        # dense reference assembly of the same element arrays
        dofs, free = model.dofs, model.free
        r_ref = np.zeros(model.ndof)
        np.add.at(r_ref, dofs.ravel(), ev.r_e.ravel())
        K_ref = np.zeros((model.ndof, model.ndof))
        np.add.at(K_ref, (dofs[:, :, None], dofs[:, None, :]), ev.K_e)
        K_ff = K_ref[np.ix_(free, free)]
        assert np.linalg.eigvalsh(0.5 * (K_ff + K_ff.T)).min() < 0.0
        assert np.array_equal(r, r_ref)

        bw = model.bw
        k = np.arange(K_ff.shape[0])
        i, j = np.nonzero(np.abs(k[:, None] - k[None, :]) <= bw)
        K_band = np.zeros_like(K_ff)
        K_band[i, j] = band[bw + i - j, j]
        assert np.array_equal(K_band, K_ff)
        assert np.count_nonzero(band) == np.count_nonzero(K_ff)

        dx = solve_banded((bw, bw), band, -r[free])
        dx_ref = np.linalg.solve(K_ff, -r[free])
        assert np.abs(dx - dx_ref).max() <= 1e-12 * np.abs(dx_ref).max()


class TestVerifyAcrossMeshes:
    # demo set on the 0-50-20-50 degree cycle at the verify tolerances;
    # theta12 must keep a 10x margin below its 1e-12 limit, and with both
    # slip solves polished to round-off the stress and force deviations
    # are FE round-off too

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_demo_cycle(self, demo_params, cycle_program, n):
        sol = solve_picture_frame(Mesh.square(n), cycle_program, demo_params)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        assert rep["max_theta12_dev"] <= 1e-13
        assert rep["max_tau_rel_scale"] <= 1e-13
        assert rep["max_force_rel"] <= 1e-13
        # the committed history, which verify does not compare
        curve = run_program(cycle_program, demo_params)
        for fe_rows, an in ((sol.gp_q, curve.q), (sol.gp_phi_p, curve.phi_p)):
            dev = np.abs(fe_rows - an[:, None]).max()
            assert dev <= 1e-13 * np.abs(an).max()
        if n == 24:
            assert sol.committed_thetas.size == sol.theta_steps.size - 1

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("amplitude", [0.15, 0.3])
    def test_distorted_mesh(self, demo_params, cycle_program, n, amplitude):
        # the exact solution is affine on any mesh, so moving the interior
        # nodes off the grid keeps every deviation at round-off (the patch
        # test)
        sol = solve_picture_frame(distorted_square(n, amplitude, seed=n),
                                  cycle_program, demo_params)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        for key in ("max_theta12_dev", "max_tau_rel_scale", "max_force_rel"):
            assert rep[key] <= 1e-13, (key, rep)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_perturbed_demo_set(self, demo_params, cycle_program, seed):
        # A, B, C, c of the demo set scaled by +-3 % draws, at 16x16
        rng = np.random.default_rng(seed)
        ep = dataclasses.replace(demo_params, **{
            k: getattr(demo_params, k) * rng.uniform(0.97, 1.03)
            for k in ("A_h", "B_h", "C_h", "c_h")})
        sol = solve_picture_frame(Mesh.square(16), cycle_program, ep)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        assert rep["max_theta12_dev"] <= 1e-13


class TestSolvePictureFrame:
    def test_machine_precision_vs_analytic(self, glass_params, cycle_program):
        sol = solve_picture_frame(Mesh.square(4), cycle_program,
                                  glass_params)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        assert rep["max_tau_rel_scale"] <= 1e-9
        assert rep["max_theta12_dev"] <= 1e-12
        assert rep["max_force_rel"] <= 1e-8

    def test_mesh_independence(self, demo_params):
        # the exact solution is homogeneous, so element count cannot matter
        lp = LoadProgram.from_gamma_degrees([30.0])
        c1 = solve_picture_frame(Mesh.square(1), lp, demo_params).curve
        c4 = solve_picture_frame(Mesh.square(4), lp, demo_params).curve
        scale = np.abs(c4.tau).max()
        assert np.abs(c1.tau - c4.tau).max() <= 1e-10 * scale
        fscale = np.abs(c4.frame_force_normalized).max()
        assert np.abs(c1.frame_force_normalized
                      - c4.frame_force_normalized).max() <= 1e-10 * fscale

    def test_deterministic(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([12.0])
        s1 = solve_picture_frame(Mesh.square(2), lp, glass_params)
        s2 = solve_picture_frame(Mesh.square(2), lp, glass_params)
        assert np.array_equal(s1.curve.tau, s2.curve.tau)
        assert np.array_equal(s1.gp_q, s2.gp_q)
        assert np.array_equal(s1.x, s2.x)

    def test_stretch_stiffness_is_stress_neutral(self, glass_params):
        # lambda == 1 at every Gauss point, so eps_L never enters the
        # converged stresses
        lp = LoadProgram.from_gamma_degrees([20.0])
        mesh = Mesh.square(2)
        s_def = solve_picture_frame(mesh, lp, glass_params)
        s_big = solve_picture_frame(mesh, lp, glass_params,
                                    hp=HyperelasticParams(
                                        eps_L=7.0 * glass_params.mu_f))
        scale = np.abs(s_def.gp_tau).max()
        assert np.abs(s_def.gp_tau - s_big.gp_tau).max() <= 1e-10 * scale
        # a zero stretch stiffness falls back to the default eps_L = mu_f
        s_zero = solve_picture_frame(mesh, lp, glass_params,
                                     hp=HyperelasticParams(eps_L=0.0))
        assert np.array_equal(s_zero.x, s_def.x)
        for k in FIELD_COLUMNS[2:]:
            assert np.array_equal(getattr(s_zero, f"gp_{k}"),
                                  getattr(s_def, f"gp_{k}"))
        assert np.array_equal(s_zero.curve.frame_force_normalized,
                              s_def.curve.frame_force_normalized)

    def test_step_bisection_recovers(self, glass_params, monkeypatch):
        # two Newton iterations are not enough for a 10 degree step, even
        # from the secant prediction, so the solver must bisect; the
        # recorded targets and accuracy are kept
        monkeypatch.setattr(fe, "_NEWTON_MAX_ITER", 2)
        monkeypatch.setattr(fe, "_MAX_HALVINGS", 8)
        lp = LoadProgram.from_gamma_degrees([20.0])
        sol = solve_picture_frame(Mesh.square(2), lp, glass_params,
                                  steps_per_degree=0.1)
        assert sol.committed_thetas.size > sol.theta_steps.size - 1
        assert verify_against_analytic(sol)["passed"]
        targets = np.concatenate(program_theta_grid(sol.program, 0.1))
        assert np.allclose(sol.theta_steps[1:], targets, atol=1e-15)

    def test_solver_error_reports_step(self, glass_params, monkeypatch):
        monkeypatch.setattr(fe, "_NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(fe, "_MAX_HALVINGS", 0)
        with pytest.raises(SolverError) as err:
            solve_picture_frame(Mesh.square(2),
                                LoadProgram.from_gamma_degrees([20.0]),
                                glass_params, steps_per_degree=0.25)
        assert err.value.step_index == 1
        assert err.value.theta is not None
        assert err.value.residual is not None

    def test_slip_failure_is_bisected_then_reported(self, glass_params,
                                                    monkeypatch):
        # one slip sweep converges nowhere, so every bisection of the first
        # step fails and the error locates the last, smallest one
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        with pytest.raises(SolverError) as err:
            solve_picture_frame(Mesh.square(2),
                                LoadProgram.from_gamma_degrees([10.0]),
                                glass_params)
        first = gamma_to_theta(0.5)     # the default 2 steps per degree
        smallest = np.pi / 2.0 + (first - np.pi / 2.0) / 2 ** fe._MAX_HALVINGS
        assert err.value.step_index == 1
        assert err.value.theta == pytest.approx(smallest, rel=1e-14)
        cause = err.value.__cause__
        assert isinstance(cause, ConvergenceError)
        assert err.value.residual == cause.residual > 0.0

    def test_quadratic_residual_decay(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([10.0])
        sol = solve_picture_frame(Mesh.square(3), lp, glass_params)
        tol_abs = fe._NEWTON_TOL * glass_params.mu_f
        deep = [h for h in sol.residual_history if len(h) >= 4]
        assert deep, "expected at least one step with several iterations"
        for hist in deep:
            # the last entry is the polish iterate, one correction past the
            # first entry to meet the tolerance; it sits at round-off and
            # need not fall below the entry before it
            newton, polish = hist[:-1], hist[-1]
            assert newton[-1] <= tol_abs
            assert all(b < a for a, b in zip(newton, newton[1:]))
            assert polish <= tol_abs
            assert hist[-1] / hist[0] < 1e-10

    def test_requires_material(self, cycle_program):
        with pytest.raises(TypeError):
            solve_picture_frame(Mesh.square(1), cycle_program)


class TestFESolutionOutput:
    def test_field_csv(self, glass_params, cycle_program, tmp_path):
        # the 4x4 cycle writes 14,144 rows, across the writer's row blocks
        for n, lp in ((2, LoadProgram.from_gamma_degrees([5.0])),
                      (4, cycle_program)):
            sol = solve_picture_frame(Mesh.square(n), lp, glass_params)
            path = tmp_path / f"fields_{n}.csv"
            sol.to_field_csv(path)
            with open(path) as fh:
                header = fh.readline().strip()
            assert header == ",".join(FIELD_COLUMNS)
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            steps, m = sol.gp_tau.shape
            assert data.shape == (steps * m, len(FIELD_COLUMNS))
            assert np.array_equal(data[:, 3], sol.gp_tau.ravel())
            oracle = tmp_path / f"oracle_{n}.csv"
            oracles.savetxt_csv(
                oracle, header,
                [np.repeat(np.arange(steps), m), np.tile(np.arange(m), steps)]
                + [getattr(sol, f"gp_{k}").ravel() for k in FIELD_COLUMNS[2:]])
            assert path.read_bytes() == oracle.read_bytes()

    def test_final_states_roundtrip(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([15.0])
        sol = solve_picture_frame(Mesh.square(2), lp, glass_params)
        states = sol.final_states
        assert sol.phi_p.shape == sol.q.shape == (4, 4)     # (E, G)
        assert len(states) == sol.phi_p.size
        assert states[0].q == sol.q.ravel()[0]

    def test_curve_means_match_gauss_fields(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([8.0])
        sol = solve_picture_frame(Mesh.square(2), lp, glass_params)
        assert np.allclose(sol.curve.tau, sol.gp_tau.mean(axis=1), rtol=0.0,
                           atol=0.0)


class TestVerifyAgainstAnalytic:
    def test_report_fields(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([6.0])
        sol = solve_picture_frame(Mesh.square(1), lp, glass_params)
        rep = verify_against_analytic(sol)
        for key in ("max_tau_rel_scale", "max_tau_rel_pointwise",
                    "max_theta12_dev", "max_force_rel", "passed"):
            assert key in rep
        assert rep["passed"]

    def test_frame_size_and_normalization_from_the_run(self, glass_params):
        # the force column is normalized by L0 * mu0 of the run, which
        # verify takes from the solution rather than from its caller
        lp = LoadProgram.from_gamma_degrees([20.0])
        sol = solve_picture_frame(Mesh.square(2, L0=2.5), lp, glass_params,
                                  mu0=glass_params.mu_f)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        assert rep["max_force_rel"] <= 1e-13

    def test_program_mismatch_detected(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([6.0])
        sol = solve_picture_frame(Mesh.square(1), lp, glass_params)
        sol.program = LoadProgram.from_gamma_degrees([6.0, 3.0])
        with pytest.raises(ValueError, match="load program"):
            verify_against_analytic(sol)

    def test_fails_on_tampered_stress(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([6.0])
        sol = solve_picture_frame(Mesh.square(1), lp, glass_params)
        sol.gp_tau = sol.gp_tau * 1.001
        rep = verify_against_analytic(sol)
        assert not rep["passed"]
