"""Membrane finite element tests.

Verifies: mesh construction and validation, the element residual as the
central-difference gradient of an independent stored energy
(``oracles.membrane_energy``) and the element tangent as that of the
residual, the assembled tangent as the central-difference Jacobian of
the global residual, warm-started slip solves against cold ones, the
affine patch test, machine-precision agreement of the full solver with the
closed-form response, mesh independence (the exact solution is
homogeneous), the banded global system against a dense reference, one LU
factorization per full Newton correction and none for the polish, every
frame step accepted at its prediction with no drift from the affine state,
a manufactured non-affine frame state that the Newton corrections recover
at every step, a mesh with no free DOF, verify margins across mesh sizes
and on a deep reversal, step bisection and failure reporting,
determinism, the field CSV dump, and the peak memory of a frame solve
and of its verify.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

from wovenshear import (
    ConvergenceError,
    ElastoplasticParams,
    HyperelasticParams,
    IntervalState,
    LoadProgram,
    Mesh,
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
from wovenshear.material import return_map_batch

import oracles

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestMesh:
    def test_square_shapes(self):
        mesh = Mesh.square(8)
        assert mesh.nodes.shape == (81, 2)
        assert mesh.elements.shape == (64, 4)
        assert mesh.boundary_nodes.size == 32

    def test_square_corners(self):
        mesh = Mesh.square(4)
        d = np.linalg.norm(mesh.nodes, axis=1)
        assert d.min() == pytest.approx(0.0, abs=1e-15)
        pull = mesh.nodes[np.argmax(mesh.nodes[:, 1])]
        assert pull == pytest.approx([0.0, np.sqrt(2.0)], abs=1e-14)

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

    def test_inverted_element_rejected(self):
        # clockwise connectivity gives a negative Jacobian
        with pytest.raises(ElementInversionError):
            Mesh(nodes=UNIT_SQUARE, elements=np.array([[0, 3, 2, 1]]),
                 boundary_nodes=np.array([0]))


def one_element(X, ep, hp=None):
    """``_FrameModel`` over the single quadrilateral of corners ``X``."""
    mesh = Mesh(nodes=X, elements=np.array([[0, 1, 2, 3]]),
                boundary_nodes=np.array([], dtype=int))
    return _FrameModel(mesh, ep, hp)


def evaluate_virgin(model, x):
    """``model.evaluate`` at the positions ``x`` from a virgin history."""
    virgin = np.zeros((model.n_elements, model.n_gauss))
    return model.evaluate(x, virgin, virgin)


class TestElementResidualTangent:
    """The element kernel, ``_FrameModel.evaluate`` and ``tangent``, on a
    one-element mesh."""

    def test_reference_state_equilibrated(self, glass_params):
        ev = evaluate_virgin(one_element(UNIT_SQUARE, glass_params),
                             UNIT_SQUARE)
        assert np.abs(ev.r_e).max() <= 1e-14
        assert not ev.q.any()

    def test_tangent_matches_finite_differences(self, glass_params):
        # plastic trial configuration: frame map at 15 degrees of shear
        F = picture_frame_deformation(gamma_to_theta(15.0))
        X = (UNIT_SQUARE - 0.5) @ np.array([[1.0, 1.0], [-1.0, 1.0]]) / 2.0
        x = X @ F.T
        hp = HyperelasticParams(eps_L=glass_params.mu_f)
        model = one_element(X, glass_params, hp)
        ev = evaluate_virgin(model, x)
        K = model.tangent(ev)[0]
        assert (ev.q > 0.0).any()
        h = 1e-7
        K_fd = np.zeros((8, 8))
        for j in range(8):
            xp = x.reshape(-1).copy()
            xm = x.reshape(-1).copy()
            xp[j] += h
            xm[j] -= h
            rp = evaluate_virgin(model, xp.reshape(4, 2)).r_e[0]
            rm = evaluate_virgin(model, xm.reshape(4, 2)).r_e[0]
            K_fd[:, j] = (rp - rm) / (2.0 * h)
        scale = np.abs(K).max()
        assert np.abs(K_fd - K).max() <= 1e-5 * scale

    def test_residual_is_energy_gradient(self):
        # r = dW/dx by central differences, with W the stored energy of the
        # embedded fibers; the yield stress keeps every point elastic, and
        # the random maps move both the stretches and the angle
        ep = ElastoplasticParams(mu_f=1.3, tau_y=100.0, A_h=1.0)
        hp = HyperelasticParams(eps_L=0.7)
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = UNIT_SQUARE + 0.1 * rng.uniform(-1.0, 1.0, (4, 2))
            F = np.eye(2) + 0.25 * rng.uniform(-1.0, 1.0, (2, 2))
            x = X @ F.T + 0.05 * rng.uniform(-1.0, 1.0, (4, 2))
            ev = evaluate_virgin(one_element(X, ep, hp), x)
            r = ev.r_e[0]
            assert not ev.q.any()

            def energy(t, j):
                y = x.ravel().copy()
                y[j] += t
                return oracles.membrane_energy(
                    X, y.reshape(4, 2), (FRAME_FIBER_1, FRAME_FIBER_2),
                    ep.mu_f, hp.eps_L)

            fd = [oracles.central_diff(lambda t: energy(t, j), 0.0, 1e-6)
                  for j in range(8)]
            assert np.abs(fd - r).max() <= 1e-8 * np.abs(r).max()

    def test_tangent_symmetric(self, glass_params):
        F = picture_frame_deformation(gamma_to_theta(10.0))
        model = one_element(UNIT_SQUARE, glass_params)
        K = model.tangent(evaluate_virgin(model, UNIT_SQUARE @ F.T))[0]
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()

    def test_committed_states_pass_through(self, soft_params):
        # soft set: |trial stress| stays below f_iso, the step is elastic
        # and the trial history equals the committed one
        model = one_element(UNIT_SQUARE, soft_params)
        history = np.full((1, 4), 0.01)
        ev = model.evaluate(UNIT_SQUARE, history, history)
        assert (ev.q == 0.01).all() and (ev.phi_p == 0.01).all()


def distorted_square(n, amplitude, seed):
    """``Mesh.square(n)`` with every interior node moved by ``amplitude``
    times the element size, in a seeded random direction."""
    mesh = Mesh.square(n)
    rng = np.random.default_rng(seed)
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]), mesh.boundary_nodes)
    angle = rng.uniform(0.0, 2.0 * np.pi, inner.size)
    nodes = mesh.nodes.copy()
    nodes[inner] += amplitude / n * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    return Mesh(nodes=nodes, elements=mesh.elements,
                boundary_nodes=mesh.boundary_nodes)


def final_history(sol):
    """The committed ``phi_p`` and ``q`` (E, G) at the end of the run
    ``sol``: its last recorded Gauss-point row."""
    shape = (len(sol.mesh.elements), -1)
    return sol.gp_phi_p[-1].reshape(shape), sol.gp_q[-1].reshape(shape)


def perturbed_newton_step(sol, seed):
    """``fe._newton_step`` from the committed end of the run ``sol`` with
    its interior nodes moved by a seeded 1e-3 of the element size: a start
    off the affine state, from which Newton must iterate."""
    mesh, ep = sol.mesh, sol.ep
    model = _FrameModel(mesh, ep, HyperelasticParams(eps_L=ep.mu_f))
    inner = np.setdiff1d(np.arange(len(sol.x)), mesh.boundary_nodes)
    h = 1.0 / np.sqrt(len(mesh.elements))
    x = sol.x.copy()
    x[inner] += 1e-3 * h * np.random.default_rng(seed).standard_normal(
        (inner.size, 2))
    return fe._newton_step(model, x, *final_history(sol), None,
                           fe._NEWTON_TOL * ep.mu_f)


class TestVoigtKernel:
    """The fiber-metric Voigt kernel against the chart-tensor element
    arithmetic it replaced (``oracles.chart_membrane_elements``), at
    three seeded disturbances of the positions and the history."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("eps_L", [0.0, 1.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.3])
    def test_matches_chart_oracle(self, demo_params, seed, eps_L,
                                  amplitude):
        mesh = distorted_square(4, amplitude, seed=11)
        model = _FrameModel(mesh, demo_params,
                            HyperelasticParams(eps_L=eps_L))
        rng = np.random.default_rng(seed)
        # the frame map, disturbed so that the stretches leave one
        F = picture_frame_deformation(gamma_to_theta(20.0))
        x = mesh.nodes @ F.T + 0.0125 * rng.standard_normal(mesh.nodes.shape)
        # tau_y = 0: virgin points flow, points at q = 1 stay elastic
        shape = (model.n_elements, model.n_gauss)
        q = np.where(rng.random(shape) < 0.5, 0.0, 1.0)
        phi_p = np.zeros(shape)
        ev = model.evaluate(x, phi_p, q)
        K_e = model.tangent(ev)
        plastic = ev.q > q
        assert plastic.any() and not plastic.all()

        def stress_of(phi):
            out = return_map_batch(phi.ravel(), phi_p.ravel(), q.ravel(),
                                   demo_params)
            return out.tau.reshape(shape), out.dtau_dphi.reshape(shape)

        dN, w = _shape_gradients()
        r_ref, K_ref, t12_ref = oracles.chart_membrane_elements(
            mesh.nodes[mesh.elements], x[mesh.elements], dN, w,
            np.stack([FRAME_FIBER_1, FRAME_FIBER_2], axis=1), eps_L,
            stress_of)
        assert np.abs(ev.theta12 - t12_ref).max() <= 1e-14
        assert np.abs(ev.r_e - r_ref).max() <= 1e-13 * np.abs(r_ref).max()
        assert np.abs(K_e - K_ref).max() <= 1e-13 * np.abs(K_ref).max()


class TestGlobalTangent:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_free_block_is_residual_jacobian(self, demo_params, seed):
        """The scattered element tangents equal the central differences
        of the global residual on the free DOFs, at frozen history, with
        elastic and plastic points and a fiber-stretch stiffness, at two
        seeded disturbances."""
        mesh = distorted_square(3, 0.3, seed=3)
        model = _FrameModel(mesh, demo_params,
                            HyperelasticParams(eps_L=demo_params.mu_f))
        rng = np.random.default_rng(seed)
        F = picture_frame_deformation(gamma_to_theta(20.0))
        x = mesh.nodes @ F.T + 0.0125 * rng.standard_normal(mesh.nodes.shape)
        # tau_y = 0: virgin points flow, points at q = 1 stay elastic
        shape = (model.n_elements, model.n_gauss)
        q = np.where(rng.random(shape) < 0.5, 0.0, 1.0)
        phi_p = np.zeros(shape)
        _, ev = model.residual(x, phi_p, q)
        plastic = ev.q > q
        assert plastic.any() and not plastic.all()

        dofs, free = model.dofs, model.free
        K = np.zeros((model.ndof, model.ndof))
        np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), model.tangent(ev))
        K_ff = K[np.ix_(free, free)]
        h = 1e-7
        K_fd = np.zeros_like(K_ff)
        for col, j in enumerate(np.flatnonzero(free)):
            xp = x.reshape(-1).copy()
            xm = x.reshape(-1).copy()
            xp[j] += h
            xm[j] -= h
            rp, _ = model.residual(xp.reshape(-1, 2), phi_p, q)
            rm, _ = model.residual(xm.reshape(-1, 2), phi_p, q)
            K_fd[:, col] = (rp - rm)[free] / (2.0 * h)
        assert np.abs(K_fd - K_ff).max() <= 1e-5 * np.abs(K_ff).max()


class TestSlipWarmStart:
    def test_warm_residual_equals_cold(self, demo_params, monkeypatch):
        """Slip solves started from the slips of a nearby evaluation give
        the cold evaluation to round-off, in fewer sweeps."""
        mesh = distorted_square(6, 0.2, seed=5)
        model = _FrameModel(mesh, demo_params,
                            HyperelasticParams(eps_L=demo_params.mu_f))
        shape = (model.n_elements, model.n_gauss)
        phi_p, q = np.full(shape, 0.05), np.full(shape, 0.05)
        # the last correction's iterate and the next, interior nodes moved
        x0 = mesh.nodes @ picture_frame_deformation(gamma_to_theta(30.0)).T
        x1 = x0.copy()
        interior = np.setdiff1d(np.arange(len(x0)), mesh.boundary_nodes)
        rng = np.random.default_rng(3)
        x1[interior] += 1e-5 * rng.standard_normal((interior.size, 2))
        _, ev0 = model.residual(x0, phi_p, q)

        sweeps = []

        def counted(*args, **kwargs):
            out = return_map_batch(*args, **kwargs)
            sweeps.append(out.iterations)
            return out

        monkeypatch.setattr(fe, "return_map_batch", counted)
        r_cold, cold = model.residual(x1, phi_p, q)
        r_warm, warm = model.residual(x1, phi_p, q, ev0.q - q)
        assert (cold.q > q).all()
        assert sweeps[1] < sweeps[0]
        assert np.abs(r_warm - r_cold).max() <= 1e-14 * np.abs(r_cold).max()
        for k in ("tau", "phi_e", "phi_p", "q"):
            a, b = getattr(warm, k), getattr(cold, k)
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
        assert np.array_equal(warm.theta12, cold.theta12)


class TestExactMap:
    def test_gauss_point_stress_matches_interval_solve(self, glass_params):
        # one backward-Euler step at the affine map equals the closed form
        theta = gamma_to_theta(25.0)
        mesh = Mesh.square(1)
        ev = evaluate_virgin(_FrameModel(mesh, glass_params),
                             mesh.nodes @ picture_frame_deformation(theta).T)
        sol = interval_solve(float(np.cos(theta)), IntervalState(),
                             glass_params)
        for q in ev.q.ravel():
            assert q == pytest.approx(sol.q, rel=1e-12)

    def test_stretched_state_matches_embedding(self, demo_params):
        # an affine map that stretches both fibers and turns them apart:
        # every Gauss point sees the stretches |F L_I| and the cosine
        # between F L_1 and F L_2 of the plain Cartesian embedding
        F = np.array([[1.1, 0.2], [0.05, 0.9]])
        mesh = Mesh.square(4)
        ev = evaluate_virgin(_FrameModel(mesh, demo_params), mesh.nodes @ F.T)
        lam1, lam2, cos12 = oracles.embedded_fiber_measures(
            F, FRAME_FIBER_1, FRAME_FIBER_2)
        assert abs(lam1 - 1.0) > 0.1 and abs(lam2 - 1.0) > 0.01
        assert np.abs(ev.lam - [[lam1], [lam2]]).max() <= 1e-12
        assert np.abs(ev.theta12 - cos12).max() <= 1e-12

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


@pytest.fixture
def dgbtrf_calls(monkeypatch):
    """Shapes of the band matrices ``fe`` factors, one entry a call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dgbtrf(*args, **kwargs)

    # fe imports dgbtrf from scipy's module at its first factorization
    monkeypatch.setattr("scipy.linalg.lapack.dgbtrf", counting)
    return calls


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
        phi_p, q = final_history(sol)
        r, ev = model.residual(x, phi_p, q)
        band = model.assemble(ev)
        assert np.any(ev.q > q)
        # gbtrf factors it in place: no copy into Fortran order
        assert band.flags.f_contiguous

        # dense reference assembly of the same element arrays
        dofs, free = model.dofs, model.free
        r_ref = np.zeros(model.ndof)
        np.add.at(r_ref, dofs.ravel(), ev.r_e.ravel())
        K_ref = np.zeros((model.ndof, model.ndof))
        np.add.at(K_ref, (dofs[:, :, None], dofs[:, None, :]),
                  model.tangent(ev))
        K_ff = K_ref[np.ix_(free, free)]
        assert np.linalg.eigvalsh(0.5 * (K_ff + K_ff.T)).min() < 0.0
        assert np.array_equal(r, r_ref)

        bw = model.bw
        k = np.arange(K_ff.shape[0])
        i, j = np.nonzero(np.abs(k[:, None] - k[None, :]) <= bw)
        K_band = np.zeros_like(K_ff)
        K_band[i, j] = band[2 * bw + i - j, j]
        assert np.array_equal(K_band, K_ff)
        assert np.count_nonzero(band) == np.count_nonzero(K_ff)

        lu, piv, info = dgbtrf(band, bw, bw)
        assert info == 0
        dx, info = dgbtrs(lu, bw, bw, -r[free], piv)
        dx_ref = np.linalg.solve(K_ff, -r[free])
        assert np.abs(dx - dx_ref).max() <= 1e-12 * np.abs(dx_ref).max()

    def test_polish_solves_on_the_last_factors(self, demo_params,
                                               cycle_program, dgbtrf_calls):
        # one LU factorization per full correction and none for the polish;
        # a step accepted at its prediction factors nothing.  The frame
        # run's predictions all meet the tolerance, so a step started off
        # the affine state supplies the full corrections
        sol = solve_picture_frame(Mesh.square(4), cycle_program, demo_params)
        assert all(len(h) == 1 for h in sol.residual_history)
        assert not dgbtrf_calls
        *_, residuals, ok, _ = perturbed_newton_step(sol, seed=0)
        assert ok
        assert sol.committed_thetas.size == sol.theta_steps.size - 1
        full = len(residuals) - 2
        assert full > 0
        assert len(dgbtrf_calls) == full
        assert set(dgbtrf_calls) == {(3 * 9 + 1, 18)}   # bw = 9, 9 free nodes

    @pytest.mark.parametrize("amplitude", [0.0, 0.3])
    def test_prediction_meets_the_tolerance(self, demo_params, cycle_program,
                                            dgbtrf_calls, amplitude):
        # the affine frame state plus the committed deviation carried along
        # the frame map's increment is the solution of the next step on any
        # mesh, so every step is accepted at its prediction: one
        # evaluation and no factorization
        sol = solve_picture_frame(distorted_square(4, amplitude, seed=11),
                                  cycle_program, demo_params)
        assert all(len(h) == 1 for h in sol.residual_history)
        assert not dgbtrf_calls
        assert verify_against_analytic(sol)["passed"]

    def test_prediction_does_not_drift(self, demo_params):
        # the affine part of each prediction is recomputed from the frame
        # map, so over many steps accepted at their prediction the rounding
        # of each step's map increment does not add up
        mesh = Mesh.square(4)
        lp = LoadProgram.from_gamma_degrees([50, 20, 50, 20, 50, 20, 50])
        sol = solve_picture_frame(mesh, lp, demo_params)
        assert all(len(h) == 1 for h in sol.residual_history)
        F = picture_frame_deformation(sol.committed_thetas[-1])
        assert np.abs(sol.x - mesh.nodes @ F.T).max() <= 1e-15

    def test_no_free_dofs(self, demo_params, cycle_program):
        # a 1x1 mesh drives every node, so nothing is factored or solved;
        # each step records its one evaluation
        mesh = Mesh.square(1)
        assert _FrameModel(mesh, demo_params).nfree == 0
        sol = solve_picture_frame(mesh, cycle_program, demo_params)
        assert all(h == [0.0] for h in sol.residual_history)
        assert verify_against_analytic(sol)["passed"]


def manufactured_run(mesh, program, ep, amp):
    """Recover the manufactured state of ``oracles`` along ``program``.

    Each load step of the solver's grid marches ``x*`` through the frame
    model, so that the Gauss history is that of ``x*``, and loads the
    forced model with the residual at ``x*`` from that history.
    ``fe._newton_step`` then solves from the solver's own prediction (the
    affine frame state plus the committed deviation carried along the
    frame map's increment, slip solves started from the scaled last slip
    increments) at the solver's tolerance.  Yields, per step, the
    deviation ``max |x - x*|``, whether the step converged, and its
    residual norms.
    """
    hp = HyperelasticParams(eps_L=ep.mu_f)
    model = _FrameModel(mesh, ep, hp)
    forced = oracles.ForcedFrameModel(mesh, ep, hp)
    X, b = mesh.nodes, mesh.boundary_nodes
    phi_p = q = dq_last = np.zeros((model.n_elements, model.n_gauss))
    theta_c, dth_last = np.pi / 2.0, 0.0
    x, F_c = X.copy(), picture_frame_deformation(theta_c)
    for th in np.concatenate(program_theta_grid(program)):
        x_star = oracles.manufactured_frame_state(mesh, th, amp)
        forced.load, ev_star = model.residual(x_star, phi_p, q)
        F = picture_frame_deformation(th)
        xtrial = X @ F.T + (x - X @ F_c.T) @ np.linalg.solve(F_c.T, F.T)
        xtrial[b] = X[b] @ F.T
        scale = (th - theta_c) / dth_last if dth_last else 0.0
        x, _, ev, norms, ok, _ = fe._newton_step(
            forced, xtrial, phi_p, q, scale * dq_last,
            fe._NEWTON_TOL * ep.mu_f)
        dq_last, dth_last = ev.q - q, th - theta_c
        phi_p, q, F_c, theta_c = ev_star.phi_p, ev_star.q, F, th
        yield np.abs(x - x_star).max(), ok, norms


class TestManufacturedState:
    """The Newton path on a known non-affine answer: the frame programs'
    own predictions are exact and take no correction, so the
    manufactured state is what runs the corrections, the band tangent,
    its LU factors and the polish."""

    def test_demo_cycle(self, demo_params, cycle_program, dgbtrf_calls):
        mesh = Mesh.square(8)
        devs, counts = [], []
        for dev, ok, r in manufactured_run(mesh, cycle_program, demo_params,
                                           1e-3):
            assert ok
            devs.append(dev)
            counts.append(len(dgbtrf_calls))
            # the band tangent is consistent: the residual decays
            # quadratically until it reaches round-off
            for r0, r1 in zip(r, r[1:]):
                if r1 > 1e-14 * demo_params.mu_f:
                    assert r1 <= 100.0 * r0 * r0, r
        assert len(devs) == 220
        assert max(devs) <= 1e-14
        # each step factors at least one band tangent
        assert min(np.diff([0] + counts)) >= 1

    def test_deep_reversal(self, demo_params):
        # the reload of 60-0.5-60 deg crosses the span where the affine
        # state's free tangent is indefinite (from 56.5 deg).  No decay rate
        # is pinned here: on that span r_{k+1} / r_k^2 reaches 6.8e5
        lp = LoadProgram.from_gamma_degrees([60.0, 0.5, 60.0])
        devs = []
        for dev, ok, _ in manufactured_run(Mesh.square(8), lp, demo_params,
                                           1e-3):
            assert ok
            devs.append(dev)
        assert max(devs) <= 1e-12


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

    def test_deep_reversal(self, demo_params):
        # the affine state is unstable from 56.5 deg on the reload (its free
        # tangent is indefinite), but a step accepted at its prediction
        # moves nothing along the unstable modes, so verify measures the
        # affine equilibrium at round-off there too
        lp = LoadProgram.from_gamma_degrees([60.0, 0.5, 60.0])
        sol = solve_picture_frame(Mesh.square(8), lp, demo_params)
        assert all(len(h) == 1 for h in sol.residual_history)
        rep = verify_against_analytic(sol)
        assert rep["passed"], rep
        for key in ("max_theta12_dev", "max_tau_rel_scale", "max_force_rel"):
            assert rep[key] <= 1e-13, (key, rep)

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
        # two slip sweeps are not enough for a 10 degree step, so the
        # solver must bisect; the recorded targets and accuracy are kept.
        # The closed form shares the sweep cap, so verify runs without it
        lp = LoadProgram.from_gamma_degrees([20.0])
        with monkeypatch.context() as patch:
            patch.setattr(material, "_SLIP_MAX_ITER", 2)
            patch.setattr(fe, "_MAX_HALVINGS", 8)
            sol = solve_picture_frame(Mesh.square(2), lp, glass_params,
                                      steps_per_degree=0.1)
        assert sol.committed_thetas.size > sol.theta_steps.size - 1
        assert verify_against_analytic(sol)["passed"]
        targets = np.concatenate(program_theta_grid(sol.program, 0.1))
        assert np.allclose(sol.theta_steps[1:], targets, atol=1e-15)

    def test_solver_error_reports_step(self, glass_params, monkeypatch):
        # no residual meets a zero tolerance, so the iteration cap fails
        # the step
        monkeypatch.setattr(fe, "_NEWTON_TOL", 0.0)
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
        # the frame run's predictions meet the tolerance, so the step that
        # iterates starts off the affine state
        lp = LoadProgram.from_gamma_degrees([10.0])
        sol = solve_picture_frame(Mesh.square(3), lp, glass_params)
        *_, residuals, ok, _ = perturbed_newton_step(sol, seed=0)
        assert ok
        tol_abs = fe._NEWTON_TOL * glass_params.mu_f
        deep = [h for h in sol.residual_history + [residuals] if len(h) >= 4]
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
        # the last recorded row is the history the run committed: an
        # evaluation at the final positions from it repeats that row, to
        # the round-off by which a point on the yield surface may yield
        lp = LoadProgram.from_gamma_degrees([15.0])
        mesh = Mesh.square(2)
        sol = solve_picture_frame(mesh, lp, glass_params)
        phi_p, q = final_history(sol)
        assert phi_p.shape == q.shape == (4, 4)     # (E, G)
        ev = _FrameModel(mesh, glass_params).evaluate(sol.x, phi_p, q)
        assert np.array_equal(ev.theta12.ravel(), sol.gp_theta12[-1])
        for k in ("tau", "phi_p", "q"):
            row = getattr(sol, f"gp_{k}")[-1]
            assert np.abs(getattr(ev, k).ravel() - row).max() <= \
                1e-14 * np.abs(row).max()

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

    def test_normalization_from_the_run(self, glass_params):
        # the force column is normalized by mu0 of the run, which verify
        # takes from the solution rather than from its caller
        lp = LoadProgram.from_gamma_degrees([20.0])
        sol = solve_picture_frame(Mesh.square(2), lp, glass_params,
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


def _traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran, above
    what was traced when it began."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFramePassMemory:
    # the 8x8 demo cycle records 221 steps of 256 Gauss points; each field
    # is filled in place and verify takes its deviations in one (S, P)
    # buffer, so neither holds a second copy of what it reads or writes
    def test_solve_holds_each_field_once(self, demo_params, cycle_program):
        # a first run, so that one-time allocations are not counted
        solve_picture_frame(Mesh.square(1), cycle_program, demo_params)
        sol, peak = _traced_peak(lambda: solve_picture_frame(
            Mesh.square(8), cycle_program, demo_params))
        fields = sum(getattr(sol, f"gp_{k}").nbytes
                     for k in FIELD_COLUMNS[2:])
        assert fields == 5 * 221 * 256 * 8
        assert peak <= 1.25 * fields, peak / fields

    def test_verify_holds_one_deviation_array(self, demo_params,
                                              cycle_program):
        sol = solve_picture_frame(Mesh.square(8), cycle_program, demo_params)
        verify_against_analytic(sol)
        rep, peak = _traced_peak(lambda: verify_against_analytic(sol))
        assert rep["passed"]
        assert peak <= 1.25 * sol.gp_tau.nbytes, peak / sol.gp_tau.nbytes
