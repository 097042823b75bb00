"""Constitutive kernel tests.

Verifies: hardening-curve values and admissibility, parameter
(de)serialization, the return map and the slip solve it shares with the
interval solve against an independent bisection oracle, the algorithmic
tangent against central differences, batch/scalar equivalence, the
energy/stress consistency of the membrane response, and the incremental
angle driver.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovenshear import (
    ConvergenceError,
    ElastoplasticParams,
    HyperelasticParams,
    PlasticState,
    angle_stress_and_tangent,
    drive_angle_path,
    f_iso,
    f_iso_prime,
    fiber_state,
    load_params,
    membrane_stress,
    moments_and_bending_tangents,
    params_from_dict,
    params_to_dict,
    picture_frame_metric,
    push_forward_fiber,
    replace_params,
    return_map,
    return_map_batch,
    save_params,
    strain_energy,
    structural_tensors,
    yield_function,
)
from wovenshear import material
from wovenshear.kinematics import (CurvaturePoint, MetricPoint, RefFiberPair,
                                   _angle_arrays, _chart, _chart4,
                                   _fiber_dyads, _fiber_metric)
from wovenshear.material import PARAM_JSON_KEYS, _slip_solve, _stress_arrays

import oracles


def ref_f_iso(q, p):
    return oracles.f_iso_ref(q, p.tau_y, p.A_h, p.a_h, p.B_h, p.b_h,
                             p.C_h, p.c_h)


class TestHardeningCurve:
    def test_frozen_value_soft_set(self, soft_params):
        assert f_iso(1.0, soft_params) == pytest.approx(
            oracles.F_ISO_SOFT_Q1, rel=1e-15)

    def test_matches_reference_form(self, glass_params, rng):
        for q in rng.uniform(0.0, 1.5, size=30):
            assert f_iso(q, glass_params) == pytest.approx(
                ref_f_iso(q, glass_params), rel=1e-14)

    def test_prime_matches_central_differences(self, glass_params):
        for q in (0.05, 0.3, 0.8, 1.2):
            fd = oracles.central_diff(lambda x: f_iso(x, glass_params), q,
                                      1e-6)
            assert f_iso_prime(q, glass_params) == pytest.approx(fd, rel=1e-8)

    def test_strictly_increasing(self, glass_params):
        q = np.linspace(0.0, 1.5, 1501)
        v = f_iso(q, glass_params)
        assert np.all(np.diff(v) > 0.0)

    def test_prime_positive_both_sets(self, glass_params, soft_params):
        q = np.linspace(0.0, 1.5, 1501)
        assert np.all(f_iso_prime(q, glass_params) > 0.0)
        assert np.all(f_iso_prime(q, soft_params) > 0.0)

    def test_prime_soft_set_dips_then_grows(self, soft_params):
        # single interior minimum: the saturating terms decay, the power
        # term takes over
        q = np.linspace(0.0, 1.5, 1501)
        d = np.diff(f_iso_prime(q, soft_params))
        sign_changes = np.sum(np.diff(np.sign(d)) != 0.0)
        assert sign_changes == 1
        assert d[0] < 0.0 and d[-1] > 0.0

    def test_negative_q_rejected(self, glass_params):
        with pytest.raises(ValueError):
            f_iso(-0.1, glass_params)
        with pytest.raises(ValueError):
            f_iso_prime(np.array([0.2, -0.2]), glass_params)

    def test_yield_function_sign(self, glass_params):
        assert yield_function(0.0, 0.0, glass_params) < 0.0
        assert yield_function(1.0, 0.0, glass_params) > 0.0


class TestParamValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=0.0, tau_y=0.1)
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=1.0, tau_y=-0.1)
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=1.0, tau_y=0.1, A_h=-1.0)
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=1.0, tau_y=0.1, A_h=1.0, a_h=0.0)
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=1.0, tau_y=0.1, C_h=1.0, c_h=0.5)

    def test_rejects_zero_hardening(self):
        # f_iso' == 0 everywhere is inadmissible; perfect plasticity needs
        # an explicit tiny slope
        with pytest.raises(ValueError):
            ElastoplasticParams(mu_f=1.0, tau_y=0.1)
        ElastoplasticParams(mu_f=1.0, tau_y=0.1, A_h=1e-8)

    def test_hyper_rejects_negative(self):
        with pytest.raises(ValueError):
            HyperelasticParams(eps_L=-1.0)

    def test_rejects_non_finite(self, glass_params, glass_hyper):
        # NaN passes every range check, so each field is checked for
        # finiteness first and named
        for params in (glass_params, glass_hyper):
            for field in dataclasses.fields(params):
                for bad in (np.nan, np.inf, -np.inf):
                    with pytest.raises(ValueError,
                                       match=f"{field.name} must be finite"):
                        dataclasses.replace(params, **{field.name: bad})

    def test_dict_round_trip(self, glass_params, glass_hyper):
        d = params_to_dict(glass_params, glass_hyper)
        assert tuple(d) == PARAM_JSON_KEYS
        ep, hp = params_from_dict(d)
        assert ep == glass_params
        assert hp == glass_hyper

    def test_unknown_key_rejected(self, glass_params):
        d = params_to_dict(glass_params)
        d["mu"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            params_from_dict(d)
        with pytest.raises(ValueError, match="unknown"):
            replace_params(glass_params, {"eps_L": 1.0})

    def test_file_round_trip(self, glass_params, glass_hyper, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, glass_params, glass_hyper)
        ep, hp = load_params(path)
        assert ep == glass_params
        assert hp == glass_hyper

    def test_replace_params(self, glass_params):
        ep = replace_params(glass_params, {"tau_y": 0.5, "c": 12.0})
        assert ep.tau_y == 0.5 and ep.c_h == 12.0
        assert ep.mu_f == glass_params.mu_f


class TestReturnMap:
    def test_elastic_step_exact(self, glass_params):
        state = PlasticState()
        sr = return_map(1e-5, state, glass_params)
        assert not sr.is_plastic
        assert sr.tau == 5.0 * 1e-5
        assert sr.new_state is state
        assert sr.dtau_dphi == glass_params.mu_f
        assert sr.iterations == 0 and sr.residual == 0.0

    def test_plastic_frozen_oracle(self, glass_params):
        sr = return_map(0.1, PlasticState(), glass_params)
        assert sr.is_plastic
        assert sr.new_state.q == pytest.approx(
            oracles.DELTA_ALPHA_GLASS_PHI0P1, rel=1e-12)
        assert sr.tau == pytest.approx(oracles.TAU_GLASS_PHI0P1, rel=1e-12)

    def test_matches_independent_bisection(self, glass_params, rng):
        p = glass_params
        for phi in rng.uniform(0.05, 0.7, size=10):
            sr = return_map(float(phi), PlasticState(), p)
            root = oracles.bisect_root(
                lambda x: p.mu_f * phi - p.mu_f * x - ref_f_iso(x, p),
                0.0, float(phi))
            assert sr.new_state.q == pytest.approx(root, rel=1e-10)

    def test_consistency_at_solution(self, glass_params):
        sr = return_map(0.3, PlasticState(), glass_params)
        # returned stress sits on the yield surface
        scale = max(glass_params.mu_f, f_iso(sr.new_state.q, glass_params))
        assert abs(yield_function(sr.tau, sr.new_state.q,
                                  glass_params)) <= 1e-11 * scale
        # the slip solve's own residual, polished to round-off
        assert sr.residual <= 1e-14 * scale
        assert sr.iterations > 0

    def test_stress_elastic_relation_exact(self, glass_params):
        for phi in (0.01, 0.2, -0.35):
            sr = return_map(phi, PlasticState(), glass_params)
            assert sr.tau == glass_params.mu_f * sr.phi_e

    def test_sign_symmetry(self, glass_params):
        sp = return_map(0.4, PlasticState(), glass_params)
        sm = return_map(-0.4, PlasticState(), glass_params)
        assert sm.tau == pytest.approx(-sp.tau, rel=1e-14)
        assert sm.new_state.q == pytest.approx(sp.new_state.q, rel=1e-14)
        assert sm.new_state.phi_p == pytest.approx(-sp.new_state.phi_p,
                                                   rel=1e-14)

    def test_tangent_matches_finite_differences(self, glass_params):
        state = PlasticState()
        h = 1e-6
        for phi in (0.1, 0.3, 0.6):
            sr = return_map(phi, state, glass_params)
            assert sr.is_plastic
            fd = oracles.central_diff(
                lambda x: return_map(x, state, glass_params).tau, phi, h)
            assert sr.dtau_dphi == pytest.approx(fd, rel=1e-5)
            assert 0.0 < sr.dtau_dphi < glass_params.mu_f

    @given(phi=st.floats(-0.8, 0.8), q0=st.floats(0.0, 0.5),
           phi_p0=st.floats(-0.3, 0.3))
    @settings(max_examples=120, deadline=None)
    def test_step_invariants(self, phi, q0, phi_p0, glass_params):
        """Split additivity, monotone slip, admissibility, dissipation."""
        state = PlasticState(phi_p=phi_p0, q=q0)
        sr = return_map(phi, state, glass_params)
        ns = sr.new_state
        assert abs(phi - (sr.phi_e + ns.phi_p)) <= 1e-14
        assert ns.q >= state.q
        scale = max(glass_params.mu_f, f_iso(ns.q, glass_params))
        assert yield_function(sr.tau, ns.q, glass_params) <= 1e-11 * scale
        # plastic dissipation tau * dphi_p is nonnegative
        assert sr.tau * (ns.phi_p - state.phi_p) >= -1e-16

    def test_batch_matches_scalar(self, glass_params, rng):
        phi = rng.uniform(-0.6, 0.6, size=40)
        out = return_map_batch(phi, np.zeros(40), np.zeros(40), glass_params)
        tau_b, phi_e_b = out[0], out[1]
        for k in range(40):
            sr = return_map(float(phi[k]), PlasticState(), glass_params)
            assert tau_b[k] == sr.tau
            assert phi_e_b[k] == sr.phi_e

    def test_repeat_at_the_committed_angle(self, soft_params):
        # a returned state sits on the yield surface, so the same angle
        # can test plastic again by round-off; the slip is then below the
        # round-off of g, and the polish step must not take it to zero
        for phi in (0.14134978412825766, 0.12714984853925596,
                    0.11199279991512828, 0.12332735646227606):
            first = return_map(phi, PlasticState(), soft_params)
            again = return_map(phi, first.new_state, soft_params)
            assert again.new_state.q >= first.new_state.q
            assert again.tau == pytest.approx(first.tau, rel=1e-15)

    def test_convergence_error_carries_residual(self, glass_params,
                                                monkeypatch):
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            return_map(0.5, PlasticState(), glass_params)
        assert err.value.residual is not None
        assert err.value.residual > 0.0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            PlasticState(q=-0.1)


class TestSlipSolve:
    """The one slip solve behind the return map and the interval solve,
    against the plain bisection of the oracles module."""

    @given(name=st.sampled_from(["glass", "soft", "demo"]),
           q=st.one_of(st.just(0.0), st.floats(1e-4, 0.6)),
           interval=st.booleans(), carried=st.floats(-1.0, 1.0),
           backward=st.booleans(), log_inc=st.floats(-9.0, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection(self, name, q, interval, carried, backward,
                               log_inc, glass_params, soft_params,
                               demo_params):
        p = {"glass": glass_params, "soft": soft_params,
             "demo": demo_params}[name]
        mu = p.mu_f
        fy = float(f_iso(q, p))
        inc = 10.0 ** log_inc            # angle past the elastic range
        if interval:
            # interval_solve_batch's form: a carried stress on or inside
            # the yield surface (none from a virgin start), loaded with or
            # against it
            tau0 = carried * fy if q > 0.0 else 0.0
            d = -1.0 if backward else 1.0
            phi_y = (fy - d * tau0) / mu
            pb = phi_y + inc
            t, g0 = d * tau0 + mu * pb, mu * (pb - phi_y)
        else:
            # return_map_batch's form: t = |tau_trial|
            t = mu * (fy / mu + inc)
            g0 = t - fy
        x, res, its, _ = _slip_solve(np.array([t]), q, np.array([g0]), p)
        root = oracles.bisect_root(
            lambda s: t - mu * s - ref_f_iso(q + s, p), 0.0, t / mu)
        # g(x) carries round-off of about eps (t + f_iso'(q + x) (q + x)),
        # which fixes the root only to that over the slope mu + f_iso'
        eps = np.finfo(float).eps
        hard = float(f_iso_prime(q + root, p))
        tol = 4.0 * (np.spacing(root)
                     + eps * (t + hard * (q + root)) / (mu + hard))
        assert abs(x[0] - root) <= tol
        assert res[0] <= 1e-14 * max(mu, float(f_iso(q + x[0], p)))
        assert its[0] >= 1


class TestDriver:
    def test_elastic_unloading_slope(self, soft_params):
        # load into the plastic range, unload: slope is exactly mu_f until
        # re-yield
        path = np.concatenate([np.linspace(0.0, 0.3, 31)[1:],
                               np.linspace(0.3, 0.1, 21)[1:]])
        res = drive_angle_path(path, soft_params)
        un = slice(30, 50)
        dtau = np.diff(res.tau[un])
        dphi = np.diff(res.phi[un])
        assert np.allclose(dtau / dphi, soft_params.mu_f, rtol=1e-12)

    def test_history_arrays_consistent(self, glass_params):
        path = np.linspace(0.0, 0.4, 50)[1:]
        res = drive_angle_path(path, glass_params)
        assert np.abs(res.phi - (res.phi_e + res.phi_p)).max() <= 1e-14
        assert res.state_final.phi_p == res.phi_p[-1]
        assert np.all(np.diff(res.q) >= 0.0)

    def test_resumes_from_state(self, glass_params):
        path = np.linspace(0.0, 0.4, 41)[1:]
        full = drive_angle_path(path, glass_params)
        first = drive_angle_path(path[:20], glass_params)
        rest = drive_angle_path(path[20:], glass_params,
                                state=first.state_final)
        assert rest.tau[-1] == pytest.approx(full.tau[-1], rel=1e-14)
        assert rest.q[-1] == pytest.approx(full.q[-1], rel=1e-14)

    def test_slip_failure_is_located(self, glass_params, monkeypatch):
        # the two zero steps are elastic; one slip sweep cannot converge
        # the plastic third
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            drive_angle_path([0.0, 0.0, 0.5, 0.6], glass_params)
        assert err.value.step_index == 2 and err.value.phi == 0.5
        assert "phi_path[2] = 0.5:" in str(err.value)
        cause = err.value.__cause__
        assert isinstance(cause, ConvergenceError)
        assert err.value.residual == cause.residual > 0.0


class TestMembraneResponse:
    def test_stretch_term_vanishes_in_frame(self, glass_params, glass_hyper):
        # picture frame keeps both stretches at one, so the total stress
        # equals the angle part even with a large tensile stiffness
        m, f, _ = picture_frame_metric(np.pi / 3.0)
        fs = fiber_state(m, f)
        st_ = structural_tensors(m, fs)
        sr = return_map(fs.theta12 - f.Theta12, PlasticState(), glass_params)
        tau_a, c_a = angle_stress_and_tangent(sr, st_)
        tau_t, c_t = membrane_stress(m, f, sr, st_, glass_hyper)
        assert np.abs(tau_t - tau_a).max() <= 1e-12 * np.abs(tau_a).max()
        assert np.abs(tau_a - 2.0 * sr.tau * st_.g12).max() == 0.0

    def test_stress_is_energy_gradient(self, rng):
        # 2 dW/da == membrane stress, checked by metric finite differences
        # on an elastic state (huge yield stress keeps the step elastic)
        p = ElastoplasticParams(mu_f=1.3, tau_y=100.0, A_h=1.0)
        hp = HyperelasticParams(eps_L=0.7)
        f = RefFiberPair.from_directions([1.0, 0.2], [-0.3, 1.0], np.eye(2))

        def energy(a):
            m = MetricPoint.from_metrics(np.eye(2), a)
            fs = fiber_state(m, f)
            return strain_energy(m, f, None, fs.theta12 - f.Theta12, hp, p)

        for _ in range(10):
            a = oracles.random_spd(rng)
            m = MetricPoint.from_metrics(np.eye(2), a)
            fs = fiber_state(m, f)
            st_ = structural_tensors(m, fs)
            sr = return_map(fs.theta12 - f.Theta12, PlasticState(), p)
            assert not sr.is_plastic
            tau_t, _ = membrane_stress(m, f, sr, st_, hp)
            fd = 2.0 * oracles.fd_metric_gradient(energy, a, h=1e-6)
            assert np.abs(fd - tau_t).max() <= 1e-6 * (1.0
                                                       + np.abs(tau_t).max())

    def test_tangent_major_symmetry(self, glass_params, rng):
        m, f, _ = picture_frame_metric(1.1)
        fs = fiber_state(m, f)
        st_ = structural_tensors(m, fs)
        sr = return_map(fs.theta12, PlasticState(), glass_params)
        _, c_a = angle_stress_and_tangent(sr, st_)
        assert np.abs(c_a - c_a.transpose(2, 3, 0, 1)).max() <= 1e-14

    def test_strain_energy_nonnegative(self, glass_params, glass_hyper, rng):
        f = RefFiberPair.from_directions([1.0, 0.0], [0.0, 1.0], np.eye(2))
        for _ in range(20):
            a = oracles.random_spd(rng)
            m = MetricPoint.from_metrics(np.eye(2), a)
            fs = fiber_state(m, f)
            W = strain_energy(m, f, None, fs.theta12 - f.Theta12,
                              glass_hyper, glass_params)
            assert W >= 0.0
        m0 = MetricPoint.from_metrics(np.eye(2), np.eye(2))
        assert strain_energy(m0, f, None, 0.0, glass_hyper, glass_params) == 0.0

    def test_array_bodies_equal_scalar_loop(self, glass_params, glass_hyper,
                                            rng):
        """The broadcast bodies the FE element kernel evaluates equal, bit
        for bit, a loop of the scalar entry points that the
        finite-difference checks test, on elastic and plastic points."""
        n = 64
        points = []
        for _ in range(n):
            A = oracles.random_spd(rng)
            f = RefFiberPair.from_directions(rng.normal(size=2),
                                             rng.normal(size=2), A)
            points.append((MetricPoint.from_metrics(A, oracles.random_spd(rng)),
                           f, PlasticState(phi_p=rng.uniform(-0.1, 0.1),
                                           q=rng.uniform(0.0, 1.0))))
        a_ab = np.stack([m.a_ab for m, _, _ in points])
        L1 = np.stack([f.L1 for _, f, _ in points])
        L2 = np.stack([f.L2 for _, f, _ in points])
        Theta12 = np.array([f.Theta12 for _, f, _ in points])
        C = _fiber_metric(a_ab, L1, L2)
        lam, theta12, gamma, Gamma = _angle_arrays(C)
        dyads = _fiber_dyads(L1, L2)
        history = [np.array([getattr(s, k) for _, _, s in points])
                   for k in ("phi_p", "q")]
        rm = return_map_batch(theta12 - Theta12, *history, glass_params)
        tau, dtau, plastic = rm[0], rm[2], rm[6]
        assert plastic.any() and not plastic.all()
        g12, g12_grad = _chart(gamma, dyads), _chart4(Gamma, dyads)
        s, T = _stress_arrays(tau, dtau, gamma, Gamma, glass_hyper.eps_L, lam)
        stress, tangent = 2.0 * _chart(s, dyads), 4.0 * _chart4(T, dyads)
        angle = (2.0 * tau * g12,
                 4.0 * _chart4(_stress_arrays(tau, dtau, gamma, Gamma)[1],
                               dyads))

        for k, (m, f, state) in enumerate(points):
            lam1, l = push_forward_fiber(m, f.L1)
            assert lam1 == lam[0, k] and np.array_equal(l, L1[k] / lam[0, k])
            fs = fiber_state(m, f)
            assert (fs.lambda1, fs.lambda2, fs.theta12) == (
                lam[0, k], lam[1, k], theta12[k])
            assert np.array_equal(fs.l1, L1[k] / lam[0, k])
            assert np.array_equal(fs.l2, L2[k] / lam[1, k])
            assert np.array_equal(fs.C, C[:, k])
            st_ = structural_tensors(m, fs)
            assert np.array_equal(st_.gamma, gamma[:, k])
            assert np.array_equal(st_.Gamma, Gamma[..., k])
            assert np.array_equal(st_.g12, g12[..., k])
            assert np.array_equal(st_.g12_grad, g12_grad[..., k])
            sr = return_map(fs.theta12 - f.Theta12, state, glass_params)
            assert sr.is_plastic == plastic[k] and sr.tau == tau[k]
            tau_a, c_a = angle_stress_and_tangent(sr, st_)
            assert np.array_equal(tau_a, angle[0][..., k])
            assert np.array_equal(c_a, angle[1][..., k])
            tau_t, c_t = membrane_stress(m, f, sr, st_, glass_hyper)
            assert np.array_equal(tau_t, stress[..., k])
            assert np.array_equal(c_t, tangent[..., k])

    def test_bending_moments_zero_without_curvature_change(self, glass_hyper):
        m, f, _ = picture_frame_metric(1.2)
        b = np.array([[0.2, 0.05], [0.05, 0.1]])
        c = CurvaturePoint(b_ab=b, B_ab=b.copy(), bbar_ab=b, Bbar_ab=b.copy(),
                           c0=np.eye(2))
        br = moments_and_bending_tangents(m, f, c, glass_hyper)
        # twist couples current b against reference B, equal forms cancel
        assert np.abs(br.M0).max() <= 1e-15
        assert np.abs(br.Mbar0).max() <= 1e-15

    def test_bending_tangents_positive_semidefinite(self, glass_hyper, rng):
        m, f, _ = picture_frame_metric(1.2)
        c = CurvaturePoint(b_ab=oracles.random_spd(rng),
                           B_ab=oracles.random_spd(rng),
                           bbar_ab=oracles.random_spd(rng),
                           Bbar_ab=oracles.random_spd(rng),
                           c0=np.eye(2))
        br = moments_and_bending_tangents(m, f, c, glass_hyper)
        for T in (br.f_tan, br.fbar_tan):
            M = T.reshape(4, 4)
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert w.min() >= -1e-12 * max(1.0, w.max())
