"""Constitutive kernel tests.

Verifies: hardening-curve values and admissibility, parameter
(de)serialization, the return map and the slip solve it shares with the
interval solve against an independent bisection oracle, from a cold and
a warm start, the algorithmic tangent against central differences,
batch/one-point equivalence of the kinematics and return map bodies the
FE element kernel evaluates, and the incremental angle driver.  The
energy/stress consistency of the membrane response is checked on the
element kernel itself, in ``test_fe.py``.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovenshear import (
    ConvergenceError,
    ElastoplasticParams,
    HyperelasticParams,
    PlasticState,
    drive_angle_path,
    f_iso,
    f_iso_prime,
    load_params,
    params_from_dict,
    params_to_dict,
    replace_params,
    return_map,
    return_map_batch,
    save_params,
    yield_function,
)
from wovenshear import material
from wovenshear.kinematics import _angle_gradient, _angle_hessian
from wovenshear.material import PARAM_JSON_KEYS, _f_iso_grad, _slip_solve

import oracles


def ref_f_iso(q, p):
    return oracles.f_iso_ref(q, p.tau_y, p.A_h, p.a_h, p.B_h, p.b_h,
                             p.C_h, p.c_h)


def ref_slip_residual(t, x, p):
    return oracles.slip_residual(t, x, p.mu_f, p.tau_y, p.A_h, p.a_h, p.B_h,
                                 p.b_h, p.C_h, p.c_h)


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

    @pytest.mark.parametrize("b_h", [700.0, 1e5])
    def test_large_b_no_overflow_warning(self, glass_params, b_h):
        # cosh(b q)^2 overflows once b q passes about 355: the terms of
        # f_iso' and of d f_iso / d b that divide by it are then 0, with no
        # RuntimeWarning (an error under -W error::RuntimeWarning)
        q = np.array([0.0, 0.01, 0.5, 0.6, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = dataclasses.replace(glass_params, b_h=b_h)
            prime = f_iso_prime(q, p)
            grad = _f_iso_grad(q, p)
            prime_end = f_iso_prime(1.5, p)
        saturated = p.b_h * q > 360.0      # where cosh(b q)^2 is inf
        rest = (p.A_h * p.a_h / np.sqrt(1.0 + (p.a_h * q) ** 2)
                + p.C_h * p.c_h * np.power(q, p.c_h - 1.0))
        assert np.all(np.isfinite(prime)) and np.all(prime > 0.0)
        assert np.array_equal(prime[saturated], rest[saturated])
        assert prime_end == rest[-1]
        assert prime[0] == p.A_h * p.a_h + p.B_h * p.b_h
        assert np.all(grad["b"][saturated] == 0.0)
        assert all(np.all(np.isfinite(v)) for v in grad.values())

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
        out = return_map_batch([1e-5], [0.0], [0.0], glass_params)
        assert out.iterations == 0 and out.residual[0] == 0.0

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
        # the slip equation at the returned slip, polished to round-off; at
        # a virgin state the hardening variable is the slip
        assert ref_slip_residual(glass_params.mu_f * 0.3, sr.new_state.q,
                                 glass_params) <= 1e-14 * scale
        assert return_map_batch([0.3], [0.0], [0.0],
                                glass_params).iterations > 0

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
        # the first unconverged point, in the batch's own indexing even
        # though the slip solve sees only the plastic points
        with pytest.raises(ConvergenceError) as err:
            return_map_batch([0.0, 1e-6, 0.5, -0.3], np.zeros(4),
                             np.zeros(4), glass_params)
        assert err.value.step_index == 2

    def test_state_validation(self):
        with pytest.raises(ValueError):
            PlasticState(q=-0.1)


def bisection_slip(t, q, p):
    """Root of the slip equation ``g(x) = t - mu_f x - f_iso(q + x)`` by
    the oracles' bisection, and how closely a solve can fix it."""
    mu = p.mu_f
    root = oracles.bisect_root(
        lambda s: t - mu * s - ref_f_iso(q + s, p), 0.0, t / mu)
    # g(x) carries round-off of about eps (t + f_iso'(q + x) (q + x)),
    # which fixes the root only to that over the slope mu + f_iso'
    eps = np.finfo(float).eps
    hard = float(f_iso_prime(q + root, p))
    tol = 4.0 * (np.spacing(root)
                 + eps * (t + hard * (q + root)) / (mu + hard))
    return root, tol


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
        root, tol = bisection_slip(t, q, p)
        assert abs(x[0] - root) <= tol
        assert res[0] <= 1e-14 * max(mu, float(f_iso(q + x[0], p)))
        assert its[0] >= 1

    @given(name=st.sampled_from(["glass", "soft", "demo"]),
           q=st.one_of(st.just(0.0), st.floats(1e-4, 0.6)),
           log_inc=st.floats(-9.0, 0.0),
           start=st.sampled_from(["zero", "exact", "perturbed", "above"]),
           rel=st.floats(-0.5, 0.5).filter(lambda r: r != 0.0))
    @settings(max_examples=200, deadline=None)
    def test_warm_start_matches_bisection(self, name, q, log_inc, start,
                                          rel, glass_params, soft_params,
                                          demo_params):
        # a start slip only moves the first iterate: the root, its
        # tolerance and the residual bound are the cold test's
        p = {"glass": glass_params, "soft": soft_params,
             "demo": demo_params}[name]
        mu = p.mu_f
        fy = float(f_iso(q, p))
        t = mu * (fy / mu + 10.0 ** log_inc)
        root, tol = bisection_slip(t, q, p)
        x0 = {"zero": 0.0, "exact": root, "perturbed": root * (1.0 + rel),
              "above": (t / mu) * (2.0 + rel)}[start]
        x, res, its, _ = _slip_solve(np.array([t]), q, np.array([t - fy]), p,
                                     np.array([x0]))
        assert abs(x[0] - root) <= tol
        assert res[0] <= 1e-14 * max(mu, float(f_iso(q + x[0], p)))
        if start == "exact":
            assert its[0] == 0

    def test_warm_start_on_points_now_elastic(self, soft_params, rng):
        # a start slip on a point whose trial state is elastic (unloading,
        # or inside the yield surface) changes nothing there
        p = soft_params
        n = 64
        q = rng.uniform(0.0, 0.5, n)
        phi_p = rng.uniform(-0.1, 0.1, n)
        reach = f_iso(q, p) / p.mu_f
        phi = phi_p + rng.choice([-1.0, 1.0], n) * reach * np.where(
            np.arange(n) % 2 == 0, rng.uniform(0.0, 0.99, n),
            rng.uniform(1.01, 2.0, n))
        cold = return_map_batch(phi, phi_p, q, p)
        warm = return_map_batch(phi, phi_p, q, p,
                                rng.uniform(0.0, 0.3, n))
        elastic = ~cold.plastic
        assert np.array_equal(warm.plastic, cold.plastic)
        assert elastic.any() and not elastic.all()
        for a, b in zip(warm[:-2], cold[:-2]):
            assert np.array_equal(a[elastic], b[elastic])
        for k in np.flatnonzero(~elastic):
            t = p.mu_f * abs(phi[k] - phi_p[k])
            root, tol = bisection_slip(t, q[k], p)
            assert abs((warm.q[k] - q[k]) - root) <= tol

    @pytest.mark.parametrize("warm", [False, True])
    def test_all_plastic_batch_equals_mixed(self, demo_params, rng, warm):
        # the all-plastic batch skips the gather and scatter of the plastic
        # points, and must give the same bits as a batch that needs them
        n = 32
        phi = rng.uniform(0.05, 0.6, n) * rng.choice([-1.0, 1.0], n)
        q = rng.uniform(0.0, 0.3, n)
        slip0 = rng.uniform(0.0, 0.2, n) if warm else None
        alone = return_map_batch(phi, np.zeros(n), q, demo_params, slip0)
        assert alone.plastic.all()
        # tau_y = 0: a zero trial angle at q = 0 is elastic
        mixed = return_map_batch(
            np.r_[phi, 0.0], np.zeros(n + 1), np.r_[q, 0.0], demo_params,
            None if slip0 is None else np.r_[slip0, 0.3])
        assert not mixed.plastic[-1]
        for a, b in zip(alone[:-1], mixed[:-1]):
            assert np.array_equal(a, b[:n])
        assert alone.iterations == mixed.iterations


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
        assert np.all(np.diff(res.q) >= 0.0)

    @pytest.mark.parametrize("case", ["glass", "demo", "walk"])
    def test_equals_stepwise_backward_euler(self, case, glass_params,
                                            demo_params, soft_params, rng):
        """One return map per monotone run equals the scalar return map
        stepped along the path: a loading run followed by repeated
        angles and turns, and a random walk with zero steps."""
        if case == "walk":
            p = soft_params
            path = np.clip(np.cumsum(rng.choice([-0.005, 0.0, 0.005], 2000)),
                           -0.6, 0.6)
        else:
            p = glass_params if case == "glass" else demo_params
            path = np.r_[np.linspace(0.0, 0.4, 41)[1:],
                         0.45, 0.45, 0.2, 0.2, 0.1, 0.3]
        res = drive_angle_path(path, p)
        state = PlasticState()
        rows = []
        for phi in path:
            sr = return_map(float(phi), state, p)
            state = sr.new_state
            rows.append((sr.tau, sr.phi_e, state.phi_p, state.q))
        for got, want in zip((res.tau, res.phi_e, res.phi_p, res.q),
                             np.transpose(rows)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_slip_failure_is_located(self, glass_params, monkeypatch):
        # the first two steps are elastic; one slip sweep cannot converge
        # the plastic third, which in the second path lies inside a run
        # that starts at step 1
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        for path in ([0.0, 0.0, 0.5, 0.6], [0.0, 1e-6, 0.5, 0.6]):
            with pytest.raises(ConvergenceError) as err:
                drive_angle_path(path, glass_params)
            assert err.value.step_index == 2 and err.value.phi == 0.5
            assert "phi_path[2] = 0.5:" in str(err.value)
            cause = err.value.__cause__
            assert isinstance(cause, ConvergenceError)
            assert err.value.residual == cause.residual > 0.0


class TestMembraneResponse:
    def test_array_bodies_equal_scalar_loop(self, glass_params, rng):
        """The broadcast bodies the FE element kernel runs on a stack of
        fiber metrics, ``_angle_gradient``, ``_angle_hessian`` and
        ``return_map_batch``, equal, bit for bit, a loop of the one-point
        calls that the finite-difference checks test and of the scalar
        ``return_map``, on elastic and plastic points."""
        n = 64
        points = []
        for _ in range(n):
            A = oracles.random_spd(rng)
            D = rng.normal(size=(2, 2))
            # the directions as a fiber pair unit against A
            lam, Theta12, _ = _angle_gradient(oracles.fiber_metric(A, D))
            C = oracles.fiber_metric(oracles.random_spd(rng),
                                     D / lam[:, None])
            points.append((C, Theta12,
                           PlasticState(phi_p=rng.uniform(-0.1, 0.1),
                                        q=rng.uniform(0.0, 1.0))))
        C = np.stack([C for C, _, _ in points], axis=-1)
        lam, theta12, gamma = _angle_gradient(C)
        Gamma = _angle_hessian(C, gamma)
        Theta12 = np.array([T for _, T, _ in points])
        history = [np.array([getattr(s, k) for _, _, s in points])
                   for k in ("phi_p", "q")]
        rm = return_map_batch(theta12 - Theta12, *history, glass_params)
        tau, plastic = rm[0], rm[6]
        assert plastic.any() and not plastic.all()

        for k, (C_k, Theta12_k, state) in enumerate(points):
            lam_k, theta12_k, gamma_k = _angle_gradient(C_k)
            assert np.array_equal(lam_k, lam[:, k])
            assert theta12_k == theta12[k]
            assert np.array_equal(gamma_k, gamma[:, k])
            assert np.array_equal(_angle_hessian(C_k, gamma_k),
                                  Gamma[..., k])
            sr = return_map(theta12_k - Theta12_k, state, glass_params)
            assert sr.is_plastic == plastic[k] and sr.tau == tau[k]
