"""Constitutive kernel tests.

Verifies: hardening-curve values and admissibility, parameter
(de)serialization, the return map ``return_map_batch`` and the slip
solve it shares with the interval solve against an independent bisection
oracle, from a cold and a warm start (with a Newton step that leaves the
bracket, on a set with mu_f != 1), the algorithmic tangent against
central differences, the equivalence of a batch and its points one at a
time for the kinematics and return map bodies the FE element kernel
evaluates, and the incremental angle driver against the stepped
backward-Euler chain.  The
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
    drive_angle_path,
    f_iso,
    f_iso_prime,
    load_params,
    params_from_dict,
    params_to_dict,
    replace_params,
    return_map_batch,
    save_params,
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
        # the trial yield value |tau| - f_iso(q) is negative (elastic) at
        # zero stress and positive (plastic) at a trial stress of 1
        out = return_map_batch([0.0, 1.0 / glass_params.mu_f], np.zeros(2),
                               np.zeros(2), glass_params)
        assert out.plastic.tolist() == [False, True]


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

    @pytest.mark.parametrize("updates", [
        {"C_h": 1.0, "c_h": 1e300},        # q^c at q = 1.5
        {"A_h": 1.0, "a_h": 1e300},        # (a q)^2 in f_iso'
        {"A_h": 1e308, "a_h": 1e10},       # A asinh(a q)
    ], ids=["c-1e300", "a-1e300", "A-1e308"])
    def test_rejects_hardening_out_of_range(self, updates):
        # a set whose hardening curve or slope leaves the range of doubles
        # on the check grid is refused as such, with no RuntimeWarning
        with pytest.raises(ValueError, match="leaves the range of doubles"):
            ElastoplasticParams(mu_f=1.0, tau_y=0.0, **updates)

    def test_rejects_mu_f_whose_square_overflows(self, demo_params):
        # the return map's tangent takes mu_f ** 2
        with pytest.raises(ValueError, match="mu_f = 1e\\+300 is too large"):
            dataclasses.replace(demo_params, mu_f=1e300)
        p = dataclasses.replace(demo_params, mu_f=1e150)
        assert np.isfinite(return_map_batch(
            np.array([0.5]), np.zeros(1), np.zeros(1), p).dtau_dphi).all()

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
        out = return_map_batch([1e-5], [0.0], [0.0], glass_params)
        assert not out.plastic[0]
        assert out.tau[0] == 5.0 * 1e-5
        assert out.phi_p[0] == 0.0 and out.q[0] == 0.0
        assert out.dtau_dphi[0] == glass_params.mu_f
        assert out.iterations == 0 and out.residual[0] == 0.0

    def test_plastic_frozen_oracle(self, glass_params):
        out = return_map_batch([0.1], [0.0], [0.0], glass_params)
        assert out.plastic[0]
        assert out.q[0] == pytest.approx(
            oracles.DELTA_ALPHA_GLASS_PHI0P1, rel=1e-12)
        assert out.tau[0] == pytest.approx(oracles.TAU_GLASS_PHI0P1,
                                           rel=1e-12)

    def test_matches_independent_bisection(self, glass_params, rng):
        p = glass_params
        phis = rng.uniform(0.05, 0.7, size=10)
        out = return_map_batch(phis, np.zeros(10), np.zeros(10), p)
        for phi, q in zip(phis, out.q):
            root = oracles.bisect_root(
                lambda x: p.mu_f * phi - p.mu_f * x - ref_f_iso(x, p),
                0.0, float(phi))
            assert q == pytest.approx(root, rel=1e-10)

    def test_consistency_at_solution(self, glass_params):
        p = glass_params
        out = return_map_batch([0.3], [0.0], [0.0], p)
        q = out.q[0]
        # returned stress sits on the yield surface
        scale = max(p.mu_f, f_iso(q, p))
        assert abs(abs(out.tau[0]) - f_iso(q, p)) <= 1e-11 * scale
        # the slip equation at the returned slip, polished to round-off; at
        # a virgin state the hardening variable is the slip
        assert ref_slip_residual(p.mu_f * 0.3, q, p) <= 1e-14 * scale
        assert out.iterations > 0

    def test_stress_elastic_relation_exact(self, glass_params):
        out = return_map_batch([0.01, 0.2, -0.35], np.zeros(3), np.zeros(3),
                               glass_params)
        assert np.array_equal(out.tau, glass_params.mu_f * out.phi_e)

    def test_sign_symmetry(self, glass_params):
        out = return_map_batch([0.4, -0.4], np.zeros(2), np.zeros(2),
                               glass_params)
        (tp, tm), (pp, pm), (qp, qm) = out.tau, out.phi_p, out.q
        assert tm == pytest.approx(-tp, rel=1e-14)
        assert qm == pytest.approx(qp, rel=1e-14)
        assert pm == pytest.approx(-pp, rel=1e-14)

    def test_tangent_matches_finite_differences(self, glass_params):
        # one call from the virgin state at phi - h, phi and phi + h
        h = 1e-6
        phis = np.array([0.1, 0.3, 0.6])
        out = return_map_batch((phis[:, None] + [-h, 0.0, h]).ravel(),
                               np.zeros(9), np.zeros(9), glass_params)
        tau, dtau = out.tau.reshape(3, 3), out.dtau_dphi[1::3]
        assert out.plastic.all()
        fd = (tau[:, 2] - tau[:, 0]) / (2.0 * h)
        assert dtau == pytest.approx(fd, rel=1e-5)
        assert np.all((0.0 < dtau) & (dtau < glass_params.mu_f))

    @given(phi=st.floats(-0.8, 0.8), q0=st.floats(0.0, 0.5),
           phi_p0=st.floats(-0.3, 0.3))
    @settings(max_examples=120, deadline=None)
    def test_step_invariants(self, phi, q0, phi_p0, glass_params):
        """Split additivity, monotone slip, admissibility, dissipation,
        and a committed history that the step leaves as it was."""
        phi_p_in, q_in = np.array([phi_p0]), np.array([q0])
        out = return_map_batch([phi], phi_p_in, q_in, glass_params)
        assert phi_p_in[0] == phi_p0 and q_in[0] == q0
        phi_p, q, tau = out.phi_p[0], out.q[0], out.tau[0]
        assert abs(phi - (out.phi_e[0] + phi_p)) <= 1e-14
        assert q >= q0
        scale = max(glass_params.mu_f, f_iso(q, glass_params))
        assert abs(tau) - f_iso(q, glass_params) <= 1e-11 * scale
        # plastic dissipation tau * dphi_p is nonnegative
        assert tau * (phi_p - phi_p0) >= -1e-16

    def test_batch_matches_scalar(self, glass_params, rng):
        # points never mix: a batch equals its points one call each
        phi = rng.uniform(-0.6, 0.6, size=40)
        out = return_map_batch(phi, np.zeros(40), np.zeros(40), glass_params)
        for k in range(40):
            one = return_map_batch(phi[k:k + 1], [0.0], [0.0], glass_params)
            assert out.tau[k] == one.tau[0]
            assert out.phi_e[k] == one.phi_e[0]

    def test_repeat_at_the_committed_angle(self, soft_params):
        # a returned state sits on the yield surface, so the same angle
        # can test plastic again by round-off; the slip is then below the
        # round-off of g, and the polish step must not take it to zero
        phi = np.array([0.14134978412825766, 0.12714984853925596,
                        0.11199279991512828, 0.12332735646227606])
        first = return_map_batch(phi, np.zeros(4), np.zeros(4), soft_params)
        again = return_map_batch(phi, first.phi_p, first.q, soft_params)
        assert np.all(again.q >= first.q)
        assert again.tau == pytest.approx(first.tau, rel=1e-15)

    def test_convergence_error_carries_residual(self, glass_params,
                                                monkeypatch):
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            return_map_batch([0.5], [0.0], [0.0], glass_params)
        assert err.value.residual is not None
        assert err.value.residual > 0.0
        # the first unconverged point, in the batch's own indexing even
        # though the slip solve sees only the plastic points
        with pytest.raises(ConvergenceError) as err:
            return_map_batch([0.0, 1e-6, 0.5, -0.3], np.zeros(4),
                             np.zeros(4), glass_params)
        assert err.value.step_index == 2

    def test_field_positions_the_tracer_reads(self):
        # perfbench/spans.py reads these fields of the result by position
        fields = material.BatchReturn._fields
        assert (fields[0], fields[6], fields[7]) == ("tau", "plastic",
                                                     "iterations")

    def test_state_validation(self, glass_params):
        # a committed history with a negative hardening variable is refused
        with pytest.raises(ValueError, match="q must be >= 0"):
            return_map_batch([0.0, 0.2], np.zeros(2), [0.1, -0.1],
                             glass_params)


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

    @pytest.mark.parametrize("start", ["warm", "cold"])
    def test_bracket_with_mu_f_below_one(self, start):
        # mu_f = 0.5 and a steep tanh term that has flattened by q = 0.05.
        # Warm: from x0 = t / mu_f, far above a root at 0.005, the Newton
        # step lands below 0, outside the bracket, so the solve bisects.
        # Cold: the root at 1 lies past mu_f t, so only a bracket reaching
        # t / mu_f holds it
        p = ElastoplasticParams(mu_f=0.5, tau_y=0.0, A_h=0.01, a_h=1.0,
                                B_h=1.0, b_h=100.0, C_h=0.1, c_h=3.0)
        mu = p.mu_f
        x_true = 0.005 if start == "warm" else 1.0
        t = mu * x_true + ref_f_iso(x_true, p)
        root, tol = bisection_slip(t, 0.0, p)
        if start == "warm":
            x0 = t / mu
            g = t - mu * x0 - ref_f_iso(x0, p)
            slope = mu + oracles.central_diff(lambda q: ref_f_iso(q, p), x0,
                                              1e-6)
            assert x0 + g / slope < 0.0
            x0 = np.array([x0])
        else:
            assert root > mu * t
            x0 = None
        # g(0) = t - f_iso(0) = t, since tau_y = 0
        x, res, _, _ = _slip_solve(np.array([t]), 0.0, np.array([t]), p, x0)
        assert abs(x[0] - root) <= tol
        assert res[0] <= 1e-14 * max(mu, float(f_iso(x[0], p)))

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
        """One return map per monotone run equals the return map stepped
        along the path one point a call: a loading run followed by repeated
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
        for got, want in zip((res.tau, res.phi_e, res.phi_p, res.q),
                             oracles.stepped_return_map(path, p)):
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
        calls that the finite-difference checks test and of size-1
        ``return_map_batch`` calls, on elastic and plastic points."""
        n = 64
        points = []
        for _ in range(n):
            A = oracles.random_spd(rng)
            D = rng.normal(size=(2, 2))
            # the directions as a fiber pair unit against A
            lam, Theta12, _ = _angle_gradient(oracles.fiber_metric(A, D))
            C = oracles.fiber_metric(oracles.random_spd(rng),
                                     D / lam[:, None])
            points.append((C, Theta12, (rng.uniform(-0.1, 0.1),
                                        rng.uniform(0.0, 1.0))))
        C = np.stack([C for C, _, _ in points], axis=-1)
        lam, theta12, gamma = _angle_gradient(C)
        Gamma = _angle_hessian(C, gamma)
        Theta12 = np.array([T for _, T, _ in points])
        history = np.array([h for _, _, h in points]).T
        rm = return_map_batch(theta12 - Theta12, *history, glass_params)
        tau, plastic = rm[0], rm[6]
        assert plastic.any() and not plastic.all()

        for k, (C_k, Theta12_k, (phi_p_k, q_k)) in enumerate(points):
            lam_k, theta12_k, gamma_k = _angle_gradient(C_k)
            assert np.array_equal(lam_k, lam[:, k])
            assert theta12_k == theta12[k]
            assert np.array_equal(gamma_k, gamma[:, k])
            assert np.array_equal(_angle_hessian(C_k, gamma_k),
                                  Gamma[..., k])
            one = return_map_batch([theta12_k - Theta12_k], [phi_p_k], [q_k],
                                   glass_params)
            assert one.plastic[0] == plastic[k] and one.tau[0] == tau[k]
