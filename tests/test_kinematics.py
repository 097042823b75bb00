"""Surface kinematics tests.

Verifies: metric and fiber-pair validation, push-forward against a plain
Cartesian embedding, the structural tensor and its metric derivative
against central differences, the elastic/plastic angle split identities,
surface invariants, and the picture-frame map (length preservation, angle
cosine, crosshead travel and rate).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovenshear import (
    DegenerateFiberError,
    FRAME_FIBER_1,
    FRAME_FIBER_2,
    FiberState,
    InvalidMetricError,
    MetricPoint,
    RefFiberPair,
    angle_measures,
    angle_split,
    angle_split_metrics,
    crosshead_displacement,
    crosshead_rate,
    fiber_state,
    gamma_to_theta,
    picture_frame_deformation,
    picture_frame_dF_dtheta,
    picture_frame_metric,
    push_forward_fiber,
    split_angle_measures,
    structural_tensors,
    surface_invariants,
    theta_to_gamma,
)
from wovenshear.kinematics import CurvaturePoint

import oracles


def frame_pair():
    return RefFiberPair(L1=FRAME_FIBER_1.copy(), L2=FRAME_FIBER_2.copy(),
                        Theta12=0.0)


def random_point(rng):
    """Random current metric over the identity reference, frame fibers."""
    a = oracles.random_spd(rng)
    return MetricPoint.from_metrics(np.eye(2), a), frame_pair()


class TestMetricPoint:
    def test_from_metrics_inverts(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        m = MetricPoint.from_metrics(A, np.eye(2))
        assert np.allclose(m.A_inv @ m.A_ab, np.eye(2), atol=1e-15)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidMetricError):
            MetricPoint.from_metrics(np.array([[1.0, 0.2], [0.1, 1.0]]),
                                     np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidMetricError):
            MetricPoint.from_metrics(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                     np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidMetricError):
            MetricPoint.from_metrics(np.eye(3), np.eye(3))

    def test_rejects_stale_inverse(self):
        with pytest.raises(InvalidMetricError):
            MetricPoint(A_ab=2.0 * np.eye(2), a_ab=np.eye(2),
                        A_inv=np.eye(2))


class TestRefFiberPair:
    def test_from_directions_normalizes(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        f = RefFiberPair.from_directions([1.0, 0.0], [1.0, 1.0], A)
        assert f.L1 @ A @ f.L1 == pytest.approx(1.0, rel=1e-15)
        assert f.L2 @ A @ f.L2 == pytest.approx(1.0, rel=1e-15)
        assert f.Theta12 == pytest.approx(f.L1 @ A @ f.L2, rel=1e-15)

    def test_rejects_parallel(self):
        with pytest.raises(DegenerateFiberError):
            RefFiberPair.from_directions([1.0, 0.0], [2.0, 0.0], np.eye(2))


class TestPushForward:
    def test_matches_cartesian_embedding(self, rng):
        # metric pipeline vs plain embedding for random deformation gradients
        for _ in range(50):
            F = rng.uniform(-1.0, 1.0, size=(2, 2))
            if np.linalg.det(F) < 0.1:
                continue
            m = MetricPoint.from_metrics(np.eye(2), F.T @ F)
            v1 = np.array([np.cos(0.3), np.sin(0.3)])
            v2 = np.array([np.cos(1.9), np.sin(1.9)])
            f = RefFiberPair.from_directions(v1, v2, np.eye(2))
            fs = fiber_state(m, f)
            lam1, lam2, cos12 = oracles.embedded_fiber_measures(F, v1, v2)
            assert fs.lambda1 == pytest.approx(lam1, rel=1e-13)
            assert fs.lambda2 == pytest.approx(lam2, rel=1e-13)
            assert fs.theta12 == pytest.approx(cos12, rel=1e-12, abs=1e-13)

    def test_unit_current_directions(self, rng):
        m, f = random_point(rng)
        lam, l = push_forward_fiber(m, f.L1)
        assert l @ m.a_ab @ l == pytest.approx(1.0, rel=1e-14)
        assert lam == pytest.approx(np.sqrt(f.L1 @ m.a_ab @ f.L1), rel=1e-15)

    def test_angle_measures_difference_of_cosines(self, rng):
        m, f = random_point(rng)
        theta12, phi = angle_measures(m, f)
        assert phi == pytest.approx(theta12 - f.Theta12, abs=1e-16)


def theta12_of_metric(a, f):
    """Angle cosine as a raw function of the current metric."""
    m = MetricPoint.from_metrics(np.eye(2), a)
    return fiber_state(m, f).theta12


class TestStructuralTensors:
    def test_g12_is_cosine_gradient(self, rng):
        # delta theta12 = g12 : delta a, checked via central differences
        f = frame_pair()
        for _ in range(20):
            a = oracles.random_spd(rng)
            m = MetricPoint.from_metrics(np.eye(2), a)
            st_ = structural_tensors(m, fiber_state(m, f))
            fd = oracles.fd_metric_gradient(lambda x: theta12_of_metric(x, f),
                                            a, h=1e-7)
            assert np.abs(fd - st_.g12).max() <= 1e-8

    def test_g12_grad_matches_finite_differences(self, rng):
        f = frame_pair()
        def g12_of(a):
            m = MetricPoint.from_metrics(np.eye(2), a)
            return structural_tensors(m, fiber_state(m, f)).g12
        for _ in range(25):
            a = oracles.random_spd(rng)
            m = MetricPoint.from_metrics(np.eye(2), a)
            st_ = structural_tensors(m, fiber_state(m, f))
            fd = oracles.fd_metric_gradient(g12_of, a, h=1e-7)
            scale = np.abs(st_.g12_grad).max()
            assert np.abs(fd - st_.g12_grad).max() <= 1e-6 * scale

    def test_g12_grad_symmetries(self, rng):
        m, f = random_point(rng)
        G = structural_tensors(m, fiber_state(m, f)).g12_grad
        # minor symmetry in both index pairs and major symmetry across them
        assert np.abs(G - G.transpose(1, 0, 2, 3)).max() <= 1e-15
        assert np.abs(G - G.transpose(0, 1, 3, 2)).max() <= 1e-15
        assert np.abs(G - G.transpose(2, 3, 0, 1)).max() <= 1e-15

    def test_g12_symmetric(self, rng):
        m, f = random_point(rng)
        g12 = structural_tensors(m, fiber_state(m, f)).g12
        assert np.abs(g12 - g12.T).max() == 0.0


class TestAngleSplit:
    @given(phi_p=st.floats(-0.5, 0.5),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, phi_p, seed):
        """phi = phi_e + phi_p holds to 1e-14 for random states."""
        m, f = random_point(np.random.default_rng(seed))
        split = angle_split(m, f, phi_p)
        assert abs(split.phi - (split.phi_e + split.phi_p)) <= 1e-14

    def test_matches_direct_definitions(self, rng):
        # the split reproduces the plain cosine differences
        for _ in range(20):
            m, f = random_point(rng)
            phi_p = rng.uniform(-0.4, 0.4)
            theta12, phi_direct = angle_measures(m, f)
            split = angle_split(m, f, phi_p)
            assert abs(split.phi - phi_direct) <= 1e-12
            assert abs(split.phi_p - phi_p) <= 1e-12
            assert abs(split.phi_e - (theta12 - f.Theta12 - phi_p)) <= 1e-12

    def test_intermediate_metric_preserves_lengths(self, rng):
        # a_bar keeps unit fiber stretch while reproducing the current cosine
        m, f = random_point(rng)
        a_bar, a_hat = angle_split_metrics(m, f, 0.1)
        mb = MetricPoint.from_metrics(np.eye(2), a_bar)
        fsb = fiber_state(mb, f)
        fs = fiber_state(m, f)
        assert fsb.lambda1 == pytest.approx(1.0, abs=1e-13)
        assert fsb.lambda2 == pytest.approx(1.0, abs=1e-13)
        assert fsb.theta12 == pytest.approx(fs.theta12, abs=1e-13)
        mh = MetricPoint.from_metrics(np.eye(2), a_hat)
        fsh = fiber_state(mh, f)
        assert fsh.theta12 == pytest.approx(f.Theta12 + 0.1, abs=1e-13)

    def test_zero_plastic_angle_is_all_elastic(self, rng):
        m, f = random_point(rng)
        split = angle_split(m, f, 0.0)
        assert split.phi_p == pytest.approx(0.0, abs=1e-14)
        assert split.phi_e == pytest.approx(split.phi, abs=1e-14)

    def test_degenerate_pair_raises(self):
        m = MetricPoint.from_metrics(np.eye(2), np.eye(2))
        f = RefFiberPair(L1=np.array([1.0, 0.0]), L2=np.array([1.0, 1e-8]),
                         Theta12=1.0 - 1e-9)
        with pytest.raises(DegenerateFiberError):
            split_angle_measures(m, np.eye(2), np.eye(2), f)


class TestSurfaceInvariants:
    def test_membrane_invariants(self, rng):
        m, f = random_point(rng)
        inv = surface_invariants(m, f)
        assert inv.I1 == pytest.approx(np.trace(m.A_inv @ m.a_ab), rel=1e-14)
        fs = fiber_state(m, f)
        assert inv.Lambda[0] == pytest.approx(fs.lambda1 ** 2, rel=1e-14)
        assert inv.Lambda[1] == pytest.approx(fs.lambda2 ** 2, rel=1e-14)
        assert np.all(inv.K_n == 0.0) and np.all(inv.T_g == 0.0)

    def test_curvature_invariants_vanish_at_reference(self, rng):
        m, f = random_point(rng)
        b = oracles.random_spd(rng)
        c = CurvaturePoint(b_ab=b, B_ab=b.copy(), bbar_ab=b, Bbar_ab=b.copy(),
                           c0=np.eye(2))
        inv = surface_invariants(m, f, c)
        assert np.abs(inv.K_n).max() == 0.0
        assert np.abs(inv.K_g).max() == 0.0
        # twist compares current against reference forms, both equal here
        assert np.abs(inv.T_g).max() <= 1e-15

    def test_curvature_invariants_direct_contraction(self, rng):
        m, f = random_point(rng)
        b = oracles.random_spd(rng)
        B = oracles.random_spd(rng)
        c = CurvaturePoint(b_ab=b, B_ab=B, bbar_ab=0.5 * b, Bbar_ab=0.5 * B,
                           c0=np.array([[0.0, 1.0], [1.0, 0.0]]))
        inv = surface_invariants(m, f, c)
        for i, L in enumerate((f.L1, f.L2)):
            assert inv.K_n[i] == pytest.approx(L @ (b - B) @ L, rel=1e-14)
            assert inv.K_g[i] == pytest.approx(0.5 * L @ (b - B) @ L,
                                               rel=1e-14)
            c0i = c.c0[i]
            assert inv.T_g[i] == pytest.approx(c0i @ b @ L - L @ B @ c0i,
                                               rel=1e-13, abs=1e-15)


class TestPictureFrame:
    def test_square_state_is_identity(self):
        F = picture_frame_deformation(np.pi / 2.0)
        assert np.abs(F - np.eye(2)).max() <= 1e-15

    def test_fiber_lengths_preserved(self):
        # the design property of the rig: both stretches stay exactly one
        thetas = np.linspace(np.deg2rad(5.0), np.pi / 2.0, 101)[1:]
        f = frame_pair()
        for th in thetas:
            m, _, _ = picture_frame_metric(th)
            fs = fiber_state(m, f)
            assert abs(fs.lambda1 - 1.0) <= 1e-12
            assert abs(fs.lambda2 - 1.0) <= 1e-12
            assert abs(fs.theta12 - np.cos(th)) <= 1e-12

    def test_crosshead_displacement_frozen_value(self):
        d = crosshead_displacement(np.pi / 3.0, 1.0)
        assert d == pytest.approx(oracles.CROSSHEAD_D_THETA60_L1, rel=1e-15)
        # closed form of the corner map
        assert d == pytest.approx(2.0 * np.cos(np.pi / 6.0) - np.sqrt(2.0),
                                  rel=1e-13)

    def test_crosshead_rate_is_displacement_derivative(self):
        for th in (0.4, 0.9, 1.3, np.pi / 2.0 - 1e-3):
            fd = oracles.central_diff(
                lambda t: crosshead_displacement(t, 2.0), th, 1e-7)
            assert crosshead_rate(th, 2.0) == pytest.approx(fd, rel=1e-7)
            assert crosshead_rate(th, 2.0) < 0.0

    @pytest.mark.parametrize("L0", [1.0, 2.5])
    def test_crosshead_rate_is_corner_map_product(self, L0):
        # the broadcast rate reproduces x . v / |x| of the matrix corner map
        # bit for bit
        theta = np.linspace(1e-3, np.pi / 2.0, 2001)
        corner = np.array([0.0, np.sqrt(2.0) * L0])
        expect = []
        for th in theta:
            x = picture_frame_deformation(th) @ corner
            v = picture_frame_dF_dtheta(th) @ corner
            expect.append(x @ v / np.linalg.norm(x))
        assert np.array_equal(crosshead_rate(theta, L0), expect)

    def test_deformation_derivative(self):
        for th in (0.5, 1.0, 1.4):
            fd = (picture_frame_deformation(th + 1e-7)
                  - picture_frame_deformation(th - 1e-7)) / 2e-7
            assert np.abs(picture_frame_dF_dtheta(th) - fd).max() <= 1e-7

    def test_theta_domain_checked(self):
        for bad in (0.0, -0.1, np.pi / 2.0 + 0.01):
            with pytest.raises(ValueError):
                picture_frame_deformation(bad)

    def test_gamma_theta_round_trip(self):
        g = np.array([0.0, 10.0, 45.0, 89.0])
        assert np.allclose(theta_to_gamma(gamma_to_theta(g)), g, atol=1e-12)

    def test_metric_point_reference_is_identity(self):
        m, f, d = picture_frame_metric(1.0, L0=2.0)
        assert np.abs(m.A_ab - np.eye(2)).max() == 0.0
        assert f.Theta12 == 0.0
        assert d == pytest.approx(crosshead_displacement(1.0, 2.0), rel=1e-15)
