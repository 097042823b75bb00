"""Surface kinematics tests.

Verifies: the fiber-metric kernel (``_angle_gradient`` and
``_angle_hessian``) against a plain Cartesian embedding, its stretches as
the normalization of a reference fiber pair, its gradient and Hessian by
the metric in their chart forms against central differences, the
elastic/plastic angle split identities, and the picture-frame map
(length preservation, angle cosine, crosshead travel and rate).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wovenshear import (
    DegenerateFiberError,
    FRAME_FIBER_1,
    FRAME_FIBER_2,
    angle_split,
    crosshead_rate,
    gamma_to_theta,
    picture_frame_deformation,
    picture_frame_dF_dtheta,
    theta_to_gamma,
)
from wovenshear.kinematics import _angle_gradient, _angle_hessian

import oracles

# the frame fibers as rows, unit and orthogonal in the identity reference
FRAME_L = np.stack([FRAME_FIBER_1, FRAME_FIBER_2])


def kernel(a, L=FRAME_L):
    """Stretches, cosine, gradient and Hessian of the fiber-metric kernel
    for the fibers ``L`` under the metric ``a``."""
    C = oracles.fiber_metric(a, L)
    lam, theta12, gamma = _angle_gradient(C)
    return lam, theta12, gamma, _angle_hessian(C, gamma)


def chart(v, L=FRAME_L):
    """A Voigt gradient (3,) or Hessian (3, 3) by the fiber metric as the
    chart tensor of the same derivative by the metric."""
    M = oracles.fiber_dyads(L)
    if v.ndim == 1:
        return np.einsum("i,iab->ab", v, M)
    return np.einsum("ij,iab,jcd->abcd", v, M, M)


class TestRefFiberPair:
    """A reference fiber pair: two fibers unit against the reference
    metric and their cosine, as the kernel gives them."""

    def test_from_directions_normalizes(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        D = np.array([[1.0, 0.0], [1.0, 1.0]])
        lam, Theta12, _, _ = kernel(A, D)
        L = D / lam[:, None]
        assert L[0] @ A @ L[0] == pytest.approx(1.0, rel=1e-15)
        assert L[1] @ A @ L[1] == pytest.approx(1.0, rel=1e-15)
        assert Theta12 == pytest.approx(L[0] @ A @ L[1], rel=1e-15)

    def test_rejects_parallel(self):
        with pytest.raises(DegenerateFiberError):
            angle_split(np.eye(2), np.eye(2),
                        np.array([[1.0, 0.0], [2.0, 0.0]]), 0.0, 0.0)


class TestPushForward:
    def test_matches_cartesian_embedding(self, rng):
        # the fiber-metric kernel vs plain embedding for random deformation
        # gradients
        v1 = np.array([np.cos(0.3), np.sin(0.3)])
        v2 = np.array([np.cos(1.9), np.sin(1.9)])
        for _ in range(50):
            F = rng.uniform(-1.0, 1.0, size=(2, 2))
            if np.linalg.det(F) < 0.1:
                continue
            lam, theta12, _, _ = kernel(F.T @ F, np.stack([v1, v2]))
            lam1, lam2, cos12 = oracles.embedded_fiber_measures(F, v1, v2)
            assert lam[0] == pytest.approx(lam1, rel=1e-13)
            assert lam[1] == pytest.approx(lam2, rel=1e-13)
            assert theta12 == pytest.approx(cos12, rel=1e-12, abs=1e-13)

    def test_unit_current_directions(self, rng):
        a = oracles.random_spd(rng)
        lam, _, _, _ = kernel(a)
        for L, lam_I in zip(FRAME_L, lam):
            l = L / lam_I
            assert l @ a @ l == pytest.approx(1.0, rel=1e-14)
            assert lam_I == pytest.approx(np.sqrt(L @ a @ L), rel=1e-15)


def theta12_of_metric(a):
    """Angle cosine of the frame fibers as a raw function of the metric."""
    return kernel(a)[1]


class TestStructuralTensors:
    """The cosine's gradient and Hessian by the fiber metric, and their
    chart forms ``g12`` and ``g12_grad`` by the metric."""

    def test_g12_is_cosine_gradient(self, rng):
        # delta theta12 = g12 : delta a, checked via central differences
        for _ in range(20):
            a = oracles.random_spd(rng)
            g12 = chart(kernel(a)[2])
            fd = oracles.fd_metric_gradient(theta12_of_metric, a, h=1e-7)
            assert np.abs(fd - g12).max() <= 1e-8

    def test_g12_grad_matches_finite_differences(self, rng):
        def g12_of(a):
            return chart(kernel(a)[2])
        for _ in range(25):
            a = oracles.random_spd(rng)
            g12_grad = chart(kernel(a)[3])
            fd = oracles.fd_metric_gradient(g12_of, a, h=1e-7)
            scale = np.abs(g12_grad).max()
            assert np.abs(fd - g12_grad).max() <= 1e-6 * scale

    @given(c11=st.floats(0.5, 2.0), c22=st.floats(0.5, 2.0),
           cos=st.floats(-0.95, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_voigt_derivatives_match_central_differences(self, c11, c22,
                                                          cos):
        """gamma and Gamma of the fiber-metric body are the first and
        second central differences of theta12(C) = C12 / sqrt(C11 C22)."""
        C = np.array([c11, c22, cos * np.sqrt(c11 * c22)])
        lam, theta12, gamma = _angle_gradient(C)
        Gamma = _angle_hessian(C, gamma)
        cosine = oracles.fiber_metric_cosine
        assert theta12 == pytest.approx(cosine(C), rel=1e-14, abs=1e-15)
        assert np.array_equal(lam, np.sqrt(C[:2]))
        assert np.array_equal(Gamma, Gamma.T)
        e = np.eye(3)
        fd = [oracles.central_diff(lambda t: cosine(C + t * e[i]), 0.0, 1e-6)
              for i in range(3)]
        assert np.abs(fd - gamma).max() <= 1e-8 * (1.0 + np.abs(gamma).max())
        h = 1e-4
        fd2 = np.array([[(cosine(C + h * (e[i] + e[j]))
                          - cosine(C + h * (e[i] - e[j]))
                          - cosine(C - h * (e[i] - e[j]))
                          + cosine(C - h * (e[i] + e[j]))) / (4.0 * h * h)
                         for j in range(3)] for i in range(3)])
        assert np.abs(fd2 - Gamma).max() <= 1e-6 * (1.0 + np.abs(Gamma).max())

    def test_g12_grad_symmetries(self, rng):
        G = chart(kernel(oracles.random_spd(rng))[3])
        # minor symmetry in both index pairs and major symmetry across them
        assert np.abs(G - G.transpose(1, 0, 2, 3)).max() <= 1e-15
        assert np.abs(G - G.transpose(0, 1, 3, 2)).max() <= 1e-15
        assert np.abs(G - G.transpose(2, 3, 0, 1)).max() <= 1e-15

    def test_g12_symmetric(self, rng):
        g12 = chart(kernel(oracles.random_spd(rng))[2])
        assert np.abs(g12 - g12.T).max() == 0.0


class TestAngleSplit:
    """``angle_split`` over the identity reference and the frame fibers,
    whose reference cosine is 0."""

    @given(phi_p=st.floats(-0.5, 0.5),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, phi_p, seed):
        """phi = phi_e + phi_p holds to 1e-14 for random states."""
        a = oracles.random_spd(np.random.default_rng(seed))
        phi, phi_e, phi_p, _, _ = angle_split(np.eye(2), a, FRAME_L, 0.0,
                                              phi_p)
        assert abs(phi - (phi_e + phi_p)) <= 1e-14

    def test_matches_direct_definitions(self, rng):
        # the split reproduces the plain cosine differences
        for _ in range(20):
            a = oracles.random_spd(rng)
            phi_p = rng.uniform(-0.4, 0.4)
            theta12 = kernel(a)[1]
            phi, phi_e, split_p, _, _ = angle_split(np.eye(2), a, FRAME_L,
                                                    0.0, phi_p)
            assert abs(phi - theta12) <= 1e-12
            assert abs(split_p - phi_p) <= 1e-12
            assert abs(phi_e - (theta12 - phi_p)) <= 1e-12

    def test_intermediate_metric_preserves_lengths(self, rng):
        # a_bar keeps unit fiber stretch while reproducing the current cosine
        a = oracles.random_spd(rng)
        _, _, _, a_bar, a_hat = angle_split(np.eye(2), a, FRAME_L, 0.0, 0.1)
        lam_bar, theta12_bar, _, _ = kernel(a_bar)
        assert lam_bar[0] == pytest.approx(1.0, abs=1e-13)
        assert lam_bar[1] == pytest.approx(1.0, abs=1e-13)
        assert theta12_bar == pytest.approx(kernel(a)[1], abs=1e-13)
        assert kernel(a_hat)[1] == pytest.approx(0.1, abs=1e-13)

    def test_zero_plastic_angle_is_all_elastic(self, rng):
        phi, phi_e, phi_p, _, _ = angle_split(
            np.eye(2), oracles.random_spd(rng), FRAME_L, 0.0, 0.0)
        assert phi_p == pytest.approx(0.0, abs=1e-14)
        assert phi_e == pytest.approx(phi, abs=1e-14)

    def test_degenerate_pair_raises(self):
        L = np.array([[1.0, 0.0], [1.0, 1e-8]])
        with pytest.raises(DegenerateFiberError):
            angle_split(np.eye(2), np.eye(2), L, 1.0 - 1e-9, 0.0)


class TestPictureFrame:
    def test_square_state_is_identity(self):
        F = picture_frame_deformation(np.pi / 2.0)
        assert np.abs(F - np.eye(2)).max() <= 1e-15

    def test_fiber_lengths_preserved(self):
        # the design property of the rig: both stretches stay exactly one
        thetas = np.linspace(np.deg2rad(5.0), np.pi / 2.0, 101)[1:]
        for th in thetas:
            F = picture_frame_deformation(th)
            lam, theta12, _, _ = kernel(F.T @ F)
            assert abs(lam[0] - 1.0) <= 1e-12
            assert abs(lam[1] - 1.0) <= 1e-12
            assert abs(theta12 - np.cos(th)) <= 1e-12

    def test_crosshead_displacement_frozen_value(self):
        # the pull-axis corner-to-corner change under the corner map
        corner = np.array([0.0, np.sqrt(2.0)])
        d = float(np.linalg.norm(picture_frame_deformation(np.pi / 3.0)
                                 @ corner) - np.linalg.norm(corner))
        assert d == pytest.approx(oracles.CROSSHEAD_D_THETA60_L1, rel=1e-15)
        # closed form of the corner map
        assert d == pytest.approx(oracles.crosshead_travel(np.pi / 3.0),
                                  rel=1e-13)

    def test_crosshead_rate_is_displacement_derivative(self):
        for th in (0.4, 0.9, 1.3, np.pi / 2.0 - 1e-3):
            fd = oracles.central_diff(
                oracles.crosshead_travel, th, 1e-7)
            assert crosshead_rate(th) == pytest.approx(fd, rel=1e-7)
            assert crosshead_rate(th) < 0.0

    @pytest.mark.parametrize("power", [1.0, 2.5])
    def test_crosshead_rate_is_corner_map_product(self, power):
        # the broadcast rate reproduces x . v / |x| of the matrix corner map
        # bit for bit; power > 1 crowds the angles toward the collapsed end
        u = np.linspace(0.0, 1.0, 2001)
        theta = 1e-3 + (np.pi / 2.0 - 1e-3) * u ** power
        corner = np.array([0.0, np.sqrt(2.0)])
        expect = []
        for th in theta:
            x = picture_frame_deformation(th) @ corner
            v = picture_frame_dF_dtheta(th) @ corner
            expect.append(x @ v / np.linalg.norm(x))
        assert np.array_equal(crosshead_rate(theta), expect)

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
