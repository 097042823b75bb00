"""Surface kinematics for a pair of fiber families on a deforming membrane.

The model is written in the fiber metric ``C = (C11, C22, C12)``, the
current metric's components ``C_IJ = L_I . a . L_J`` on the reference
fibers ``L_I``, in Voigt order.  Its stretches, the angle cosine
``theta12 = C12 / (lam1 lam2)`` and the cosine's first and second
derivatives by ``C`` make one batched kernel, which the membrane elements
evaluate at every Gauss point.  All angle measures are cosines, not
radians, so the shear variable phi = theta12 - Theta12 is a difference of
cosines; :func:`angle_split` splits it through intermediate metrics.  The
picture-frame helpers map the frame opening angle theta (radians between
the fiber families) to the homogeneous deformation a square fabric patch
experiences in the rig.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateFiberError",
    "angle_split",
    "picture_frame_deformation",
    "picture_frame_dF_dtheta",
    "crosshead_rate",
    "gamma_to_theta",
    "theta_to_gamma",
    "FRAME_FIBER_1",
    "FRAME_FIBER_2",
]


class DegenerateFiberError(ValueError):
    """Raised when the two fiber families are (numerically) parallel."""


def _angle_gradient(C):
    """Stretches ``lam`` (2, ...), cosine ``theta12 = C12 / (lam1 lam2)``
    and its gradient ``gamma`` (3, ...) by the fiber metric ``C`` (3, ...).
    With ``h_I = 1 / (2 C_II)`` and ``r = 1 / (lam1 lam2)`` the gradient is
    ``(-theta12 h1, -theta12 h2, r)``."""
    lam = np.sqrt(C[:2])
    r12 = 1.0 / (lam[0] * lam[1])
    theta12 = C[2] * r12
    th = theta12 * (0.5 / C[:2])
    return lam, theta12, np.concatenate([-th, r12[None]])


def _angle_hessian(C, gamma):
    """Hessian ``Gamma`` (3, 3, ...) of the cosine by the fiber metric
    ``C``, from the gradient ``gamma`` of :func:`_angle_gradient`: entries
    ``3 theta12 h_I^2``, ``theta12 h1 h2``, ``-r h_I`` and zero at
    ``(C12, C12)``."""
    h = 0.5 / C[:2]
    th = -gamma[:2]
    Gamma = np.zeros((3,) + C.shape)
    Gamma[[0, 1], [0, 1]] = 3.0 * th * h
    Gamma[0, 1] = Gamma[1, 0] = th[0] * h[1]
    Gamma[:2, 2] = Gamma[2, :2] = -gamma[2] * h
    return Gamma


def angle_split(A, a, L, Theta12, phi_p):
    """Elastic/plastic split of the angle change via intermediate metrics.

    ``A`` and ``a`` (2, 2) are the reference and current metrics, the rows
    of ``L`` (2, 2) the reference fibers, unit against ``A`` at the
    reference cosine ``Theta12``, and ``phi_p`` the plastic angle.
    ``a_bar`` reproduces the current fiber cosine at unit stretch (it is
    the fiber-length-preserving part of the current metric); ``a_hat``
    additionally replaces the fiber angle by its plastically rotated value
    ``Theta12 + phi_p``.  Both are assembled on the dual fiber basis.
    ``phi``, ``phi_e`` and ``phi_p`` are the contractions of the metric
    differences with the primal fiber dyad ``L1 (x) L2``;
    ``phi = phi_e + phi_p`` holds exactly because the three differences
    telescope.  Returns ``(phi, phi_e, phi_p, a_bar, a_hat)``.

    Raises
    ------
    DegenerateFiberError
        If the reference fiber metric is singular (parallel families).
    """
    Theta_IJ = L @ A @ L.T                    # reference fiber metric
    det = Theta_IJ[0, 0] * Theta_IJ[1, 1] - Theta_IJ[0, 1] * Theta_IJ[1, 0]
    if abs(det) < 1e-10:
        raise DegenerateFiberError(
            f"fiber metric is singular (det = {det:.3e}); families are parallel"
        )
    # covariant components of the dual fiber basis
    Lsup_cov = np.linalg.inv(Theta_IJ) @ L @ A
    C = L @ a @ L.T
    theta12 = _angle_gradient(np.array([C[0, 0], C[1, 1], C[0, 1]]))[1]

    def on_dual_basis(cos12):
        return Lsup_cov.T @ np.array([[1.0, cos12], [cos12, 1.0]]) @ Lsup_cov

    a_bar = on_dual_basis(theta12)
    a_hat = on_dual_basis(Theta12 + phi_p)
    L12 = np.outer(L[0], L[1])
    return (float(np.sum(L12 * (a_bar - A))),
            float(np.sum(L12 * (a_bar - a_hat))),
            float(np.sum(L12 * (a_hat - A))), a_bar, a_hat)


# --- picture-frame rig -----------------------------------------------------

FRAME_FIBER_1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
FRAME_FIBER_2 = np.array([-1.0, 1.0]) / np.sqrt(2.0)


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    bad = ~((0.0 < theta) & (theta <= np.pi / 2.0 + 1e-12))
    if bad.any():
        raise ValueError(
            f"frame angle theta must lie in (0, pi/2], got {theta[bad][0]}"
        )


def picture_frame_deformation(theta):
    """Homogeneous deformation gradient of the frame at opening angle theta.

    The fabric fibers lie on the +-45 degree diagonals of the Cartesian
    frame; pulling the rig stretches the vertical axis and shortens the
    horizontal one, giving a diagonal gradient that preserves the diagonal
    fiber lengths exactly.
    """
    _check_theta(theta)
    phi_m = 0.5 * (np.pi - theta)
    return np.array([
        [np.sqrt(2.0) * np.cos(phi_m), 0.0],
        [0.0, np.sqrt(2.0) * np.sin(phi_m)],
    ])


def picture_frame_dF_dtheta(theta):
    """Derivative of the frame deformation gradient with respect to theta."""
    _check_theta(theta)
    phi_m = 0.5 * (np.pi - theta)
    return np.array([
        [np.sqrt(2.0) * 0.5 * np.sin(phi_m), 0.0],
        [0.0, -np.sqrt(2.0) * 0.5 * np.cos(phi_m)],
    ])


def crosshead_rate(theta):
    """Derivative of the unit frame's crosshead travel with respect to theta.

    Strictly negative on (0, pi/2]; it would vanish only in the fully
    collapsed limit theta -> 0, so no special handling is needed anywhere
    in the working range.  Broadcasts over ``theta``.

    The corner map applied to the pull-axis corner (0, sqrt(2)) has only
    the second component nonzero, so ``x . v / |x|`` is written with the
    entries of :func:`picture_frame_deformation` and
    :func:`picture_frame_dF_dtheta` in the same order as the matrix
    products; this reproduces them bit for bit, where the closed form
    ``-cos((pi - theta) / 2)`` differs in the last digit on many angles.
    """
    _check_theta(theta)
    phi_m = 0.5 * (np.pi - np.asarray(theta, dtype=float))
    corner = np.sqrt(2.0)
    x2 = np.sqrt(2.0) * np.sin(phi_m) * corner
    v2 = -np.sqrt(2.0) * 0.5 * np.cos(phi_m) * corner
    return x2 * v2 / np.abs(x2)


def gamma_to_theta(gamma_deg):
    """Convert a shear angle in degrees to the frame angle in radians."""
    return np.pi / 2.0 - np.deg2rad(gamma_deg)


def theta_to_gamma(theta):
    """Convert the frame angle in radians to the shear angle in degrees."""
    return np.rad2deg(np.pi / 2.0 - theta)
