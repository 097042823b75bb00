"""Surface kinematics for a pair of fiber families on a deforming membrane.

The model is written in the fiber metric ``C = (C11, C22, C12)``, the
current metric's components ``C_IJ = L_I . a . L_J`` on the reference
fibers ``L_I``, in Voigt order.  Its stretches, the angle cosine
``theta12 = C12 / (lam1 lam2)`` and the cosine's first and second
derivatives by ``C`` make one batched kernel, which the membrane elements
evaluate at every Gauss point.  All angle measures are cosines, not
radians, so the shear variable phi = theta12 - Theta12 is a difference of
cosines, and its elastic/plastic split is the additive difference
``phi_e = phi - phi_p`` that :func:`~wovenshear.material.return_map_batch`
takes.  The picture-frame helpers map the frame opening angle theta
(radians between the fiber families) to the homogeneous deformation a
square fabric patch experiences in the rig.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "picture_frame_deformation",
    "picture_frame_dF_dtheta",
    "crosshead_rate",
    "gamma_to_theta",
    "theta_to_gamma",
    "FRAME_FIBER_1",
    "FRAME_FIBER_2",
]


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


def _frame_entries(theta):
    """``sqrt(2) cos phi_m`` and ``sqrt(2) sin phi_m``, ``phi_m = (pi -
    theta) / 2``: the diagonal of the frame map at ``theta``, checked once.
    Broadcasts over ``theta``."""
    theta = np.asarray(theta, dtype=float)
    _check_theta(theta)
    phi_m = 0.5 * (np.pi - theta)
    return np.sqrt(2.0) * np.cos(phi_m), np.sqrt(2.0) * np.sin(phi_m)


def picture_frame_deformation(theta):
    """Homogeneous deformation gradient of the frame at opening angle theta.

    The fabric fibers lie on the +-45 degree diagonals of the Cartesian
    frame; pulling the rig stretches the vertical axis and shortens the
    horizontal one, giving a diagonal gradient that preserves the diagonal
    fiber lengths exactly.
    """
    c, s = _frame_entries(theta)
    return np.array([[c, 0.0], [0.0, s]])


def picture_frame_dF_dtheta(theta):
    """Derivative of the frame deformation gradient with respect to theta:
    the entries of :func:`picture_frame_deformation` times ``+-0.5``."""
    c, s = _frame_entries(theta)
    return np.array([[0.5 * s, 0.0], [0.0, -0.5 * c]])


def crosshead_rate(theta):
    """Derivative of the unit frame's crosshead travel with respect to theta.

    Strictly negative on (0, pi/2]; it would vanish only in the fully
    collapsed limit theta -> 0, so no special handling is needed anywhere
    in the working range.  Broadcasts over ``theta``.

    The corner map applied to the pull-axis corner (0, sqrt(2)) has only
    the second component nonzero, so ``x . v / |x|`` is taken on the
    entries of :func:`picture_frame_deformation` and
    :func:`picture_frame_dF_dtheta`; this reproduces the matrix products
    bit for bit, where the closed form ``-cos((pi - theta) / 2)`` differs
    in the last digit on many angles.
    """
    c, s = _frame_entries(theta)
    corner = np.sqrt(2.0)
    x2 = s * corner
    v2 = -0.5 * c * corner
    return x2 * v2 / np.abs(x2)


def gamma_to_theta(gamma_deg):
    """Convert a shear angle in degrees to the frame angle in radians."""
    return np.pi / 2.0 - np.deg2rad(gamma_deg)


def theta_to_gamma(theta):
    """Convert the frame angle in radians to the shear angle in degrees."""
    return np.rad2deg(np.pi / 2.0 - theta)
