"""Surface kinematics for a pair of fiber families on a deforming membrane.

Covariant metrics live in chart components; fiber directions are stored as
contravariant components against the same chart.  All angle measures are
cosines, not radians, so the shear variable phi = theta12 - Theta12 is a
difference of cosines.  The picture-frame helpers map the frame opening
angle theta (radians between the fiber families) to the homogeneous
deformation a square fabric patch experiences in the rig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidMetricError",
    "DegenerateFiberError",
    "MetricPoint",
    "RefFiberPair",
    "FiberState",
    "StructuralTensors",
    "AngleSplit",
    "fiber_state",
    "angle_measures",
    "structural_tensors",
    "angle_split",
    "picture_frame_deformation",
    "picture_frame_dF_dtheta",
    "picture_frame_metric",
    "crosshead_displacement",
    "crosshead_rate",
    "gamma_to_theta",
    "theta_to_gamma",
    "FRAME_FIBER_1",
    "FRAME_FIBER_2",
]


class InvalidMetricError(ValueError):
    """Raised when a surface metric is not symmetric positive definite."""


class DegenerateFiberError(ValueError):
    """Raised when the two fiber families are (numerically) parallel."""


def _as_matrix(M, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise InvalidMetricError(f"{name} must have shape (2, 2), got {M.shape}")
    return M


def _check_spd(M, name):
    if abs(M[0, 1] - M[1, 0]) > 1e-12 * (1.0 + np.abs(M).max()):
        raise InvalidMetricError(f"{name} is not symmetric: {M!r}")
    # 2x2 SPD iff positive diagonal and determinant
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det <= 0.0 or M[0, 0] <= 0.0 or M[1, 1] <= 0.0:
        raise InvalidMetricError(f"{name} is not positive definite: {M!r}")


@dataclass(frozen=True, eq=False)
class MetricPoint:
    """Reference and current covariant metrics at one surface point.

    Attributes
    ----------
    A_ab : (2, 2) ndarray
        Reference covariant metric, symmetric positive definite.
    a_ab : (2, 2) ndarray
        Current covariant metric, symmetric positive definite.
    """

    A_ab: np.ndarray
    a_ab: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A_ab, "A_ab")
        a = _as_matrix(self.a_ab, "a_ab")
        _check_spd(A, "A_ab")
        _check_spd(a, "a_ab")
        object.__setattr__(self, "A_ab", A)
        object.__setattr__(self, "a_ab", a)


@dataclass(frozen=True, eq=False)
class RefFiberPair:
    """Two reference fiber directions, unit against the reference metric.

    ``L1`` and ``L2`` are contravariant components normalized so that
    ``L_I . A . L_I = 1``; ``Theta12`` is the reference angle cosine between
    the families and must satisfy ``|Theta12| < 1``.
    """

    L1: np.ndarray
    L2: np.ndarray
    Theta12: float

    def __post_init__(self):
        L1 = np.asarray(self.L1, dtype=float).reshape(2)
        L2 = np.asarray(self.L2, dtype=float).reshape(2)
        if abs(self.Theta12) >= 1.0:
            raise DegenerateFiberError(
                f"parallel fiber families: Theta12 = {self.Theta12}"
            )
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "L2", L2)

    @classmethod
    def from_directions(cls, d1, d2, A_ab):
        """Normalize two directions against ``A_ab`` and record their cosine."""
        A = _as_matrix(A_ab, "A_ab")
        _check_spd(A, "A_ab")
        d1 = np.asarray(d1, dtype=float).reshape(2)
        d2 = np.asarray(d2, dtype=float).reshape(2)
        lam, Theta12, _ = _angle_gradient(_fiber_metric(A, d1, d2))
        return cls(L1=d1 / lam[0], L2=d2 / lam[1], Theta12=float(Theta12))


@dataclass(frozen=True, eq=False)
class FiberState:
    """Pushed-forward fiber data: stretches, unit directions, angle cosine,
    the fiber metric ``C = (C11, C22, C12)`` with ``C_IJ = L_I . a . L_J``,
    and the fiber ``dyads`` (3, 2, 2) ``L1 L1``, ``L2 L2``, ``sym(L1 L2)``,
    the chart tensors ``dC / da``."""

    l1: np.ndarray
    l2: np.ndarray
    lambda1: float
    lambda2: float
    theta12: float
    C: np.ndarray
    dyads: np.ndarray


@dataclass(frozen=True, eq=False)
class StructuralTensors:
    """Shear structural tensor and its metric derivative.

    ``gamma`` (3,) and ``Gamma`` (3, 3), the first and second derivatives
    of the angle cosine by the fiber metric, expand on the fiber ``dyads``
    to ``g12`` (``delta theta12 = g12 : delta a``) and
    ``g12_grad[a, b, g, d] = d g12[a, b] / d a[g, d]``.
    """

    gamma: np.ndarray
    Gamma: np.ndarray
    dyads: np.ndarray

    g12 = property(lambda self: _chart(self.gamma, self.dyads))
    g12_grad = property(lambda self: _chart4(self.Gamma, self.dyads))


@dataclass(frozen=True, eq=False)
class AngleSplit:
    """Elastic/plastic split of the angle change via intermediate metrics."""

    phi: float
    phi_e: float
    phi_p: float
    a_bar: np.ndarray
    a_hat: np.ndarray


def _fiber_metric(a_ab, L1, L2):
    """Fiber metric ``(C11, C22, C12)`` of the reference fibers ``L1``,
    ``L2`` (2,) under the current metric ``a_ab`` (2, 2)."""
    return np.array([L1 @ a_ab @ L1, L2 @ a_ab @ L2, L1 @ a_ab @ L2])


def _fiber_dyads(L1, L2):
    """``L1 L1``, ``L2 L2``, ``sym(L1 L2)`` (3, 2, 2) of the fibers (2,)."""
    L12 = np.outer(L1, L2)
    return np.stack([np.outer(L1, L1), np.outer(L2, L2), 0.5 * (L12 + L12.T)])


def _chart(v, dyads):
    """``sum_I v_I M_I`` (2, 2) of a Voigt vector (3,) on the dyads
    (3, 2, 2)."""
    return v[0] * dyads[0] + v[1] * dyads[1] + v[2] * dyads[2]


def _chart4(T, dyads):
    """``sum_IJ T_IJ M_I (x) M_J`` (2, 2, 2, 2) of (3, 3)."""
    return sum(_chart(T[:, j], dyads)[:, :, None, None] * dyads[j]
               for j in range(3))


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


def fiber_state(m, f):
    """Return stretches, unit directions, cosine, fiber metric and dyads."""
    C = _fiber_metric(m.a_ab, f.L1, f.L2)
    lam, theta12, _ = _angle_gradient(C)
    return FiberState(l1=f.L1 / lam[0], l2=f.L2 / lam[1],
                      lambda1=float(lam[0]), lambda2=float(lam[1]),
                      theta12=float(theta12), C=C,
                      dyads=_fiber_dyads(f.L1, f.L2))


def angle_measures(m, f):
    """Return the current angle cosine and the shear measure phi."""
    fs = fiber_state(m, f)
    return fs.theta12, fs.theta12 - f.Theta12


def structural_tensors(fs):
    """Shear structural tensor g12 (``delta theta12 = g12 : delta a_ab``)
    and its current-metric derivative, which the tangent of the angle
    energy needs, from the derivatives of the cosine by the fiber metric
    of the :class:`FiberState` ``fs``."""
    _, _, gamma = _angle_gradient(fs.C)
    return StructuralTensors(gamma=gamma, Gamma=_angle_hessian(fs.C, gamma),
                             dyads=fs.dyads)


def angle_split(m, f, phi_p):
    """Elastic/plastic split of the angle change via intermediate metrics.

    ``a_bar`` reproduces the current fiber cosine of :func:`fiber_state`
    at unit stretch (it is the fiber-length-preserving part of the current
    metric); ``a_hat`` additionally replaces the fiber angle by its
    plastically rotated value ``Theta12 + phi_p``.  Both are assembled on
    the dual fiber basis.  ``phi``, ``phi_e`` and ``phi_p`` are the
    contractions of the metric differences with the primal fiber dyad
    ``L1 (x) L2``; ``phi = phi_e + phi_p`` holds exactly because the three
    differences telescope.

    Raises
    ------
    DegenerateFiberError
        If the reference fiber metric is singular (parallel families).
    """
    L = np.stack([f.L1, f.L2])                # (2 fibers, 2 components)
    Theta_IJ = L @ m.A_ab @ L.T               # reference fiber metric
    det = Theta_IJ[0, 0] * Theta_IJ[1, 1] - Theta_IJ[0, 1] * Theta_IJ[1, 0]
    if abs(det) < 1e-10:
        raise DegenerateFiberError(
            f"fiber metric is singular (det = {det:.3e}); families are parallel"
        )
    # covariant components of the dual fiber basis
    Lsup_cov = np.linalg.inv(Theta_IJ) @ L @ m.A_ab

    def on_dual_basis(cos12):
        theta = np.array([[1.0, cos12], [cos12, 1.0]])
        return np.einsum("ia,jb,ij->ab", Lsup_cov, Lsup_cov, theta)

    a_bar = on_dual_basis(fiber_state(m, f).theta12)
    a_hat = on_dual_basis(f.Theta12 + phi_p)
    L12 = np.outer(f.L1, f.L2)
    return AngleSplit(phi=float(np.sum(L12 * (a_bar - m.A_ab))),
                      phi_e=float(np.sum(L12 * (a_bar - a_hat))),
                      phi_p=float(np.sum(L12 * (a_hat - m.A_ab))),
                      a_bar=a_bar, a_hat=a_hat)


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


def _pull_corner(L0):
    # frame corner on the pull axis, for a square of side L0 resting on the
    # origin corner
    return np.array([0.0, np.sqrt(2.0) * L0])


def crosshead_displacement(theta, L0):
    """Crosshead travel at angle theta, from the corner map itself.

    Change of the pull-axis corner-to-corner distance relative to the
    square state; computed by applying the deformation map to the corner,
    not from a hand-expanded formula.
    """
    corner = _pull_corner(L0)
    x = picture_frame_deformation(theta) @ corner
    return float(np.linalg.norm(x) - np.linalg.norm(corner))


def crosshead_rate(theta, L0):
    """Derivative of the crosshead travel with respect to theta.

    Strictly negative on (0, pi/2]; it would vanish only in the fully
    collapsed limit theta -> 0, so no special handling is needed anywhere
    in the working range.  Broadcasts over ``theta``.

    The corner map applied to the pull-axis corner (0, sqrt(2) L0) has
    only the second component nonzero, so ``x . v / |x|`` is written with
    the entries of :func:`picture_frame_deformation` and
    :func:`picture_frame_dF_dtheta` in the same order as the matrix
    products; this reproduces them bit for bit, where the closed form
    ``-L0 cos((pi - theta) / 2)`` differs in the last digit on many
    angles.
    """
    _check_theta(theta)
    phi_m = 0.5 * (np.pi - np.asarray(theta, dtype=float))
    corner = _pull_corner(L0)[1]
    x2 = np.sqrt(2.0) * np.sin(phi_m) * corner
    v2 = -np.sqrt(2.0) * 0.5 * np.cos(phi_m) * corner
    return x2 * v2 / np.abs(x2)


def picture_frame_metric(theta, L0=1.0):
    """Kinematic state of the homogeneous picture-frame deformation.

    Parameters
    ----------
    theta : float
        Current frame angle in radians, 0 < theta <= pi/2.
    L0 : float
        Frame side length.

    Returns
    -------
    m : MetricPoint
        Identity reference metric, current metric F^T F.
    f : RefFiberPair
        The +-45 degree diagonal fiber pair (Theta12 = 0).
    d : float
        Crosshead displacement at theta.
    """
    F = picture_frame_deformation(theta)
    m = MetricPoint(np.eye(2), F.T @ F)
    f = RefFiberPair(L1=FRAME_FIBER_1.copy(), L2=FRAME_FIBER_2.copy(),
                     Theta12=0.0)
    return m, f, crosshead_displacement(theta, L0)


def gamma_to_theta(gamma_deg):
    """Convert a shear angle in degrees to the frame angle in radians."""
    return np.pi / 2.0 - np.deg2rad(gamma_deg)


def theta_to_gamma(theta):
    """Convert the frame angle in radians to the shear angle in degrees."""
    return np.rad2deg(np.pi / 2.0 - theta)
