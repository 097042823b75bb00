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
    "CurvaturePoint",
    "SurfaceInvariants",
    "push_forward_fiber",
    "fiber_state",
    "angle_measures",
    "structural_tensors",
    "angle_split_metrics",
    "split_angle_measures",
    "angle_split",
    "surface_invariants",
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
    A_inv : (2, 2) ndarray
        Contravariant reference metric; must invert ``A_ab`` to 1e-14
        (scaled by the magnitude of the pair).
    """

    A_ab: np.ndarray
    a_ab: np.ndarray
    A_inv: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A_ab, "A_ab")
        a = _as_matrix(self.a_ab, "a_ab")
        Ainv = _as_matrix(self.A_inv, "A_inv")
        _check_spd(A, "A_ab")
        _check_spd(a, "a_ab")
        scale = 1.0 + np.abs(A).max() * np.abs(Ainv).max()
        if np.abs(Ainv @ A - np.eye(2)).max() > 1e-14 * scale:
            raise InvalidMetricError("A_inv does not invert A_ab to 1e-14")
        object.__setattr__(self, "A_ab", A)
        object.__setattr__(self, "a_ab", a)
        object.__setattr__(self, "A_inv", Ainv)

    @classmethod
    def from_metrics(cls, A_ab, a_ab):
        """Build a MetricPoint, computing the inverse reference metric."""
        A = _as_matrix(A_ab, "A_ab")
        _check_spd(A, "A_ab")
        return cls(A_ab=A, a_ab=a_ab, A_inv=np.linalg.inv(A))


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
        L1 = d1 / np.sqrt(d1 @ A @ d1)
        L2 = d2 / np.sqrt(d2 @ A @ d2)
        return cls(L1=L1, L2=L2, Theta12=float(L1 @ A @ L2))


@dataclass(frozen=True, eq=False)
class FiberState:
    """Pushed-forward fiber data: stretches, unit directions, angle cosine."""

    l1: np.ndarray
    l2: np.ndarray
    lambda1: float
    lambda2: float
    theta12: float


@dataclass(frozen=True, eq=False)
class StructuralTensors:
    """Shear structural tensor and its metric derivative.

    ``g12`` is the contravariant second-order tensor conjugate to the angle
    cosine (``delta theta12 = g12 : delta a``); ``g12_grad`` is its
    derivative with respect to the covariant current metric,
    ``g12_grad[a, b, g, d] = d g12[a, b] / d a[g, d]``, minor-symmetric in
    both index pairs.
    """

    g12: np.ndarray
    g12_grad: np.ndarray


@dataclass(frozen=True, eq=False)
class AngleSplit:
    """Elastic/plastic split of the angle change via intermediate metrics."""

    phi: float
    phi_e: float
    phi_p: float
    a_bar: np.ndarray
    a_hat: np.ndarray


def push_forward_fiber(m, L):
    """Push a unit reference fiber through the current metric.

    Parameters
    ----------
    m : MetricPoint
    L : (2,) array_like
        Contravariant reference direction, unit against ``m.A_ab``.

    Returns
    -------
    lam : float
        Fiber stretch ``sqrt(L . a . L)``.
    l : (2,) ndarray
        Contravariant current direction, unit against ``m.a_ab``.
    """
    L = np.asarray(L, dtype=float).reshape(2)
    lam = float(np.sqrt(L @ m.a_ab @ L))
    return lam, L / lam


def fiber_state(m, f):
    """Return stretches, current unit directions and the current cosine."""
    lambda1, l1 = push_forward_fiber(m, f.L1)
    lambda2, l2 = push_forward_fiber(m, f.L2)
    theta12 = float(l1 @ m.a_ab @ l2)
    return FiberState(l1=l1, l2=l2, lambda1=lambda1, lambda2=lambda2,
                      theta12=theta12)


def angle_measures(m, f):
    """Return the current angle cosine and the shear measure phi."""
    fs = fiber_state(m, f)
    return fs.theta12, fs.theta12 - f.Theta12


def structural_tensors(m, fs):
    """Shear structural tensor g12 and its current-metric derivative.

    The variation of the angle cosine under a metric variation is
    ``delta theta12 = g12 : delta a_ab``; the tangent of the angle energy
    needs ``d g12 / d a_ab`` as well.  Both tensors are built from the
    current unit directions carried by ``fs``.

    Parameters
    ----------
    m : MetricPoint
    fs : FiberState
        Must have been computed at ``m``.
    """
    l1l1 = np.outer(fs.l1, fs.l1)
    l2l2 = np.outer(fs.l2, fs.l2)
    sym12 = 0.5 * (np.outer(fs.l1, fs.l2) + np.outer(fs.l2, fs.l1))
    S = 0.5 * (l1l1 + l2l2)
    g12 = sym12 - fs.theta12 * S
    g12_grad = (
        -np.einsum("ab,gd->abgd", sym12, S)
        - np.einsum("ab,gd->abgd", S, g12)
        + 0.5 * fs.theta12 * (
            np.einsum("ab,gd->abgd", l1l1, l1l1)
            + np.einsum("ab,gd->abgd", l2l2, l2l2)
        )
    )
    return StructuralTensors(g12=g12, g12_grad=g12_grad)


def _dual_fiber_covariant(m, f):
    """Covariant components of the dual fiber basis, and the fiber metric."""
    L = np.stack([f.L1, f.L2])                # (2 fibers, 2 components)
    Theta_IJ = L @ m.A_ab @ L.T               # reference fiber metric
    det = Theta_IJ[0, 0] * Theta_IJ[1, 1] - Theta_IJ[0, 1] * Theta_IJ[1, 0]
    if abs(det) < 1e-10:
        raise DegenerateFiberError(
            f"fiber metric is singular (det = {det:.3e}); families are parallel"
        )
    Lsup = np.linalg.inv(Theta_IJ) @ L        # dual directions, contravariant
    return Lsup @ m.A_ab, Theta_IJ


def angle_split_metrics(m, f, phi_p):
    """Intermediate metrics encoding the elastic/plastic angle split.

    ``a_bar`` reproduces the current fiber cosines at unit stretch (it is
    the fiber-length-preserving part of the current metric); ``a_hat``
    additionally replaces the fiber angle by its plastically rotated value
    ``Theta12 + phi_p``.  Both are assembled on the dual fiber basis.

    Returns
    -------
    a_bar, a_hat : (2, 2) ndarray

    Raises
    ------
    DegenerateFiberError
        If the fiber metric is singular (parallel families).
    """
    Lsup_cov, _ = _dual_fiber_covariant(m, f)
    fs = fiber_state(m, f)
    ell = np.stack([fs.l1, fs.l2])
    theta_cur = ell @ m.a_ab @ ell.T          # current fiber cosines
    theta_hat = np.array([
        [1.0, f.Theta12 + phi_p],
        [f.Theta12 + phi_p, 1.0],
    ])
    a_bar = np.einsum("ia,jb,ij->ab", Lsup_cov, Lsup_cov, theta_cur)
    a_hat = np.einsum("ia,jb,ij->ab", Lsup_cov, Lsup_cov, theta_hat)
    return a_bar, a_hat


def split_angle_measures(m, a_bar, a_hat, f):
    """Extract (phi, phi_e, phi_p) from the intermediate metrics.

    Contractions of the metric differences with the primal fiber dyad
    ``L1 (x) L2``; the triple satisfies ``phi = phi_e + phi_p`` exactly
    because the three differences telescope.

    Parameters
    ----------
    m : MetricPoint
    a_bar, a_hat : (2, 2) array_like
        As produced by :func:`angle_split_metrics`.
    f : RefFiberPair

    Returns
    -------
    phi, phi_e, phi_p : float
    """
    # raises for degenerate pairs even though the duals are not needed here
    _dual_fiber_covariant(m, f)
    a_bar = np.asarray(a_bar, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    L12 = np.outer(f.L1, f.L2)
    phi = float(np.sum(L12 * (a_bar - m.A_ab)))
    phi_e = float(np.sum(L12 * (a_bar - a_hat)))
    phi_p = float(np.sum(L12 * (a_hat - m.A_ab)))
    return phi, phi_e, phi_p


def angle_split(m, f, phi_p):
    """Build the intermediate metrics and extract the split in one call."""
    a_bar, a_hat = angle_split_metrics(m, f, phi_p)
    phi, phi_e, phi_p_out = split_angle_measures(m, a_bar, a_hat, f)
    return AngleSplit(phi=phi, phi_e=phi_e, phi_p=phi_p_out,
                      a_bar=a_bar, a_hat=a_hat)


@dataclass(frozen=True, eq=False)
class CurvaturePoint:
    """Second fundamental forms and reference in-plane directors.

    ``b_ab``/``B_ab`` are the current/reference normal curvature forms,
    ``bbar_ab``/``Bbar_ab`` their geodesic (in-plane) counterparts, and
    ``c0`` holds one reference director per fiber (shape (2, 2), row I is
    the director paired with fiber I in the twist measure).
    """

    b_ab: np.ndarray
    B_ab: np.ndarray
    bbar_ab: np.ndarray
    Bbar_ab: np.ndarray
    c0: np.ndarray


@dataclass(frozen=True, eq=False)
class SurfaceInvariants:
    """Deformation invariants of the fiber-decorated surface.

    ``I1`` is the metric trace invariant, ``Lambda`` the squared fiber
    stretches, and ``K_n``, ``K_g``, ``T_g`` the per-fiber normal-curvature,
    geodesic-curvature and twist changes (zero without curvature data).
    """

    I1: float
    Lambda: np.ndarray
    K_n: np.ndarray
    K_g: np.ndarray
    T_g: np.ndarray


def surface_invariants(m, f, c=None):
    """Evaluate the invariant set at one surface point.

    Membrane invariants come from the metrics alone; the bending and twist
    invariants need a :class:`CurvaturePoint` and are returned as zeros
    when ``c`` is None.  The twist invariant subtracts the reference offset
    built from the reference curvature form.
    """
    I1 = float(np.sum(m.A_inv * m.a_ab))
    L = np.stack([f.L1, f.L2])
    Lambda = np.einsum("ia,ab,ib->i", L, m.a_ab, L)
    if c is None:
        z = np.zeros(2)
        return SurfaceInvariants(I1=I1, Lambda=Lambda, K_n=z, K_g=z.copy(),
                                 T_g=z.copy())
    db = c.b_ab - c.B_ab
    dbb = c.bbar_ab - c.Bbar_ab
    K_n = np.einsum("ia,ab,ib->i", L, db, L)
    K_g = np.einsum("ia,ab,ib->i", L, dbb, L)
    c0 = np.asarray(c.c0, dtype=float).reshape(2, 2)
    T_g = (np.einsum("ia,ab,ib->i", c0, c.b_ab, L)
           - np.einsum("ia,ab,ib->i", L, c.B_ab, c0))
    return SurfaceInvariants(I1=I1, Lambda=Lambda, K_n=K_n, K_g=K_g, T_g=T_g)


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
    m = MetricPoint.from_metrics(np.eye(2), F.T @ F)
    f = RefFiberPair(L1=FRAME_FIBER_1.copy(), L2=FRAME_FIBER_2.copy(),
                     Theta12=0.0)
    return m, f, crosshead_displacement(theta, L0)


def gamma_to_theta(gamma_deg):
    """Convert a shear angle in degrees to the frame angle in radians."""
    return np.pi / 2.0 - np.deg2rad(gamma_deg)


def theta_to_gamma(theta):
    """Convert the frame angle in radians to the shear angle in degrees."""
    return np.rad2deg(np.pi / 2.0 - theta)
