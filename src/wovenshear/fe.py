"""Membrane finite elements for the Dirichlet-driven picture frame.

Bilinear quadrilaterals with 2x2 Gauss quadrature on a flat fabric patch
whose fibers run along the Cartesian diagonals.  Every boundary node follows
the homogeneous frame map, interior nodes equilibrate under the fiber-angle
elastoplastic stress, and the pull force is recovered from the constrained
residuals.  Since the exact solution of this problem is affine, bilinear
elements represent it exactly and the solver doubles as a machine-precision
verifier of the material kernel against the closed-form response.

The element kernel works in the fiber basis.  The reference fiber
gradients ``n_I = dN . L_I`` make one fixed operator ``M`` per element,
whose product with the nodal positions gives the current fiber vectors,
``f = M x_e`` with ``f_I = sum_a n_Ia x_a``; the material body acts on
their metric ``C_IJ = f_I . f_J`` in Voigt order.  The residual is
``r_e = M^T g`` with the fiber forces ``g_1 = w (2 s11 f_1 + s12 f_2)`` and
``g_2 = w (2 s22 f_2 + s12 f_1)`` of the stress ``s``, and the tangent is
``K_e = M^T H M`` with ``H`` the Hessian of each Gauss point's weighted
energy by its fiber vectors (Belytschko et al., 2014, ch. 4).

Each load step predicts the positions from the boundary data alone, as the
affine frame state ``X F(theta)^T`` (``F`` the frame map) plus the committed
deviation from it carried along the increment ``F(theta) F(theta_c)^-1``;
the affine part, recomputed each step, does not drift.  Slip solves start
from the last slip increments, scaled to the step.  The affine frame
state's prediction meets the Newton tolerance and is accepted: a step costs
one evaluation and no factorization.  Otherwise Newton's method uses the
consistent tangent in LAPACK ``gbtrf`` band storage, factored by banded LU
with partial pivoting (the tangent turns indefinite under plastic flow) and
built only for a correction that factors it; each evaluation starts its slip
solves from the slips of the one before, and a polish correction on the last
factors takes the iterate to round-off.  scipy's LAPACK wrappers are
imported at the first factorization, so a solve whose every step is accepted
at its prediction never loads scipy.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .analytic import (LoadProgram, ShearCurve, _write_csv,
                       program_theta_grid, run_program)
# unused; perfbench/spans.py wraps these module bindings
from .analytic import advance_interval, frame_force, interval_solve
from .kinematics import (FRAME_FIBER_1, FRAME_FIBER_2, _angle_gradient,
                         _angle_hessian, crosshead_rate,
                         picture_frame_deformation, picture_frame_dF_dtheta,
                         theta_to_gamma)
from .material import (ConvergenceError, ElastoplasticParams,
                       HyperelasticParams, _voigt_stress, _voigt_tangent,
                       return_map_batch)

__all__ = [
    "ElementInversionError",
    "SolverError",
    "Mesh",
    "FESolution",
    "FIELD_COLUMNS",
    "solve_picture_frame",
    "verify_against_analytic",
]


class ElementInversionError(ValueError):
    """Raised when an element Jacobian is non-positive at a Gauss point."""


class SolverError(RuntimeError):
    """Newton failure after all step bisections, with the failing step."""

    def __init__(self, message, step_index=None, theta=None, residual=None):
        super().__init__(message)
        self.step_index = step_index
        self.theta = theta
        self.residual = residual


# corner order of the bilinear quadrilateral in the (xi, eta) chart
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _shape_gradients():
    """Shape-function gradients dN[g, a, alpha] and weights w[g] at the
    2x2 Gauss points on [-1, 1]^2."""
    xg, wg = np.polynomial.legendre.leggauss(2)
    xi, eta = (v.reshape(-1, 1) for v in np.meshgrid(xg, xg))  # xi fastest
    a, b = _CORNERS.T
    dN = 0.25 * np.stack([a * (1.0 + b * eta), b * (1.0 + a * xi)], axis=-1)
    return dN, np.outer(wg, wg).ravel()


def _reference_jacobians(nodes, elements, dN):
    """Reference Jacobians J0[e, g] and their determinants at the points
    of ``dN``; raises ElementInversionError if any determinant is <= 0."""
    J0 = np.einsum("eam,gab->egmb", nodes[elements], dN)   # columns: A_beta
    det = np.linalg.det(J0)
    if np.any(det <= 0.0):
        bad = int(np.argwhere(det <= 0.0)[0][0])
        raise ElementInversionError(
            f"non-positive reference Jacobian in element {bad}")
    return J0, det


@dataclass(frozen=True, eq=False)
class Mesh:
    """Reference mesh of 4-node quadrilaterals on the fabric patch.

    ``nodes`` are reference coordinates (N, 2), ``elements`` the
    counterclockwise connectivity (E, 4) and ``boundary_nodes`` the driven
    node set.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        elements = np.asarray(self.elements, dtype=int)
        boundary = np.asarray(self.boundary_nodes, dtype=int).reshape(-1)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must have shape (N, 2), got {nodes.shape}")
        if elements.ndim != 2 or elements.shape[1] != 4:
            raise ValueError(
                f"elements must have shape (E, 4), got {elements.shape}")
        n = nodes.shape[0]
        if elements.size and (elements.min() < 0 or elements.max() >= n):
            raise ValueError("element connectivity indexes outside nodes")
        if boundary.size and (boundary.min() < 0 or boundary.max() >= n):
            raise ValueError("boundary_nodes index outside nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary_nodes", np.unique(boundary))
        _reference_jacobians(nodes, elements, _shape_gradients()[0])

    @classmethod
    def square(cls, n):
        """Structured n-by-n mesh of the diagonal-fiber unit square patch.

        The patch is ruled by the two fiber directions: parameter lines
        (s, t) in [0, 1]^2 run along the +-45 degree diagonals, so the
        Cartesian nodes form a diamond with the pull corner at (0, sqrt(2))
        and the opposite corner at the origin.
        """
        if n < 1:
            raise ValueError(f"mesh subdivision must be >= 1, got {n}")
        s = np.linspace(0.0, 1.0, n + 1)
        S, T = np.meshgrid(s, s, indexing="ij")       # S[i, j], T[i, j]
        X = (S - T) / np.sqrt(2.0)
        Y = (S + T) / np.sqrt(2.0)
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # node (i, j)
        elements = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:],
                             idx[:-1, 1:]], axis=-1).reshape(-1, 4)
        boundary = np.r_[idx[[0, n]].ravel(), idx[:, [0, n]].ravel()]
        return cls(nodes=nodes, elements=elements, boundary_nodes=boundary)


# Newton controls: a start whose free-DOF residual norm meets _NEWTON_TOL *
# mu_f is accepted; a corrected iterate that meets it gets one more
# (polish) correction, not counted against _NEWTON_MAX_ITER, to round-off
# at any mesh size; a failed step is bisected up to _MAX_HALVINGS times
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 25
_MAX_HALVINGS = 5

# verify limits on the scale-relative stress deviation, the Gauss-point
# angle-cosine spread and the reaction-force deviation
_TAU_TOL = 1e-9
_THETA12_TOL = 1e-12
_FORCE_TOL = 1e-8


# per-element arrays of one evaluation at trial positions: r_e (E, 8) and
# the trial theta12, tau, phi_e, phi_p and q (E, G); what only the tangent
# reads, per Gauss point: the fiber vectors f (2, 2, P) for dC / df, the
# fiber metric C, the cosine gradient gamma and the stretches lam for the
# Voigt tangent, with the stress slope dtau (P,), and the weighted stresses
# ws (3, P) for the slope S of the fiber forces
_EvalResult = namedtuple("_EvalResult",
                         "r_e theta12 tau phi_e phi_p q f C gamma ws lam dtau")


class _FrameModel:
    """Precomputed reference geometry and batched element evaluation.

    The fiber-gradient operator ``M`` (E, 4G, 8), the quadrature weights,
    the free-DOF mask and the band-storage map are fixed by the mesh;
    :meth:`evaluate` turns trial positions and committed Gauss history into
    element residuals in one pass over all Gauss points ``e G + g``, and
    :meth:`tangent` turns an evaluation into element stiffnesses only when
    a caller needs them.
    """

    def __init__(self, mesh, ep, hp=None):
        self.mesh = mesh
        self.ep = ep
        self.eps_L = hp.eps_L if hp is not None else 0.0
        dN, w = _shape_gradients()
        J0, det = _reference_jacobians(mesh.nodes, mesh.elements, dN)
        self.wdet = (w[None, :] * det).ravel()               # (P,)
        E, G = det.shape
        self.n_elements, self.n_gauss = E, G
        # convected fiber components: A_beta L^beta equals the Cartesian
        # diagonal directions
        Lhat = np.stack([FRAME_FIBER_1, FRAME_FIBER_2], axis=1)   # columns
        Lconv = np.linalg.solve(J0, np.tile(Lhat, (E, G, 1, 1)))
        # the fiber-gradient operator f = M x_e: rows (g, I, c), columns
        # (a, d), M[e, (g, I, c), (a, d)] = n_Ia delta_cd
        n = (dN @ Lconv).transpose(0, 1, 3, 2)               # (E, G, 2, 4)
        self.M = (n[:, :, :, None, :, None]
                  * np.eye(2)[:, None, :]).reshape(E, 4 * G, 8)
        # the reference fibers are the diagonals at every point
        self.Theta12 = float(FRAME_FIBER_1 @ FRAME_FIBER_2)
        self.dofs = (2 * mesh.elements[:, :, None]
                     + np.arange(2)[None, None, :]).reshape(E, 8)
        self.ndof = 2 * mesh.nodes.shape[0]
        self.free = np.ones(self.ndof, dtype=bool)
        self.free[np.add.outer(2 * mesh.boundary_nodes, [0, 1])] = False
        # LAPACK gbtrf band storage of the free-free tangent in the natural
        # DOF order (for Mesh.square a bandwidth of about 2n; reverse
        # Cuthill-McKee widens it): entry (i, j) lives at
        # band[2 bw + i - j, j], the top bw rows being the room gbtrf needs
        # for its fill-in; the band is laid out column by column (Fortran
        # order), so that LAPACK factors it in place
        nfree = int(self.free.sum())
        fidx = np.cumsum(self.free) - 1
        rows = np.broadcast_to(self.dofs[:, :, None], (E, 8, 8)).ravel()
        cols = np.broadcast_to(self.dofs[:, None, :], (E, 8, 8)).ravel()
        self._band_entries = np.flatnonzero(self.free[rows] & self.free[cols])
        i = fidx[rows[self._band_entries]]
        j = fidx[cols[self._band_entries]]
        self.bw = int(np.abs(i - j).max(initial=0))
        self.nfree = nfree
        self._band_rows = 3 * self.bw + 1
        self._band_slots = j * self._band_rows + 2 * self.bw + i - j

    def evaluate(self, x, phi_p, q, slip0=None):
        """Element residuals at nodal positions ``x`` (N, 2).

        ``phi_p`` and ``q`` are the committed Gauss-point history arrays
        (E, G); they are not modified.  ``slip0`` (E, G), if given, starts
        each point's slip solve.  Returns an ``_EvalResult``: residual
        ``M^T g``, the trial (uncommitted) state arrays, and what
        :meth:`tangent` builds the stiffness from.
        """
        E, G = self.n_elements, self.n_gauss
        # current fiber vectors f[I] (2, 2, P) and their metric f_I . f_J;
        # the arithmetic on f runs contiguous, which pays for the copy
        x_e = np.take(x, self.mesh.elements, axis=0).reshape(E, 8, 1)
        f = np.ascontiguousarray(
            (self.M @ x_e).reshape(-1, 2, 2).transpose(1, 2, 0))
        C = np.stack([f[0, 0] * f[0, 0] + f[0, 1] * f[0, 1],
                      f[1, 0] * f[1, 0] + f[1, 1] * f[1, 1],
                      f[0, 0] * f[1, 0] + f[0, 1] * f[1, 1]])
        lam, theta12, gamma = _angle_gradient(C)

        out = return_map_batch(
            theta12 - self.Theta12, phi_p.ravel(), q.ravel(), self.ep,
            None if slip0 is None else slip0.ravel())
        ws = self.wdet * _voigt_stress(out.tau, gamma, self.eps_L, lam)
        # fiber forces g[I] = dW / df_I (2, 2, P), g = S f
        g = np.empty_like(f)
        np.multiply(2.0 * ws[0], f[0], out=g[0])
        g[0] += ws[2] * f[1]
        np.multiply(2.0 * ws[1], f[1], out=g[1])
        g[1] += ws[2] * f[0]
        r_e = g.transpose(2, 0, 1).reshape(E, 1, 4 * G) @ self.M  # (M^T g)^T
        return _EvalResult(r_e.reshape(E, 8), *(
            v.reshape(E, G) for v in (theta12, out.tau, out.phi_e, out.phi_p,
                                      out.q)), f, C, gamma, ws, lam,
            out.dtau_dphi)

    def tangent(self, ev):
        """Element stiffnesses ``K_e = M^T H M`` (E, 8, 8) of the
        evaluation ``ev``.  ``H`` (4, 4 a point) is the Hessian of the
        weighted point energy by the fiber vectors ``(f_1, f_2)``,
        ``A^T (w T) A + S (x) I_2``, with ``A = dC / df``, the Voigt
        tangent ``T`` and ``S = [[2 s11, s12], [s12, 2 s22]]`` (weighted),
        the slope of the fiber forces ``g = S f``."""
        E, G = self.n_elements, self.n_gauss
        T = _voigt_tangent(ev.tau.ravel(), ev.dtau, ev.gamma,
                           _angle_hessian(ev.C, ev.gamma), self.eps_L, ev.lam)
        f1, f2 = ev.f
        # A (3, 4, P): rows C11, C22, C12, columns (I, c)
        A = np.zeros((3, 4, E * G))
        A[0, :2] = 2.0 * f1
        A[1, 2:] = 2.0 * f2
        A[2, :2] = f2
        A[2, 2:] = f1
        H = np.einsum("kip,kjp->ijp", A,
                      np.einsum("klp,ljp->kjp", self.wdet * T, A))
        ws = ev.ws
        S = np.stack([[2.0 * ws[0], ws[2]], [ws[2], 2.0 * ws[1]]])
        H5 = H.reshape(2, 2, 2, 2, -1)                       # (I, c, J, d, p)
        H5[:, 0, :, 0] += S
        H5[:, 1, :, 1] += S
        M = self.M
        HM = H.transpose(2, 0, 1).reshape(E, G, 4, 4) @ M.reshape(E, G, 4, 8)
        return M.transpose(0, 2, 1) @ HM.reshape(E, 4 * G, 8)

    def residual(self, x, phi_p, q, slip0=None):
        """Global residual (all DOFs) at positions ``x`` and its
        evaluation, the slip solves started from ``slip0`` if given."""
        ev = self.evaluate(x, phi_p, q, slip0)
        return np.bincount(self.dofs.ravel(), weights=ev.r_e.ravel(),
                           minlength=self.ndof), ev

    def assemble(self, ev):
        """Scatter the tangent of ``ev`` into the band storage of LAPACK
        ``gbtrf`` with ``bw`` sub- and superdiagonals: a Fortran-ordered
        (3 bw + 1, nfree) array whose top ``bw`` rows are zero, ready to be
        factored in place."""
        band = np.bincount(
            self._band_slots,
            weights=self.tangent(ev).ravel()[self._band_entries],
            minlength=self._band_rows * self.nfree)
        return band.reshape(self.nfree, self._band_rows).T


FIELD_COLUMNS = ("step", "gp_index", "theta12", "tau", "phi_e", "phi_p", "q")


@dataclass(eq=False)
class FESolution:
    """Converged picture-frame run: curve, Gauss-point fields, diagnostics.

    ``curve`` carries Gauss-point means and the reaction-based pull force
    per recorded step.  The ``gp_*`` arrays hold every Gauss point at every
    recorded step, row 0 being the undeformed state; the solve allocates
    them once and fills each row in place.  ``residual_history``
    lists the Newton residual norms of every committed step (including
    bisected sub-steps), aligned with ``committed_thetas``, one entry per
    evaluation: one for a prediction that meets the tolerance, as the
    affine frame state's does; after corrections the last is the polish
    iterate, the one before it the first to meet the tolerance.  ``ep``,
    ``mu0`` and ``steps_per_degree`` are the run's own, for verify.
    """

    curve: ShearCurve
    theta_steps: np.ndarray            # recorded frame angles, radians
    gp_theta12: np.ndarray             # (steps, E*G)
    gp_tau: np.ndarray
    gp_phi_e: np.ndarray
    gp_phi_p: np.ndarray
    gp_q: np.ndarray
    x: np.ndarray                      # final nodal positions (N, 2)
    committed_thetas: np.ndarray
    residual_history: list
    program: LoadProgram
    ep: ElastoplasticParams
    mu0: float
    steps_per_degree: float
    mesh: Mesh

    def to_field_csv(self, path):
        """Per-step Gauss-point dump with full double precision."""
        S, M = self.gp_tau.shape
        _write_csv(path, ",".join(FIELD_COLUMNS),
                   [np.arange(S)[:, None], np.arange(M)[None, :]]
                   + [getattr(self, f"gp_{k}") for k in FIELD_COLUMNS[2:]])


def _newton_step(model, x, phi_p, q, slip0, tol_abs):
    """Equilibrate the free DOFs at fixed boundary positions.

    A start whose free-DOF residual norm meets ``tol_abs`` (the affine
    frame state's prediction, or any start with no free DOF) is accepted as
    it is.  Otherwise up to ``_NEWTON_MAX_ITER`` corrections, each on a
    freshly built and LU-factored band tangent (LAPACK ``gbtrf``/``gbtrs``,
    partial pivoting), bring the norm to ``tol_abs``; one more (polish)
    correction on the last factors, a modified-Newton step, gives the
    iterate accepted if it still meets ``tol_abs``.  LAPACK is loaded at
    the first factorization, not at import.  A singular or
    non-finite system fails the step, and so does a slip solve
    that fails at some Gauss point; its largest ``|g|`` then ends the
    residual list.  The first evaluation starts its slip solves from
    ``slip0`` (E, G), each later one from the slips of the evaluation before.

    Returns (x, r, ev, residual_norms, converged, cause); ``x``, ``r`` and
    ``ev`` are the last iterate's positions, global residual and
    evaluation, and ``cause`` is the slip solve's ConvergenceError or None.
    """
    free, bw = model.free, model.bw
    residuals = []
    polish = False
    r = ev = None
    for it in range(_NEWTON_MAX_ITER + 2):
        try:
            r, ev = model.residual(x, phi_p, q, slip0)
        except ConvergenceError as exc:
            residuals.append(exc.residual)
            return x, r, ev, residuals, False, exc
        slip0 = ev.q - q
        rn = float(np.linalg.norm(r[free]))
        residuals.append(rn)
        if not np.isfinite(rn):
            break
        if polish or (not it and rn <= tol_abs):
            # the polished iterate, or a start that meets the tolerance
            return x, r, ev, residuals, rn <= tol_abs, None
        polish = rn <= tol_abs
        if not polish:
            if it == _NEWTON_MAX_ITER:
                break
            # imported here: a step accepted at its prediction never factors
            from scipy.linalg.lapack import dgbtrf, dgbtrs
            lu, piv, info = dgbtrf(model.assemble(ev), bw, bw,
                                   overwrite_ab=True)
            if info > 0:    # an exactly zero pivot: singular
                break
        dx, _ = dgbtrs(lu, bw, bw, -r[free], piv, overwrite_b=True)
        if not np.all(np.isfinite(dx)):
            break
        xf = x.reshape(-1).copy()
        xf[free] += dx
        x = xf.reshape(-1, 2)
    return x, r, ev, residuals, False, None


def solve_picture_frame(mesh, program, ep, hp=None, mu0=1.0,
                        steps_per_degree=2.0):
    """Run the Dirichlet-driven picture frame over a load program.

    Every boundary node follows the homogeneous frame map at each target
    angle; interior nodes are solved by Newton iteration with the
    consistent tangent, and Gauss histories are committed per converged
    step.  Each step, bisected sub-steps included, predicts the affine
    frame state plus the committed deviation carried along the frame map's
    increment, accepted if it meets the Newton tolerance, and starts its
    slip solves from the last committed slip increments, scaled.  On Newton
    failure the step is bisected up to ``_MAX_HALVINGS`` times before
    raising :class:`SolverError`.  Elements use 2x2 Gauss quadrature.

    Parameters
    ----------
    mesh : Mesh
    program : LoadProgram
    ep : ElastoplasticParams
    hp : HyperelasticParams, optional
        Its ``eps_L`` is the fiber-stretch stiffness.  When hp is omitted
        or its eps_L is 0, the stiffness is eps_L = mu_f: a membrane
        carrying only the angle stress has zero-energy fiber-stretch modes
        that turn unstable under plastic flow (the tangent goes
        indefinite), so some stretch stiffness is required.  Its value does
        not affect the converged stresses or forces here, because the frame
        deformation keeps both fiber stretches exactly one.
    mu0 : float
        Stress normalization for the force column of the curve.
    steps_per_degree : float
        Load-step density of :func:`program_theta_grid`.

    Returns
    -------
    FESolution
    """
    if hp is None or hp.eps_L == 0.0:
        hp = HyperelasticParams(eps_L=ep.mu_f)
    model = _FrameModel(mesh, ep, hp)
    grids = program_theta_grid(program, steps_per_degree)

    E, G = model.n_elements, model.n_gauss
    phi_p = q = np.zeros((E, G))
    X = mesh.nodes
    x = X.copy()
    # committed frame map, slip and angle increments: the next prediction
    F_c = picture_frame_deformation(np.pi / 2.0)
    dq_last = np.zeros((E, G))
    dth_last = 0.0
    tol_abs = _NEWTON_TOL * ep.mu_f
    bnodes = mesh.boundary_nodes
    XB = X[bnodes]

    # recorded rows, filled in place, row 0 the undeformed state
    thetas = [np.pi / 2.0]
    fields = FIELD_COLUMNS[2:]
    gp = {k: np.zeros((1 + sum(g.size for g in grids), E * G))
          for k in fields}
    gp["theta12"][0] = model.Theta12
    force = [0.0]
    committed_thetas = []
    residual_history = []

    theta_prev = np.pi / 2.0
    step_index = 0
    for grid in grids:
        for tgt in grid:
            step_index += 1
            stack = [(float(tgt), 0)]
            while stack:
                th, depth = stack.pop()
                scale = (th - theta_prev) / dth_last if dth_last else 0.0
                F = picture_frame_deformation(th)
                # the affine frame state plus the carried deviation from it
                xtrial = X @ F.T + (x - X @ F_c.T) @ np.linalg.solve(
                    F_c.T, F.T)
                xtrial[bnodes] = XB @ F.T
                xtrial, r, ev, residuals, ok, cause = _newton_step(
                    model, xtrial, phi_p, q, scale * dq_last, tol_abs)
                if not ok:
                    if depth >= _MAX_HALVINGS:
                        why = (f"last residual norm {residuals[-1]:.3e}"
                               if cause is None else str(cause))
                        raise SolverError(
                            f"Newton failed at load step {step_index} "
                            f"(theta = {th:.8f} rad) after "
                            f"{_MAX_HALVINGS} bisections; {why}",
                            step_index=step_index, theta=th,
                            residual=residuals[-1]) from cause
                    mid = 0.5 * (theta_prev + th)
                    stack.append((th, depth + 1))
                    stack.append((mid, depth + 1))
                    continue
                # commit
                F_c, dq_last = F, ev.q - q
                dth_last = th - theta_prev
                x = xtrial
                phi_p = ev.phi_p
                q = ev.q
                theta_prev = th
                committed_thetas.append(th)
                residual_history.append(residuals)
            # the stack ends on a commit, that of the recorded target, and
            # r and ev are its residual and evaluation
            V = XB @ picture_frame_dF_dtheta(theta_prev).T
            R = r.reshape(-1, 2)[bnodes]
            pull = float(np.sum(R * V) / crosshead_rate(theta_prev))
            thetas.append(theta_prev)
            for k in fields:
                gp[k][step_index] = getattr(ev, k).ravel()
            force.append(pull)

    thetas = np.asarray(thetas)
    curve = ShearCurve(
        gamma_deg=theta_to_gamma(thetas),
        **{k: gp[k].mean(axis=1) for k in fields},
        frame_force_normalized=np.asarray(force) / mu0)
    return FESolution(
        curve=curve, theta_steps=thetas,
        **{f"gp_{k}": gp[k] for k in fields},
        x=x, committed_thetas=np.asarray(committed_thetas),
        residual_history=residual_history, program=program, ep=ep, mu0=mu0,
        steps_per_degree=steps_per_degree, mesh=mesh)


def verify_against_analytic(sol):
    """Compare a finite-element run against the closed-form response.

    Runs the closed form over the run's own load program and measures,
    across all recorded steps and Gauss points: the scale-relative stress
    deviation max|dtau| / max|tau|, the pointwise stress deviation
    (denominator floored at 1% of the peak stress), the reaction-force
    deviation relative to the closed-form pull force, and the spread of the
    Gauss-point angle cosines around the applied cos(theta).  Material,
    force normalization and step grid are the run's own.

    Returns a report dict with the measured maxima, the limits and a
    ``passed`` flag.
    """
    thetas = sol.theta_steps
    curve = run_program(sol.program, sol.ep,
                        steps_per_degree=sol.steps_per_degree)
    if len(curve) != thetas.size:
        raise ValueError("solution steps do not match its load program")
    tau_an = curve.tau
    # at the default mu0 = 1 the force column is the pull force itself
    force_an = curve.frame_force_normalized

    # |dtau|, |dtau| / denom and |dtheta12| in turn, in one (S, P) buffer
    dev = sol.gp_tau - tau_an[:, None]
    tau_scale = np.abs(tau_an).max()
    max_rel_scale = float(np.abs(dev, out=dev).max() / tau_scale)
    floor = 0.01 * tau_scale
    denom = np.maximum(np.abs(tau_an)[:, None], floor)
    max_rel_pointwise = float(np.divide(dev, denom, out=dev).max())
    np.subtract(sol.gp_theta12, np.cos(thetas)[:, None], out=dev)
    max_theta12_dev = float(np.abs(dev, out=dev).max())
    f_fe = sol.curve.frame_force_normalized * sol.mu0
    fscale = np.abs(force_an).max()
    max_force_rel = float(np.abs(f_fe - force_an).max() / fscale)
    passed = (max_rel_scale <= _TAU_TOL
              and max_theta12_dev <= _THETA12_TOL
              and max_force_rel <= _FORCE_TOL)
    return {
        "max_tau_rel_scale": max_rel_scale,
        "max_tau_rel_pointwise": max_rel_pointwise,
        "max_theta12_dev": max_theta12_dev,
        "max_force_rel": max_force_rel,
        "tau_tol": _TAU_TOL,
        "force_tol": _FORCE_TOL,
        "theta12_tol": _THETA12_TOL,
        "passed": bool(passed),
    }
