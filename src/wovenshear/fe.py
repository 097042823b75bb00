"""Membrane finite elements for the Dirichlet-driven picture frame.

Bilinear quadrilaterals with Gauss quadrature on a flat fabric patch whose
fibers run along the Cartesian diagonals.  Every boundary node follows the
homogeneous frame map, interior nodes equilibrate under the fiber-angle
elastoplastic stress, and the pull force is recovered from the constrained
residuals.  Since the exact solution of this problem is affine, bilinear
elements represent it exactly and the solver doubles as a machine-precision
verifier of the material kernel against the closed-form response.

The element kernel works in the fiber basis: precomputed reference fiber
gradients ``n_I = dN . L_I`` give the current fiber vectors
``f_I = x_e^T n_I``, the material body acts on their metric
``C_IJ = f_I . f_J`` in Voigt order, and ``B = dC / dx`` assembles it.

Each load step starts from a secant prediction: the committed positions
extrapolated along the last committed increment.  Newton's method then
equilibrates the free DOFs with the consistent tangent, kept in LAPACK
band storage and solved by banded LU with partial pivoting (the tangent
turns indefinite under plastic flow).  Once the residual meets the
tolerance, one more correction takes the iterate to round-off.  The
Newton settings are fixed constants, like the slip solve's.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .analytic import (LoadProgram, ShearCurve, _solve_legs, _write_csv,
                       frame_force, program_theta_grid)
# unused; perfbench/spans.py wraps these module bindings
from .analytic import advance_interval, interval_solve
from .kinematics import (FRAME_FIBER_1, FRAME_FIBER_2, _angle_arrays,
                         crosshead_rate, picture_frame_deformation,
                         picture_frame_dF_dtheta, theta_to_gamma)
from .material import (ConvergenceError, ElastoplasticParams,
                       HyperelasticParams, PlasticState, _stress_arrays,
                       return_map_batch)

__all__ = [
    "ElementInversionError",
    "SolverError",
    "Mesh",
    "FESolution",
    "FIELD_COLUMNS",
    "element_residual_and_tangent",
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


def _shape_gradients(order):
    """Shape-function gradients dN[g, a, alpha] and weights w[g] at the
    tensor-product Gauss points on [-1, 1]^2."""
    xg, wg = np.polynomial.legendre.leggauss(order)
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
    counterclockwise connectivity (E, 4), ``boundary_nodes`` the driven
    node set, and ``L0`` the patch side length used for force scales.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray
    L0: float = 1.0

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
        if not self.L0 > 0.0:
            raise ValueError(f"L0 must be positive, got {self.L0}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary_nodes", np.unique(boundary))
        _reference_jacobians(nodes, elements, _shape_gradients(2)[0])

    @classmethod
    def square(cls, n, L0=1.0):
        """Structured n-by-n mesh of the diagonal-fiber square patch.

        The patch is ruled by the two fiber directions: parameter lines
        (s, t) in [0, L0]^2 run along the +-45 degree diagonals, so the
        Cartesian nodes form a diamond with the pull corner at
        (0, sqrt(2) L0) and the opposite corner at the origin.
        """
        if n < 1:
            raise ValueError(f"mesh subdivision must be >= 1, got {n}")
        s = np.linspace(0.0, L0, n + 1)
        S, T = np.meshgrid(s, s, indexing="ij")       # S[i, j], T[i, j]
        X = (S - T) / np.sqrt(2.0)
        Y = (S + T) / np.sqrt(2.0)
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # node (i, j)
        elements = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:],
                             idx[:-1, 1:]], axis=-1).reshape(-1, 4)
        boundary = np.r_[idx[[0, n]].ravel(), idx[:, [0, n]].ravel()]
        return cls(nodes=nodes, elements=elements, boundary_nodes=boundary,
                   L0=float(L0))


# Newton controls: once the free-DOF residual norm first meets
# _NEWTON_TOL * mu_f * L0, one more (polish) correction, not counted
# against _NEWTON_MAX_ITER, takes the iterate to round-off at any mesh
# size; a failed step is bisected up to _MAX_HALVINGS times
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 25
_MAX_HALVINGS = 5

# verify limits on the Gauss-point angle-cosine spread and on the
# reaction-force deviation; the stress limit is verify's tau_tol
_THETA12_TOL = 1e-12
_FORCE_TOL = 1e-8


# per-element arrays of one evaluation at trial positions: r_e (E, 8),
# K_e (E, 8, 8), and the trial theta12, tau, phi_e, phi_p and q (E, G)
_EvalResult = namedtuple("_EvalResult", "r_e K_e theta12 tau phi_e phi_p q")


class _FrameModel:
    """Precomputed reference geometry and batched element evaluation.

    The reference fiber gradients ``n_I = dN . L_I``, quadrature weights,
    free-DOF mask and band-storage map are fixed by the mesh;
    :meth:`evaluate` turns trial positions and committed Gauss history into
    element contributions in one pass over all Gauss points ``e G + g``.
    """

    def __init__(self, mesh, ep, hp=None, quadrature_order=2):
        self.mesh = mesh
        self.ep = ep
        self.eps_L = hp.eps_L if hp is not None else 0.0
        dN, w = _shape_gradients(quadrature_order)
        # checked again at this order's points: a quad that passes the
        # mesh's 2x2 check can still invert at the 3x3 points
        J0, det = _reference_jacobians(mesh.nodes, mesh.elements, dN)
        self.wdet = (w[None, :] * det).ravel()               # (P,)
        E, G = det.shape
        self.n_elements, self.n_gauss = E, G
        # convected fiber components: A_beta L^beta equals the Cartesian
        # diagonal directions
        Lhat = np.stack([FRAME_FIBER_1, FRAME_FIBER_2], axis=1)   # columns
        Lconv = np.linalg.solve(J0, np.tile(Lhat, (E, G, 1, 1)))
        # n_I[a] in rows (e, g, I) for f_I = sum_a n_Ia x_a, and n[I, a, p]
        n = (dN @ Lconv).transpose(0, 1, 3, 2)               # (E, G, 2, 4)
        self._n_rows = n.reshape(E, 2 * G, 4)
        self.n = np.ascontiguousarray(n.reshape(-1, 2, 4).transpose(1, 2, 0))
        # d2 C / dx dx in rows (e, Voigt component, g): geometric stiffness
        n1, n2 = n[:, :, 0, :, None], n[:, :, 1, :, None]   # (E, G, 4, 1)
        m1, m2 = n1.swapaxes(2, 3), n2.swapaxes(2, 3)
        self.geo = np.stack([2.0 * n1 * m1, 2.0 * n2 * m2, n1 * m2 + n2 * m1],
                            axis=1).reshape(E, 3 * G, 16)
        # the reference fibers are the diagonals at every point
        self.Theta12 = float(FRAME_FIBER_1 @ FRAME_FIBER_2)
        self.dofs = (2 * mesh.elements[:, :, None]
                     + np.arange(2)[None, None, :]).reshape(E, 8)
        self.ndof = 2 * mesh.nodes.shape[0]
        self.free = np.ones(self.ndof, dtype=bool)
        self.free[np.add.outer(2 * mesh.boundary_nodes, [0, 1])] = False
        # band storage of the free-free tangent in the natural DOF order
        # (for Mesh.square a bandwidth of about 2n; reverse Cuthill-McKee
        # widens it): entry (i, j) lives at band[bw + i - j, j]
        nfree = int(self.free.sum())
        fidx = np.cumsum(self.free) - 1
        rows = np.broadcast_to(self.dofs[:, :, None], (E, 8, 8)).ravel()
        cols = np.broadcast_to(self.dofs[:, None, :], (E, 8, 8)).ravel()
        self._band_entries = np.flatnonzero(self.free[rows] & self.free[cols])
        i = fidx[rows[self._band_entries]]
        j = fidx[cols[self._band_entries]]
        self.bw = int(np.abs(i - j).max(initial=0))
        self._band_slots = (self.bw + i - j) * nfree + j
        self._band_shape = (2 * self.bw + 1, nfree)

    def evaluate(self, x, phi_p, q):
        """Residual/tangent contributions at nodal positions ``x`` (N, 2).

        ``phi_p`` and ``q`` are the committed Gauss-point history arrays
        (E, G); they are not modified.  Returns an ``_EvalResult``: residual
        ``sum_g w B^T s``, stiffness ``sum_g w (B^T T B + s d2C/dx2)`` and
        the trial (uncommitted) state arrays.
        """
        E, G = self.n_elements, self.n_gauss
        # current fiber vectors f[I] (2, 2, P) and their metric f_I . f_J
        f = (self._n_rows @ np.take(x, self.mesh.elements, axis=0)).reshape(
            -1, 2, 2).transpose(1, 2, 0)
        lam, theta12, gamma, Gamma = _angle_arrays(np.stack([
            f[0, 0] * f[0, 0] + f[0, 1] * f[0, 1],
            f[1, 0] * f[1, 0] + f[1, 1] * f[1, 1],
            f[0, 0] * f[1, 0] + f[0, 1] * f[1, 1]]))

        out = return_map_batch(theta12 - self.Theta12, phi_p.ravel(),
                               q.ravel(), self.ep)
        s, T = _stress_arrays(out.tau, out.dtau_dphi, gamma, Gamma,
                              self.eps_L, lam)

        n1, n2 = self.n[0][:, None], self.n[1][:, None]      # (4, 1, P)
        f1, f2 = f[0][None], f[1][None]                      # (1, 2, P)
        # B = dC / dx, written in place: stacking temporaries costs more
        B = np.empty((3, 4, 2, E * G))
        np.multiply(n1, f1, out=B[0])
        np.multiply(n2, f2, out=B[1])
        np.multiply(n1, f2, out=B[2])
        B[2] += n2 * f1
        B[:2] *= 2.0
        wTB = np.einsum("klp,lip->kip", self.wdet * T,
                        B.reshape(3, 8, -1)).reshape(3, 8, E, G)
        # element-major layouts with the (Voigt, Gauss) pairs summed over
        Bt = B.reshape(3, 8, E, G).transpose(2, 1, 0, 3).reshape(E, 8, 3 * G)
        ws = (self.wdet * s).reshape(3, E, G).transpose(1, 0, 2).reshape(
            E, 3 * G, 1)
        r_e = (Bt @ ws)[..., 0]
        K_e = (Bt @ wTB.transpose(2, 0, 3, 1).reshape(E, 3 * G, 8)).reshape(
            E, 4, 2, 4, 2)
        Kgeo = (ws.transpose(0, 2, 1) @ self.geo).reshape(E, 4, 4)
        K_e[:, :, 0, :, 0] += Kgeo
        K_e[:, :, 1, :, 1] += Kgeo
        return _EvalResult(r_e, K_e.reshape(E, 8, 8), *(
            v.reshape(E, G) for v in (theta12, out.tau, out.phi_e, out.phi_p,
                                      out.q)))

    def assemble(self, x, phi_p, q):
        """Scatter element contributions into the global system.

        Returns the global residual (all DOFs), the free-free tangent in
        the band storage of :func:`scipy.linalg.solve_banded` with
        ``bw`` sub- and superdiagonals, and the evaluation.
        """
        ev = self.evaluate(x, phi_p, q)
        r = np.bincount(self.dofs.ravel(), weights=ev.r_e.ravel(),
                        minlength=self.ndof)
        band = np.bincount(
            self._band_slots, weights=ev.K_e.ravel()[self._band_entries],
            minlength=self._band_shape[0] * self._band_shape[1])
        return r, band.reshape(self._band_shape), ev


def element_residual_and_tangent(element_nodes, nodal_positions, states, ep,
                                 hp=None, quadrature_order=2):
    """Internal force and consistent tangent of one quadrilateral.

    Parameters
    ----------
    element_nodes : (4, 2) array_like
        Reference corner coordinates, counterclockwise.
    nodal_positions : (4, 2) array_like
        Trial current corner coordinates.
    states : sequence of PlasticState or None
        Committed history per Gauss point (length quadrature_order**2);
        None means virgin.
    ep : ElastoplasticParams
    hp : HyperelasticParams, optional
        Adds the fiber-stretch stiffness when eps_L > 0.

    Returns
    -------
    r : (8,) ndarray
        Internal force, DOFs ordered node-major (x0, y0, x1, y1, ...).
    K : (8, 8) ndarray
        Consistent material + geometric tangent.
    trial : list of PlasticState
        Trial history; commit only after global convergence.

    Raises
    ------
    ElementInversionError
        If the reference Jacobian is non-positive at any Gauss point.
    """
    X_e = np.asarray(element_nodes, dtype=float).reshape(4, 2)
    x_e = np.asarray(nodal_positions, dtype=float).reshape(4, 2)
    mesh = Mesh(nodes=X_e, elements=np.array([[0, 1, 2, 3]]),
                boundary_nodes=np.array([], dtype=int))
    model = _FrameModel(mesh, ep, hp, quadrature_order)
    G = model.n_gauss
    if states is None:
        states = [PlasticState() for _ in range(G)]
    if len(states) != G:
        raise ValueError(f"need {G} Gauss states, got {len(states)}")
    phi_p = np.array([[s.phi_p for s in states]])
    q = np.array([[s.q for s in states]])
    ev = model.evaluate(x_e, phi_p, q)
    trial = [PlasticState(phi_p=float(ev.phi_p[0, g]), q=float(ev.q[0, g]))
             for g in range(G)]
    return ev.r_e[0], ev.K_e[0], trial


FIELD_COLUMNS = ("step", "gp_index", "theta12", "tau", "phi_e", "phi_p", "q")


@dataclass(eq=False)
class FESolution:
    """Converged picture-frame run: curve, Gauss-point fields, diagnostics.

    ``curve`` carries Gauss-point means and the reaction-based pull force
    per recorded step.  The ``gp_*`` arrays hold every Gauss point at every
    recorded step, row 0 being the undeformed state.  ``residual_history``
    lists the Newton residual norms of every committed step (including
    bisected sub-steps), aligned with ``committed_thetas``; the last entry
    of each list is the accepted polish iterate, the one before it the
    first to meet the tolerance.  ``ep``, ``mu0`` and ``steps_per_degree``
    are the run's own, so that verify needs nothing else.
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

    @property
    def phi_p(self):
        """Final committed plastic angle (E, G), the last recorded row."""
        return self.gp_phi_p[-1].reshape(len(self.mesh.elements), -1)

    @property
    def q(self):
        """Final committed hardening variable (E, G)."""
        return self.gp_q[-1].reshape(len(self.mesh.elements), -1)

    @property
    def final_states(self):
        """Committed Gauss states in element-major order."""
        return [PlasticState(phi_p=float(pp), q=float(qq))
                for pp, qq in zip(self.phi_p.ravel(), self.q.ravel())]

    def to_field_csv(self, path):
        """Per-step Gauss-point dump with full double precision."""
        S, M = self.gp_tau.shape
        _write_csv(path, ",".join(FIELD_COLUMNS),
                   [np.repeat(np.arange(S), M), np.tile(np.arange(M), S)]
                   + [getattr(self, f"gp_{k}") for k in FIELD_COLUMNS[2:]])


def _newton_step(model, x, phi_p, q, tol_abs):
    """Equilibrate the free DOFs at fixed boundary positions.

    Up to ``_NEWTON_MAX_ITER`` banded-LU corrections bring the free-DOF
    residual norm to ``tol_abs``; one more (polish) correction follows, and
    its iterate is accepted if it still meets ``tol_abs``.  A singular or
    non-finite system fails the step, and so does a slip solve that fails
    at some Gauss point; its largest ``|g|`` then ends the residual list.

    Returns (x, r, ev, residual_norms, converged, cause); ``x``, ``r`` and
    ``ev`` are the last iterate's positions, global residual and
    evaluation, and ``cause`` is the slip solve's ConvergenceError or None.
    """
    free = model.free
    residuals = []
    polish = False
    r = ev = None
    for it in range(_NEWTON_MAX_ITER + 2):
        try:
            r, band, ev = model.assemble(x, phi_p, q)
        except ConvergenceError as exc:
            residuals.append(exc.residual)
            return x, r, ev, residuals, False, exc
        rn = float(np.linalg.norm(r[free]))
        residuals.append(rn)
        if not np.isfinite(rn):
            break
        if polish:
            return x, r, ev, residuals, rn <= tol_abs, None
        polish = rn <= tol_abs
        if not polish and it == _NEWTON_MAX_ITER:
            break
        try:
            dx = solve_banded((model.bw, model.bw), band, -r[free],
                              overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:
            break
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
    step.  Each step, bisected sub-steps included, starts from the
    committed positions extrapolated along the last committed increment,
    scaled by the ratio of the angle increments.  On Newton failure the
    step is bisected up to ``_MAX_HALVINGS`` times before raising
    :class:`SolverError`.  Elements use 2x2 Gauss quadrature.

    Parameters
    ----------
    mesh : Mesh
    program : LoadProgram
    ep : ElastoplasticParams
    hp : HyperelasticParams, optional
        Only ``eps_L`` is used.  When hp is omitted or its eps_L is 0, the
        fiber-stretch stiffness is eps_L = mu_f: a membrane carrying only
        the angle stress has zero-energy fiber-stretch modes that turn
        unstable under plastic flow (the tangent goes indefinite), so some
        stretch stiffness is required.  Its value does not affect the
        converged stresses or forces here, because the frame deformation
        keeps both fiber stretches exactly one.
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
    x = mesh.nodes.copy()
    # last committed increment, the secant the next step extrapolates
    dx_last = np.zeros_like(x)
    dth_last = 0.0
    tol_abs = _NEWTON_TOL * ep.mu_f * mesh.L0
    bnodes = mesh.boundary_nodes
    XB = mesh.nodes[bnodes]

    # recorded rows, starting from the undeformed state
    thetas = [np.pi / 2.0]
    gamma = [0.0]
    fields = FIELD_COLUMNS[2:]
    rows = {k: [np.zeros(E * G)] for k in fields}
    rows["theta12"] = [np.full(E * G, model.Theta12)]
    force = [0.0]
    committed_thetas = []
    residual_history = []

    theta_prev = np.pi / 2.0
    step_index = 0
    for grid in grids:
        for tgt in grid:
            step_index += 1
            stack = [(float(tgt), 0)]
            r_conv, ev_conv = None, None
            while stack:
                th, depth = stack.pop()
                scale = (th - theta_prev) / dth_last if dth_last else 0.0
                xtrial = x + scale * dx_last
                xtrial[bnodes] = XB @ picture_frame_deformation(th).T
                xtrial, r, ev, residuals, ok, cause = _newton_step(
                    model, xtrial, phi_p, q, tol_abs)
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
                dx_last, dth_last = xtrial - x, th - theta_prev
                x = xtrial
                phi_p = ev.phi_p
                q = ev.q
                theta_prev = th
                committed_thetas.append(th)
                residual_history.append(residuals)
                r_conv, ev_conv = r, ev
            # the last commit in the stack is the recorded target
            ev = ev_conv
            V = XB @ picture_frame_dF_dtheta(theta_prev).T
            R = r_conv.reshape(-1, 2)[bnodes]
            pull = float(np.sum(R * V) / crosshead_rate(theta_prev, mesh.L0))
            thetas.append(theta_prev)
            gamma.append(float(theta_to_gamma(theta_prev)))
            for k in fields:
                rows[k].append(getattr(ev, k).ravel())
            force.append(pull)

    gp = {k: np.vstack(v) for k, v in rows.items()}
    curve = ShearCurve(
        gamma_deg=np.asarray(gamma),
        **{k: gp[k].mean(axis=1) for k in fields},
        frame_force_normalized=np.asarray(force) / (mesh.L0 * mu0),
        label="fe")
    return FESolution(
        curve=curve, theta_steps=np.asarray(thetas),
        **{f"gp_{k}": gp[k] for k in fields},
        x=x, committed_thetas=np.asarray(committed_thetas),
        residual_history=residual_history, program=program, ep=ep, mu0=mu0,
        steps_per_degree=steps_per_degree, mesh=mesh)


def verify_against_analytic(sol, *, tau_tol=1e-9):
    """Compare a finite-element run against the closed-form response.

    Chains the interval solution over the run's own load program and
    measures, across all recorded steps and Gauss points: the scale-relative
    stress deviation max|dtau| / max|tau|, the pointwise stress deviation
    (denominator floored at 1% of the peak stress), the reaction-force
    deviation relative to the closed-form pull force, and the spread of the
    Gauss-point angle cosines around the applied cos(theta).  Material,
    frame size, force normalization and step grid are the run's own.

    Returns a report dict with the measured maxima, the limits and a
    ``passed`` flag.
    """
    L0, mu0 = sol.mesh.L0, sol.mu0
    thetas = sol.theta_steps
    grids = program_theta_grid(sol.program, sol.steps_per_degree)
    if 1 + sum(g.size for g in grids) != thetas.size:
        raise ValueError("solution steps do not match its load program")
    sols = _solve_legs([np.cos(grid) for grid in grids], sol.ep)
    tau_an = np.concatenate([[0.0]] + [s.tau for s in sols])
    force_an = np.concatenate(
        [[0.0]] + [frame_force(s.tau, g, L0) for s, g in zip(sols, grids)])

    dtau = np.abs(sol.gp_tau - tau_an[:, None])
    tau_scale = np.abs(tau_an).max()
    max_rel_scale = float(dtau.max() / tau_scale)
    floor = 0.01 * tau_scale
    denom = np.maximum(np.abs(tau_an)[:, None], floor)
    max_rel_pointwise = float((dtau / denom).max())
    t12_applied = np.cos(thetas)
    max_theta12_dev = float(
        np.abs(sol.gp_theta12 - t12_applied[:, None]).max())
    f_fe = sol.curve.frame_force_normalized * (L0 * mu0)
    fscale = np.abs(force_an).max()
    max_force_rel = float(np.abs(f_fe - force_an).max() / fscale)
    passed = (max_rel_scale <= tau_tol
              and max_theta12_dev <= _THETA12_TOL
              and max_force_rel <= _FORCE_TOL)
    return {
        "max_tau_rel_scale": max_rel_scale,
        "max_tau_rel_pointwise": max_rel_pointwise,
        "max_theta12_dev": max_theta12_dev,
        "max_force_rel": max_force_rel,
        "tau_tol": tau_tol,
        "force_tol": _FORCE_TOL,
        "theta12_tol": _THETA12_TOL,
        "passed": bool(passed),
    }
