"""Membrane finite elements for the Dirichlet-driven picture frame.

Bilinear quadrilaterals with Gauss quadrature on a flat fabric patch whose
fibers run along the Cartesian diagonals.  Every boundary node follows the
homogeneous frame map, interior nodes equilibrate under the fiber-angle
elastoplastic stress, and the pull force is recovered from the constrained
residuals.  Since the exact solution of this problem is affine, bilinear
elements represent it exactly and the solver doubles as a machine-precision
verifier of the material kernel against the closed-form response.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .analytic import (IntervalState, LoadProgram, ShearCurve, frame_force,
                       interval_solve_batch, advance_interval,
                       program_theta_grid)
from .analytic import interval_solve  # unused; perfbench/spans.py wraps it
from .kinematics import (FRAME_FIBER_1, FRAME_FIBER_2, crosshead_rate,
                         picture_frame_deformation, picture_frame_dF_dtheta,
                         theta_to_gamma)
from .material import HyperelasticParams, PlasticState, return_map_batch

__all__ = [
    "ElementInversionError",
    "SolverError",
    "Mesh",
    "GaussPointState",
    "SolverConfig",
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


def _quadrature(order):
    """Tensor-product Gauss points and weights on [-1, 1]^2."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    pts = np.array([(xi, eta) for eta in xg for xi in xg])
    w = np.array([wi * wj for wj in wg for wi in wg])
    return pts, w


def _shape_gradients(order):
    """Shape-function gradients dN[g, a, alpha] at the Gauss points."""
    pts, w = _quadrature(order)
    G = pts.shape[0]
    dN = np.empty((G, 4, 2))
    for g, (xi, eta) in enumerate(pts):
        dN[g, :, 0] = 0.25 * _CORNERS[:, 0] * (1.0 + _CORNERS[:, 1] * eta)
        dN[g, :, 1] = 0.25 * _CORNERS[:, 1] * (1.0 + _CORNERS[:, 0] * xi)
    return dN, w


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
        dN, _ = _shape_gradients(2)
        J0 = np.einsum("eam,gab->egmb", nodes[elements], dN)
        det = np.linalg.det(J0)
        if np.any(det <= 0.0):
            bad = int(np.argwhere(det <= 0.0)[0][0])
            raise ElementInversionError(
                f"non-positive reference Jacobian in element {bad}")

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

        def idx(i, j):
            return i * (n + 1) + j

        elements = []
        for i in range(n):
            for j in range(n):
                elements.append(
                    [idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)])
        boundary = [idx(i, j) for i in range(n + 1) for j in range(n + 1)
                    if i in (0, n) or j in (0, n)]
        return cls(nodes=nodes, elements=np.array(elements),
                   boundary_nodes=np.array(boundary), L0=float(L0))


@dataclass(frozen=True)
class GaussPointState:
    """Material history at one Gauss point, committed at converged steps.

    The committed state is immutable within a load step; Newton iterations
    only produce trial copies.
    """

    plastic: PlasticState = field(default_factory=PlasticState)


@dataclass(frozen=True)
class SolverConfig:
    """Load stepping and Newton controls.

    ``load_steps`` fixes the per-interval step count; when None the count
    follows ``steps_per_degree``.  The Newton tolerance is applied to the
    free-DOF residual norm against the reference force scale mu_f * L0.
    """

    load_steps: int | None = None
    steps_per_degree: float = 2.0
    newton_tol: float = 1e-13
    newton_max_iter: int = 25
    quadrature_order: int = 2
    max_halvings: int = 5
    rm_tol: float = 1e-12
    rm_max_iter: int = 50

    def __post_init__(self):
        if self.load_steps is not None and self.load_steps < 1:
            raise ValueError("load_steps must be >= 1")
        for name in ("steps_per_degree", "newton_tol", "newton_max_iter",
                     "quadrature_order", "rm_tol", "rm_max_iter"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be >= 0")


@dataclass(eq=False)
class _EvalResult:
    """Per-element arrays from one global evaluation at trial positions."""

    r_e: np.ndarray          # (E, 8)
    K_e: np.ndarray          # (E, 8, 8)
    theta12: np.ndarray      # (E, G)
    tau: np.ndarray
    phi_e: np.ndarray
    phi_p: np.ndarray
    q: np.ndarray
    alpha_p: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray


class _FrameModel:
    """Precomputed reference geometry and batched element evaluation.

    Reference Jacobians, convected fiber components and quadrature weights
    are fixed by the mesh; :meth:`evaluate` turns trial nodal positions and
    committed Gauss history into residual and tangent contributions in one
    vectorized pass over all elements.
    """

    def __init__(self, mesh, ep, hp=None, quadrature_order=2,
                 rm_tol=1e-12, rm_max_iter=50):
        self.mesh = mesh
        self.ep = ep
        self.hp = hp
        self.rm_tol = rm_tol
        self.rm_max_iter = rm_max_iter
        dN, w = _shape_gradients(quadrature_order)
        self.dN = dN
        XE = mesh.nodes[mesh.elements]                       # (E, 4, 2)
        J0 = np.einsum("eam,gab->egmb", XE, dN)              # columns: A_beta
        det = np.linalg.det(J0)
        if np.any(det <= 0.0):
            bad = int(np.argwhere(det <= 0.0)[0][0])
            raise ElementInversionError(
                f"non-positive reference Jacobian in element {bad}")
        self.wdet = w[None, :] * det                         # (E, G)
        E, G = det.shape
        self.n_elements = E
        self.n_gauss = G
        # convected fiber components: A_beta L^beta equals the Cartesian
        # diagonal directions
        Lhat = np.stack([FRAME_FIBER_1, FRAME_FIBER_2], axis=1)   # columns
        rhs = np.tile(Lhat, (E, G, 1, 1))
        Lconv = np.linalg.solve(J0, rhs)
        self.L1 = Lconv[..., 0]                              # (E, G, 2)
        self.L2 = Lconv[..., 1]
        A_ab = np.einsum("egma,egmb->egab", J0, J0)
        self.Theta12 = np.einsum("ega,egab,egb->eg", self.L1, A_ab, self.L2)
        self.dofs = (2 * mesh.elements[:, :, None]
                     + np.arange(2)[None, None, :]).reshape(E, 8)
        self.ndof = 2 * mesh.nodes.shape[0]

    def evaluate(self, x, phi_p, q, alpha_p):
        """Residual/tangent contributions at nodal positions ``x`` (N, 2).

        ``phi_p``, ``q``, ``alpha_p`` are the committed Gauss-point history
        arrays (E, G); they are not modified.  Returns an :class:`_EvalResult`
        whose state arrays are the trial (uncommitted) values.
        """
        dN = self.dN
        xe = x[self.mesh.elements]                           # (E, 4, 2)
        acols = np.einsum("eam,gab->egmb", xe, dN)           # deformed a_beta
        a_ab = np.einsum("egma,egmb->egab", acols, acols)
        lam1 = np.sqrt(np.einsum("ega,egab,egb->eg", self.L1, a_ab, self.L1))
        lam2 = np.sqrt(np.einsum("ega,egab,egb->eg", self.L2, a_ab, self.L2))
        l1 = self.L1 / lam1[..., None]
        l2 = self.L2 / lam2[..., None]
        theta12 = np.einsum("ega,egab,egb->eg", l1, a_ab, l2)
        phi = theta12 - self.Theta12

        out = return_map_batch(phi.ravel(), phi_p.ravel(), q.ravel(),
                               alpha_p.ravel(), self.ep,
                               tol=self.rm_tol, max_iter=self.rm_max_iter)
        shape = phi.shape
        tau, phi_e, dtau = (v.reshape(shape) for v in out[0:3])
        phi_p_new, q_new, alpha_new = (v.reshape(shape) for v in out[3:6])

        l1l1 = np.einsum("ega,egb->egab", l1, l1)
        l2l2 = np.einsum("ega,egb->egab", l2, l2)
        sym12 = 0.5 * (np.einsum("ega,egb->egab", l1, l2)
                       + np.einsum("ega,egb->egab", l2, l1))
        S = 0.5 * (l1l1 + l2l2)
        g12 = sym12 - theta12[..., None, None] * S
        g12_grad = (
            -np.einsum("egab,egcd->egabcd", sym12, S)
            - np.einsum("egab,egcd->egabcd", S, g12)
            + 0.5 * theta12[..., None, None, None, None] * (
                np.einsum("egab,egcd->egabcd", l1l1, l1l1)
                + np.einsum("egab,egcd->egabcd", l2l2, l2l2)
            )
        )
        stress = 2.0 * tau[..., None, None] * g12
        tangent = (4.0 * dtau[..., None, None, None, None]
                   * np.einsum("egab,egcd->egabcd", g12, g12)
                   + 4.0 * tau[..., None, None, None, None] * g12_grad)
        if self.hp is not None and self.hp.eps_L != 0.0:
            eps = self.hp.eps_L
            for lam, L in ((lam1, self.L1), (lam2, self.L2)):
                LL = np.einsum("ega,egb->egab", L, L)
                stress += (eps * (lam - 1.0) / lam)[..., None, None] * LL
                tangent += (eps * lam ** -3.0)[..., None, None, None, None] \
                    * np.einsum("egab,egcd->egabcd", LL, LL)

        tw = self.wdet[..., None, None] * stress
        cw = self.wdet[..., None, None, None, None] * tangent
        D = np.einsum("gia,egmb->egimab", dN, acols)
        r_e = np.einsum("egimab,egab->eim", D, tw)
        K_e = np.einsum("egimab,egabcd,egjncd->eimjn", D, cw, D,
                        optimize=True)
        Kgeo = np.einsum("gia,egab,gjb->eij", dN, tw, dN)
        E = self.n_elements
        Kfull = K_e.reshape(E, 4, 2, 4, 2)
        Kfull[:, :, 0, :, 0] += Kgeo
        Kfull[:, :, 1, :, 1] += Kgeo
        return _EvalResult(
            r_e=r_e.reshape(E, 8), K_e=Kfull.reshape(E, 8, 8),
            theta12=theta12, tau=tau, phi_e=phi_e, phi_p=phi_p_new,
            q=q_new, alpha_p=alpha_new, lambda1=lam1, lambda2=lam2)

    def assemble(self, x, phi_p, q, alpha_p):
        """Scatter element contributions into the global system."""
        ev = self.evaluate(x, phi_p, q, alpha_p)
        r = np.zeros(self.ndof)
        np.add.at(r, self.dofs.ravel(), ev.r_e.ravel())
        K = np.zeros((self.ndof, self.ndof))
        np.add.at(K, (self.dofs[:, :, None], self.dofs[:, None, :]), ev.K_e)
        return r, K, ev


def element_residual_and_tangent(element_nodes, nodal_positions, states, ep,
                                 hp=None, quadrature_order=2,
                                 rm_tol=1e-12, rm_max_iter=50):
    """Internal force and consistent tangent of one quadrilateral.

    Parameters
    ----------
    element_nodes : (4, 2) array_like
        Reference corner coordinates, counterclockwise.
    nodal_positions : (4, 2) array_like
        Trial current corner coordinates.
    states : sequence of GaussPointState or None
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
    trial : list of GaussPointState
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
    model = _FrameModel(mesh, ep, hp, quadrature_order, rm_tol, rm_max_iter)
    G = model.n_gauss
    if states is None:
        states = [GaussPointState() for _ in range(G)]
    if len(states) != G:
        raise ValueError(f"need {G} Gauss states, got {len(states)}")
    phi_p = np.array([[s.plastic.phi_p for s in states]])
    q = np.array([[s.plastic.q for s in states]])
    alpha_p = np.array([[s.plastic.alpha_p for s in states]])
    ev = model.evaluate(x_e, phi_p, q, alpha_p)
    trial = [GaussPointState(PlasticState(phi_p=float(ev.phi_p[0, g]),
                                          q=float(ev.q[0, g]),
                                          alpha_p=float(ev.alpha_p[0, g])))
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
    bisected sub-steps), aligned with ``committed_thetas``.
    """

    curve: ShearCurve
    theta_steps: np.ndarray            # recorded frame angles, radians
    gp_theta12: np.ndarray             # (steps, E*G)
    gp_tau: np.ndarray
    gp_phi_e: np.ndarray
    gp_phi_p: np.ndarray
    gp_q: np.ndarray
    phi_p: np.ndarray                  # final committed fields (E, G)
    q: np.ndarray
    alpha_p: np.ndarray
    x: np.ndarray                      # final nodal positions (N, 2)
    committed_thetas: np.ndarray
    residual_history: list
    program: LoadProgram               # with the effective per-leg sampling
    config: SolverConfig
    mesh: Mesh

    @property
    def final_states(self):
        """Committed Gauss states in element-major order."""
        return [GaussPointState(PlasticState(phi_p=float(pp), q=float(qq),
                                             alpha_p=float(ap)))
                for pp, qq, ap in zip(self.phi_p.ravel(), self.q.ravel(),
                                      self.alpha_p.ravel())]

    def to_field_csv(self, path):
        """Per-step Gauss-point dump with full double precision."""
        S, M = self.gp_tau.shape
        step = np.repeat(np.arange(S), M)
        gp = np.tile(np.arange(M), S)
        data = np.column_stack([
            step, gp, self.gp_theta12.ravel(), self.gp_tau.ravel(),
            self.gp_phi_e.ravel(), self.gp_phi_p.ravel(), self.gp_q.ravel()])
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header=",".join(FIELD_COLUMNS), comments="")


def _newton_step(model, x, free, phi_p, q, alpha_p, tol_abs, max_iter):
    """Equilibrate the free DOFs at fixed boundary positions.

    Returns (x, r, ev, residual_norms, converged); ``x``, ``r`` and ``ev``
    are the last iterate's positions, global residual and evaluation.
    """
    residuals = []
    r = None
    ev = None
    for it in range(max_iter + 1):
        r, K, ev = model.assemble(x, phi_p, q, alpha_p)
        rn = float(np.linalg.norm(r[free]))
        residuals.append(rn)
        if not np.isfinite(rn):
            return x, r, ev, residuals, False
        if rn <= tol_abs:
            return x, r, ev, residuals, True
        if it == max_iter:
            break
        try:
            dx = np.linalg.solve(K[np.ix_(free, free)], -r[free])
        except np.linalg.LinAlgError:
            return x, r, ev, residuals, False
        if not np.all(np.isfinite(dx)):
            return x, r, ev, residuals, False
        xf = x.reshape(-1).copy()
        xf[free] += dx
        x = xf.reshape(-1, 2)
    return x, r, ev, residuals, False


def solve_picture_frame(mesh, program, cfg=None, ep=None, hp=None, mu0=1.0):
    """Run the Dirichlet-driven picture frame over a load program.

    Every boundary node follows the homogeneous frame map at each target
    angle; interior nodes are solved by Newton iteration with the
    consistent tangent, and Gauss histories are committed per converged
    step.  On Newton failure the step is bisected up to
    ``cfg.max_halvings`` times before raising :class:`SolverError`.

    Parameters
    ----------
    mesh : Mesh
    program : LoadProgram
    cfg : SolverConfig, optional
    ep : ElastoplasticParams
    hp : HyperelasticParams, optional
        When omitted, the fiber-stretch stiffness defaults to
        eps_L = mu_f.  A membrane carrying only the angle stress has
        zero-energy fiber-stretch modes that turn unstable under plastic
        flow (the tangent goes indefinite), so some stretch stiffness is
        required; its value does not affect the converged stresses or
        forces here because the frame deformation keeps both fiber
        stretches exactly one.  Pass an explicit HyperelasticParams (even
        with eps_L = 0) to override.
    mu0 : float
        Stress normalization for the force column of the curve.

    Returns
    -------
    FESolution
    """
    if ep is None:
        raise TypeError("ep (ElastoplasticParams) is required")
    if hp is None:
        hp = HyperelasticParams(eps_L=ep.mu_f)
    cfg = cfg if cfg is not None else SolverConfig()
    model = _FrameModel(mesh, ep, hp, cfg.quadrature_order,
                        cfg.rm_tol, cfg.rm_max_iter)
    lp = program
    if cfg.load_steps is not None:
        lp = dataclasses.replace(program, samples_per_interval=cfg.load_steps)
    grids = program_theta_grid(lp, cfg.steps_per_degree)

    E, G = model.n_elements, model.n_gauss
    phi_p = np.zeros((E, G))
    q = np.zeros((E, G))
    alpha_p = np.zeros((E, G))
    x = mesh.nodes.copy()
    free = np.ones(model.ndof, dtype=bool)
    free[2 * mesh.boundary_nodes] = False
    free[2 * mesh.boundary_nodes + 1] = False
    tol_abs = cfg.newton_tol * ep.mu_f * mesh.L0
    bnodes = mesh.boundary_nodes
    XB = mesh.nodes[bnodes]

    # recorded rows, starting from the undeformed state
    thetas = [np.pi / 2.0]
    gamma = [0.0]
    t12_rows = [model.Theta12.ravel().copy()]
    tau_rows = [np.zeros(E * G)]
    phie_rows = [np.zeros(E * G)]
    phip_rows = [np.zeros(E * G)]
    q_rows = [np.zeros(E * G)]
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
                xtrial = x.copy()
                xtrial[bnodes] = XB @ picture_frame_deformation(th).T
                xtrial, r, ev, residuals, ok = _newton_step(
                    model, xtrial, free, phi_p, q, alpha_p,
                    tol_abs, cfg.newton_max_iter)
                if not ok:
                    if depth >= cfg.max_halvings:
                        raise SolverError(
                            f"Newton failed at load step {step_index} "
                            f"(theta = {th:.8f} rad) after "
                            f"{cfg.max_halvings} bisections; last residual "
                            f"norm {residuals[-1]:.3e}",
                            step_index=step_index, theta=th,
                            residual=residuals[-1])
                    mid = 0.5 * (theta_prev + th)
                    stack.append((th, depth + 1))
                    stack.append((mid, depth + 1))
                    continue
                # commit
                x = xtrial
                phi_p = ev.phi_p
                q = ev.q
                alpha_p = ev.alpha_p
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
            t12_rows.append(ev.theta12.ravel().copy())
            tau_rows.append(ev.tau.ravel().copy())
            phie_rows.append(ev.phi_e.ravel().copy())
            phip_rows.append(ev.phi_p.ravel().copy())
            q_rows.append(ev.q.ravel().copy())
            force.append(pull)

    gp_theta12 = np.vstack(t12_rows)
    gp_tau = np.vstack(tau_rows)
    gp_phi_e = np.vstack(phie_rows)
    gp_phi_p = np.vstack(phip_rows)
    gp_q = np.vstack(q_rows)
    curve = ShearCurve(
        gamma_deg=np.asarray(gamma),
        theta12=gp_theta12.mean(axis=1),
        tau=gp_tau.mean(axis=1),
        phi_e=gp_phi_e.mean(axis=1),
        phi_p=gp_phi_p.mean(axis=1),
        q=gp_q.mean(axis=1),
        frame_force_normalized=np.asarray(force) / (mesh.L0 * mu0),
        label="fe")
    return FESolution(
        curve=curve, theta_steps=np.asarray(thetas),
        gp_theta12=gp_theta12, gp_tau=gp_tau, gp_phi_e=gp_phi_e,
        gp_phi_p=gp_phi_p, gp_q=gp_q,
        phi_p=phi_p, q=q, alpha_p=alpha_p, x=x,
        committed_thetas=np.asarray(committed_thetas),
        residual_history=residual_history,
        program=lp, config=cfg, mesh=mesh)


def verify_against_analytic(sol, ep, tau_tol=1e-9, force_tol=1e-8,
                            theta12_tol=1e-12, L0=None, mu0=1.0):
    """Compare a finite-element run against the closed-form response.

    Chains the interval solution over the run's own load program and
    measures, across all recorded steps and Gauss points: the scale-relative
    stress deviation max|dtau| / max|tau|, the pointwise stress deviation
    (denominator floored at 1% of the peak stress), the reaction-force
    deviation relative to the closed-form pull force, and the spread of the
    Gauss-point angle cosines around the applied cos(theta).

    Returns a report dict with the measured maxima and a ``passed`` flag.
    """
    L0 = sol.mesh.L0 if L0 is None else L0
    thetas = sol.theta_steps
    grids = program_theta_grid(sol.program, sol.config.steps_per_degree)
    if 1 + sum(g.size for g in grids) != thetas.size:
        raise ValueError("solution steps do not match its load program")
    tau_an = np.zeros(thetas.size)
    force_an = np.zeros(thetas.size)
    state = IntervalState()
    t12_anchor = 0.0
    k = 1
    for grid in grids:
        leg = slice(k, k + grid.size)
        s = interval_solve_batch(np.cos(grid) - t12_anchor, state, ep)
        tau_an[leg] = s.tau
        force_an[leg] = frame_force(s.tau, grid, L0)
        k += grid.size
        state = advance_interval(state, float(np.cos(grid[-1])) - t12_anchor,
                                 ep)
        t12_anchor = float(np.cos(grid[-1]))

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
              and max_theta12_dev <= theta12_tol
              and max_force_rel <= force_tol)
    return {
        "max_tau_rel_scale": max_rel_scale,
        "max_tau_rel_pointwise": max_rel_pointwise,
        "max_theta12_dev": max_theta12_dev,
        "max_force_rel": max_force_rel,
        "tau_tol": tau_tol,
        "force_tol": force_tol,
        "theta12_tol": theta12_tol,
        "passed": bool(passed),
    }
