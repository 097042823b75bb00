"""Independent oracles for the test suite.

Everything here is built from the math module, plain bisection, and
central differences; nothing but the manufactured frame state, which
loads the package's own frame model, the stepped backward-Euler chain,
which steps the package's own return map, and the trust-region reference
fit, which runs scipy's optimizer on the package's own model, imports the
package under test.  Frozen reference values were computed once with the
bisection solver below and are pinned to 17 significant digits.
"""

import math

import numpy as np

from wovenshear import calibrate
from wovenshear.calibrate import DEFAULT_BOUNDS, FitResult
from wovenshear.fe import _FrameModel
from wovenshear.kinematics import picture_frame_deformation
from wovenshear.material import (ConvergenceError, params_to_dict,
                                 return_map_batch)

# hardening stress at q = 1 for the soft-yield demo set
# (tau_y=0.1, A=0.05, a=1, B=0.01, b=55, C=0.7, c=5)
F_ISO_SOFT_Q1 = 0.85406867935097708

# glass set (mu_f=5, tau_y=1e-4, A=8.8, a=0.0024, B=0.0028, b=65, C=1, c=11),
# virgin state, total angle cosine change 0.1: plastic slip and stress
DELTA_ALPHA_GLASS_PHI0P1 = 0.099001819200175645
TAU_GLASS_PHI0P1 = 0.004990903999121804

# zero-yield demo set (soft set with tau_y=0), virgin, increment 0.3
DELTA_ALPHA_DEMO_PHIBAR0P3 = 0.27529648666202311
TAU_DEMO_PHIBAR0P3 = 0.024703513337976879

# crosshead travel of a unit frame at theta = 60 degrees, from the corner map
CROSSHEAD_D_THETA60_L1 = 0.31783724519578249


def f_iso_ref(q, tau_y, A, a, B, b, C, c):
    """Hardening stress, independent closed form."""
    return tau_y + A * math.asinh(a * q) + B * math.tanh(b * q) + C * q ** c


def slip_residual(t, x, mu_f, tau_y, A, a, B, b, C, c):
    """``|g(x)|`` of the slip equation ``g(x) = t - mu_f x - f_iso(x)`` from
    a virgin state, where the hardening variable is the slip ``x``."""
    return abs(t - mu_f * x - f_iso_ref(x, tau_y, A, a, B, b, C, c))


def stepped_return_map(path, p):
    """Backward-Euler chain of one material point along the angle ``path``
    from the virgin state: one size-1 ``return_map_batch`` call a step,
    each from the history the step before committed.  Returns the columns
    ``tau, phi_e, phi_p, q`` (4, n), which ``drive_angle_path``, one call
    per monotone run, must reproduce."""
    phi_p = q = 0.0
    rows = []
    for phi in path:
        out = return_map_batch([phi], [phi_p], [q], p)
        phi_p, q = out.phi_p[0], out.q[0]
        rows.append((out.tau[0], out.phi_e[0], phi_p, q))
    return np.transpose(rows)


def bisect_root(f, lo, hi, iters=200):
    """Bisection root of a decreasing function with f(lo) > 0 > f(hi)."""
    flo, fhi = f(lo), f(hi)
    assert flo > 0.0 > fhi, (flo, fhi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def virgin_stress(phi, p):
    """Stress of one step from the virgin state to each angle change of the
    array ``phi``, by vectorized bisection: where ``mu_f |phi|`` passes
    ``tau_y``, the slip ``x`` solves ``mu_f (|phi| - x) = f_iso(x)``.  Reads
    the fields of ``p`` and imports nothing of the package."""
    phi = np.asarray(phi, dtype=float)
    a = np.abs(phi)
    lo, hi = np.zeros_like(a), a.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = p.mu_f * (a - mid) > (
            p.tau_y + p.A_h * np.arcsinh(p.a_h * mid)
            + p.B_h * np.tanh(p.b_h * mid) + p.C_h * mid ** p.c_h)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    x = np.where(p.mu_f * a > p.tau_y, 0.5 * (lo + hi), 0.0)
    return np.sign(phi) * p.mu_f * (a - x)


def flag_onset(flag, lo, hi):
    """Largest double in ``[lo, hi)`` where the predicate ``flag`` is
    false, by bisection to adjacent doubles, given ``flag(lo)`` false,
    ``flag(hi)`` true and a single switch between them."""
    assert not flag(lo) and flag(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if flag(mid):
            hi = mid
        else:
            lo = mid


def central_diff(f, x, h):
    """Second-order central difference of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_metric_gradient(fn, a, h=1e-7):
    """Central-difference derivative of fn(a) with respect to a 2x2 metric.

    The metric stays symmetric under perturbation: diagonal entries move
    by +-h alone, the off-diagonal pair moves together and the resulting
    derivative is halved so it is reported per component.  Output shape is
    fn(a).shape + (2, 2), minor-symmetric in the trailing pair.
    """
    a = np.asarray(a, dtype=float)
    base = np.asarray(fn(a), dtype=float)
    grad = np.zeros(base.shape + (2, 2))
    for g in range(2):
        ap = a.copy()
        am = a.copy()
        ap[g, g] += h
        am[g, g] -= h
        grad[..., g, g] = (fn(ap) - fn(am)) / (2.0 * h)
    ap = a.copy()
    am = a.copy()
    ap[0, 1] += h
    ap[1, 0] += h
    am[0, 1] -= h
    am[1, 0] -= h
    off = (fn(ap) - fn(am)) / (4.0 * h)
    grad[..., 0, 1] = off
    grad[..., 1, 0] = off
    return grad


def random_spd(rng, lam_lo=0.5, lam_hi=2.0):
    """Random symmetric positive definite 2x2 with bounded conditioning."""
    ang = rng.uniform(0.0, np.pi)
    cs, sn = np.cos(ang), np.sin(ang)
    R = np.array([[cs, -sn], [sn, cs]])
    d = rng.uniform(lam_lo, lam_hi, size=2)
    return R @ np.diag(d) @ R.T


def embedded_fiber_measures(F, v1, v2):
    """Stretches and angle cosine of two directions under a Cartesian map.

    The covariant-metric pipeline must agree with this plain embedding:
    w_i = F v_i, lambda_i = |w_i|, cos = w1.w2 / (|w1| |w2|).
    """
    w1 = np.asarray(F, dtype=float) @ np.asarray(v1, dtype=float)
    w2 = np.asarray(F, dtype=float) @ np.asarray(v2, dtype=float)
    n1 = float(np.linalg.norm(w1))
    n2 = float(np.linalg.norm(w2))
    return n1, n2, float(w1 @ w2) / (n1 * n2)


def membrane_energy(X_e, x_e, fiber_dirs, mu_f, eps_L, order=2):
    """Stored energy of one bilinear quadrilateral in an elastic state.

    At each tensor-product Gauss point the deformation gradient
    ``F = (dx/dxi) (dX/dxi)^-1`` maps the two Cartesian reference fiber
    directions, :func:`embedded_fiber_measures` gives their stretches and
    angle cosine, and the energy density
    ``mu_f (cos12 - Cos12)^2 / 2 + eps_L ((lam1 - 1)^2 + (lam2 - 1)^2) / 2``
    (``Cos12`` the reference cosine) is summed with the weights
    ``w det(dX/dxi)``.  Corners are counterclockwise at
    ``(-1, -1), (1, -1), (1, 1), (-1, 1)`` of the chart.
    """
    X_e = np.asarray(X_e, dtype=float)
    x_e = np.asarray(x_e, dtype=float)
    v1, v2 = fiber_dirs
    cos0 = embedded_fiber_measures(np.eye(2), v1, v2)[2]
    a = np.array([-1.0, 1.0, 1.0, -1.0])
    b = np.array([-1.0, -1.0, 1.0, 1.0])
    xg, wg = np.polynomial.legendre.leggauss(order)
    energy = 0.0
    for xi, w_xi in zip(xg, wg):
        for eta, w_eta in zip(xg, wg):
            dN = 0.25 * np.column_stack([a * (1.0 + b * eta),
                                         b * (1.0 + a * xi)])
            J0 = X_e.T @ dN
            F = (x_e.T @ dN) @ np.linalg.inv(J0)
            lam1, lam2, cos12 = embedded_fiber_measures(F, v1, v2)
            density = 0.5 * (mu_f * (cos12 - cos0) ** 2
                             + eps_L * ((lam1 - 1.0) ** 2 + (lam2 - 1.0) ** 2))
            energy += w_xi * w_eta * np.linalg.det(J0) * density
    return energy


def crosshead_travel(theta):
    """Crosshead travel of the unit frame at angle ``theta``, in closed
    form: the pull-axis diagonal ``2 sin((pi - theta) / 2)`` less its
    square-state length ``sqrt(2)``."""
    return 2.0 * math.sin(0.5 * (math.pi - theta)) - math.sqrt(2.0)


def fiber_metric(a, L):
    """Voigt fiber metric ``(C11, C22, C12)``, ``C_IJ = L_I . a . L_J``, of
    the fibers in the rows of ``L`` (2, 2) under the metric ``a`` (2, 2)."""
    return np.array([L[0] @ a @ L[0], L[1] @ a @ L[1], L[0] @ a @ L[1]])


def fiber_dyads(L):
    """``L1 L1``, ``L2 L2``, ``sym(L1 L2)`` (3, 2, 2) of the fibers in the
    rows of ``L``: the derivatives of :func:`fiber_metric` by the metric,
    on which a Voigt gradient expands to its chart form."""
    L12 = np.outer(L[0], L[1])
    return np.stack([np.outer(L[0], L[0]), np.outer(L[1], L[1]),
                     0.5 * (L12 + L12.T)])


def fiber_metric_cosine(C):
    """Angle cosine C12 / sqrt(C11 C22) of a Voigt fiber metric."""
    return C[2] / math.sqrt(C[0] * C[1])


def chart_membrane_elements(X_e, x_e, dN, w, fiber_dirs, eps_L, stress_of):
    """Membrane element residuals and tangents assembled in chart tensors.

    The element arithmetic of the FE kernel before its fiber-metric Voigt
    form, kept as a reference: covariant metrics from the deformed chart
    basis, the structural tensor ``g12`` and its metric gradient from the
    current unit fibers, the chart stress ``2 tau g12`` and tangent
    ``4 dtau g12 g12 + 4 tau g12_grad`` plus the fiber-stretch terms, and
    ``K = D : c : D`` with ``D = dN (x) a_beta`` plus the geometric
    stiffness ``dN . stress . dN``.

    Parameters
    ----------
    X_e, x_e : (E, 4, 2) reference and current corner positions.
    dN : (G, 4, 2) shape-function gradients at the Gauss points.
    w : (G,) Gauss weights.
    fiber_dirs : (2, 2) Cartesian reference fiber directions as columns.
    eps_L : fiber-stretch stiffness.
    stress_of : callable mapping the angle changes phi (E, G) to the
        return-map stress and tangent ``(tau, dtau)``.

    Returns
    -------
    r_e (E, 8), K_e (E, 8, 8) and theta12 (E, G).
    """
    J0 = np.einsum("eam,gab->egmb", X_e, dN)
    wdet = w[None, :] * np.linalg.det(J0)
    E, G = wdet.shape
    Lconv = np.linalg.solve(J0, np.tile(fiber_dirs, (E, G, 1, 1)))
    L1, L2 = Lconv[..., 0], Lconv[..., 1]
    A_ab = np.einsum("egma,egmb->egab", J0, J0)
    Theta12 = np.einsum("ega,egab,egb->eg", L1, A_ab, L2)
    acols = np.einsum("eam,gab->egmb", x_e, dN)
    a_ab = np.einsum("egma,egmb->egab", acols, acols)

    def push_forward(L):
        lam = np.sqrt(np.einsum("ega,egab,egb->eg", L, a_ab, L))
        return lam, L / lam[..., None]

    lam1, l1 = push_forward(L1)
    lam2, l2 = push_forward(L2)
    theta12 = np.einsum("ega,egab,egb->eg", l1, a_ab, l2)
    tau, dtau = stress_of(theta12 - Theta12)

    def dyad(u, v):
        return np.einsum("...a,...b->...ab", u, v)

    def outer(A, B):
        return np.einsum("...ab,...cd->...abcd", A, B)

    l1l1, l2l2 = dyad(l1, l1), dyad(l2, l2)
    sym12 = 0.5 * (dyad(l1, l2) + dyad(l2, l1))
    S = 0.5 * (l1l1 + l2l2)
    t = theta12[..., None, None]
    g12 = sym12 - t * S
    g12_grad = (-outer(sym12, S) - outer(S, g12)
                + 0.5 * t[..., None, None] * (outer(l1l1, l1l1)
                                              + outer(l2l2, l2l2)))
    stress = 2.0 * tau[..., None, None] * g12
    tangent = (4.0 * dtau[..., None, None, None, None] * outer(g12, g12)
               + 4.0 * tau[..., None, None, None, None] * g12_grad)
    for lam, L in ((lam1, L1), (lam2, L2)):
        LL = dyad(L, L)
        stress += (eps_L * (lam - 1.0) / lam)[..., None, None] * LL
        tangent += (eps_L * lam ** -3.0)[..., None, None, None, None] \
            * outer(LL, LL)

    tw = wdet[..., None, None] * stress
    cw = wdet[..., None, None, None, None] * tangent
    D = np.einsum("gia,egmb->egimab", dN, acols)
    r_e = np.einsum("egimab,egab->eim", D, tw)
    K_e = np.einsum("egimab,egabcd,egjncd->eimjn", D, cw, D, optimize=True)
    Kgeo = np.einsum("gia,egab,gjb->eij", dN, tw, dN)
    K_e[:, :, 0, :, 0] += Kgeo
    K_e[:, :, 1, :, 1] += Kgeo
    return r_e.reshape(E, 8), K_e.reshape(E, 8, 8), theta12


def savetxt_csv(path, header, columns):
    """CSV file as numpy writes it: the columns side by side, 17
    significant digits, comma separated, under a one-line header."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


def manufactured_frame_state(mesh, theta, amp):
    """Non-affine frame positions ``x* = X F(theta)^T + amp sin(gamma) w(X)``
    on a ``Mesh.square`` patch, ``sin(gamma) = cos(theta)`` for the shear
    angle gamma.

    ``w`` is the bubble ``16 s (1 - s) t (1 - t) (1, s - t)`` in the fiber
    coordinates ``s = (X + Y) / sqrt 2`` and ``t = (Y - X) / sqrt 2`` of
    the unit patch, added on the interior nodes only, so the boundary
    follows the frame map exactly.
    """
    X = mesh.nodes
    x = X @ picture_frame_deformation(theta).T
    inner = np.setdiff1d(np.arange(len(X)), mesh.boundary_nodes)
    s = (X[inner, 0] + X[inner, 1]) / math.sqrt(2.0)
    t = (X[inner, 1] - X[inner, 0]) / math.sqrt(2.0)
    bubble = 16.0 * s * (1.0 - s) * t * (1.0 - t)
    x[inner] += amp * math.cos(theta) * np.column_stack([bubble,
                                                          bubble * (s - t)])
    return x


class ForcedFrameModel(_FrameModel):
    """The frame model with a body load: its residual is ``r(x) - load``.

    Setting ``load`` to the residual at a manufactured state, at that
    state's own Gauss history, makes the state an exact discrete
    equilibrium, which the solver must recover.
    """

    load = 0.0

    def residual(self, x, phi_p, q, slip0=None):
        r, ev = super().residual(x, phi_p, q, slip0)
        return r - self.load, ev



def trf_fit(initial, curve, free, max_evals=400, mu0=1.0, mask=None):
    """Reference for ``calibrate.fit``: scipy's trust-region reflective
    ``least_squares`` (Branch, Coleman & Li 1999) on the same residuals,
    encoding, bounds and exact Jacobian, with ``x_scale="jac"`` and
    ``ftol=calibrate._FTOL``.  A candidate that cannot be evaluated has
    infinite residuals; a start that cannot be evaluated raises.  Takes and
    returns what ``calibrate.fit`` does, so ``staged_fit`` can run on it.
    """
    from scipy.optimize import least_squares

    keys = tuple(free)
    start = params_to_dict(initial)
    u0 = np.array([calibrate._encode(key, start[key]) for key in keys])
    lb, ub = (np.array([calibrate._encode(key, DEFAULT_BOUNDS[key][i])
                        for key in keys]) for i in (0, 1))
    g, f = calibrate._window(curve, mask)
    theta = calibrate.gamma_to_theta(g)
    best = None     # (cost, params, residual, solution) of the iterate

    def evaluate(u):
        nonlocal best
        updates = {key: calibrate._decode(key, u[k])
                   for k, key in enumerate(keys)}
        try:
            cand = calibrate.replace_params(initial, updates)
            forces, sol = calibrate._solve_forces(theta, cand, mu0)
        except (ValueError, ConvergenceError):
            if best is None:
                raise
            return np.full(f.size, np.inf)
        r = forces - f
        cost = float(r @ r)
        if best is None or cost < best[0]:
            best = (cost, cand, r, sol)
        return r

    def jacobian(u=None):
        # trf accepts a step exactly when its cost falls below the
        # iterate's, so the best evaluation is the current iterate
        _, cand, _, sol = best
        return calibrate._force_jacobian(theta, sol, cand, keys, mu0)

    res = least_squares(evaluate, u0, jac=jacobian, bounds=(lb, ub),
                        method="trf", x_scale="jac", ftol=calibrate._FTOL,
                        max_nfev=max_evals)
    _, params, r, _ = best
    return FitResult(
        params=params, rms_error=float(np.sqrt(np.mean(r ** 2))),
        evals_used=res.nfev, converged=res.status > 0,
        identifiability=calibrate._identifiability(jacobian(), keys))
