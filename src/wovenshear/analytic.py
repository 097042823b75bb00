"""Closed-form picture-frame shear response.

In the picture-frame rig the deformation is homogeneous, both fiber
stretches stay exactly one, and the only active variable is the fiber
angle cosine theta12 = cos(theta).  The response over a monotone loading
interval then reduces to a single scalar consistency equation, solved here
to machine precision.  A load program is a chain of such intervals whose
carried-over stress widens the elastic range of every later interval;
interval states roll forward at each target so curves can be chained
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import (crosshead_rate, gamma_to_theta, theta_to_gamma,
                         _check_theta)
from .material import ConvergenceError, f_iso, f_iso_prime

__all__ = [
    "LoadProgram",
    "IntervalState",
    "IntervalSolution",
    "ShearCurve",
    "CURVE_COLUMNS",
    "yield_angle",
    "interval_solve",
    "interval_solve_batch",
    "advance_interval",
    "frame_force",
    "program_theta_grid",
    "run_program",
]


@dataclass(frozen=True)
class LoadProgram:
    """Sequence of target frame angles theta (radians), starting at pi/2.

    Consecutive targets must differ and lie in (0, pi/2]; each leg is one
    monotone loading interval.  ``samples_per_interval`` fixes the sampling
    count per leg for curve output; when None, consumers sample by angular
    density (2 steps per degree by default).
    """

    targets: tuple
    samples_per_interval: int | None = None

    def __post_init__(self):
        targets = tuple(float(t) for t in self.targets)
        if not targets:
            raise ValueError("load program needs at least one target")
        prev = np.pi / 2.0
        for t in targets:
            _check_theta(t)
            if t == prev:
                raise ValueError(f"zero-length program leg at theta = {t}")
            prev = t
        object.__setattr__(self, "targets", targets)
        if self.samples_per_interval is not None and self.samples_per_interval < 1:
            raise ValueError("samples_per_interval must be >= 1")

    @classmethod
    def from_gamma_degrees(cls, targets_deg, samples_per_interval=None):
        """Build from shear-angle targets in degrees (figure convention)."""
        return cls(targets=tuple(float(gamma_to_theta(g)) for g in targets_deg),
                   samples_per_interval=samples_per_interval)

    @classmethod
    def from_string(cls, text, samples_per_interval=None):
        """Parse a comma-separated gamma target list like ``"50,20,50"``."""
        try:
            targets_deg = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse load program {text!r}") from exc
        return cls.from_gamma_degrees(targets_deg, samples_per_interval)

    @property
    def gamma_targets_deg(self):
        return tuple(float(theta_to_gamma(t)) for t in self.targets)


@dataclass(frozen=True)
class IntervalState:
    """Interval-start data: carried stress, hardening history, offsets.

    ``tau0``, ``q0`` and ``alpha_p0`` are the committed stress and history
    at the interval start.  ``Q0`` accumulates slip offsets across interval
    changes; it is pure bookkeeping for the closed-form constants and never
    feeds back into the solution.  A virgin state is all zeros.
    """

    tau0: float = 0.0
    alpha_p0: float = 0.0
    q0: float = 0.0
    Q0: float = 0.0


@dataclass(frozen=True)
class IntervalSolution:
    """Response at angle-cosine increments within an interval.

    Floats from :func:`interval_solve`; arrays shaped like the increments
    from :func:`interval_solve_batch`.
    """

    tau: float
    phi_p_bar: float
    q: float
    delta_alpha: float
    plastic: bool
    iterations: int
    residual: float


def yield_angle(istate, p):
    """Elastic range of the angle-cosine increment at a load reversal.

    For a virgin state this is tau_y / mu_f.  When loading continues in
    the direction of the interval-start stress the range is smaller,
    (f_iso(q0) - |tau0|) / mu_f; :func:`interval_solve` applies whichever
    matches the loading direction.
    """
    return (f_iso(istate.q0, p) + abs(istate.tau0)) / p.mu_f


def interval_solve_batch(phi_bar, istate, p, tol=1e-12, max_iter=50):
    """Closed-form response at each angle-cosine increment in ``phi_bar``.

    Solves the consistency condition for the plastic slip accumulated
    since the interval start.  The elastic range is direction aware:
    loading against the interval-start stress enjoys the widened range
    (f_iso(q0) + |tau0|) / mu_f, loading with it only
    (f_iso(q0) - |tau0|) / mu_f.  This makes splitting a monotone interval
    at any intermediate point exact.

    Every increment is measured from the same interval start, so the
    points are independent: each runs its own bracketed Newton-bisection
    on the slip and stops on its own tolerance, with the arithmetic of a
    one-point solve.  A point's result does not depend on the others.

    Parameters
    ----------
    phi_bar : array_like
        theta12 - theta12(interval start), the angle-cosine increments.
    istate : IntervalState
    p : ElastoplasticParams

    Returns
    -------
    IntervalSolution
        Fields are arrays shaped like ``phi_bar``; ``iterations`` counts
        each point's own Newton-bisection steps.

    Raises
    ------
    ConvergenceError
        If any point is unconverged after ``max_iter`` iterations; the
        residual is the largest unconverged ``|g|``.
    """
    phi_bar = np.asarray(phi_bar, dtype=float)
    mu = p.mu_f
    tau0 = istate.tau0
    q0 = istate.q0
    fy0 = float(f_iso(q0, p))

    d = np.where(phi_bar > 0.0, 1.0, np.where(phi_bar < 0.0, -1.0, 0.0))
    pb = np.abs(phi_bar)
    phi_y = (fy0 - d * tau0) / mu
    plastic = (d != 0.0) & ~(pb <= phi_y)

    x = np.zeros(phi_bar.shape)
    g = np.zeros(phi_bar.shape)
    iterations = np.zeros(phi_bar.shape, dtype=int)
    # plastic: solve g(x) = d tau0 + mu (|phi_bar| - x) - f_iso(q0 + x) = 0,
    # bracketed by g(0) = mu (|phi_bar| - phi_y) > 0 and g(hi) = -f_iso < 0;
    # the arrays below hold the points still iterating
    idx = np.flatnonzero(plastic)
    dk = d.flat[idx]
    pk = pb.flat[idx]
    lo = np.zeros(idx.size)
    hi = pk + dk * tau0 / mu
    xk = np.zeros(idx.size)
    gk = mu * (pk - phi_y.flat[idx])
    for it in range(1, max_iter + 1):
        if not idx.size:
            break
        gp = -mu - f_iso_prime(q0 + xk, p)
        step = xk - gk / gp
        bad = ~np.isfinite(step) | (step <= lo) | (step > hi)
        xk = np.where(bad, 0.5 * (lo + hi), step)
        fk = f_iso(q0 + xk, p)
        gk = dk * tau0 + mu * (pk - xk) - fk
        scale = np.maximum(mu, p.tau_y + fk)
        done = np.abs(gk) <= tol * scale
        x.flat[idx[done]] = xk[done]
        g.flat[idx[done]] = gk[done]
        iterations.flat[idx[done]] = it
        up = gk > 0.0
        lo = np.where(up, xk, lo)
        hi = np.where(up, hi, xk)
        keep = ~done
        idx, dk, pk, lo, hi, xk, gk = (
            a[keep] for a in (idx, dk, pk, lo, hi, xk, gk))
    if idx.size:
        worst = float(np.abs(gk).max())
        raise ConvergenceError(
            f"interval solve failed to converge in {max_iter} iterations "
            f"(|g| = {worst:.3e})", residual=worst)

    tau = np.where(d == 0.0, tau0, tau0 + mu * (phi_bar - d * x))
    return IntervalSolution(tau=tau, phi_p_bar=np.where(plastic, d * x, 0.0),
                            q=q0 + x, delta_alpha=x, plastic=plastic,
                            iterations=iterations, residual=np.abs(g))


def interval_solve(phi_bar, istate, p, tol=1e-12, max_iter=50):
    """Closed-form response at one angle-cosine increment ``phi_bar``.

    The one-point form of :func:`interval_solve_batch`, with float fields.
    """
    sol = interval_solve_batch([phi_bar], istate, p, tol=tol,
                               max_iter=max_iter)
    return IntervalSolution(**{k: v.item() for k, v in vars(sol).items()})


def advance_interval(istate, phi_bar, p, tol=1e-12, max_iter=50):
    """Roll the interval state forward by an angle-cosine increment.

    Solves the current interval at ``phi_bar`` and starts a fresh interval
    there: the solved stress and hardening state become the new carried
    values, and the slip increment is added to the offset accumulator.
    """
    sol = interval_solve(phi_bar, istate, p, tol=tol, max_iter=max_iter)
    return IntervalState(tau0=sol.tau,
                         alpha_p0=istate.alpha_p0 + sol.delta_alpha,
                         q0=sol.q,
                         Q0=istate.Q0 + sol.delta_alpha)


def frame_force(tau, theta, L0):
    """Pull force on the frame, work-conjugate to the crosshead travel.

    The homogeneous patch stores energy through the angle cosine only, so
    ``F = A0 tau d(cos theta)/d theta / (d d / d theta)`` with patch area
    A0 = L0^2 and the crosshead rate taken from the corner map.  The rate
    is nonzero on all of (0, pi/2], so no endpoint limit arises.
    Broadcasts over ``tau`` and ``theta``.
    """
    _check_theta(theta)
    dtheta12 = -L0 * L0 * np.sin(theta) * tau
    return dtheta12 / crosshead_rate(theta, L0)


CURVE_COLUMNS = ("gamma_deg", "theta12", "tau", "phi_e", "phi_p", "q",
                 "frame_force_normalized")


@dataclass(eq=False)
class ShearCurve:
    """Sampled picture-frame shear response.

    One row per sample: shear angle in degrees (gamma = 90 deg - theta),
    angle cosine, shear stress, elastic/plastic angle parts, hardening
    variable, and the pull force normalized by L0 * mu0.
    """

    gamma_deg: np.ndarray
    theta12: np.ndarray
    tau: np.ndarray
    phi_e: np.ndarray
    phi_p: np.ndarray
    q: np.ndarray
    frame_force_normalized: np.ndarray
    label: str = ""

    def __len__(self):
        return self.gamma_deg.size

    def column_stack(self):
        """Rows in CSV column order."""
        return np.column_stack([getattr(self, name) for name in CURVE_COLUMNS])

    def to_csv(self, path):
        """Write the curve with full double precision (17 significant digits)."""
        np.savetxt(path, self.column_stack(), fmt="%.17g", delimiter=",",
                   header=",".join(CURVE_COLUMNS), comments="")

    @classmethod
    def from_csv(cls, path, label=""):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        if header != ",".join(CURVE_COLUMNS):
            raise ValueError(f"unexpected curve header: {header!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        cols = {name: data[:, k] for k, name in enumerate(CURVE_COLUMNS)}
        return cls(label=label, **cols)


def program_theta_grid(lp, steps_per_degree=2.0):
    """Per-interval frame-angle grids (radians), excluding interval starts.

    Uniform in theta within each leg; each grid ends exactly on its target.
    ``lp.samples_per_interval`` overrides the per-degree density.
    """
    grids = []
    prev = np.pi / 2.0
    for tgt in lp.targets:
        if lp.samples_per_interval is not None:
            n = int(lp.samples_per_interval)
        else:
            span_deg = abs(np.rad2deg(tgt - prev))
            n = max(1, int(round(span_deg * steps_per_degree)))
        grids.append(np.linspace(prev, tgt, n + 1)[1:])
        prev = tgt
    return grids


def run_program(lp, p, L0=1.0, mu0=1.0, steps_per_degree=2.0,
                sampling="theta12", tol=1e-12, max_iter=50):
    """Evaluate the analytic response along a load program.

    Parameters
    ----------
    lp : LoadProgram
    p : ElastoplasticParams
    L0 : float
        Frame side length.
    mu0 : float
        Stress normalization for the force column.
    steps_per_degree : float
        Sampling density when the program does not fix a per-leg count.
    sampling : {"theta12", "gamma"}
        Uniform sampling in the angle cosine (natural for the solution) or
        uniform in the frame angle (matches displacement-driven solvers).

    Returns
    -------
    ShearCurve
        Includes the initial zero row at theta = pi/2.
    """
    if sampling not in ("theta12", "gamma"):
        raise ValueError(f"unknown sampling {sampling!r}")
    mu = p.mu_f
    state = IntervalState()
    t12_anchor = 0.0        # angle cosine at the interval start
    gamma = [[0.0]]
    theta12 = [[t12_anchor]]
    tau = [[state.tau0]]
    q = [[state.q0]]
    for grid in program_theta_grid(lp, steps_per_degree):
        t12_end = float(np.cos(grid[-1]))
        if sampling == "gamma":
            t12_targets = np.cos(grid)
            t12_targets[-1] = t12_end
            gammas = theta_to_gamma(grid)
        else:
            t12_targets = np.linspace(t12_anchor, t12_end, grid.size + 1)[1:]
            gammas = theta_to_gamma(np.arccos(np.clip(t12_targets, -1.0, 1.0)))
        sol = interval_solve_batch(t12_targets - t12_anchor, state, p,
                                   tol=tol, max_iter=max_iter)
        gamma.append(gammas)
        theta12.append(t12_targets)
        tau.append(sol.tau)
        q.append(sol.q)
        state = advance_interval(state, t12_end - t12_anchor, p,
                                 tol=tol, max_iter=max_iter)
        t12_anchor = t12_end

    gamma = np.concatenate(gamma)
    theta12 = np.concatenate(theta12)
    tau = np.concatenate(tau)
    q = np.concatenate(q)
    phi_e = tau / mu
    phi_p = theta12 - phi_e
    force = frame_force(tau, gamma_to_theta(gamma), L0)
    return ShearCurve(gamma_deg=gamma, theta12=theta12, tau=tau, phi_e=phi_e,
                      phi_p=phi_p, q=q,
                      frame_force_normalized=force / (L0 * mu0))
