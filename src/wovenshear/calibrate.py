"""Calibration of the shear response to picture-frame force curves.

The normalized pull force of a monotone frame test is a closed-form
function of the elastoplastic parameters, so fitting is a bounded
least-squares problem on the residual vector at the digitized data
points, solved by Levenberg-Marquardt steps.  The staged fit isolates
parameters by the loading phase that exposes them: the initial slope
pins the shear stiffness, the mid range pins the primary hardening terms,
and the locking range pins the power-law pair.  The Jacobian of the
residuals is exact and costs no model evaluation: the force at each angle
solves one scalar slip equation, whose parameter derivatives follow from
the solved slip by implicit differentiation.  Each stage has a budget of
model evaluations (``max_evals``) and reports how well its Jacobian
identifies the free parameters; :func:`staged_fit` returns the fitted
parameters with the whole report the ``calibrate`` command writes.  The
stopping tests do not depend on the force normalization ``mu0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import (_factored_force, _force_factors, _read_csv,
                       _write_csv)
# unused; perfbench/spans.py wraps these module bindings
from .analytic import frame_force, interval_solve
from .kinematics import gamma_to_theta
from .material import (ConvergenceError, _EP_FIELD_BY_KEY, _f_iso_grad,
                       _f_iso_prime, params_to_dict, replace_params,
                       return_map_batch)

__all__ = [
    "ExperimentCurve",
    "FitResult",
    "DEFAULT_BOUNDS",
    "FIT_KEYS",
    "model_forces",
    "objective",
    "fit",
    "staged_fit",
    "synthetic_curve",
]

FIT_KEYS = tuple(_EP_FIELD_BY_KEY)
# parameters spanning decades are searched in log space
_LOG_KEYS = frozenset({"a", "b", "c"})

DEFAULT_BOUNDS = {
    "mu_f": (1e-8, 1e8),
    "tau_y": (0.0, 1e6),
    "A": (0.0, 1e6),
    "a": (1e-8, 1e6),
    "B": (0.0, 1e6),
    "b": (1e-4, 1e5),
    "C": (0.0, 1e6),
    "c": (1.0, 80.0),
}


@dataclass(eq=False)
class ExperimentCurve:
    """Digitized shear-frame measurement: gamma (degrees) vs normalized force.

    Angles must be strictly increasing within the frame's range [0, 90)
    degrees and forces finite; the label tags the data source.
    """

    gamma_deg: np.ndarray
    force_norm: np.ndarray
    label: str = ""

    def __post_init__(self):
        g = np.asarray(self.gamma_deg, dtype=float).reshape(-1)
        f = np.asarray(self.force_norm, dtype=float).reshape(-1)
        if g.size != f.size:
            raise ValueError("gamma_deg and force_norm lengths differ")
        if g.size == 0:
            raise ValueError("experiment curve is empty")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("gamma_deg must be strictly increasing")
        if not np.all(np.isfinite(f)) or not np.all(np.isfinite(g)):
            raise ValueError("experiment curve contains non-finite values")
        if not (0.0 <= g[0] and g[-1] < 90.0):
            raise ValueError(
                f"gamma_deg must lie in [0, 90), got {g[0]} to {g[-1]}")
        object.__setattr__(self, "gamma_deg", g)
        object.__setattr__(self, "force_norm", f)

    def __len__(self):
        return self.gamma_deg.size

    def to_csv(self, path):
        _write_csv(path, "gamma_deg,force_norm",
                   [self.gamma_deg, self.force_norm])

    @classmethod
    def from_csv(cls, path, label=""):
        """Read `gamma_deg,force_norm` rows (see ``analytic._read_csv``);
        lines starting with # are comments and may precede the header."""
        gamma, force = _read_csv(path, "gamma_deg,force_norm")
        return cls(gamma_deg=gamma, force_norm=force, label=label)


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their RMS misfit, the RMS misfit of the
    fit's first evaluation, the model evaluations used, and what the
    Jacobian at the best parameters says about identifiability."""

    params: object
    rms_error: float
    rms_start: float
    evals_used: int
    converged: bool
    identifiability: dict


def model_forces(gamma_deg, p, mu0=1.0):
    """Normalized pull force at the given shear angles, virgin loading.

    Monotone loading from the virgin state is history-free point by point,
    so every angle is evaluated exactly (no interpolation) as one
    backward-Euler step from the virgin state, all in one return-map call,
    on the angle factors of :func:`_window_factors`; the forces are those
    of :func:`~wovenshear.analytic.frame_force` bit for bit.
    """
    theta = gamma_to_theta(np.asarray(gamma_deg, dtype=float).reshape(-1))
    return _solve_forces(_window_factors(theta), p, mu0)[0]


class _WindowFactors(NamedTuple):
    """Angle factors of a set of frame angles, which a fit makes once for
    its window: the virgin return map's angle change ``phi = cos theta``,
    and ``-sin theta`` and the crosshead rate of the pull force."""

    phi: np.ndarray
    neg_sin: np.ndarray
    rate: np.ndarray


def _window_factors(theta):
    """:class:`_WindowFactors` of the frame angles ``theta``, checked once."""
    neg_sin, rate = _force_factors(theta)
    return _WindowFactors(np.cos(theta), neg_sin, rate)


def _solve_forces(win, p, mu0):
    """Normalized forces at the angles of the :class:`_WindowFactors`
    ``win`` and the virgin :class:`~wovenshear.material.BatchReturn` behind
    them; of the work, only the return map and the force product depend on
    ``p``."""
    virgin = np.zeros(win.phi.shape)
    sol = return_map_batch(win.phi, virgin, virgin, p)
    return _factored_force(sol.tau, win.neg_sin, win.rate) / mu0, sol


def _force_jacobian(win, sol, p, keys, mu0):
    """Exact derivatives of the normalized forces at the angles of the
    :class:`_WindowFactors` ``win`` in the encoded parameters ``keys``,
    from the virgin return map ``sol`` there, whose plastic flags and
    hardening variables they read.  The hardening gradients are taken only
    for the hardening keys among ``keys``.

    At a plastic point the slip ``x = q > 0`` solves
    ``mu_f phi - mu_f x - f_iso(x) = 0`` and ``tau = mu_f (phi - x)``, so
    with ``D = mu_f + f_iso'(x)`` implicit differentiation gives
    ``dtau/dmu_f = (phi - x) f_iso'(x) / D`` and
    ``dtau/dp = mu_f df_iso/dp(x) / D`` for a hardening parameter ``p``.
    At an elastic point ``tau = mu_f phi``.  A log-searched key takes a
    factor of its value, and the force is linear in ``tau``.
    """
    phi = win.phi
    pl = sol.plastic
    x = sol.q[pl]
    fp = _f_iso_prime(x, p)
    d = p.mu_f + fp
    grad = _f_iso_grad(x, p, [key for key in keys if key != "mu_f"])
    dtau = np.zeros((phi.size, len(keys)))
    for k, key in enumerate(keys):
        if key == "mu_f":
            dtau[:, k] = phi
            dtau[pl, k] = (phi[pl] - x) * fp / d
        else:
            dtau[pl, k] = p.mu_f * grad[key] / d
        if key in _LOG_KEYS:
            dtau[:, k] *= getattr(p, _EP_FIELD_BY_KEY[key])
    return _factored_force(dtau, win.neg_sin[:, None],
                           win.rate[:, None]) / mu0


def _window(curve, mask):
    """Angles and forces of the curve, restricted to ``mask`` if given."""
    g = curve.gamma_deg
    f = curve.force_norm
    if mask is None:
        return g, f
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != g.shape:
        raise ValueError("mask shape does not match the curve")
    if not mask.any():
        raise ValueError("objective mask selects no data points")
    return g[mask], f[mask]


def objective(params, curve, mu0=1.0, mask=None):
    """Root-mean-square deviation of the model from the measured forces.

    Evaluated exactly at the data angles, so the value does not depend on
    the order of the data points.  Parameter sets whose consistency solve
    fails are scored infinite (rejected).

    Parameters
    ----------
    params : ElastoplasticParams
    curve : ExperimentCurve
    mask : array_like of bool, optional
        Restrict the misfit to a subset of the data points.
    """
    g, f = _window(curve, mask)
    try:
        model = model_forces(g, params, mu0=mu0)
    except ConvergenceError:
        return float("inf")
    return _rms(model - f)


def _rms(r):
    """Root-mean-square of the residuals ``r``, as :func:`objective`
    takes it."""
    return float(np.sqrt(np.mean(r ** 2)))


def _encode(key, value):
    return np.log(value) if key in _LOG_KEYS else value


def _decode(key, value):
    return float(np.exp(value)) if key in _LOG_KEYS else float(value)


# relative cost decrease below which a step that achieved over a quarter
# of its predicted decrease stops the fit.  Stage 2 creeps along its A*a
# ridge by small decreases: at 1e-8 it ran its whole budget of 300 on 3 of
# 100 AC9 noise draws.  A change of 1e-6 in the cost is far below what the
# data resolve: between noise draws the fitted rms varies by several
# percent.
_FTOL = 1e-6
# step length, relative to the encoded parameters, below which the fit stops
_XTOL = 1e-8
# largest gradient component of the cost, each times the distance to the
# bound it descends towards (Coleman & Li's scaling), below which the fit
# stops; absolute, so on a window the start already fits to the noise
# (stage 1 of AC9) the fit stops at the start rather than fit the noise.
# In the units of forces normalized by mu0 = 1: the gradient scales as
# 1 / mu0**2, and the fit compares it with _GTOL / mu0**2, so where it stops
# does not depend on the force normalization
_GTOL = 1e-8


def _identifiability(jac, keys):
    """Singular values of the residual Jacobian in the encoded parameters,
    their condition number, and the weakest right singular vector keyed by
    free parameter (sign fixed so that its largest entry is positive).
    The condition number is None where the Jacobian has a zero singular
    value, and no singular value is -0.0, so the dict is valid JSON."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    weak = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])
    return {"singular_values": (s + 0.0).tolist(),
            "condition_number": float(s[0] / s[-1]) if s[-1] > 0.0
            else None,
            "weakest_direction": {key: float(v) for key, v in zip(keys, weak)}}


def fit(initial, curve, free, max_evals=400, mu0=1.0, mask=None):
    """Bounded least-squares fit of the free parameters.

    Minimizes the cost ``|r|^2 / 2`` of the residuals ``r = model_forces -
    force`` over the masked points by Levenberg-Marquardt steps (Moré
    1978) in the encoded parameters: ``a``, ``b`` and ``c`` in log space,
    the others as they are.  Each step solves the damped Gauss-Newton
    problem with the exact Jacobian :func:`_force_jacobian` of the iterate,
    built from the solution of the iterate's evaluation, so it costs no
    model evaluation.  The window's angle factors (:func:`_window_factors`)
    are made once, so an evaluation computes only what its parameters
    change: the candidate, its return map and its forces.  The damping is
    scaled by Moré's ``D``, the largest Jacobian column norms seen so far,
    starts at ``1e-4``, is divided by 3 after a step whose cost decrease
    exceeds 3/4 of the one its linear model predicts and doubled after a
    step below 1/4 of it or a rejected one.  The candidate is clipped into
    ``DEFAULT_BOUNDS``, encoded alike, and accepted exactly when its cost
    falls below the iterate's.  A candidate that ``replace_params`` rejects
    or whose slip solve fails, or whose cost is not finite, is a rejected
    step and is never returned; a start that cannot be evaluated raises.
    Deterministic.  Non-free parameters pass through bit-identical.
    ``free`` must be a nonempty subset of ``FIT_KEYS`` and ``max_evals`` at
    least 1.

    The fit stops on the tests of Branch, Coleman & Li's trust-region
    method: the scaled gradient falls below ``_GTOL / mu0**2``, a step that
    achieves over 1/4 of its predicted decrease lowers the cost by less
    than ``_FTOL`` of itself, or a step is shorter than ``_XTOL`` of the
    parameters.

    Returns
    -------
    FitResult
        ``rms_start`` is the RMS misfit of the first evaluation, at the
        start as encoded and decoded (``exp(log x)`` may differ from ``x``
        in the last digit).  ``evals_used`` counts every model evaluation,
        that one included, and never exceeds ``max_evals``.  ``converged``
        is True when a stopping test was met, and False when the budget
        ran out first; the iterate is returned either way.
        ``identifiability`` is :func:`_identifiability` of the Jacobian at
        the returned parameters.
    """
    keys = tuple(free)
    if not keys:
        raise ValueError("free_params must be nonempty")
    for key in keys:
        if key not in FIT_KEYS:
            raise ValueError(f"unknown fit parameter {key!r}")
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    start = params_to_dict(initial)
    for key in keys:
        lo, hi = DEFAULT_BOUNDS[key]
        if not lo <= start[key] <= hi:
            raise ValueError(
                f"initial {key} = {start[key]} outside bounds [{lo}, {hi}]")
    u = np.array([_encode(key, start[key]) for key in keys])
    lb = np.array([_encode(key, DEFAULT_BOUNDS[key][0]) for key in keys])
    ub = np.array([_encode(key, DEFAULT_BOUNDS[key][1]) for key in keys])
    g, f = _window(curve, mask)
    win = _window_factors(gamma_to_theta(g))

    def evaluate(u):
        """Residuals, parameters and solution at the encoded ``u``."""
        updates = {key: _decode(key, u[k]) for k, key in enumerate(keys)}
        cand = replace_params(initial, updates)
        forces, sol = _solve_forces(win, cand, mu0)
        return forces - f, cand, sol

    r, params, sol = evaluate(u)
    rms_start = _rms(r)
    cost = 0.5 * (r @ r)
    jac = _force_jacobian(win, sol, params, keys, mu0)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    damping = 1e-4
    evals, converged = 1, False
    while True:
        grad = jac.T @ r
        dist = np.where(grad > 0.0, u - lb, np.where(grad < 0.0, ub - u, 1.0))
        converged = (converged
                     or np.max(np.abs(grad * dist)) < _GTOL / mu0**2)
        if converged or evals >= max_evals:
            break
        # the damped step in the variables scaled by D, from the SVD
        U, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
        step = -(vt.T @ (s / (s * s + damping) * (U.T @ r))) / scale
        u_new = np.clip(u + step, lb, ub)
        h = u_new - u
        evals += 1
        try:
            r_new, p_new, sol_new = evaluate(u_new)
            cost_new = 0.5 * (r_new @ r_new)
        except (ValueError, ConvergenceError):
            cost_new = np.inf
        rejected = not np.isfinite(cost_new)
        jh = jac @ h
        predicted = -(grad @ h + 0.5 * (jh @ jh))
        actual = -np.inf if rejected else cost - cost_new
        # step quality as trf rates it: a step that predicts and makes no
        # change counts as good
        rho = (actual / predicted if predicted > 0.0
               else float(actual == predicted == 0.0))
        if not rejected:
            converged = ((actual < _FTOL * cost and rho > 0.25)
                         or np.linalg.norm(h)
                         < _XTOL * (_XTOL + np.linalg.norm(u)))
        if actual > 0.0:
            u, r, params, sol, cost = u_new, r_new, p_new, sol_new, cost_new
            jac = _force_jacobian(win, sol, params, keys, mu0)
            scale = np.maximum(scale, np.linalg.norm(jac, axis=0))
        if rho < 0.25:
            damping *= 2.0
        elif rho > 0.75:
            damping /= 3.0
    return FitResult(
        params=params, rms_error=_rms(r), rms_start=rms_start,
        evals_used=evals, converged=bool(converged),
        identifiability=_identifiability(jac, keys))


# stage number -> (free parameters, gamma-window selector)
_STAGES = {
    1: (("mu_f",), lambda g: g <= 1.0),
    2: (("A", "a", "B", "b"), lambda g: (g >= 2.0) & (g <= 35.0)),
    3: (("C", "c"), lambda g: g > 35.0),
}


def staged_fit(initial, curve, stages=(1, 2, 3), max_evals=400, mu0=1.0):
    """Phase-by-phase calibration of a shear-frame curve.

    Stage 1 fits the shear stiffness on the initial slope (gamma <= 1 deg),
    stage 2 the primary hardening terms on 2..35 deg, stage 3 the locking
    power law above 35 deg.  The yield stress is never fitted here: frame
    tests of this kind provide no unloading data to identify it, so it
    stays at its initial value.

    Returns
    -------
    params : ElastoplasticParams
        Final parameters.
    report : dict
        The fit report ``calibrate`` writes: per-stage entries (free
        parameters, points used, ``rms_before``, the misfit of the stage's
        first evaluation, which is one of its ``evals`` (the fit's
        ``rms_start``), ``rms_after``, model evaluations, convergence,
        and the singular values, condition number and weakest direction
        of the exact Jacobian at the stage's fitted parameters),
        the final whole-curve rms ``rms_full_curve``, the evaluations of
        all stages ``evals_used``, and ``converged``, True when every
        executed stage converged.
    """
    params = initial
    report = {"stages": [], "label": curve.label, "evals_used": 0,
              "converged": True}
    for stage in stages:
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        keys, selector = _STAGES[stage]
        mask = selector(curve.gamma_deg)
        entry = {"stage": int(stage), "free": list(keys),
                 "points": int(mask.sum())}
        if mask.sum() < len(keys) + 1:
            entry["skipped"] = "not enough data points in the stage window"
            report["stages"].append(entry)
            continue
        res = fit(params, curve, keys, max_evals, mu0=mu0, mask=mask)
        params = res.params
        entry["rms_before"] = res.rms_start
        report["evals_used"] += res.evals_used
        report["converged"] &= res.converged
        entry["rms_after"] = res.rms_error
        entry["evals"] = res.evals_used
        entry["converged"] = res.converged
        entry.update(res.identifiability)
        report["stages"].append(entry)
    report["rms_full_curve"] = objective(params, curve, mu0=mu0)
    return params, report


def synthetic_curve(p, gamma_deg, rel_noise=0.0, seed=0, mu0=1.0,
                    label="synthetic"):
    """Model-generated data with multiplicative Gaussian noise."""
    forces = model_forces(gamma_deg, p, mu0=mu0)
    if rel_noise:
        rng = np.random.default_rng(seed)
        forces = forces * (1.0 + rel_noise * rng.standard_normal(forces.size))
    return ExperimentCurve(gamma_deg=np.asarray(gamma_deg, dtype=float),
                           force_norm=forces, label=label)
