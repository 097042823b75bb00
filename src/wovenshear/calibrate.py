"""Calibration of the shear response to picture-frame force curves.

The normalized pull force of a monotone frame test is a closed-form
function of the elastoplastic parameters, so fitting reduces to a
derivative-free least-squares search against digitized data points.  The
staged fit isolates parameters by the loading phase that exposes them:
the initial slope pins the shear stiffness, the mid range pins the primary
hardening terms, and the locking range pins the power-law pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .analytic import IntervalState, frame_force, interval_solve_batch
from .analytic import interval_solve  # unused; perfbench/spans.py wraps it
from .kinematics import gamma_to_theta
from .material import ConvergenceError, replace_params

__all__ = [
    "ExperimentCurve",
    "FitConfig",
    "FitResult",
    "DEFAULT_BOUNDS",
    "FIT_KEYS",
    "model_forces",
    "objective",
    "fit",
    "staged_fit",
    "synthetic_curve",
]

FIT_KEYS = ("mu_f", "tau_y", "A", "a", "B", "b", "C", "c")
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

    Angles must be strictly increasing and forces finite; the label tags
    the data source.
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
        object.__setattr__(self, "gamma_deg", g)
        object.__setattr__(self, "force_norm", f)

    def __len__(self):
        return self.gamma_deg.size

    @property
    def points(self):
        return [(float(g), float(f))
                for g, f in zip(self.gamma_deg, self.force_norm)]

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.gamma_deg, self.force_norm]),
                   fmt="%.17g", delimiter=",", header="gamma_deg,force_norm",
                   comments="")

    @classmethod
    def from_csv(cls, path, label=""):
        """Read `gamma_deg,force_norm` rows; lines starting with # are
        comments and may precede the header."""
        rows = []
        header_seen = False
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    if line != "gamma_deg,force_norm":
                        raise ValueError(
                            f"unexpected data header: {line!r}")
                    header_seen = True
                    continue
                rows.append([float(tok) for tok in line.split(",")])
        if not header_seen:
            raise ValueError("missing gamma_deg,force_norm header")
        data = np.asarray(rows, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError("data rows must have two columns")
        return cls(gamma_deg=data[:, 0], force_norm=data[:, 1], label=label)


@dataclass(frozen=True)
class FitConfig:
    """Free-parameter set, search box, and evaluation budget."""

    free_params: tuple
    bounds: dict | None = None
    max_evals: int = 400

    def __post_init__(self):
        free = tuple(self.free_params)
        if not free:
            raise ValueError("free_params must be nonempty")
        for key in free:
            if key not in FIT_KEYS:
                raise ValueError(f"unknown fit parameter {key!r}")
        bounds = dict(DEFAULT_BOUNDS)
        if self.bounds:
            bounds.update(self.bounds)
        for key in free:
            lo, hi = bounds[key]
            if not lo < hi:
                raise ValueError(f"bounds for {key!r} must satisfy lo < hi")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        object.__setattr__(self, "free_params", free)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their RMS misfit, and the search budget used."""

    params: object
    rms_error: float
    evals_used: int
    converged: bool


def model_forces(gamma_deg, p, L0=1.0, mu0=1.0):
    """Normalized pull force at the given shear angles, virgin loading.

    Monotone loading from the virgin state is history-free point by point,
    so every angle is evaluated exactly (no interpolation) as an increment
    from the virgin state, all in one batched closed-form solve.
    """
    theta = gamma_to_theta(np.asarray(gamma_deg, dtype=float).reshape(-1))
    sol = interval_solve_batch(np.cos(theta), IntervalState(), p)
    return frame_force(sol.tau, theta, L0) / (L0 * mu0)


def objective(params, curve, L0=1.0, mu0=1.0, mask=None):
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
    g = curve.gamma_deg
    f = curve.force_norm
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != g.shape:
            raise ValueError("mask shape does not match the curve")
        if not mask.any():
            raise ValueError("objective mask selects no data points")
        g = g[mask]
        f = f[mask]
    try:
        model = model_forces(g, params, L0=L0, mu0=mu0)
    except ConvergenceError:
        return float("inf")
    return float(np.sqrt(np.mean((model - f) ** 2)))


def _encode(key, value):
    return np.log(value) if key in _LOG_KEYS else value


def _decode(key, value):
    return float(np.exp(value)) if key in _LOG_KEYS else float(value)


def _initial_simplex(u0, keys, ubounds):
    """Nonsingular start simplex with scale-aware steps.

    Log-scaled keys step by 0.10 in log space; linear keys by 2% of their
    start value (falling back to a small absolute step at zero).  Steps are
    kept inside the bounds by flipping direction if needed.
    """
    n = u0.size
    simplex = np.tile(u0, (n + 1, 1))
    for k, key in enumerate(keys):
        if key in _LOG_KEYS:
            step = 0.10
        else:
            step = 0.02 * abs(u0[k]) if u0[k] != 0.0 else 0.01
        lo, hi = ubounds[k]
        if u0[k] + step > hi:
            step = -step
        simplex[k + 1, k] = min(max(u0[k] + step, lo), hi)
        if simplex[k + 1, k] == u0[k]:
            simplex[k + 1, k] = 0.5 * (u0[k] + hi)
    return simplex


def fit(initial, curve, cfg, L0=1.0, mu0=1.0, mask=None):
    """Bounded simplex search over the free parameters.

    Derivative-free (the objective has elastic/plastic kinks), bounded,
    and deterministic.  Non-free parameters pass through bit-identical;
    candidates violating the parameter-set invariants score infinite and
    are never returned.

    Returns
    -------
    FitResult
        ``converged`` is False when the evaluation budget ran out before
        the simplex collapsed; the best-so-far parameters are returned
        either way.
    """
    keys = cfg.free_params
    start = initial.to_dict()
    for key in keys:
        lo, hi = cfg.bounds[key]
        if not lo <= start[key] <= hi:
            raise ValueError(
                f"initial {key} = {start[key]} outside bounds [{lo}, {hi}]")
    u0 = np.array([_encode(key, start[key]) for key in keys])
    ubounds = [(_encode(key, max(cfg.bounds[key][0], 1e-300))
                if key in _LOG_KEYS else cfg.bounds[key][0],
                _encode(key, cfg.bounds[key][1]))
               for key in keys]

    def score(u):
        updates = {key: _decode(key, u[k]) for k, key in enumerate(keys)}
        try:
            cand = replace_params(initial, updates)
        except ValueError:
            return float("inf")
        return objective(cand, curve, L0=L0, mu0=mu0, mask=mask)

    res = minimize(score, u0, method="Nelder-Mead", bounds=ubounds,
                   options={
                       "maxfev": cfg.max_evals,
                       "xatol": 1e-9,
                       "fatol": 1e-14,
                       "initial_simplex": _initial_simplex(u0, keys, ubounds),
                   })
    updates = {key: _decode(key, res.x[k]) for k, key in enumerate(keys)}
    best = replace_params(initial, updates)
    return FitResult(params=best, rms_error=float(res.fun),
                     evals_used=int(res.nfev), converged=bool(res.success))


# stage number -> (free parameters, gamma-window selector)
_STAGES = {
    1: (("mu_f",), lambda g: g <= 1.0),
    2: (("A", "a", "B", "b"), lambda g: (g >= 2.0) & (g <= 35.0)),
    3: (("C", "c"), lambda g: g > 35.0),
}


def staged_fit(initial, curve, stages=(1, 2, 3), bounds=None, max_evals=400,
               L0=1.0, mu0=1.0):
    """Phase-by-phase calibration of a shear-frame curve.

    Stage 1 fits the shear stiffness on the initial slope (gamma <= 1 deg),
    stage 2 the primary hardening terms on 2..35 deg, stage 3 the locking
    power law above 35 deg.  The yield stress is never fitted here: frame
    tests of this kind provide no unloading data to identify it, so it
    stays at its initial value.

    Returns
    -------
    result : FitResult
        Final parameters; ``rms_error`` is measured over the full curve,
        ``converged`` requires every executed stage to have converged.
    report : dict
        Per-stage entries (free parameters, points used, rms before/after,
        evaluations) plus the final whole-curve rms.
    """
    params = initial
    report = {"stages": [], "label": curve.label}
    evals_total = 0
    all_converged = True
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
        cfg = FitConfig(free_params=keys, bounds=bounds, max_evals=max_evals)
        entry["rms_before"] = objective(params, curve, L0=L0, mu0=mu0,
                                        mask=mask)
        res = fit(params, curve, cfg, L0=L0, mu0=mu0, mask=mask)
        params = res.params
        evals_total += res.evals_used
        all_converged = all_converged and res.converged
        entry["rms_after"] = res.rms_error
        entry["evals"] = res.evals_used
        entry["converged"] = res.converged
        report["stages"].append(entry)
    final_rms = objective(params, curve, L0=L0, mu0=mu0)
    report["rms_full_curve"] = final_rms
    result = FitResult(params=params, rms_error=final_rms,
                       evals_used=evals_total, converged=all_converged)
    return result, report


def synthetic_curve(p, gamma_deg, rel_noise=0.0, seed=0, L0=1.0, mu0=1.0,
                    label="synthetic"):
    """Model-generated data with multiplicative Gaussian noise."""
    forces = model_forces(gamma_deg, p, L0=L0, mu0=mu0)
    if rel_noise:
        rng = np.random.default_rng(seed)
        forces = forces * (1.0 + rel_noise * rng.standard_normal(forces.size))
    return ExperimentCurve(gamma_deg=np.asarray(gamma_deg, dtype=float),
                           force_norm=forces, label=label)
