"""Elastoplastic constitutive kernel for the fiber angle.

The single scalar internal mechanism is a plastic angle change phi_p with
isotropic hardening: the shear stress conjugate to the angle cosine is
tau = mu_f * phi_e with phi_e = phi - phi_p, admissible while
|tau| <= f_iso(q).  The return map is a pure function (it never mutates the
incoming state) and the batched variant drives all Gauss points of a mesh
in one call.  Stress-like parameters are in force per reference length
(N/mm in the calibrated data sets); the library itself is unit-agnostic.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConvergenceError",
    "ElastoplasticParams",
    "HyperelasticParams",
    "PlasticState",
    "StressReturn",
    "BatchReturn",
    "f_iso",
    "f_iso_prime",
    "yield_function",
    "return_map",
    "return_map_batch",
    "drive_angle_path",
    "DriveResult",
    "params_from_dict",
    "params_to_dict",
    "load_params",
    "save_params",
    "replace_params",
    "PARAM_JSON_KEYS",
]

# JSON name -> field of ElastoplasticParams
_EP_FIELD_BY_KEY = {
    "mu_f": "mu_f", "tau_y": "tau_y",
    "A": "A_h", "a": "a_h", "B": "B_h", "b": "b_h", "C": "C_h", "c": "c_h",
}
# flat JSON schema shared by parameter files, in canonical order
PARAM_JSON_KEYS = (*_EP_FIELD_BY_KEY, "eps_L")

# admissibility grid for the constructor check of f_iso' > 0
_Q_CHECK = np.linspace(0.0, 1.5, 1501)


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails; carries the last residual, the
    first unconverged point's flat index, and a path drive's ``phi``."""

    def __init__(self, message, residual=None, step_index=None, phi=None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index
        self.phi = phi


def _check_finite(params):
    """Reject a NaN or infinite field, which passes every range check."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ElastoplasticParams:
    """Shear stiffness and isotropic hardening constants.

    The hardening curve is
    ``f_iso(q) = tau_y + A_h asinh(a_h q) + B_h tanh(b_h q) + C_h q^c_h``.
    ``c_h >= 1`` keeps the derivative finite at q = 0, and construction
    verifies that ``f_iso'(q) > 0`` across the working range q in [0, 1.5]
    (sampled at 1e-3), so a strictly hardening response is guaranteed, and
    that ``f_iso``, ``f_iso'`` and ``mu_f^2`` stay finite.  Every field must
    be finite.
    """

    mu_f: float
    tau_y: float
    A_h: float = 0.0
    a_h: float = 1.0
    B_h: float = 0.0
    b_h: float = 1.0
    C_h: float = 0.0
    c_h: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.mu_f <= 0.0:
            raise ValueError(f"mu_f must be > 0, got {self.mu_f}")
        if self.tau_y < 0.0:
            raise ValueError(f"tau_y must be >= 0, got {self.tau_y}")
        for name in ("A_h", "B_h", "C_h"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("a_h", "b_h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.c_h < 1.0:
            raise ValueError(f"c_h must be >= 1, got {self.c_h}")
        mu = float(self.mu_f)
        if mu * mu == math.inf:     # the return map's tangent squares mu_f
            raise ValueError(f"mu_f = {mu} is too large: its square overflows")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # each term of f_iso is largest at q = 1.5
                f_iso(_Q_CHECK[-1], self)
                slope = f_iso_prime(_Q_CHECK, self)
        except FloatingPointError as exc:
            raise ValueError(
                "inadmissible hardening: f_iso or f_iso' leaves the range of "
                f"doubles on q in [0, 1.5] ({exc})") from None
        if not np.all(slope > 0.0):
            raise ValueError(
                "inadmissible hardening: f_iso'(q) must stay positive on "
                "q in [0, 1.5]")


@dataclass(frozen=True)
class HyperelasticParams:
    """Elastic stiffness outside the angle mechanism: ``eps_L``, the
    tensile fabric stiffness (force/length) of the fiber stretch energy.
    It must be finite and non-negative.
    """

    eps_L: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.eps_L < 0.0:
            raise ValueError(f"eps_L must be >= 0, got {self.eps_L}")


def params_from_dict(d):
    """Split a flat JSON-named mapping into the two parameter objects.

    ``mu_f`` and ``tau_y`` are required.  Unknown keys raise ValueError so
    that typos in parameter files fail loudly instead of silently falling
    back to defaults, and a value that is not a real number (a string or a
    bool, which ``float`` would take) raises TypeError.
    """
    unknown = set(d) - set(PARAM_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    for key in ("mu_f", "tau_y"):
        if key not in d:
            raise ValueError(f"missing required parameter: {key}")
    for key, value in d.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{key} must be a number, got {value!r}")
    ep = ElastoplasticParams(**{field: float(d[key]) for key, field
                                in _EP_FIELD_BY_KEY.items() if key in d})
    return ep, HyperelasticParams(float(d.get("eps_L", 0.0)))


def params_to_dict(ep, hp=None):
    """Flat JSON-named mapping for both parameter objects, in the order of
    ``PARAM_JSON_KEYS``."""
    d = {key: getattr(ep, field) for key, field in _EP_FIELD_BY_KEY.items()}
    d["eps_L"] = (hp or HyperelasticParams()).eps_L
    return d


def load_params(path):
    """Read a JSON parameter file: returns (ElastoplasticParams, HyperelasticParams)."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    return params_from_dict(d)


def save_params(path, ep, hp=None):
    """Write both parameter objects to a JSON file with the flat field names."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(ep, hp), fh, indent=2, sort_keys=False)
        fh.write("\n")


def replace_params(ep, updates):
    """Copy of ``ep`` with JSON-named entries of ``updates`` replaced."""
    unknown = set(updates) - set(_EP_FIELD_BY_KEY)
    if unknown:
        raise ValueError(f"unknown elastoplastic parameter keys: {sorted(unknown)}")
    return replace(ep, **{_EP_FIELD_BY_KEY[k]: float(v)
                          for k, v in updates.items()})


@dataclass(frozen=True)
class PlasticState:
    """History at one material point: plastic angle and hardening
    variable, which grows by the plastic slip of every step."""

    phi_p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.q < 0.0:
            raise ValueError(f"q must be >= 0, got {self.q}")


@dataclass(frozen=True)
class StressReturn:
    """Outcome of one return-map evaluation.

    ``tau = mu_f * phi_e`` holds exactly; ``new_state`` is the candidate
    history to commit after global convergence (the identical input object
    on an elastic step); ``dtau_dphi`` is the algorithmic tangent.
    """

    tau: float
    phi_e: float
    new_state: PlasticState
    dtau_dphi: float
    is_plastic: bool


class BatchReturn(NamedTuple):
    """Per-point arrays of :func:`return_map_batch`.

    ``phi_p`` and ``q`` are the candidate history, ``residual`` is ``|g|``
    at the accepted slip (zero on elastic points), and ``iterations`` the
    sweeps of the slowest point.
    """

    tau: np.ndarray
    phi_e: np.ndarray
    dtau_dphi: np.ndarray
    phi_p: np.ndarray
    q: np.ndarray
    residual: np.ndarray
    plastic: np.ndarray
    iterations: int


def _check_q(q):
    if np.any(np.asarray(q) < 0.0):
        raise ValueError("hardening variable q must be >= 0")


# cosh(x)^2, inf without an overflow warning once x passes about 355, so
# that a quotient by it is 0 there
def _cosh_sq(x):
    with np.errstate(over="ignore"):
        return np.cosh(x) ** 2


# unchecked bodies of f_iso, f_iso_prime and the parameter gradient of
# f_iso, for callers that have checked q >= 0 already
def _f_iso(q, p):
    return (p.tau_y
            + p.A_h * np.arcsinh(p.a_h * q)
            + p.B_h * np.tanh(p.b_h * q)
            + p.C_h * np.power(q, p.c_h))


def _f_iso_prime(q, p):
    return (p.A_h * p.a_h / np.sqrt(1.0 + (p.a_h * q) ** 2)
            + p.B_h * p.b_h / _cosh_sq(p.b_h * q)
            + p.C_h * p.c_h * np.power(q, p.c_h - 1.0))


def _f_iso_grad(q, p):
    """Derivatives of f_iso(q) in its parameters, keyed by JSON name.

    ``q^c ln q`` is taken as its limit 0 at q = 0 (``c_h >= 1``).
    """
    qc = np.power(q, p.c_h)
    return {"tau_y": np.ones_like(q),
            "A": np.arcsinh(p.a_h * q),
            "a": p.A_h * q / np.sqrt(1.0 + (p.a_h * q) ** 2),
            "B": np.tanh(p.b_h * q),
            "b": p.B_h * q / _cosh_sq(p.b_h * q),
            "C": qc,
            "c": p.C_h * qc * np.log(np.where(q > 0.0, q, 1.0))}


def f_iso(q, p):
    """Isotropic hardening stress at hardening variable q >= 0."""
    _check_q(q)
    return _f_iso(q, p)


def f_iso_prime(q, p):
    """Hardening modulus d f_iso / d q at q >= 0."""
    _check_q(q)
    return _f_iso_prime(q, p)


def yield_function(tau, q, p):
    """Yield value |tau| - f_iso(q); negative means elastic."""
    return np.abs(tau) - f_iso(q, p)


# relative stopping tolerance and sweep cap of the slip solve; the polish
# step that follows takes the slip to round-off, so neither is a setting
_SLIP_TOL = 1e-12
_SLIP_MAX_ITER = 50


def _slip_solve(t, q, g0, p, x0=None):
    """Slip ``x > 0`` of ``g(x) = t - mu_f x - f_iso(q + x) = 0`` per point.

    The consistency equation of the return map (``t = |tau_trial|``) and
    of the interval solve (``t = d tau0 + mu_f |phi_bar|``), with
    ``g0 = g(0) > 0`` and ``q`` an array like ``t`` or a float, which the
    caller has checked to be ``>= 0``.  Each point runs a safeguarded Newton
    iteration (``rtsafe``, Numerical Recipes 9.4) in its bracket, first
    ``(0, t / mu_f]``, bisecting when a step leaves it, until
    ``|g| <= _SLIP_TOL * max(mu_f, f_iso(q + x))``; then one polish step,
    a Newton step with the modulus at that ``x``, kept if it stays in the
    bracket.  The iteration starts at ``x = 0``, or, given a start slip
    ``x0`` like ``t`` (the slip of a nearby solve), at ``x0`` clipped into
    the bracket, where ``g`` is evaluated first and the bracket narrowed;
    a start that already meets the tolerance takes no sweep.  Points never
    mix.  Returns the slip, ``|g|`` there, each point's sweeps before the
    polish step, and the polish step's modulus ``-mu_f - f_iso'``.  Raises
    ConvergenceError (largest unconverged ``|g|``, first such index) after
    ``_SLIP_MAX_ITER`` sweeps, and RuntimeError on a nonpositive slip.
    """
    # every iterate q + x stays in [q, q + t / mu_f], so the caller's
    # check of q covers the unchecked hardening bodies
    mu = p.mu_f
    lo = np.zeros_like(t)
    hi = t / mu
    act = np.ones(t.shape, dtype=bool)
    if x0 is None:
        x = lo
        g = g0
        gp = -mu - _f_iso_prime(q + x, p)
    else:
        x = np.minimum(np.maximum(x0, 0.0), hi)
        fk = _f_iso(q + x, p)
        g = t - mu * x - fk
        gp = -mu - _f_iso_prime(q + x, p)
        up = g > 0.0
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        act &= ~(np.abs(g) <= _SLIP_TOL * np.maximum(mu, fk))
    iterations = np.zeros(t.shape, dtype=int)
    for _ in range(_SLIP_MAX_ITER):
        if not act.any():
            break
        step = x - g / gp
        inside = (step > lo) & (step <= hi)        # False on nan
        x = np.where(act, np.where(inside, step, 0.5 * (lo + hi)), x)
        # stopped points keep x, so g, gp, lo and hi repeat their values
        fk = _f_iso(q + x, p)
        g = t - mu * x - fk
        gp = -mu - _f_iso_prime(q + x, p)
        iterations += act
        up = g > 0.0
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        act &= ~(np.abs(g) <= _SLIP_TOL * np.maximum(mu, fk))
    if act.any():
        worst = float(np.abs(g[act]).max())
        raise ConvergenceError(
            f"slip solve failed to converge in {_SLIP_MAX_ITER} iterations "
            f"(max |g| = {worst:.3e})", worst, int(act.argmax()))
    step = x - g / gp
    x = np.where((step > lo) & (step <= hi), step, x)
    if (x <= 0.0).any():
        raise RuntimeError(
            "internal consistency violation: nonpositive plastic slip "
            "increment on a plastic step")
    return x, np.abs(t - mu * x - _f_iso(q + x, p)), iterations, gp


def return_map_batch(phi_new, phi_p, q, p, slip0=None):
    """Vectorized backward-Euler return map over independent points.

    The slip solve brings ``|g|`` to round-off of ``max(mu_f, f_iso(q_new))``
    inside the bracket ``(0, |phi_e_trial|]``, where the residual changes
    sign.

    Parameters
    ----------
    phi_new : (n,) array_like
        Total angle change at the end of the step.
    phi_p, q : (n,) array_like
        Committed history at the start of the step.
    p : ElastoplasticParams
    slip0 : (n,) array_like, optional
        Start slip of each point's solve, for example the slip of the last
        solve at a nearby angle; the solve starts at zero by default.  The
        start changes the slip only at round-off.

    Returns
    -------
    BatchReturn

    Raises
    ------
    ConvergenceError
        If a plastic point fails; ``step_index`` is the first in ``phi_new``.
    RuntimeError
        If a plastic step produces a nonpositive slip increment.
    """
    mu = p.mu_f
    phi_new = np.asarray(phi_new, dtype=float)
    phi_p = np.asarray(phi_p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_q(q)

    phi_e = phi_new - phi_p          # trial elastic angle
    tau_tr = mu * phi_e
    h = np.where(tau_tr >= 0.0, 1.0, -1.0)
    f_tr = h * tau_tr - _f_iso(q, p)
    plastic = f_tr > 0.0

    dtau = np.full(phi_new.shape, mu)
    phi_p_new = phi_p.copy()
    q_new = q.copy()
    residual = np.zeros(phi_new.shape)
    iterations = 0
    if plastic.any():
        # while every point yields, basic slices view the arrays, with no
        # gather or scatter
        idx = slice(None) if plastic.all() else np.flatnonzero(plastic)
        hs = h[idx]
        qi = q[idx]
        try:
            x, residual[idx], its, gp = _slip_solve(
                hs * tau_tr[idx], qi, f_tr[idx], p,
                None if slip0 is None else np.asarray(slip0, float)[idx])
        except ConvergenceError as exc:
            exc.step_index = int(np.flatnonzero(plastic)[exc.step_index])
            raise
        phi_e[idx] -= hs * x
        # consistent tangent, with the slope of the polish step
        dtau[idx] = mu + mu ** 2 / gp
        phi_p_new[idx] = phi_p[idx] + hs * x
        q_new[idx] = qi + x
        iterations = int(its.max())

    return BatchReturn(mu * phi_e, phi_e, dtau, phi_p_new, q_new, residual,
                       plastic, iterations)


def return_map(phi_new, state_old, p):
    """Backward-Euler return map at a single material point.

    Pure function: ``state_old`` is never mutated, and on an elastic step
    the returned result carries the identical state object.

    Parameters
    ----------
    phi_new : float
        Total angle change at the end of the step.
    state_old : PlasticState
        Committed history at the start of the step.
    p : ElastoplasticParams

    Returns
    -------
    StressReturn
    """
    out = return_map_batch(np.array([phi_new]), np.array([state_old.phi_p]),
                           np.array([state_old.q]), p)
    if out.plastic[0]:
        new_state = PlasticState(phi_p=float(out.phi_p[0]), q=float(out.q[0]))
    else:
        new_state = state_old
    return StressReturn(tau=float(out.tau[0]), phi_e=float(out.phi_e[0]),
                        new_state=new_state, dtau_dphi=float(out.dtau_dphi[0]),
                        is_plastic=bool(out.plastic[0]))


def _voigt_stress(tau, gamma, eps_L=0.0, lam=None):
    """Voigt stress ``s = dW/dC`` (3, ...) by the fiber metric, of the
    energy ``W = mu_f phi_e^2 / 2 + eps_L ((lam1 - 1)^2 + (lam2 - 1)^2) / 2``:
    the body of the FE element residual, ``fe._FrameModel.evaluate``.  The
    angle part is ``tau gamma``; the stretches ``lam`` (2, ...) add
    ``eps_L (lam - 1) / (2 lam)``."""
    stress = tau * gamma
    if eps_L != 0.0:
        stress[:2] += 0.5 * eps_L * (lam - 1.0) / lam
    return stress


def _voigt_tangent(tau, dtau, gamma, Gamma, eps_L=0.0, lam=None):
    """Tangent ``T = d2W/dC2`` (3, 3, ...) of the energy of
    :func:`_voigt_stress`: the body of ``fe._FrameModel.tangent``.  The
    angle part is ``dtau gamma gamma^T + tau Gamma``; the stretches add
    ``eps_L / (4 lam^3)``."""
    tangent = dtau * (gamma[:, None] * gamma[None]) + tau * Gamma
    if eps_L != 0.0:
        tangent[[0, 1], [0, 1]] += 0.25 * eps_L / (lam * lam * lam)
    return tangent


@dataclass(frozen=True, eq=False)
class DriveResult:
    """History arrays produced by the incremental angle driver."""

    phi: np.ndarray
    tau: np.ndarray
    phi_e: np.ndarray
    phi_p: np.ndarray
    q: np.ndarray


def drive_angle_path(phi_path, p):
    """Drive a material point from the virgin state through a prescribed
    angle-change path.

    Each entry of ``phi_path`` is one committed backward-Euler step.  A
    plastic step ends on the yield surface, so a run of steps that does not
    turn is one :func:`return_map_batch` call from the history before it.
    The first step starts a run of its own, as no state records a direction.

    Parameters
    ----------
    phi_path : (n,) array_like
        Total angle change at the end of each step.
    p : ElastoplasticParams

    Returns
    -------
    DriveResult
    """
    phi_path = np.asarray(phi_path, dtype=float)
    phi_p0 = q0 = 0.0       # the history before each run
    nz = np.flatnonzero(np.diff(phi_path))
    turns = nz[np.diff(np.sign(np.diff(phi_path)[nz]), prepend=0.0) != 0.0]
    edges = np.unique(np.r_[0, 1 + turns, phi_path.size]).tolist()
    tau, phi_p, q = np.empty((3, phi_path.size))
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            out = return_map_batch(phi_path[a:b], np.full(b - a, phi_p0),
                                   np.full(b - a, q0), p)
        except ConvergenceError as exc:
            k = a + exc.step_index
            phi = float(phi_path[k])
            raise ConvergenceError(
                f"return map failed at phi_path[{k}] = {phi!r}: {exc}",
                exc.residual, k, phi) from exc
        tau[a:b], phi_p[a:b], q[a:b] = out.tau, out.phi_p, out.q
        phi_p0, q0 = phi_p[b - 1], q[b - 1]
    return DriveResult(phi=phi_path.copy(), tau=tau, phi_e=phi_path - phi_p,
                       phi_p=phi_p, q=q)
