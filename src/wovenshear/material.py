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
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .kinematics import _bending_invariants, _chart, _chart4, fiber_state

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
    "angle_stress_and_tangent",
    "membrane_stress",
    "BendingResponse",
    "moments_and_bending_tangents",
    "strain_energy",
    "drive_angle_path",
    "DriveResult",
    "params_from_dict",
    "params_to_dict",
    "load_params",
    "save_params",
    "replace_params",
    "PARAM_JSON_KEYS",
]

# flat JSON schema shared by parameter files, in canonical order
PARAM_JSON_KEYS = (
    "mu_f", "tau_y", "A", "a", "B", "b", "C", "c",
    "eps_L", "beta_n", "beta_g", "beta_tau",
)

_EP_FIELD_BY_KEY = {
    "mu_f": "mu_f", "tau_y": "tau_y",
    "A": "A_h", "a": "a_h", "B": "B_h", "b": "b_h", "C": "C_h", "c": "c_h",
}
_HP_FIELD_BY_KEY = {
    "eps_L": "eps_L", "beta_n": "beta_n", "beta_g": "beta_g",
    "beta_tau": "beta_tau",
}

# admissibility grid for the constructor check of f_iso' > 0
_Q_CHECK = np.linspace(0.0, 1.5, 1501)


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails; carries the last residual, and
    from :func:`drive_angle_path` the failing step's index and ``phi``."""

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
    (sampled at 1e-3), so a strictly hardening response is guaranteed.
    Every field must be finite.
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
        if not np.all(f_iso_prime(_Q_CHECK, self) > 0.0):
            raise ValueError(
                "inadmissible hardening: f_iso'(q) must stay positive on "
                "q in [0, 1.5]")

    @classmethod
    def from_dict(cls, d):
        """Build from a flat mapping with the JSON field names."""
        for key in ("mu_f", "tau_y"):
            if key not in d:
                raise ValueError(f"missing required parameter: {key}")
        kwargs = {field: float(d[key])
                  for key, field in _EP_FIELD_BY_KEY.items() if key in d}
        return cls(**kwargs)

    def to_dict(self):
        return {key: getattr(self, field)
                for key, field in _EP_FIELD_BY_KEY.items()}


@dataclass(frozen=True)
class HyperelasticParams:
    """Elastic stiffnesses outside the angle mechanism.

    ``eps_L`` is the tensile fabric stiffness (force/length); ``beta_n``,
    ``beta_g``, ``beta_tau`` the out-of-plane bending, in-plane bending and
    torsion stiffnesses (force times length).  Every field must be finite
    and non-negative.
    """

    eps_L: float = 0.0
    beta_n: float = 0.0
    beta_g: float = 0.0
    beta_tau: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        for name in ("eps_L", "beta_n", "beta_g", "beta_tau"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, d):
        kwargs = {field: float(d[key])
                  for key, field in _HP_FIELD_BY_KEY.items() if key in d}
        return cls(**kwargs)

    def to_dict(self):
        return {key: getattr(self, field)
                for key, field in _HP_FIELD_BY_KEY.items()}


def params_from_dict(d):
    """Split a flat JSON-named mapping into the two parameter objects.

    Unknown keys raise ValueError so that typos in parameter files fail
    loudly instead of silently falling back to defaults.
    """
    unknown = set(d) - set(PARAM_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    return ElastoplasticParams.from_dict(d), HyperelasticParams.from_dict(d)


def params_to_dict(ep, hp=None):
    """Flat JSON-named mapping for both parameter objects."""
    d = ep.to_dict()
    d.update((hp or HyperelasticParams()).to_dict())
    return {key: d[key] for key in PARAM_JSON_KEYS}


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
    iterations: int = 0
    residual: float = 0.0


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


def f_iso(q, p):
    """Isotropic hardening stress at hardening variable q >= 0."""
    _check_q(q)
    return (p.tau_y
            + p.A_h * np.arcsinh(p.a_h * q)
            + p.B_h * np.tanh(p.b_h * q)
            + p.C_h * np.power(q, p.c_h))


def f_iso_prime(q, p):
    """Hardening modulus d f_iso / d q at q >= 0."""
    _check_q(q)
    return (p.A_h * p.a_h / np.sqrt(1.0 + (p.a_h * q) ** 2)
            + p.B_h * p.b_h / np.cosh(p.b_h * q) ** 2
            + p.C_h * p.c_h * np.power(q, p.c_h - 1.0))


def yield_function(tau, q, p):
    """Yield value |tau| - f_iso(q); negative means elastic."""
    return np.abs(tau) - f_iso(q, p)


# relative stopping tolerance and sweep cap of the slip solve; the polish
# step that follows takes the slip to round-off, so neither is a setting
_SLIP_TOL = 1e-12
_SLIP_MAX_ITER = 50


def _slip_solve(t, q, g0, p):
    """Slip ``x > 0`` of ``g(x) = t - mu_f x - f_iso(q + x) = 0`` per point.

    The consistency equation of the return map (``t = |tau_trial|``) and
    of the interval solve (``t = d tau0 + mu_f |phi_bar|``), with
    ``g0 = g(0) > 0`` and ``q`` an array like ``t`` or a float.  Each point
    runs a safeguarded Newton iteration (``rtsafe``, Numerical Recipes
    9.4) in its bracket, first ``(0, t / mu_f]``, bisecting when a step
    leaves it, until ``|g| <= _SLIP_TOL * max(mu_f, f_iso(q + x))``; then
    one polish step, a Newton step with the modulus at that ``x``, kept if
    it stays in the bracket.  Points never mix.  Returns the slip, ``|g|``
    there, each point's sweeps before the polish step, and the polish
    step's modulus ``-mu_f - f_iso'``.  Raises ConvergenceError with the
    largest unconverged ``|g|`` after ``_SLIP_MAX_ITER`` sweeps, and
    RuntimeError on a nonpositive slip.
    """
    mu = p.mu_f
    lo = np.zeros_like(t)
    hi = t / mu
    x = lo
    g = g0
    gp = -mu - f_iso_prime(q + x, p)
    iterations = np.zeros(t.shape, dtype=int)
    act = np.ones(t.shape, dtype=bool)
    for _ in range(_SLIP_MAX_ITER):
        if not act.any():
            break
        step = x - g / gp
        inside = (step > lo) & (step <= hi)        # False on nan
        x = np.where(act, np.where(inside, step, 0.5 * (lo + hi)), x)
        # stopped points keep x, so g, gp, lo and hi repeat their values
        fk = f_iso(q + x, p)
        g = t - mu * x - fk
        gp = -mu - f_iso_prime(q + x, p)
        iterations += act
        up = g > 0.0
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        act &= ~(np.abs(g) <= _SLIP_TOL * np.maximum(mu, fk))
    if act.any():
        worst = float(np.abs(g[act]).max())
        raise ConvergenceError(
            f"slip solve failed to converge in {_SLIP_MAX_ITER} iterations "
            f"(max |g| = {worst:.3e})", residual=worst)
    step = x - g / gp
    x = np.where((step > lo) & (step <= hi), step, x)
    if (x <= 0.0).any():
        raise RuntimeError(
            "internal consistency violation: nonpositive plastic slip "
            "increment on a plastic step")
    return x, np.abs(t - mu * x - f_iso(q + x, p)), iterations, gp


def return_map_batch(phi_new, phi_p, q, p):
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

    Returns
    -------
    BatchReturn

    Raises
    ------
    ConvergenceError
        If any plastic point fails to reach tolerance.
    RuntimeError
        If a plastic step produces a nonpositive slip increment.
    """
    mu = p.mu_f
    phi_new = np.asarray(phi_new, dtype=float)
    phi_p = np.asarray(phi_p, dtype=float)
    q = np.asarray(q, dtype=float)

    phi_e = phi_new - phi_p          # trial elastic angle
    tau_tr = mu * phi_e
    h = np.where(tau_tr >= 0.0, 1.0, -1.0)
    f_tr = h * tau_tr - f_iso(q, p)
    plastic = f_tr > 0.0

    phi_e = phi_e.copy()
    dtau = np.full(phi_new.shape, mu)
    phi_p_new = phi_p.copy()
    q_new = q.copy()
    residual = np.zeros(phi_new.shape)
    iterations = 0

    idx = np.nonzero(plastic)[0]
    if idx.size:
        hs = h[idx]
        qi = q[idx]
        x, residual[idx], its, gp = _slip_solve(
            hs * tau_tr[idx], qi, f_tr[idx], p)
        phi_e[idx] = phi_e[idx] - hs * x
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
                        is_plastic=bool(out.plastic[0]),
                        iterations=out.iterations,
                        residual=float(out.residual[0]))


def _stress_arrays(tau, dtau, gamma, Gamma, eps_L=0.0, lam=None):
    """Voigt stress ``s = dW/dC`` (3, ...) and tangent ``T = d2W/dC2``
    (3, 3, ...) by the fiber metric: the body of
    :func:`angle_stress_and_tangent`, :func:`membrane_stress` and the FE
    element kernel.  The angle part is ``tau gamma`` and
    ``dtau gamma gamma^T + tau Gamma``; the stretches ``lam`` (2, ...) add
    ``eps_L (lam - 1) / (2 lam)`` and ``eps_L / (4 lam^3)``.  The chart
    forms are ``2 s_I M_I`` and ``4 T_IJ M_I (x) M_J`` on the dyads ``M``."""
    stress = tau * gamma
    tangent = dtau * (gamma[:, None] * gamma[None]) + tau * Gamma
    if eps_L != 0.0:
        stress[:2] += 0.5 * eps_L * (lam - 1.0) / lam
        tangent[[0, 1], [0, 1]] += 0.25 * eps_L / (lam * lam * lam)
    return stress, tangent


def angle_stress_and_tangent(sr, st):
    """Angle contribution to membrane stress and material tangent.

    Parameters
    ----------
    sr : StressReturn
    st : StructuralTensors
        From the same kinematic point the return map was driven with.

    Returns
    -------
    tau_a : (2, 2) ndarray
        Contravariant stress components ``2 tau g12``.
    c_a : (2, 2, 2, 2) ndarray
        Consistent tangent ``4 mu_eff g12 (x) g12 + 4 tau g12_grad`` with
        ``mu_eff = sr.dtau_dphi``, expanded from :func:`_stress_arrays`.
    """
    _, tangent = _stress_arrays(sr.tau, sr.dtau_dphi, st.gamma, st.Gamma)
    return 2.0 * sr.tau * st.g12, 4.0 * _chart4(tangent, st.dyads)


def membrane_stress(m, f, sr, st, hp):
    """Total membrane stress and tangent: fiber stretch plus angle parts,
    expanded from the Voigt arrays of :func:`_stress_arrays`.

    Returns
    -------
    tau_total : (2, 2) ndarray
    c_total : (2, 2, 2, 2) ndarray
    """
    fs = fiber_state(m, f)
    stress, tangent = _stress_arrays(
        sr.tau, sr.dtau_dphi, st.gamma, st.Gamma, hp.eps_L,
        np.array([fs.lambda1, fs.lambda2]))
    return 2.0 * _chart(stress, st.dyads), 4.0 * _chart4(tangent, st.dyads)


@dataclass(frozen=True, eq=False)
class BendingResponse:
    """Moments conjugate to the two curvature forms and their tangents.

    The cross tangents between the normal and geodesic curvature forms
    vanish for this quadratic energy, so only the diagonal blocks appear.
    """

    M0: np.ndarray
    Mbar0: np.ndarray
    f_tan: np.ndarray
    fbar_tan: np.ndarray


def moments_and_bending_tangents(m, f, c, hp):
    """Elastic bending/twist moments at a material point.

    Quadratic energy in the per-fiber normal-curvature, geodesic-curvature
    and twist invariants; state-free.
    """
    L = np.stack([f.L1, f.L2])
    c0 = np.asarray(c.c0, dtype=float).reshape(2, 2)
    LL = np.einsum("ia,ib->iab", L, L)
    K_n, K_g, T_g = _bending_invariants(L, c)
    cL = 0.5 * (np.einsum("ia,ib->iab", c0, L) + np.einsum("ia,ib->iab", L, c0))
    M0 = (hp.beta_n * np.einsum("i,iab->ab", K_n, LL)
          + hp.beta_tau * np.einsum("i,iab->ab", T_g, cL))
    Mbar0 = hp.beta_g * np.einsum("i,iab->ab", K_g, LL)
    f_tan = (hp.beta_n * np.einsum("iab,igd->abgd", LL, LL)
             + hp.beta_tau * np.einsum("iab,igd->abgd", cL, cL))
    fbar_tan = hp.beta_g * np.einsum("iab,igd->abgd", LL, LL)
    return BendingResponse(M0=M0, Mbar0=Mbar0, f_tan=f_tan, fbar_tan=fbar_tan)


def strain_energy(m, f, c, phi_e, hp, ep):
    """Stored energy per reference area at a material point.

    Quadratic in the fiber stretches, the elastic angle change, and (when
    curvature data is given) the bending/twist invariants.  Nonnegative by
    construction.
    """
    fs = fiber_state(m, f)
    W = 0.5 * hp.eps_L * ((fs.lambda1 - 1.0) ** 2 + (fs.lambda2 - 1.0) ** 2)
    W += 0.5 * ep.mu_f * phi_e ** 2
    if c is not None:
        K_n, K_g, T_g = _bending_invariants(np.stack([f.L1, f.L2]), c)
        W += 0.5 * (hp.beta_n * np.sum(K_n ** 2) + hp.beta_g * np.sum(K_g ** 2)
                    + hp.beta_tau * np.sum(T_g ** 2))
    return float(W)


@dataclass(frozen=True, eq=False)
class DriveResult:
    """History arrays produced by the incremental angle driver."""

    phi: np.ndarray
    tau: np.ndarray
    phi_e: np.ndarray
    phi_p: np.ndarray
    q: np.ndarray
    state_final: PlasticState


def drive_angle_path(phi_path, p, state=None):
    """Drive a material point through a prescribed angle-change path.

    Each entry of ``phi_path`` is one committed step; states are committed
    in order, so the result is the backward-Euler time discretization of
    the path.

    Parameters
    ----------
    phi_path : (n,) array_like
        Total angle change at the end of each step.
    p : ElastoplasticParams
    state : PlasticState, optional
        Starting history (virgin by default).

    Returns
    -------
    DriveResult
    """
    phi_path = np.asarray(phi_path, dtype=float)
    if state is None:
        state = PlasticState()
    n = phi_path.size
    tau = np.empty(n)
    phi_p = np.empty(n)
    q = np.empty(n)
    for k, phi in enumerate(phi_path):
        try:
            sr = return_map(float(phi), state, p)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"return map failed at phi_path[{k}] = {float(phi)!r}: {exc}",
                exc.residual, k, float(phi)) from exc
        state = sr.new_state
        tau[k] = sr.tau
        phi_p[k] = state.phi_p
        q[k] = state.q
    phi_e = phi_path - phi_p
    return DriveResult(phi=phi_path.copy(), tau=tau, phi_e=phi_e,
                       phi_p=phi_p, q=q, state_final=state)
