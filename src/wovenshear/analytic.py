"""Closed-form picture-frame shear response.

In the picture-frame rig the deformation is homogeneous, both fiber
stretches stay exactly one, and the only active variable is the fiber
angle cosine theta12 = cos(theta).  The response over a monotone loading
interval then reduces to a single scalar consistency equation, the return
map's slip equation with another target stress, solved to machine
precision by the return map's own slip solve.  A load program is a chain
of such intervals whose carried-over stress widens the elastic range of
every later interval; interval states roll forward at each target so
curves can be chained exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (crosshead_rate, gamma_to_theta, theta_to_gamma,
                         _check_theta)
from .material import ConvergenceError, _slip_solve, f_iso

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
    monotone loading interval.  Consumers sample each leg by angular
    density (see :func:`program_theta_grid`).
    """

    targets: tuple

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

    @classmethod
    def from_gamma_degrees(cls, targets_deg):
        """Build from shear-angle targets in degrees (figure convention)."""
        return cls(tuple(float(gamma_to_theta(g)) for g in targets_deg))


@dataclass(frozen=True)
class IntervalState:
    """Interval-start data: carried stress and hardening history.

    ``tau0`` and ``q0`` are the committed stress and hardening variable at
    the interval start.  A virgin state is all zeros.
    """

    tau0: float = 0.0
    q0: float = 0.0


@dataclass(frozen=True)
class IntervalSolution:
    """Response at angle-cosine increments within an interval.

    Floats from :func:`interval_solve`; arrays shaped like the increments
    from :func:`interval_solve_batch`.
    """

    tau: float
    q: float
    plastic: bool
    iterations: int


def yield_angle(istate, p):
    """Elastic range of the angle-cosine increment at a load reversal.

    For a virgin state this is tau_y / mu_f.  When loading continues in
    the direction of the interval-start stress the range is smaller,
    (f_iso(q0) - |tau0|) / mu_f; :func:`interval_solve` applies whichever
    matches the loading direction.
    """
    return (f_iso(istate.q0, p) + abs(istate.tau0)) / p.mu_f


def interval_solve_batch(phi_bar, istate, p):
    """Closed-form response at each angle-cosine increment in ``phi_bar``.

    Solves the consistency condition for the plastic slip accumulated
    since the interval start.  The elastic range is direction aware:
    loading against the interval-start stress enjoys the widened range
    (f_iso(q0) + |tau0|) / mu_f, loading with it only
    (f_iso(q0) - |tau0|) / mu_f.  This makes splitting a monotone interval
    at any intermediate point exact.

    Every increment is measured from the same interval start, so the
    points are independent: the return map's slip solve, with target
    stress ``d tau0 + mu_f |phi_bar|`` and ``q0``, takes each to round-off
    on its own.  A point's result does not depend on the others.

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
        If a point is unconverged at the slip solve's sweep cap; the
        residual is the largest such ``|g|``, ``step_index`` the first.
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
    iterations = np.zeros(phi_bar.shape, dtype=int)
    # plastic: g(x) = d tau0 + mu (|phi_bar| - x) - f_iso(q0 + x) = 0 with
    # g(0) = mu (|phi_bar| - phi_y) > 0
    idx = np.flatnonzero(plastic)
    pk = pb.flat[idx]
    try:
        x.flat[idx], _, iterations.flat[idx], _ = _slip_solve(
            d.flat[idx] * tau0 + mu * pk, q0, mu * (pk - phi_y.flat[idx]), p)
    except ConvergenceError as exc:
        exc.step_index = int(idx[exc.step_index])
        raise

    tau = np.where(d == 0.0, tau0, tau0 + mu * (phi_bar - d * x))
    return IntervalSolution(tau=tau, q=q0 + x, plastic=plastic,
                            iterations=iterations)


def interval_solve(phi_bar, istate, p):
    """Closed-form response at one angle-cosine increment ``phi_bar``.

    The one-point form of :func:`interval_solve_batch`, with float fields.
    """
    sol = interval_solve_batch([phi_bar], istate, p)
    return IntervalSolution(**{k: v.item() for k, v in vars(sol).items()})


def advance_interval(istate, phi_bar, p):
    """Roll the interval state forward by an angle-cosine increment.

    Solves the current interval at ``phi_bar`` and starts a fresh interval
    there: the solved stress and hardening state become the new carried
    values.
    """
    sol = interval_solve(phi_bar, istate, p)
    return IntervalState(tau0=sol.tau, q0=sol.q)


def _solve_legs(t12_legs, p):
    """Closed-form solutions along the angle-cosine targets of each leg.

    The legs chain from the virgin state: the last target of a leg is its
    end, and the solution there starts the next leg.  Returns one
    :class:`IntervalSolution` per leg; a slip failure is raised again
    with the leg (from 1) and its cosine range, and its ``step_index``
    counts the targets of all legs.
    """
    sols = []
    state = IntervalState()
    t12_anchor = 0.0        # angle cosine at the interval start
    offset = 0              # targets of the legs before this one
    for leg, t12 in enumerate(t12_legs, start=1):
        try:
            sol = interval_solve_batch(t12 - t12_anchor, state, p)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"closed-form solve failed on leg {leg} (theta12 "
                f"{t12_anchor:.6g} to {t12[-1]:.6g}): {exc}",
                exc.residual, offset + exc.step_index) from exc
        offset += t12.size
        sols.append(sol)
        state = IntervalState(tau0=float(sol.tau[-1]), q0=float(sol.q[-1]))
        t12_anchor = float(t12[-1])
    return sols


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


# rows that _write_csv formats and joins at a time; bounds its memory
_CSV_BLOCK_ROWS = 8192


def _write_csv(path, header, columns):
    """Write ``columns`` as comma-separated rows under ``header``.

    The columns broadcast against each other; row ``k`` holds the ``k``-th
    element of each in C order.  The bytes are those of ``np.savetxt`` of
    the broadcast columns raveled side by side, with ``fmt="%.17g"``, ``,``
    delimiters and no comment mark: 17 significant digits, which read back
    to the same doubles.  Rows go out in blocks of about ``_CSV_BLOCK_ROWS``
    along the first axis, each distinct value of a column formatted once a
    block: a homogeneous frame repeats each value across a step's points.
    """
    cols = np.broadcast_arrays(*map(np.atleast_1d, columns))
    step = max(1, _CSV_BLOCK_ROWS // max(1, math.prod(cols[0].shape[1:])))
    ends = [","] * (len(cols) - 1) + ["\n"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(cols[0]), step):
            part = [np.asarray(c[lo:lo + step], dtype=float).ravel()
                    for c in cols]
            block = np.empty((part[0].size, len(cols)), dtype=object)
            for j, (col, end) in enumerate(zip(part, ends)):
                # distinct by bits, so -0.0 and 0.0 (and NaN payloads) stay
                # apart and each prints as its own rows would
                bits, inverse = np.unique(col.view(np.int64),
                                          return_inverse=True)
                # one bulk format; each cell keeps its separator, NUL ends it
                text = (("%.17g" + end + "\0") * bits.size
                        % tuple(bits.view(np.float64).tolist()))
                cells = np.array(text.split("\0")[:-1], dtype=object)
                block[:, j] = cells[inverse]
            fh.write("".join(block.ravel().tolist()))


def _read_csv(path, header):
    """Columns of a file in the format of :func:`_write_csv`, as float arrays.

    Blank lines and lines that start with ``#`` are skipped, so comments
    may precede the header.  The first other line must be ``header``, and
    each later one a row of one value per header name.  A file with no rows
    gives empty columns.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    if not lines or lines[0] != header:
        found = repr(lines[0]) if lines else "none"
        raise ValueError(f"expected header {header!r}, found {found}")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    width = header.count(",") + 1
    for k, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"row {k} holds {len(row)} values, the header "
                             f"names {width}")
    return list(np.array(rows, dtype=float).reshape(-1, width).T)


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

    def __len__(self):
        return self.gamma_deg.size

    def to_csv(self, path):
        """Write the curve with full double precision (17 significant digits)."""
        _write_csv(path, ",".join(CURVE_COLUMNS),
                   [getattr(self, name) for name in CURVE_COLUMNS])


def program_theta_grid(lp, steps_per_degree=2.0):
    """Per-interval frame-angle grids (radians), excluding interval starts.

    Uniform in theta within each leg, at ``steps_per_degree`` (> 0) steps
    per degree and at least one; each grid ends exactly on its target.
    """
    grids = []
    prev = np.pi / 2.0
    for tgt, n in zip(lp.targets, _leg_steps(lp, steps_per_degree)):
        grids.append(np.linspace(prev, tgt, n + 1)[1:])
        prev = tgt
    return grids


def _leg_steps(lp, steps_per_degree):
    """Step count of each leg on the grid of :func:`program_theta_grid`:
    its span in degrees times ``steps_per_degree``, rounded, and at least
    one; ``math.inf`` where that product overflows."""
    if not steps_per_degree > 0.0:
        raise ValueError(
            f"steps_per_degree must be positive, got {steps_per_degree}")
    counts = []
    prev = np.pi / 2.0
    for tgt in lp.targets:
        # a float product: it overflows to inf without a numpy warning
        n = float(abs(np.rad2deg(tgt - prev))) * steps_per_degree
        counts.append(max(1, round(n)) if math.isfinite(n) else math.inf)
        prev = tgt
    return counts


def run_program(lp, p, L0=1.0, mu0=1.0, steps_per_degree=2.0):
    """Evaluate the analytic response along a load program.

    Samples uniformly in the frame angle, on the grid of
    :func:`program_theta_grid` that the FE solver steps through.

    Parameters
    ----------
    lp : LoadProgram
    p : ElastoplasticParams
    L0 : float
        Frame side length.
    mu0 : float
        Stress normalization for the force column.
    steps_per_degree : float
        Sampling density per leg.

    Returns
    -------
    ShearCurve
        Includes the initial zero row at theta = pi/2.
    """
    grids = program_theta_grid(lp, steps_per_degree)
    t12_legs = [np.cos(grid) for grid in grids]
    sols = _solve_legs(t12_legs, p)
    # the first row is the virgin state at theta = pi/2
    gamma = np.concatenate([[0.0]] + [theta_to_gamma(g) for g in grids])
    theta12 = np.concatenate([[0.0]] + t12_legs)
    tau = np.concatenate([[0.0]] + [s.tau for s in sols])
    q = np.concatenate([[0.0]] + [s.q for s in sols])
    phi_e = tau / p.mu_f
    phi_p = theta12 - phi_e
    force = frame_force(tau, gamma_to_theta(gamma), L0)
    return ShearCurve(gamma_deg=gamma, theta12=theta12, tau=tau, phi_e=phi_e,
                      phi_p=phi_p, q=q,
                      frame_force_normalized=force / (L0 * mu0))
