"""Closed-form picture-frame shear response.

In the picture-frame rig the deformation is homogeneous, both fiber
stretches stay exactly one, and the only active variable is the fiber
angle cosine theta12 = cos(theta).  Backward Euler is exact on a monotone
run of this model, so the response along a load program is the material
point driven through the angle cosines of its grid by
:func:`~wovenshear.material.drive_angle_path`: one return-map call per
monotone run, whose scalar slip equation the slip solve takes to machine
precision.  The interval form solves one such step from a carried stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (crosshead_rate, gamma_to_theta, theta_to_gamma,
                         _check_theta)
from .material import ConvergenceError, drive_angle_path, return_map_batch

__all__ = [
    "LoadProgram",
    "IntervalState",
    "IntervalSolution",
    "ShearCurve",
    "CURVE_COLUMNS",
    "interval_solve",
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
    """Response at an angle-cosine increment within an interval, from
    :func:`interval_solve`."""

    tau: float
    q: float
    plastic: bool
    iterations: int


def interval_solve(phi_bar, istate, p):
    """Closed-form response at one angle-cosine increment ``phi_bar``.

    The one-point return map from the interval start: the carried stress
    ``tau0`` as an elastic angle with no plastic part, and ``q0``.  So the
    elastic range is direction aware: loading against ``tau0`` enjoys the
    widened range (f_iso(q0) + |tau0|) / mu_f, loading with it only
    (f_iso(q0) - |tau0|) / mu_f.  The package itself drives the return map;
    this form stays because ``perfbench/spans.py`` wraps its bindings here
    and in ``fe`` and ``calibrate``.
    """
    out = return_map_batch([istate.tau0 / p.mu_f + phi_bar], [0.0],
                           [istate.q0], p)
    return IntervalSolution(out.tau.item(), out.q.item(),
                            out.plastic.item(), out.iterations)


def advance_interval(istate, phi_bar, p):
    """Roll the interval state forward by an angle-cosine increment.

    Solves the current interval at ``phi_bar`` and starts a fresh interval
    there: the solved stress and hardening state become the new carried
    values.  Kept, like :func:`interval_solve`, for the binding in ``fe``
    that ``perfbench/spans.py`` wraps.
    """
    sol = interval_solve(phi_bar, istate, p)
    return IntervalState(tau0=sol.tau, q0=sol.q)


def frame_force(tau, theta):
    """Pull force per unit frame side, work-conjugate to the crosshead travel.

    The homogeneous patch stores energy through the angle cosine only, so
    ``F = tau d(cos theta)/d theta / (d d / d theta)`` on the unit patch,
    the crosshead rate taken from the corner map; it grows linearly with
    the frame side.  The rate is nonzero on all of (0, pi/2], so no
    endpoint limit arises.  Broadcasts over ``tau`` and ``theta``.
    """
    _check_theta(theta)
    dtheta12 = -np.sin(theta) * tau
    return dtheta12 / crosshead_rate(theta)


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
    variable, and the pull force per unit frame side normalized by mu0.
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
    """Recorded frame angles (radians) of a load program, one array.

    Row 0 is the virgin ``pi/2``; each leg follows, uniform in theta at
    ``steps_per_degree`` (> 0) steps per degree and at least one, without
    its start, and ends exactly on its target.
    """
    prev = np.pi / 2.0
    grids = [[prev]]
    for tgt, n in zip(lp.targets, _leg_steps(lp, steps_per_degree)):
        grids.append(np.linspace(prev, tgt, n + 1)[1:])
        prev = tgt
    return np.concatenate(grids)


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


def run_program(lp, p, mu0=1.0, steps_per_degree=2.0):
    """Evaluate the analytic response along a load program.

    Samples uniformly in the frame angle, on the grid of
    :func:`program_theta_grid` that the FE solver steps through: drives
    the material point through the angle cosines there and takes the pull
    force at those angles.

    Parameters
    ----------
    lp : LoadProgram
    p : ElastoplasticParams
    mu0 : float
        Stress normalization for the force column.
    steps_per_degree : float
        Sampling density per leg.

    Returns
    -------
    ShearCurve
        Includes the initial zero row at theta = pi/2.

    Raises
    ------
    ConvergenceError
        If a slip solve fails; the message names the leg (from 1) and its
        cosine range, and ``step_index`` counts the targets after the
        virgin row.
    """
    theta = program_theta_grid(lp, steps_per_degree)
    # the first row is the virgin state at theta = pi/2, whose cosine is
    # not rounded to 0
    theta12 = np.cos(theta)
    theta12[0] = 0.0
    try:
        res = drive_angle_path(theta12, p)
    except ConvergenceError as exc:
        k = exc.step_index - 1
        ends = np.cumsum(_leg_steps(lp, steps_per_degree))
        leg = int(np.searchsorted(ends, k, side="right"))
        lo = theta12[ends[leg - 1]] if leg else 0.0
        raise ConvergenceError(
            f"closed-form solve failed on leg {leg + 1} (theta12 "
            f"{lo:.6g} to {theta12[ends[leg]]:.6g}): {exc.__cause__}",
            exc.residual, k) from exc
    force = frame_force(res.tau, theta)
    return ShearCurve(gamma_deg=theta_to_gamma(theta), theta12=theta12,
                      tau=res.tau, phi_e=res.phi_e, phi_p=res.phi_p, q=res.q,
                      frame_force_normalized=force / mu0)
