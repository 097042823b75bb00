"""Command-line front end: curves, FE verification, sweeps, calibration.

Every command reads a JSON parameter file, takes an optional JSON config
file whose entries act as flag defaults (explicit flags win, and each
entry goes through its option's type and callback like the flag text),
and writes CSV/JSON outputs with full double precision into an output
directory; every usage error comes before that directory is made.
Angles at this boundary are shear angles gamma in degrees (the figure
convention); the material-point command drives the angle cosine directly.
All commands are deterministic; re-runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analytic import LoadProgram, _leg_steps, _write_csv, run_program
from .calibrate import FIT_KEYS, ExperimentCurve, staged_fit
from .fe import (ElementInversionError, Mesh, SolverError, solve_picture_frame,
                 verify_against_analytic)
from .material import (ConvergenceError, drive_angle_path, load_params,
                       params_to_dict, replace_params)

__all__ = ["main"]

# step cap of material-point, picture-frame and param-study: a path or an
# angle grid with its result columns takes about 50 bytes a step in memory,
# and the CSV about 100 bytes a row; an FE run may record the Gauss-point
# states the cap lets a 1x1 mesh record, five doubles each
_MAX_STEPS = 10**7


class _Positive(click.ParamType):
    """A finite number above zero of type ``kind`` (float or int).

    It is parsed from its text, so a config-file entry is read as its flag
    would be: ``2.5`` is not an integer and ``true`` is not a number.
    """

    def __init__(self, kind):
        self.kind = kind
        self.name = "integer" if kind is int else "float"

    def convert(self, value, param, ctx):
        try:
            num = self.kind(str(value))
            if 0 < num < math.inf:
                return num
        except (ValueError, OverflowError):
            pass
        self.fail(f"{param.name} must be positive, got {value!r}", param, ctx)


def _read_config(ctx, param, path):
    """Make the entries of a JSON config file the command's defaults.

    Click then reads each entry through its option's type and callback as
    it reads the flag, and an explicit flag still wins.  A JSON null
    leaves the option at its default.
    """
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {path} must be a JSON object")
    names = {p.name for p in ctx.command.params if p.expose_value}
    for key in data:
        if key not in names:
            raise click.UsageError(f"config {path}: unknown setting {key!r}")
    ctx.default_map = {k: v for k, v in data.items() if v is not None}


def _existing_file(ctx, param, path):
    if path is not None and not Path(path).is_file():
        raise click.BadParameter(f"{param.name} file not found: {path}")
    return path


def _parse_floats(text, what):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(f"cannot parse {what}: {text!r}")
    if not vals:
        raise click.BadParameter(f"empty {what}: {text!r}")
    if not all(map(math.isfinite, vals)):
        raise click.BadParameter(f"non-finite value in {what}: {text!r}")
    return vals


def _floats(ctx, param, text):
    return _parse_floats(text, param.name)


def _gamma_program(ctx, param, text):
    """Shear-angle targets in degrees as a LoadProgram."""
    try:
        return LoadProgram.from_gamma_degrees(_floats(ctx, param, text))
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _mesh(ctx, param, text):
    parts = text.lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise click.BadParameter(f"cannot parse mesh size: {text!r}")
    if len(dims) == 1:
        dims = dims * 2
    if len(dims) != 2 or dims[0] != dims[1] or dims[0] < 1:
        raise click.BadParameter(
            f"mesh must be a square NxN subdivision, got {text!r}")
    return dims[0]


def _sweep(ctx, param, text):
    """``name=v1,v2,...`` as the name and its values."""
    name, eq, tail = text.partition("=")
    name = name.strip()
    if not eq:
        raise click.BadParameter(
            f"must look like name=v1,v2,..., got {text!r}")
    if name not in FIT_KEYS:
        raise click.BadParameter(
            f"unknown sweep parameter {name!r}; choose from "
            f"{', '.join(FIT_KEYS)}")
    return name, _parse_floats(tail, "sweep values")


def _stages(ctx, param, text):
    try:
        stages = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise click.BadParameter(f"cannot parse stages: {text!r}")
    if not stages or any(s not in (1, 2, 3) for s in stages):
        raise click.BadParameter("stages must be a nonempty subset of 1,2,3")
    return stages


def _load_params(path):
    """Parameter sets of a ``--params`` file; a bad file, values whose
    admissibility check overflows among them, is a one-line error (exit 1).
    Calls ``load_params`` through this module's binding, which
    perfbench/spans.py wraps."""
    try:
        return load_params(path)
    except (OSError, TypeError, ValueError, ArithmeticError) as exc:
        raise click.ClickException(f"bad params file {path}: {exc}")


def _check_frame_steps(program, steps_per_degree, mesh=None):
    """Refuse a frame program of more than ``_MAX_STEPS`` load steps, as
    counted by the grid the solvers step through, before any is built.
    With the subdivision ``mesh`` of an FE run, refuse too a run that
    records more Gauss points, over its steps and the start, than the step
    cap lets a 1x1 mesh record."""
    total = sum(_leg_steps(program, steps_per_degree))
    if total > _MAX_STEPS:
        raise click.UsageError(
            f"program takes {float(total):.17g} steps at steps-per-degree = "
            f"{steps_per_degree!r}; at most {_MAX_STEPS} are solved")
    # an int product: a mesh of any size is compared exactly
    if mesh is not None and (total + 1) * mesh**2 * 4 > (_MAX_STEPS + 1) * 4:
        raise click.UsageError(
            f"a {mesh}x{mesh} mesh over {total} steps records more than "
            f"the {(_MAX_STEPS + 1) * 4} Gauss-point states a run may hold")


def _out_dir(path):
    """The output directory, made when missing; it must be writable.  A path
    that names a file, or runs through one, is a usage error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(
            f"cannot make output directory {out}: {exc.strerror}")
    if not os.access(out, os.W_OK):
        raise click.UsageError(f"output directory not writable: {out}")
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# retired flags and why each went; click would suggest a live flag of like
# spelling for them (--mu0 for --l0, --out for --tol), which reads the
# value in another sense
_RETIRED_FLAGS = dict.fromkeys(
    ("--l0", "--L0"), "the frame side is retired: the frame is the unit "
    "patch, and its side cancelled from every output")
_RETIRED_FLAGS["--tol"] = ("verify's stress tolerance is retired: its "
                           "limits are fixed")


class _Commands(click.Group):
    """Report a failed solve as a one-line error (exit 1), not a traceback.

    A floating-point overflow, division by zero or invalid operation fails
    the command too, instead of writing infinities or NaNs.  A retired flag
    is a usage error that says why it went, with no suggestion.
    """

    def invoke(self, ctx):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return super().invoke(ctx)
        except click.NoSuchOption as exc:
            why = _RETIRED_FLAGS.get(exc.option_name)
            if why is None:
                raise
            raise click.UsageError(
                f"No such option '{exc.option_name}': {why}.",
                exc.ctx) from None
        except (ConvergenceError, SolverError, ElementInversionError) as exc:
            raise click.ClickException(str(exc))
        except ArithmeticError as exc:
            raise click.ClickException(f"arithmetic failure: {exc}")


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Woven-fabric shear: curves, FE verification, sweeps, calibration."""


# options that several commands share
_params_option = click.option("--params", required=True,
                              callback=_existing_file,
                              help="JSON parameter file.")
_spd_option = click.option("--steps-per-degree", type=_Positive(float),
                           default=2.0, show_default=True)
_out_option = click.option("--out", default=".", show_default=True,
                           help="Output directory.")
_config_option = click.option("--config", is_eager=True, expose_value=False,
                              callback=_read_config,
                              help="JSON config with flag defaults.")


@main.command("material-point")
@_params_option
@click.option("--program", default="0.6", show_default=True,
              callback=_floats,
              help="Comma-separated angle-cosine targets, e.g. 0.6,-0.2,0.6.")
@click.option("--dphi", type=_Positive(float), default=0.005,
              show_default=True, help="Angle-cosine increment per step.")
@_out_option
@_config_option
def material_point(params, program, dphi, out):
    """Drive the return map over an angle-cosine program.

    Writes material_point.csv with one row per step:
    phi,tau,phi_e,phi_p,q.
    """
    ep, _ = _load_params(params)
    legs = list(zip([0.0] + program, program))
    counts = []
    for start, tgt in legs:
        steps = abs(tgt - start) / dphi
        if not math.isfinite(steps):
            raise click.UsageError(
                f"program leg to {tgt!r} has no finite step count at "
                f"dphi = {dphi!r}")
        counts.append(max(1, math.ceil(steps)))
    # a float sum: two legs of near the largest double each overflow to inf
    total = sum(map(float, counts))
    if total > _MAX_STEPS:
        raise click.UsageError(
            f"program takes {total:.17g} steps at dphi = {dphi!r}; "
            f"at most {_MAX_STEPS} are driven")
    out = _out_dir(out) / "material_point.csv"
    path = np.concatenate([[0.0]] + [
        np.linspace(start, tgt, n + 1)[1:]
        for (start, tgt), n in zip(legs, counts)])
    res = drive_angle_path(path, ep)
    _write_csv(out, "phi,tau,phi_e,phi_p,q",
               [res.phi, res.tau, res.phi_e, res.phi_p, res.q])
    click.echo(f"wrote {out} ({res.phi.size} rows)")


@main.command("picture-frame")
@click.option("--mode", type=click.Choice(["analytic", "fe", "verify"]),
              default="verify", show_default=True)
@_params_option
@click.option("--program", default="50,20,50", show_default=True,
              callback=_gamma_program,
              help="Comma-separated shear-angle targets in degrees.")
@click.option("--mesh", default="8x8", show_default=True, callback=_mesh,
              help="Square mesh subdivision NxN.")
@click.option("--mu0", type=_Positive(float), default=None,
              help="Force normalization stress [default: mu_f].")
@_spd_option
@_out_option
@_config_option
@click.pass_context
def picture_frame(ctx, mode, params, program, mesh, mu0, steps_per_degree,
                  out):
    """Closed-form and/or FE picture-frame curves; verify compares them.

    analytic: writes analytic_curve.csv.  fe: writes fe_curve.csv and
    fe_fields.csv.  verify: runs both, writes all of the above plus
    verify_report.json, prints PASS/FAIL, and exits nonzero on FAIL.
    """
    ep, hp = _load_params(params)
    mu0 = ep.mu_f if mu0 is None else mu0
    _check_frame_steps(program, steps_per_degree,
                       None if mode == "analytic" else mesh)
    out = _out_dir(out)
    if mode != "analytic":
        sol = solve_picture_frame(Mesh.square(mesh), program, ep, hp,
                                  mu0=mu0, steps_per_degree=steps_per_degree)
        dest = out / "fe_curve.csv"
        sol.curve.to_csv(dest)
        fields = out / "fe_fields.csv"
        sol.to_field_csv(fields)
        click.echo(f"wrote {dest} ({len(sol.curve)} rows)")
        click.echo(f"wrote {fields}")
    if mode != "fe":
        curve = run_program(program, ep, mu0=mu0,
                            steps_per_degree=steps_per_degree)
        dest = out / "analytic_curve.csv"
        curve.to_csv(dest)
        click.echo(f"wrote {dest} ({len(curve)} rows)")
    if mode != "verify":
        return
    report = verify_against_analytic(sol, curve)
    dest = out / "verify_report.json"
    _write_json(dest, report)
    click.echo(f"wrote {dest}")
    status = "PASS" if report["passed"] else "FAIL"
    click.echo(f"{status}: max tau deviation {report['max_tau_rel_scale']:.3e}"
               f" (tol {report['tau_tol']:.1e}), theta12 deviation "
               f"{report['max_theta12_dev']:.3e}, force deviation "
               f"{report['max_force_rel']:.3e}")
    if not report["passed"]:
        ctx.exit(1)


@main.command("param-study")
@click.option("--params", required=True, callback=_existing_file,
              help="JSON parameter file with the base set.")
@click.option("--sweep", required=True, callback=_sweep,
              help="Sweep definition name=v1,v2,..., e.g. tau_y=0,0.25,0.5.")
@click.option("--program", default="60", show_default=True,
              callback=_gamma_program,
              help="Comma-separated shear-angle targets in degrees.")
@click.option("--mu0", type=_Positive(float), default=None,
              help="Force normalization stress [default: mu_f of the base].")
@_spd_option
@_out_option
@_config_option
def param_study(params, sweep, program, mu0, steps_per_degree, out):
    """One analytic curve per value of a swept parameter.

    Writes study_<name>_<k>.csv per value plus study_manifest.json mapping
    files to values.
    """
    ep, _ = _load_params(params)
    name, vals = sweep
    mu0 = ep.mu_f if mu0 is None else mu0
    _check_frame_steps(program, steps_per_degree)
    # every swept set is built first, so a rejected value leaves no output
    sets = []
    for v in vals:
        try:
            sets.append(replace_params(ep, {name: v}))
        except ValueError as exc:
            raise click.ClickException(
                f"sweep value {name} = {v} rejected: {exc}")
    out = _out_dir(out)
    files = []
    for k, (v, epk) in enumerate(zip(vals, sets)):
        curve = run_program(program, epk, mu0=mu0,
                            steps_per_degree=steps_per_degree)
        dest = out / f"study_{name}_{k}.csv"
        curve.to_csv(dest)
        files.append(dest.name)
        click.echo(f"wrote {dest} ({name} = {v:.17g})")
    _write_json(out / "study_manifest.json",
                {"parameter": name, "values": vals, "files": files})
    click.echo(f"wrote {out / 'study_manifest.json'}")


@main.command("calibrate")
@click.option("--data", required=True, callback=_existing_file,
              help="Experiment CSV (gamma_deg,force_norm).")
@click.option("--params", required=True, callback=_existing_file,
              help="JSON parameter file with the starting set.")
@click.option("--stages", default="1,2,3", show_default=True,
              callback=_stages,
              help="Comma-separated stage list from {1,2,3}.")
@click.option("--max-evals", type=_Positive(int), default=400,
              show_default=True,
              help="Model evaluations per stage (the exact Jacobian "
                   "costs none); a stage that runs out stops unconverged.")
@click.option("--mu0", type=_Positive(float), default=1.0, show_default=True,
              help="Force normalization of the data.")
@_out_option
@_config_option
def calibrate_cmd(data, params, stages, max_evals, mu0, out):
    """Staged fit of a measured shear curve.

    Writes fitted_params.json (full parameter set) and fit_report.json
    (per-stage model evaluations, convergence and Jacobian
    identifiability, and the final whole-curve rms).
    """
    ep, hp = _load_params(params)
    try:
        curve = ExperimentCurve.from_csv(data, label=Path(data).stem)
    except ValueError as exc:
        raise click.ClickException(f"bad data file {data}: {exc}")
    out = _out_dir(out)
    fitted, report = staged_fit(ep, curve, stages=stages,
                                max_evals=max_evals, mu0=mu0)
    _write_json(out / "fitted_params.json", params_to_dict(fitted, hp))
    _write_json(out / "fit_report.json", report)
    click.echo(f"wrote {out / 'fitted_params.json'}")
    click.echo(f"wrote {out / 'fit_report.json'}")
    click.echo(f"rms {report['rms_full_curve']:.6e} over {len(curve)} "
               f"points, {report['evals_used']} evaluations, "
               f"converged={report['converged']}")


if __name__ == "__main__":
    main()
