"""Command-line front end: curves, FE verification, sweeps, calibration.

Every command reads a JSON parameter file, takes an optional JSON config
file whose entries act as flag defaults (explicit flags win), and writes
CSV/JSON outputs with full double precision into an output directory.
Angles at this boundary are shear angles gamma in degrees (the figure
convention); the material-point command drives the angle cosine directly.
All commands are deterministic; re-runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analytic import LoadProgram, _write_csv, run_program
from .calibrate import ExperimentCurve, staged_fit
from .fe import Mesh, SolverError, solve_picture_frame, verify_against_analytic
from .material import (ConvergenceError, drive_angle_path, load_params,
                       params_to_dict, replace_params)

__all__ = ["main", "RunConfig"]

_SWEEPABLE = ("mu_f", "tau_y", "A", "a", "B", "b", "C", "c")
# settings that must be positive, with their types; RunConfig checks the
# merged values, so a config entry gets the same message as a flag
_POSITIVE = {"l0": float, "mu0": float, "steps_per_degree": float,
             "dphi": float, "tol": float, "max_evals": int}
# step cap of material-point: the path and its five result columns take
# 48 bytes a step in memory, and the CSV about 100 bytes a row
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Merged settings of one command invocation.

    Checks the preconditions up front: referenced input files must exist,
    the settings of ``_POSITIVE`` must be finite and positive when given,
    and the output directory must be writable (it is created when
    missing).
    """

    command: str
    options: dict

    def __post_init__(self):
        for key in ("params", "data", "config"):
            path = self.options.get(key)
            if path is not None and not Path(path).is_file():
                raise click.UsageError(
                    f"{self.command}: {key} file not found: {path}")
        for key, kind in _POSITIVE.items():
            val = self.options.get(key)
            try:
                ok = val is None or 0 < kind(val) < math.inf
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise click.UsageError(
                    f"{self.command}: {key} must be positive, got {val!r}")
        out = self.options.get("out")
        if out is not None:
            out = Path(out)
            out.mkdir(parents=True, exist_ok=True)
            if not os.access(out, os.W_OK):
                raise click.UsageError(
                    f"{self.command}: output directory not writable: {out}")

    def __getitem__(self, key):
        return self.options[key]


def _merge_config(ctx, command, values):
    """Apply config-file entries under flag precedence.

    Explicit command-line flags override the config file; config entries
    override built-in defaults.  Unknown config keys are rejected; the
    others go through their option's click type, except the settings of
    ``_POSITIVE``, which RunConfig checks.
    """
    merged = dict(values)
    config = values.get("config")
    if config:
        options = {param.name: param for param in ctx.command.params}
        try:
            with open(config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config {config}: {exc}")
        if not isinstance(data, dict):
            raise click.UsageError(f"config {config} must be a JSON object")
        for key, val in data.items():
            if key not in values or key == "config":
                raise click.UsageError(
                    f"config {config}: unknown setting {key!r}")
            src = ctx.get_parameter_source(key)
            if src is not None and src.name == "COMMANDLINE":
                continue
            if key not in _POSITIVE:
                try:
                    val = options[key].type_cast_value(ctx, val)
                except click.BadParameter as exc:
                    raise click.UsageError(
                        f"config {config}: {exc.format_message()}")
            merged[key] = val
    return RunConfig(command=command, options=merged)


def _parse_floats(text, what):
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse {what}: {text!r}")
    if not vals:
        raise click.UsageError(f"empty {what}: {text!r}")
    if not all(map(math.isfinite, vals)):
        raise click.UsageError(f"non-finite value in {what}: {text!r}")
    return vals


def _load_params(path):
    """Parameter sets of a ``--params`` file; a bad file is a one-line error
    (exit 1).  Calls ``load_params`` through this module's binding, which
    perfbench/spans.py wraps."""
    try:
        return load_params(path)
    except (OSError, TypeError, ValueError) as exc:
        raise click.ClickException(f"bad params file {path}: {exc}")


def _parse_mesh(text):
    parts = str(text).lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"cannot parse mesh size: {text!r}")
    if len(dims) == 1:
        dims = dims * 2
    if len(dims) != 2 or dims[0] != dims[1] or dims[0] < 1:
        raise click.UsageError(
            f"mesh must be a square NxN subdivision, got {text!r}")
    return dims[0]


def _load_program(text, steps_per_degree):
    try:
        return LoadProgram.from_string(text), float(steps_per_degree)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Commands(click.Group):
    """Report a failed solve as a one-line error (exit 1), not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConvergenceError, SolverError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Woven-fabric shear: curves, FE verification, sweeps, calibration."""


@main.command("material-point")
@click.option("--params", required=True, type=str,
              help="JSON parameter file.")
@click.option("--program", default="0.6", show_default=True,
              help="Comma-separated angle-cosine targets, e.g. 0.6,-0.2,0.6.")
@click.option("--dphi", type=float, default=0.005, show_default=True,
              help="Angle-cosine increment per step.")
@click.option("--out", default=".", show_default=True,
              help="Output directory.")
@click.option("--config", default=None, help="JSON config with flag defaults.")
@click.pass_context
def material_point(ctx, **values):
    """Drive the return map over an angle-cosine program.

    Writes material_point.csv with one row per step:
    phi,tau,phi_e,phi_p,q.
    """
    rc = _merge_config(ctx, "material-point", values)
    ep, _ = _load_params(rc["params"])
    targets = _parse_floats(rc["program"], "program")
    dphi = float(rc["dphi"])
    legs = list(zip([0.0] + targets, targets))
    counts = []
    for start, tgt in legs:
        steps = abs(tgt - start) / dphi
        if not math.isfinite(steps):
            raise click.UsageError(
                f"program leg to {tgt!r} has no finite step count at "
                f"dphi = {dphi!r}")
        counts.append(max(1, math.ceil(steps)))
    if sum(counts) > _MAX_STEPS:
        raise click.UsageError(
            f"program takes {sum(counts)} steps at dphi = {dphi!r}; "
            f"at most {_MAX_STEPS} are driven")
    path = np.concatenate([[0.0]] + [
        np.linspace(start, tgt, n + 1)[1:]
        for (start, tgt), n in zip(legs, counts)])
    res = drive_angle_path(path, ep)
    out = Path(rc["out"]) / "material_point.csv"
    _write_csv(out, "phi,tau,phi_e,phi_p,q",
               [res.phi, res.tau, res.phi_e, res.phi_p, res.q])
    click.echo(f"wrote {out} ({res.phi.size} rows)")


@main.command("picture-frame")
@click.option("--mode", type=click.Choice(["analytic", "fe", "verify"]),
              default="verify", show_default=True)
@click.option("--params", required=True, type=str,
              help="JSON parameter file.")
@click.option("--program", default="50,20,50", show_default=True,
              help="Comma-separated shear-angle targets in degrees.")
@click.option("--mesh", default="8x8", show_default=True,
              help="Square mesh subdivision NxN.")
@click.option("--l0", "--L0", "l0", type=float, default=1.0,
              show_default=True, help="Frame side length.")
@click.option("--mu0", type=float, default=None,
              help="Force normalization stress [default: mu_f].")
@click.option("--steps-per-degree", type=float, default=2.0,
              show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Verify-mode stress tolerance (scale-relative).")
@click.option("--out", default=".", show_default=True,
              help="Output directory.")
@click.option("--config", default=None, help="JSON config with flag defaults.")
@click.pass_context
def picture_frame(ctx, **values):
    """Closed-form and/or FE picture-frame curves; verify compares them.

    analytic: writes analytic_curve.csv.  fe: writes fe_curve.csv and
    fe_fields.csv.  verify: runs both, writes all of the above plus
    verify_report.json, prints PASS/FAIL, and exits nonzero on FAIL.
    """
    rc = _merge_config(ctx, "picture-frame", values)
    ep, hp = _load_params(rc["params"])
    program, spd = _load_program(rc["program"], rc["steps_per_degree"])
    L0 = float(rc["l0"])
    mu0 = ep.mu_f if rc["mu0"] is None else float(rc["mu0"])
    out = Path(rc["out"])
    mode = rc["mode"]

    if mode == "analytic":
        curve = run_program(program, ep, L0=L0, mu0=mu0, steps_per_degree=spd)
        dest = out / "analytic_curve.csv"
        curve.to_csv(dest)
        click.echo(f"wrote {dest} ({len(curve)} rows)")
        return

    n = _parse_mesh(rc["mesh"])
    mesh = Mesh.square(n, L0=L0)
    sol = solve_picture_frame(mesh, program, ep, hp, mu0=mu0,
                              steps_per_degree=spd)
    dest = out / "fe_curve.csv"
    sol.curve.to_csv(dest)
    fields = out / "fe_fields.csv"
    sol.to_field_csv(fields)
    click.echo(f"wrote {dest} ({len(sol.curve)} rows)")
    click.echo(f"wrote {fields}")
    if mode == "fe":
        return

    curve = run_program(program, ep, L0=L0, mu0=mu0, steps_per_degree=spd)
    dest = out / "analytic_curve.csv"
    curve.to_csv(dest)
    click.echo(f"wrote {dest} ({len(curve)} rows)")
    report = verify_against_analytic(sol, tau_tol=float(rc["tol"]))
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
@click.option("--params", required=True, type=str,
              help="JSON parameter file with the base set.")
@click.option("--sweep", required=True,
              help="Sweep definition name=v1,v2,..., e.g. tau_y=0,0.25,0.5.")
@click.option("--program", default="60", show_default=True,
              help="Comma-separated shear-angle targets in degrees.")
@click.option("--l0", "--L0", "l0", type=float, default=1.0,
              show_default=True)
@click.option("--mu0", type=float, default=None,
              help="Force normalization stress [default: mu_f of the base].")
@click.option("--steps-per-degree", type=float, default=2.0,
              show_default=True)
@click.option("--out", default=".", show_default=True,
              help="Output directory.")
@click.option("--config", default=None, help="JSON config with flag defaults.")
@click.pass_context
def param_study(ctx, **values):
    """One analytic curve per value of a swept parameter.

    Writes study_<name>_<k>.csv per value plus study_manifest.json mapping
    files to values.
    """
    rc = _merge_config(ctx, "param-study", values)
    ep, _ = _load_params(rc["params"])
    program, spd = _load_program(rc["program"], rc["steps_per_degree"])
    sweep = str(rc["sweep"])
    if "=" not in sweep:
        raise click.UsageError(
            f"--sweep must look like name=v1,v2,..., got {sweep!r}")
    name, _, tail = sweep.partition("=")
    name = name.strip()
    if name not in _SWEEPABLE:
        raise click.UsageError(
            f"unknown sweep parameter {name!r}; choose from "
            f"{', '.join(_SWEEPABLE)}")
    vals = _parse_floats(tail, "sweep values")
    L0 = float(rc["l0"])
    mu0 = ep.mu_f if rc["mu0"] is None else float(rc["mu0"])
    out = Path(rc["out"])
    files = []
    for k, v in enumerate(vals):
        try:
            epk = replace_params(ep, {name: v})
        except ValueError as exc:
            raise click.ClickException(
                f"sweep value {name} = {v} rejected: {exc}")
        curve = run_program(program, epk, L0=L0, mu0=mu0,
                            steps_per_degree=spd)
        dest = out / f"study_{name}_{k}.csv"
        curve.to_csv(dest)
        files.append(dest.name)
        click.echo(f"wrote {dest} ({name} = {v:.17g})")
    _write_json(out / "study_manifest.json",
                {"parameter": name, "values": vals, "files": files})
    click.echo(f"wrote {out / 'study_manifest.json'}")


@main.command("calibrate")
@click.option("--data", required=True, type=str,
              help="Experiment CSV (gamma_deg,force_norm).")
@click.option("--params", required=True, type=str,
              help="JSON parameter file with the starting set.")
@click.option("--stages", default="1,2,3", show_default=True,
              help="Comma-separated stage list from {1,2,3}.")
@click.option("--max-evals", type=int, default=400, show_default=True,
              help="Model evaluations per stage, Jacobian columns "
                   "included; a stage that runs out stops unconverged.")
@click.option("--l0", "--L0", "l0", type=float, default=1.0,
              show_default=True)
@click.option("--mu0", type=float, default=1.0, show_default=True,
              help="Force normalization of the data.")
@click.option("--out", default=".", show_default=True,
              help="Output directory.")
@click.option("--config", default=None, help="JSON config with flag defaults.")
@click.pass_context
def calibrate_cmd(ctx, **values):
    """Staged fit of a measured shear curve.

    Writes fitted_params.json (full parameter set) and fit_report.json
    (per-stage model evaluations, convergence and Jacobian
    identifiability, and the final whole-curve rms).
    """
    rc = _merge_config(ctx, "calibrate", values)
    ep, hp = _load_params(rc["params"])
    try:
        curve = ExperimentCurve.from_csv(rc["data"],
                                         label=Path(rc["data"]).stem)
    except ValueError as exc:
        raise click.ClickException(f"bad data file {rc['data']}: {exc}")
    try:
        stages = tuple(int(tok) for tok in str(rc["stages"]).split(",")
                       if tok.strip())
    except ValueError:
        raise click.UsageError(f"cannot parse stages: {rc['stages']!r}")
    if not stages or any(s not in (1, 2, 3) for s in stages):
        raise click.UsageError("stages must be a nonempty subset of 1,2,3")
    result, report = staged_fit(ep, curve, stages=stages,
                                max_evals=int(rc["max_evals"]),
                                L0=float(rc["l0"]), mu0=float(rc["mu0"]))
    out = Path(rc["out"])
    _write_json(out / "fitted_params.json",
                params_to_dict(result.params, hp))
    report["converged"] = result.converged
    report["evals_used"] = result.evals_used
    _write_json(out / "fit_report.json", report)
    click.echo(f"wrote {out / 'fitted_params.json'}")
    click.echo(f"wrote {out / 'fit_report.json'}")
    click.echo(f"rms {result.rms_error:.6e} over {len(curve)} points, "
               f"{result.evals_used} evaluations, "
               f"converged={result.converged}")


if __name__ == "__main__":
    main()
