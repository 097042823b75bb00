"""Seeded inputs, CLI arguments and output checks of the benchmark workloads.

Each workload writes its input files into a work directory (from the
workload seed, where they depend on it), names the ``wovenshear`` command
line that one pass runs, and checks the files that pass leaves in its
output directory.  The program sees only the generated files and the
flags.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from wovenshear import (ElastoplasticParams, load_params, model_forces,
                        replace_params, save_params, synthetic_curve)

# normalized demonstration set with zero yield stress (plastic from the
# first increment), the set the cyclic frame verification is run on
DEMO = ElastoplasticParams(mu_f=1.0, tau_y=0.0, A_h=0.05, a_h=1.0,
                           B_h=0.01, b_h=55.0, C_h=0.7, c_h=5.0)
# calibrated glass-fabric set of the machine-precision checks
GLASS = ElastoplasticParams(mu_f=5.0, tau_y=1e-4, A_h=8.8, a_h=0.0024,
                            B_h=0.0028, b_h=65.0, C_h=1.0, c_h=11.0)

# verify-mode tolerances the picture-frame command applies by default
VERIFY_TOLS = {"tau_tol": 1e-9, "theta12_tol": 1e-12, "force_tol": 1e-8}

# the 136-angle AC9 calibration grid (degrees) and its start point
FIT_GRID = np.concatenate([np.arange(0.1, 1.01, 0.1),
                           np.arange(1.25, 5.01, 0.25),
                           np.arange(5.5, 60.01, 0.5)])
FIT_START = {"A": 8.8 * 1.02, "a": 0.0024 * 0.97, "C": 1.05, "c": 11.0 * 0.95}
FIT_NOISE = 0.01
# stage 2 stops on its budget at every seed tried, so the work of a pass
# hardly depends on the noise draw; at 600 about half the seeds converge
# first and the pass time splits into two groups 40 % apart
FIT_MAX_EVALS = 300
# fitted whole-curve rms over the injected-noise rms: 0.78-1.16 measured
# on seeds 0-29.  Below 1 the fit has absorbed some of the noise, which is
# no fault, so only the upper side is checked.
FIT_RMS_FACTOR = 1.5


class CheckFailed(Exception):
    """A pass left outputs that fail the workload's correctness check;
    ``figures`` holds what the check measured before it failed."""

    def __init__(self, message, figures=None):
        super().__init__(message)
        self.figures = figures or {}


# The host's speed drifts by up to 1.6x for minutes at a time, and by how
# much depends on the kind of code that runs.  Each workload therefore
# times a fixed reference computation like its own hot loop between
# passes; pass times over the reference times beside them cancel most of
# the drift.  The references do not use wovenshear, so a change to the
# program does not move them.

class ScalarReference:
    """Python arithmetic on size-1 numpy arrays, like the scalar interval
    solves of a fit and the interpreter work of set-up."""

    def time(self):
        one = np.zeros(1)
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(180_000):
            acc += float(np.sqrt(one + i)[0])
        return time.perf_counter() - t0


class DenseReference:
    """150 FE-like Newton iterations at the 16x16 size: tangent einsums
    over 1024 Gauss points, a scatter into a 578x578 system and a dense
    solve of 450 unknowns."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grad = rng.standard_normal((256, 4, 4, 2, 2, 2))
        self.g = rng.standard_normal((256, 4, 2, 2))
        self.dofs = rng.integers(0, 578, size=(256, 8))
        self.system = rng.standard_normal((450, 450)) + 450.0 * np.eye(450)

    def time(self):
        t0 = time.perf_counter()
        for _ in range(150):
            c = np.einsum("egab,egcd->egabcd", self.g, self.g)
            k_e = np.einsum("egimab,egabcd,egjncd->eimjn", self.grad, c,
                            self.grad, optimize=True).reshape(256, 8, 8)
            k = np.zeros((578, 578))
            np.add.at(k, (self.dofs[:, :, None], self.dofs[:, None, :]), k_e)
            np.linalg.solve(self.system, k[:450, 0])
        return time.perf_counter() - t0


class FrameCycle16:
    """Cyclic 0-50-20-50 deg frame verify on a 16x16 membrane mesh."""

    name = "frame-cycle-16"
    # a run holds only three or four passes of about 14 s, so a median
    # would rest on one or two of them; the run's total pass time over the
    # total of its reference times uses them all
    pooled = True

    def __init__(self, seed, work):
        # The demo set as it is, whatever the seed.  Scaling its hardening
        # constants by seeded factors in [0.97, 1.03] puts the round-off
        # max_theta12_dev over its 1e-12 limit on some seeds (the Newton
        # stopping rule of ROADMAP item 1): 1.03e-12 to 1.79e-12 on about
        # a quarter of them at 16x16, and on 1 of 45 even at 12x12.  The
        # demo set itself gives 3.5e-13.
        path = work / "frame_params.json"
        save_params(path, DEMO)
        self.reference = DenseReference()
        self.argv = ["picture-frame", "--mode", "verify", "--params",
                     str(path), "--mesh", "16x16", "--program", "50,20,50"]

    def check(self, out):
        """Return the verify report; raise CheckFailed unless it passed."""
        for fname in ("fe_curve.csv", "fe_fields.csv", "analytic_curve.csv"):
            if not (out / fname).is_file():
                raise CheckFailed(f"missing {fname}")
        report = json.loads((out / "verify_report.json").read_text())
        figures = {f"fe.verify.{key}": report[key] for key in (
            "max_tau_rel_scale", "max_theta12_dev", "max_force_rel")}
        for key, tol in VERIFY_TOLS.items():
            if report[key] != tol:
                raise CheckFailed(f"verify ran with {key} = {report[key]}",
                                  figures)
        if not (report["passed"]
                and report["max_tau_rel_scale"] <= VERIFY_TOLS["tau_tol"]
                and report["max_theta12_dev"] <= VERIFY_TOLS["theta12_tol"]
                and report["max_force_rel"] <= VERIFY_TOLS["force_tol"]):
            raise CheckFailed(f"verify failed: {report}", figures)
        return figures


class CalibrateGlass:
    """Staged fit of the AC9 glass curve with 1 % seeded noise."""

    name = "calibrate-glass"
    # about ten passes a run, a few of them slowed by an episode of the
    # host's drift: the median of the per-pass ratios passes over those
    pooled = False

    def __init__(self, seed, work):
        clean = model_forces(FIT_GRID, GLASS)
        curve = synthetic_curve(GLASS, FIT_GRID, rel_noise=FIT_NOISE,
                                seed=seed)
        self.curve = curve
        self.noise_rms = float(np.sqrt(np.mean(
            (curve.force_norm - clean) ** 2)))
        data = work / "glass_curve.csv"
        curve.to_csv(data)
        start = work / "glass_start.json"
        save_params(start, replace_params(GLASS, FIT_START))
        self.reference = ScalarReference()
        self.argv = ["calibrate", "--data", str(data), "--params",
                     str(start), "--stages", "1,2,3", "--max-evals",
                     str(FIT_MAX_EVALS)]

    def check(self, out):
        """Return fit figures; raise CheckFailed unless the rms is noise-level."""
        report = json.loads((out / "fit_report.json").read_text())
        ep, _ = load_params(out / "fitted_params.json")
        model = model_forces(self.curve.gamma_deg, ep)
        rms = float(np.sqrt(np.mean((model - self.curve.force_norm) ** 2)))
        if not math.isclose(rms, report["rms_full_curve"], rel_tol=1e-9):
            raise CheckFailed(f"fitted parameters give rms {rms}, report "
                              f"says {report['rms_full_curve']}")
        ratio = rms / self.noise_rms
        err = max(abs(getattr(ep, field) / getattr(GLASS, field) - 1.0)
                  for field in ("A_h", "a_h", "C_h", "c_h"))
        stages = {s["stage"]: s for s in report["stages"]}
        figures = {f"calibrate.stage{k}.evals": stages[k]["evals"]
                   for k in (1, 2, 3)}
        figures.update({
            "calibrate.stages_converged": sum(
                bool(s["converged"]) for s in report["stages"]),
            "calibrate.rms_over_noise": ratio,
            "calibrate.param_err_max": err})
        if not ratio <= FIT_RMS_FACTOR:
            raise CheckFailed(f"fit rms is {ratio:.3f} x the noise rms",
                              figures)
        return figures


WORKLOADS = {w.name: w for w in (FrameCycle16, CalibrateGlass)}
