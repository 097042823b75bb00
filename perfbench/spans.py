"""Spans around the calls into each wovenshear layer, recorded from outside.

:class:`Tracer` replaces the public functions at the module bindings the
program calls through with timing wrappers, and restores them afterwards.
A span is (name, start, end, parent span, pass id); spans live in flat
arrays in memory until :meth:`Tracer.write` saves them.  Counts that only
the returned values know (Newton residual histories, return-map sweeps,
interval iterations) are read from those values as the calls return.

The layer of a span is the part of its name before the first dot.  A
span's self time is its time minus the time of its child spans, and a
layer's self time is the sum over its spans, so the self times of all
layers add up to the pass's root span.  Two reported self times are
narrower than their layer's: ``fe.self_s`` is the self time of the solve
alone (element kinematics, assembly and dense solve; ``fe.verify.self_s``
is the rest of the layer), and ``calibrate.self_s`` is the optimizer's
time outside ``objective`` (``calibrate.objective.self_s`` is the
objective's own time: its loop over the curve, outside the interval
solves it calls).
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

import wovenshear.analytic
import wovenshear.calibrate
import wovenshear.cli
import wovenshear.fe
import wovenshear.material

LAYERS = ("cli", "fe", "material", "analytic", "calibrate", "kinematics")

# every per-layer metric of a traced run: (name, unit, better)
METRICS = (
    ("cli.cmd_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("fe.solve_s", "s", "lower"),
    ("fe.self_s", "s", "lower"),
    ("fe.self_ms_per_iter", "ms", "lower"),
    ("fe.newton_iters", "count", "lower"),
    ("fe.iters_per_step", "iter/step", "lower"),
    ("fe.steps_committed", "count", "lower"),
    ("fe.bisections", "count", "lower"),
    ("fe.step_useful_ratio", "ratio", "higher"),
    ("fe.dof", "count", "lower"),
    ("fe.verify_s", "s", "lower"),
    ("fe.verify.self_s", "s", "lower"),
    ("fe.verify.max_tau_rel_scale", "ratio", "lower"),
    ("fe.verify.max_theta12_dev", "1", "lower"),
    ("fe.verify.max_force_rel", "ratio", "lower"),
    ("material.self_s", "s", "lower"),
    ("material.return_map_batch.calls", "count", "lower"),
    ("material.return_map_batch.points", "count", "lower"),
    ("material.return_map_batch.s", "s", "lower"),
    ("material.return_map_batch.us_per_point", "us", "lower"),
    ("material.return_map_batch.ms_p50", "ms", "lower"),
    ("material.return_map_batch.ms_tail", "ms", "lower"),
    ("material.return_map_batch.plastic_frac", "ratio", "lower"),
    ("material.return_map_batch.sweeps", "count", "lower"),
    ("analytic.self_s", "s", "lower"),
    ("analytic.interval_solve.calls", "count", "lower"),
    ("analytic.interval_solve.s", "s", "lower"),
    ("analytic.interval_solve.us_p50", "us", "lower"),
    ("analytic.interval_solve.us_tail", "us", "lower"),
    ("analytic.interval_solve.iterations", "count", "lower"),
    ("analytic.interval_solve.plastic_frac", "ratio", "lower"),
    ("analytic.run_program.s", "s", "lower"),
    ("calibrate.staged_fit.s", "s", "lower"),
    ("calibrate.self_s", "s", "lower"),
    ("calibrate.objective.calls", "count", "lower"),
    ("calibrate.objective.self_s", "s", "lower"),
    ("calibrate.objective.ms_p50", "ms", "lower"),
    ("calibrate.objective.ms_tail", "ms", "lower"),
    ("calibrate.objective.inf_frac", "ratio", "lower"),
    ("calibrate.stage1.evals", "count", "lower"),
    ("calibrate.stage2.evals", "count", "lower"),
    ("calibrate.stage3.evals", "count", "lower"),
    ("calibrate.stages_converged", "count", "higher"),
    ("calibrate.rms_over_noise", "ratio", "lower"),
    ("calibrate.param_err_max", "ratio", "lower"),
    ("kinematics.calls", "count", "lower"),
    ("kinematics.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


def _rm_batch(acc, out):
    acc["material.return_map_batch.points"] += out[0].size
    acc["material.return_map_batch.plastic"] += int(out[6].sum())
    acc["material.return_map_batch.sweeps"] += out[7]


def _interval(acc, sol):
    acc["analytic.interval_solve.iterations"] += sol.iterations
    acc["analytic.interval_solve.plastic"] += sol.plastic


def _objective(acc, value):
    acc["calibrate.objective.inf"] += not np.isfinite(value)


def _solve(acc, sol):
    recorded = sol.theta_steps.size - 1
    committed = sol.committed_thetas.size
    acc["fe.newton_iters"] += sum(len(r) - 1 for r in sol.residual_history)
    acc["fe.steps_committed"] += committed
    acc["fe.steps_recorded"] += recorded
    # a failed attempt is bisected into two, which adds one commit
    acc["fe.bisections"] += committed - recorded
    acc["fe.dof"] = 2 * sol.mesh.nodes.shape[0]


# (module, attribute, span name, reader of the returned value)
_BINDINGS = (
    (wovenshear.cli, "solve_picture_frame", "fe.solve", _solve),
    (wovenshear.cli, "verify_against_analytic", "fe.verify", None),
    (wovenshear.cli, "run_program", "analytic.run_program", None),
    (wovenshear.cli, "staged_fit", "calibrate.staged_fit", None),
    (wovenshear.cli, "load_params", "material.load_params", None),
    (wovenshear.cli, "params_to_dict", "material.params_to_dict", None),
    (wovenshear.cli, "_write_json", "cli.write", None),
    (np, "savetxt", "cli.write", None),
    (wovenshear.fe, "return_map_batch", "material.return_map_batch",
     _rm_batch),
    (wovenshear.fe, "interval_solve", "analytic.interval_solve", _interval),
    (wovenshear.fe, "advance_interval", "analytic.advance_interval", None),
    (wovenshear.fe, "program_theta_grid", "analytic.program_theta_grid",
     None),
    (wovenshear.fe, "frame_force", "analytic.frame_force", None),
    (wovenshear.fe, "picture_frame_deformation",
     "kinematics.picture_frame_deformation", None),
    (wovenshear.fe, "picture_frame_dF_dtheta",
     "kinematics.picture_frame_dF_dtheta", None),
    (wovenshear.fe, "crosshead_rate", "kinematics.crosshead_rate", None),
    (wovenshear.fe, "theta_to_gamma", "kinematics.theta_to_gamma", None),
    (wovenshear.analytic, "interval_solve", "analytic.interval_solve",
     _interval),
    (wovenshear.analytic, "crosshead_rate", "kinematics.crosshead_rate",
     None),
    (wovenshear.analytic, "gamma_to_theta", "kinematics.gamma_to_theta",
     None),
    (wovenshear.analytic, "theta_to_gamma", "kinematics.theta_to_gamma",
     None),
    (wovenshear.calibrate, "fit", "calibrate.fit", None),
    (wovenshear.calibrate, "objective", "calibrate.objective", _objective),
    (wovenshear.calibrate, "interval_solve", "analytic.interval_solve",
     _interval),
    (wovenshear.calibrate, "frame_force", "analytic.frame_force", None),
    (wovenshear.calibrate, "gamma_to_theta", "kinematics.gamma_to_theta",
     None),
    (wovenshear.calibrate, "replace_params", "material.replace_params",
     None),
)


def tail(values):
    """Value at the highest of p99.9, p99 and p90 that has at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        k = int(len(xs) * pct / 100.0)
        if len(xs) - k - 1 >= 10:
            return xs[k]
    return xs[-1] if xs else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


class Tracer:
    """Span recorder over the traced passes of one run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._pass = -1
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, reader):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if reader is not None:
                reader(self.counts[self._pass], result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _install(self):
        for module, attr, name, reader in _BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, reader))

    def _uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run_pass(self, pass_id, fn):
        """Call ``fn`` traced, under the root span ``cli.cmd`` of pass
        ``pass_id``; the wrappers are in place only during the call."""
        self._pass = pass_id
        self._install()
        try:
            idx = self._open("cli.cmd")
            try:
                return fn()
            finally:
                self._close(idx)
        finally:
            self._uninstall()
            self._pass = -1

    def write(self, path):
        """Save every span as arrays: name id, start, end, parent, pass."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), pass_id=np.asarray(self.pass_id))

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one traced pass."""
        spans = np.flatnonzero(np.asarray(self.pass_id) == pass_id).tolist()
        dur = {k: self.end[k] - self.start[k] for k in spans}
        child = defaultdict(float)
        for k in spans:
            if self.parent[k] >= 0:
                child[self.parent[k]] += dur[k]
        by_name = defaultdict(list)
        self_by_name = defaultdict(float)
        for k in spans:
            name = self.names[self.name_id[k]]
            by_name[name].append(dur[k])
            self_by_name[name] += dur[k] - child[k]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self_by_name.items():
            layer_self[name.split(".", 1)[0]] += s
        c = self.counts[pass_id]
        total = lambda name: sum(by_name.get(name, ()))

        m = {}
        m["cli.cmd_s"] = total("cli.cmd")
        m["cli.self_s"] = layer_self["cli"]
        m["cli.write_s"] = total("cli.write")

        m["fe.solve_s"] = total("fe.solve")
        m["fe.self_s"] = self_by_name["fe.solve"]
        iters = c["fe.newton_iters"]
        m["fe.self_ms_per_iter"] = 1e3 * m["fe.self_s"] / iters if iters \
            else 0.0
        m["fe.newton_iters"] = iters
        committed = c["fe.steps_committed"]
        m["fe.iters_per_step"] = iters / committed if committed else 0.0
        m["fe.steps_committed"] = committed
        m["fe.bisections"] = c["fe.bisections"]
        attempted = committed + c["fe.bisections"]
        m["fe.step_useful_ratio"] = (c["fe.steps_recorded"] / attempted
                                     if attempted else 0.0)
        m["fe.dof"] = c["fe.dof"]
        m["fe.verify_s"] = total("fe.verify")
        m["fe.verify.self_s"] = self_by_name["fe.verify"]

        batch = by_name.get("material.return_map_batch", [])
        points = c["material.return_map_batch.points"]
        m["material.self_s"] = layer_self["material"]
        m["material.return_map_batch.calls"] = len(batch)
        m["material.return_map_batch.points"] = points
        m["material.return_map_batch.s"] = sum(batch)
        m["material.return_map_batch.us_per_point"] = (
            1e6 * sum(batch) / points if points else 0.0)
        m["material.return_map_batch.ms_p50"] = 1e3 * _median(batch)
        m["material.return_map_batch.ms_tail"] = 1e3 * tail(batch)
        m["material.return_map_batch.plastic_frac"] = (
            c["material.return_map_batch.plastic"] / points if points
            else 0.0)
        m["material.return_map_batch.sweeps"] = \
            c["material.return_map_batch.sweeps"]

        solves = by_name.get("analytic.interval_solve", [])
        m["analytic.self_s"] = layer_self["analytic"]
        m["analytic.interval_solve.calls"] = len(solves)
        m["analytic.interval_solve.s"] = sum(solves)
        m["analytic.interval_solve.us_p50"] = 1e6 * _median(solves)
        m["analytic.interval_solve.us_tail"] = 1e6 * tail(solves)
        m["analytic.interval_solve.iterations"] = \
            c["analytic.interval_solve.iterations"]
        m["analytic.interval_solve.plastic_frac"] = (
            c["analytic.interval_solve.plastic"] / len(solves) if solves
            else 0.0)
        m["analytic.run_program.s"] = total("analytic.run_program")

        objs = by_name.get("calibrate.objective", [])
        m["calibrate.staged_fit.s"] = total("calibrate.staged_fit")
        m["calibrate.self_s"] = (layer_self["calibrate"]
                                 - self_by_name["calibrate.objective"])
        m["calibrate.objective.calls"] = len(objs)
        m["calibrate.objective.self_s"] = self_by_name["calibrate.objective"]
        m["calibrate.objective.ms_p50"] = 1e3 * _median(objs)
        m["calibrate.objective.ms_tail"] = 1e3 * tail(objs)
        m["calibrate.objective.inf_frac"] = (
            c["calibrate.objective.inf"] / len(objs) if objs else 0.0)

        kin = [s for name, ds in by_name.items()
               if name.startswith("kinematics.") for s in ds]
        m["kinematics.calls"] = len(kin)
        m["kinematics.s"] = sum(kin)
        m["trace.self_sum_s"] = sum(layer_self.values())
        m["trace.spans"] = len(spans)
        return m
