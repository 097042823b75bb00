"""End-to-end and per-layer benchmark of the wovenshear command line.

Run from the repository root:

    python3 perfbench/run.py --workload frame-cycle-16 --seed 0 \
        --seconds 56 --trace 0

One client drives the ``wovenshear`` CLI in-process in a closed loop: a
pass is one command, run until its outputs are on disk, then checked for
correctness (the check is not timed).  Passes repeat until the next one
would end after ``--seconds``.  The workload seed generates the input
files during set-up; the program sees only those files and the flags.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of the CPU time of interpreter start, imports and input
generation, at a fixed host speed; see time_setup), ``wall_ref`` (pass
time over the time of the workload's fixed reference computation, run
between passes; see workloads.py) and ``peak_rss_mb``.  It also prints the median pass time ``wall_s`` in
seconds and ``failed_frac``; neither is in the JSON metrics, because
``wall_s`` drifts with the host's speed beyond any usable bound and
``failed_frac`` reads 0 on a healthy run, so it cannot carry a bound
relative to the parent's.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (see
spans.py).  The last line of
standard output is one JSON object; run records and spans go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("frame-cycle-16", "calibrate-glass")
SETUP_PROBES = 5
# set-up times are reported at the speed of a host on which the scalar
# reference of workloads.py takes this long (about its time on the 2-core
# host the benchmark was built on)
SETUP_REF_S = 0.45


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up in a fresh process and exit; the parent times it
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads():
    """Pin OpenBLAS to one thread; call before numpy loads.

    The benchmark's load is one process.  With a second BLAS thread, a
    16x16 frame pass took 107 s instead of 12 s while another process
    kept the second of two cores busy."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def set_up(name, seed, work):
    """Import the program from this checkout and write the seeded inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import wovenshear.cli
    pkg = Path(wovenshear.__file__).resolve()
    if ROOT not in pkg.parents:
        raise RuntimeError(f"wovenshear imported from {pkg}, not from {ROOT}")
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, work)


def time_setup(args):
    """Median set-up time of fresh processes, at a fixed host speed.

    A probe is a fresh process that sets up and exits.  When its set-up is
    done it takes its own CPU time (user and system, from its start), so
    teardown is not counted, and then times the scalar reference.  The
    host's speed drifts by a third between runs, so a probe's set-up time
    over its reference time, times ``SETUP_REF_S``, is the sample.
    Returns the median sample and the raw (set-up s, reference s) pairs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                              capture_output=True, text=True)
        cpu, ref = map(float, done.stdout.split()[-2:])
        samples.append((cpu, ref))
    return statistics.median(SETUP_REF_S * cpu / ref
                             for cpu, ref in samples), samples


def run_pass(wl, out, tracer=None, pass_id=-1):
    """One CLI command and its output check: (wall s, error, figures)."""
    import wovenshear.cli
    from workloads import CheckFailed

    out.mkdir()
    argv = wl.argv + ["--out", str(out)]

    def command():
        return wovenshear.cli.main.main(argv, prog_name="wovenshear",
                                        standalone_mode=False)

    error = None
    log = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            rc = tracer.run_pass(pass_id, command) if tracer else command()
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
        log.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    figures = {}
    if error is None:
        if rc not in (None, 0):
            error = f"exit code {rc}"
        # a command that exits nonzero may still have written outputs the
        # check can measure, such as a failed verify report
        try:
            figures = wl.check(out)
        except CheckFailed as exc:
            figures = exc.figures
            error = error or f"check failed: {exc}"
        except (OSError, ValueError, KeyError) as exc:
            error = error or f"check failed: {type(exc).__name__}: {exc}"
    figures["cli.bytes_written"] = sum(f.stat().st_size
                                       for f in out.iterdir())
    shutil.rmtree(out)
    if error is not None:
        print(f"pass {pass_id}: {error}\n{log.getvalue()}", file=sys.stderr)
    return wall, error, figures


def commit():
    """Checked-out commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    import numpy
    import scipy
    import wovenshear
    return {
        "commit": commit(),
        "wovenshear": wovenshear.__version__,
        "wovenshear_file": str(Path(wovenshear.__file__).resolve()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def measure(args, wl, work):
    """Closed-loop passes for ``args.seconds``; returns the pass records."""
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    reference = wl.reference
    passes = []
    t_begin = time.perf_counter()
    ref_before = reference.time()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        wall, error, figures = run_pass(wl, work / f"out{k}",
                                        tracer if traced else None, k)
        ref_after = reference.time()
        passes.append({"pass": k, "traced": traced, "wall_s": wall,
                       "ref_s": 0.5 * (ref_before + ref_after),
                       "error": error, "figures": figures})
        ref_before = ref_after
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(p["wall_s"] + ref_after for p in passes)
        enough = not args.trace or any(p["traced"] for p in passes)
        if enough and elapsed + typical > args.seconds:
            return passes, tracer


def wall_ref(passes, traced, pooled):
    """Pass time over reference time of the (un)traced passes: their total
    over the total when ``pooled``, else the median of per-pass ratios."""
    chosen = [p for p in passes if p["traced"] == traced]
    if pooled:
        return (sum(p["wall_s"] for p in chosen)
                / sum(p["ref_s"] for p in chosen))
    return statistics.median(p["wall_s"] / p["ref_s"] for p in chosen)


def layer_metrics(passes, tracer, pooled):
    """Median over traced passes of each per-layer metric, with its unit.

    A layer the workload never calls reads 0."""
    from spans import METRICS

    rows = []
    for p in passes:
        if p["traced"]:
            m = tracer.pass_metrics(p["pass"])
            m.update(p["figures"])
            m["trace.self_sum_frac"] = m.pop("trace.self_sum_s") / p["wall_s"]
            rows.append(m)
    overhead = (wall_ref(passes, True, pooled)
                / wall_ref(passes, False, pooled) - 1.0)
    metrics = {}
    for name, unit, _ in METRICS:
        value = (overhead if name == "trace.overhead_frac" else
                 statistics.median(m.get(name, 0.0) for m in rows))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    if not (ROOT / "src" / "wovenshear" / "__init__.py").is_file():
        print(f"error: no wovenshear sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        wl = set_up(args.workload, args.seed, work)
        if args.setup_probe:
            from workloads import ScalarReference
            cpu = time.process_time()
            print(cpu, ScalarReference().time())
            return 0
        setup_s, setup_samples = (None, []) if args.trace else \
            time_setup(args)
        passes, tracer = measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    attempted = len(passes)
    failed = sum(p["error"] is not None for p in passes)
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        metrics = layer_metrics(passes, tracer, wl.pooled)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": wall_ref(passes, False, wl.pooled),
                         "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": wl.argv, "provenance": provenance(),
        "setup_samples": setup_samples,
        "passes": passes, "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.npz")

    print(f"{args.workload} seed {args.seed}: {attempted} passes "
          f"({len(plain)} untraced), {failed} failed; "
          f"provenance {json.dumps(record['provenance'])}")
    if not args.trace:
        refs = [p["ref_s"] for p in passes]
        print(f"  wall_s {statistics.median(plain):.6g} s (median; max "
              f"{max(plain):.6g} s) over {len(plain)} passes; reference "
              f"{statistics.median(refs):.6g} s")
        print(f"  failed_frac {failed / attempted:.6g} ratio")
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
