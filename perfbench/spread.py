"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload calibrate-glass --seeds 0-9

Runs perfbench/run.py once per seed with the settings of BENCHMARK.json
and prints, for each end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"),
                    help="inclusive range, e.g. 0-9")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of "
                  f"{result['attempted']} passes failed", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {vals[-1]:.6g}" for name, vals in values.items()),
            flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (a third of the bound is "
              f"{m['bound'] / 3:.4f}) over {len(vals)} runs")


if __name__ == "__main__":
    sys.exit(main())
