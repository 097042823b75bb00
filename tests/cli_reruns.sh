#!/usr/bin/env bash
# The CLI rerun set: a fixed list of commands whose files must be
# byte-identical from one run to the next on the same host and numpy build.
#
# Usage: tests/cli_reruns.sh OUT
#
# Runs the package in the src/ beside this script.  Writes the input files
# (parameter sets, the AC9 glass curve and its fit start, a config file) to
# OUT/inputs and each command's outputs to OUT/<run>.  Two runs compare with
# `diff -r`, whether of one checkout or of two.
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
out="$1"
in="$out/inputs"
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
mkdir -p "$in"

params="$in/demo.json"
echo '{"mu_f": 1.0, "tau_y": 0.0, "A": 0.05, "a": 1.0, "B": 0.01, "b": 55.0, "C": 0.7, "c": 5.0}' > "$params"
# the same set with a fiber-stretch stiffness, so that the FE run covers the
# stretch terms of the element kernel
stretch="$in/demo_stretch.json"
echo '{"mu_f": 1.0, "tau_y": 0.0, "A": 0.05, "a": 1.0, "B": 0.01, "b": 55.0, "C": 0.7, "c": 5.0, "eps_L": 2.0}' > "$stretch"
# the AC9 glass curve with 1 % noise at seed 0, fitted from the AC9 start
# point
python - "$in" <<'EOF'
import sys
import numpy as np
from wovenshear import (ElastoplasticParams, replace_params,
                        save_params, synthetic_curve)
glass = ElastoplasticParams(mu_f=5.0, tau_y=1e-4, A_h=8.8,
                            a_h=0.0024, B_h=0.0028, b_h=65.0,
                            C_h=1.0, c_h=11.0)
grid = np.concatenate([np.arange(0.1, 1.01, 0.1),
                       np.arange(1.25, 5.01, 0.25),
                       np.arange(5.5, 60.01, 0.5)])
synthetic_curve(glass, grid, rel_noise=0.01, seed=0).to_csv(
    f"{sys.argv[1]}/glass_curve.csv")
save_params(f"{sys.argv[1]}/glass_start.json", replace_params(
    glass, {"A": 8.8 * 1.02, "a": 0.0024 * 0.97, "C": 1.05,
            "c": 11.0 * 0.95}))
EOF
# the settings of the verify_mu0 run below, from a config file
echo '{"mode": "verify", "mesh": "4x4", "mu0": 3, "steps_per_degree": 1}' > "$in/verify_config.json"

python -m wovenshear.cli picture-frame --mode verify \
  --params "$params" --mesh 4x4 --out "$out/verify"
python -m wovenshear.cli picture-frame --mode fe \
  --params "$stretch" --mesh 4x4 --out "$out/fe"
# a 1x1 mesh drives every node, so the Newton loop has no free DOF to factor
# or solve for
python -m wovenshear.cli picture-frame --mode verify \
  --params "$params" --mesh 1x1 --out "$out/verify_1x1"
# the command hands verify the analytic curve it writes, at the run's force
# normalization and step density, so a run that sets both is compared too
python -m wovenshear.cli picture-frame --mode verify \
  --params "$params" --mesh 4x4 --mu0 3 --steps-per-degree 1 \
  --out "$out/verify_mu0"
python -m wovenshear.cli picture-frame \
  --params "$params" --config "$in/verify_config.json" \
  --out "$out/verify_config"
# the glass set has mu_f = 5, so verify compares force columns normalized by
# the default mu0 = 5
python -m wovenshear.cli picture-frame --mode verify \
  --params "$in/glass_start.json" --mesh 4x4 \
  --out "$out/verify_glass"
python -m wovenshear.cli picture-frame --mode analytic \
  --params "$params" --program 50,20,50 --out "$out/analytic"
# the legs to 10, 30 and 45 deg load one way, so the closed form drives the
# three as one monotone run
python -m wovenshear.cli picture-frame --mode analytic \
  --params "$params" --program 10,30,45,5,50 --out "$out/analytic_merged"
python -m wovenshear.cli material-point \
  --params "$params" --program 0.6,-0.2,0.5 --dphi 0.001 --out "$out/material"
python -m wovenshear.cli calibrate \
  --data "$in/glass_curve.csv" --params "$in/glass_start.json" \
  --stages 1,2,3 --max-evals 300 --out "$out/calibrate"
python -m wovenshear.cli param-study \
  --params "$params" --sweep tau_y=0,0.25,0.5 --out "$out/study"
