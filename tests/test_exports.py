"""Public names of each module.

Verifies: every name in a module's ``__all__`` exists in that module, so
that ``from wovenshear.<module> import *`` works and no export outlives
the code it named; the package exports exactly the names of its modules'
``__all__`` lists, each as the module's own object; importing the
package or the CLI leaves every ``scipy`` module, which only a frame step
that factors a tangent uses, unimported, and so do a frame verify run
whose every step is accepted at its prediction and a staged calibration
run; and every module binding that the benchmark's tracer,
``perfbench/spans.py``, wraps by name still exists.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wovenshear
from wovenshear import replace_params, save_params, synthetic_curve

# the modules whose public names the package re-exports
PACKAGE_MODULES = ["kinematics", "material", "analytic", "fe", "calibrate"]
MODULES = PACKAGE_MODULES + ["cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wovenshear.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    namespace = {}
    exec(f"from wovenshear.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_reexports_module_names(name):
    module = importlib.import_module(f"wovenshear.{name}")
    differ = [n for n in module.__all__
              if getattr(wovenshear, n, None) is not getattr(module, n)]
    assert not differ


def test_package_all_is_union_of_module_all():
    names = [n for name in PACKAGE_MODULES
             for n in importlib.import_module(f"wovenshear.{name}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(wovenshear.__all__) == sorted(names)


def test_tracer_bindings_resolve():
    # the tracer replaces each (module, attribute) of its table at run
    # time; one the package no longer has fails the traced run alone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in spans._BINDINGS
               if not hasattr(module, attr)]
    assert spans._BINDINGS and not missing


def test_cli_import_leaves_scipy_optimize_unloaded():
    # in a fresh interpreter, since this one may have imported it already
    code = ("import sys, wovenshear.cli; "
            "print(any(m.startswith('scipy.optimize') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _scipy_modules_after(code, *args):
    """Sorted ``scipy`` modules loaded once ``code`` has run, in a fresh
    interpreter given ``args``; fails if the interpreter exits nonzero."""
    report = ("import atexit, sys; atexit.register(lambda: print(sorted("
              "m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", f"{report}\n{code}", *args],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return out.splitlines()[-1]


@pytest.mark.parametrize("module", ["wovenshear", "wovenshear.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == "[]"


def test_frame_verify_leaves_scipy_unloaded(demo_params, tmp_path):
    # every step of the frame is accepted at its prediction, so the run
    # never factors a tangent and never reaches LAPACK
    params = tmp_path / "demo.json"
    save_params(params, demo_params)
    code = "from wovenshear.cli import main; main()"
    assert _scipy_modules_after(
        code, "picture-frame", "--mode", "verify", "--params", str(params),
        "--mesh", "4x4", "--out", str(tmp_path / "out")) == "[]"
    assert (tmp_path / "out" / "verify_report.json").exists()


def test_calibrate_leaves_scipy_unloaded(glass_params, tmp_path):
    # the fit's steps and its identifiability SVD run on numpy alone
    data = tmp_path / "curve.csv"
    synthetic_curve(glass_params, np.arange(0.5, 50.01, 0.5), rel_noise=0.01,
                    seed=0).to_csv(data)
    params = tmp_path / "start.json"
    save_params(params, replace_params(glass_params, {"A": 9.0, "C": 1.05}))
    code = "from wovenshear.cli import main; main()"
    assert _scipy_modules_after(
        code, "calibrate", "--data", str(data), "--params", str(params),
        "--stages", "1,2,3", "--out", str(tmp_path / "out")) == "[]"
    assert (tmp_path / "out" / "fit_report.json").exists()
