"""Public names of each module.

Verifies: every name in a module's ``__all__`` exists in that module, so
that ``from wovenshear.<module> import *`` works and no export outlives
the code it named; importing the CLI leaves ``scipy.optimize``, which
only the calibration fit uses, unimported.
"""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["kinematics", "material", "analytic", "fe", "calibrate", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wovenshear.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    namespace = {}
    exec(f"from wovenshear.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # in a fresh interpreter, since this one may have imported it already
    code = ("import sys, wovenshear.cli; "
            "print(any(m.startswith('scipy.optimize') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
