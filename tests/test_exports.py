"""Public names of each module.

Verifies: every name in a module's ``__all__`` exists in that module, so
that ``from wovenshear.<module> import *`` works and no export outlives
the code it named.
"""

import importlib

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
