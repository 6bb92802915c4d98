"""Package-level guards: module doctests and the runtime import footprint."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import flowgeom

MODULES = ["flowgeom"] + sorted(
    f"flowgeom.{info.name}" for info in pkgutil.iter_modules(flowgeom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_cli_import_does_not_pull_in_scipy():
    src = os.path.dirname(os.path.dirname(flowgeom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, flowgeom.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
