"""Package-level guards: module doctests and the runtime import footprint."""

import doctest
import importlib
import json
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


def _loaded_after_cli_import(names: list[str]) -> list[str]:
    """Those of ``names`` in ``sys.modules`` after ``import flowgeom.cli``
    in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(flowgeom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys, flowgeom.cli; "
            f"print(json.dumps([m for m in {names!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_import_does_not_pull_in_scipy():
    assert _loaded_after_cli_import(["scipy"]) == []


def test_cli_import_does_not_pull_in_jsonschema():
    # the config schema is checked by flowgeom.schema; jsonschema and its
    # dependencies are a test-only second route
    assert _loaded_after_cli_import(["jsonschema", "referencing", "rpds", "attrs"]) == []


def _blas_threads_env_after_import(value: str | None, first: str) -> str | None:
    """``OPENBLAS_NUM_THREADS`` after ``import {first}, flowgeom`` in a fresh
    interpreter started with the variable set to ``value`` (unset if None)."""
    src = os.path.dirname(os.path.dirname(flowgeom.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    code = (f"import json, os, {first}, flowgeom; "
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_starts_openblas_with_one_thread():
    assert _blas_threads_env_after_import(None, "sys") == "1"


def test_import_keeps_a_chosen_blas_thread_count():
    assert _blas_threads_env_after_import("3", "sys") == "3"
    # numpy already loaded: its pool exists, and the variable is left alone
    assert _blas_threads_env_after_import(None, "numpy") is None
