"""Every layer the benchmark traces names a function of the package.

perfbench/tracing.py wraps the functions in its LAYERS table by module
and attribute path. A name that no longer resolves breaks the traced
benchmark run (`perfbench/run.py --trace 1`), so it is checked here.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _tracing()


@pytest.mark.parametrize("module, path, label", tracing.LAYERS,
                         ids=[label for _, _, label in tracing.LAYERS])
def test_traced_layer_resolves(module, path, label):
    owner = importlib.import_module(f"polygroup.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{label}: polygroup.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_sympy_functions_resolve():
    laurent = importlib.import_module("polygroup.laurent")
    for attr, _ in tracing.SYMPY_LAYERS:
        assert callable(getattr(laurent.sympy, attr))
