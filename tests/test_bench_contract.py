"""The benchmark's tracer wraps quadsmp functions by name and requires named
bindings to be entered; every name it lists must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _traced_functions():
    found = (
        getattr(importlib.import_module(f"quadsmp.{mod}"), fn, None)
        for mod, fns in tracer.TRACED.items()
        for fn in fns
    )
    return {id(f) for f in found if f is not None}


@pytest.mark.parametrize(
    "mod,fn", [(mod, fn) for mod, fns in tracer.TRACED.items() for fn in fns]
)
def test_traced_function_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"quadsmp.{mod}"), fn, None))


@pytest.mark.parametrize("factory_module,attr", tracer.MODEL_FACTORIES)
def test_model_factory_exists(factory_module, attr):
    assert callable(getattr(importlib.import_module(factory_module), attr, None))


@pytest.mark.parametrize(
    "workload,site",
    [(name, site) for name, sites in workloads.EXPECTED_SITES.items() for site in sites],
)
def test_expected_site_binds_a_traced_function(workload, site):
    if site == tracer.MODEL_SPAN:
        return
    mod, attr = site.split(".")
    assert f"quadsmp.{mod}" in tracer.PACKAGE_MODULES
    binding = getattr(importlib.import_module(f"quadsmp.{mod}"), attr, None)
    assert binding is not None, f"quadsmp.{mod} has no attribute {attr}"
    assert id(binding) in _traced_functions(), f"{site} is not a traced function"
