"""The benchmark's tracer wraps quadsmp functions by name and requires named
bindings to be entered; every name it lists must exist in the package. The
benchmark's oracle operations call the library directly and must keep running."""

import importlib
import importlib.util
import json
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


# each workload's scales, cut so one round runs in well under a second
SMALL_SCALES = {
    "example": [(workloads.EXAMPLE, {"n_paths": 500, "n_steps": 20})],
    "spike": [(workloads.SPIKE, {"n_paths": 200, "n_steps": 64, "eps_steps": [2, 4, 8, 16]})],
    "oracles": [
        (workloads.CLOSED_FORM, {"n_paths": 300, "n_steps": 20}),
        (workloads.AGREEMENT, {"n_paths": 300, "n_steps": 20}),
        (workloads.MATRIX_ODE, {"n_paths": 300, "n_steps": 16}),
        (workloads.FLOW_INVERSE, {"n_paths": 100, "n_steps": (8, 16)}),
        (workloads.BMO_SUITE, {"n_paths": 200, "n_steps": 16}),
    ],
}


def _shrink(name, monkeypatch):
    for scale, fields in SMALL_SCALES[name]:
        for key, value in fields.items():
            monkeypatch.setitem(scale, key, value)


def test_oracles_operations_run_on_small_inputs(tmp_path, monkeypatch):
    """The benchmark's oracle operations call the library directly (positional
    MultiLinearBsdeData, LinearBsdeData with state, 3- and 4-tuple returns,
    the flow pair's inverse_identity_error); run each one on small inputs, its
    check left out, so a signature change fails here."""
    _shrink("oracles", monkeypatch)
    inputs = workloads.prepare("oracles", 1, tmp_path)
    for name, run, _ in workloads.operations("oracles"):
        output = run(inputs)
        assert isinstance(output, dict) and output, name
        json.dumps(output)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_expected_sites_are_entered(name, tmp_path, monkeypatch):
    """Every binding a workload's trace requires is entered by its operations,
    so a change that stops calling a pinned function fails here and not only
    under a traced benchmark run."""
    _shrink(name, monkeypatch)
    importlib.import_module("quadsmp.cli")  # bound before patching, as the workload process does
    trace = tracer.Tracer(extra_factories=[(workloads, "linear_model")]).install()
    try:
        inputs = workloads.prepare(name, 1, tmp_path)
        for _, run, _ in workloads.operations(name):
            run(inputs)
    finally:
        trace.restore()
    trace.require_entered(workloads.EXPECTED_SITES[name])
