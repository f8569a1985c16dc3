"""Every name a module lists in ``__all__`` resolves, so no export outlives
the code it named; and every function the package defines is entered by a
subcommand or a benchmark operation, or is listed with the reason it stays."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadsmp

SRC = str(Path(quadsmp.__file__).resolve().parents[1])

MODULES = ["quadsmp", *(f"quadsmp.{name}" for name in quadsmp.__all__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a CLI start-up to import; nothing at import time needs it
    run = _python("-c", "import sys, quadsmp.cli; print('scipy.stats' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_cli_module_runs_without_runtime_warning():
    # the package loads cli lazily, so runpy does not find it already imported
    run = _python("-W", "error::RuntimeWarning", "-m", "quadsmp.cli", "--help")
    assert run.returncode == 0, run.stderr
    assert "usage" in run.stdout


def test_spike_run_leaves_scipy_unloaded(tmp_path):
    # the package needs numpy alone: a whole spike study, order fits included
    config = tmp_path / "spike.json"
    config.write_text(
        json.dumps({"n_paths": 200, "n_steps": 32, "horizon": 1.0, "seed": 1, "t0": 0.25, "eps_steps": [1, 2, 4, 8]})
    )
    code = (
        "import sys; from quadsmp import cli; "
        f"status = cli.main(['spike', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(status, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    status, loaded = run.stdout.strip().splitlines()[-1].split(" ", 1)
    assert status in ("0", "1")
    assert loaded == "[]"
    assert (tmp_path / "out" / "report.json").exists()


# functions no subcommand or benchmark operation enters, each kept for a reason
UNREACHED = {
    "smp.hamiltonian": "H itself, the reference that the acceptance test of the difference identity reads",
    "smp.hamiltonian_difference_identity": "the acceptance check of hamiltonian_gap against H",
    "bmo.estimate_bmo2_norm": "the BMO2 norm of the f_z integral along a candidate, a planned report's input",
}

# every subcommand at 200 paths x 32 steps, both solve-bsde equations, both
# models where the subcommand takes one, the spike's slope bands and explicit
# check-smp test controls
SCALE = {"seed": 1, "n_paths": 200, "n_steps": 32, "horizon": 1.0}
REACHING_RUNS = [
    ("simulate", {}),
    ("solve-bsde", {}),
    ("solve-bsde", {"equation": "linear", "lam": 0.3, "mu": 0.5}),
    ("adjoint", {}),
    ("adjoint", {"model": "example"}),
    ("spike", {"t0": 0.25, "eps_steps": [1, 2, 4, 8], "slope_bands": {"x1_sup_sq": [0.5, 1.5]}}),
    ("check-smp", {"test_controls": [[-1.0], [0.5]]}),
    ("check-smp", {"model": "example"}),
    ("example", {}),
    ("bmo-suite", {}),
]


def _function_defs():
    """(file, first line) -> module-qualified name of every def in the package;
    the first line is the first decorator's, as in the code object."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[(str(path), first)] = f"{path.stem}.{name}"
                visit(child, path, f"{name}.<locals>.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(Path(quadsmp.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


def test_every_src_function_is_reached(tmp_path, monkeypatch):
    from test_bench_contract import _shrink, workloads

    _shrink("oracles", monkeypatch)
    # the first use of quadsmp.cli in a fresh process goes through the package's __getattr__
    monkeypatch.delattr(quadsmp, "cli", raising=False)
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        from quadsmp import cli

        for i, (kind, fields) in enumerate(REACHING_RUNS):
            config = tmp_path / f"{i}.json"
            config.write_text(json.dumps({**SCALE, **fields}))
            assert cli.main([kind, "--config", str(config), "--out", str(tmp_path / str(i))]) in (0, 1), kind
        # only the oracle operations invert a matrix flow
        inputs = workloads.prepare("oracles", 1, tmp_path)
        for _, run, _ in workloads.operations("oracles"):
            run(inputs)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    defs = _function_defs()
    assert sorted(name for key, name in defs.items() if key not in reached) == sorted(UNREACHED)
