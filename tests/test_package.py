"""Every name a module lists in ``__all__`` resolves, so no export outlives
the code it named."""

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
