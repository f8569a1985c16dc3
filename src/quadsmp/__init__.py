"""Monte Carlo laboratory for forward-backward stochastic control problems
whose backward component has a quadratic generator.

Layers, bottom up: grids/ensembles, cross-path regression, BMO-martingale
formulas and checks, forward SDE and matrix-flow simulation, three backward
solvers, adjoint equations, spike-variation order studies, maximum-principle
checks, the solvable arctan example, and a seeded CLI harness.
"""

import importlib

from . import adjoint, bmo, bsde, example, grids, models, regression, sde, smp, spike

__all__ = [
    "adjoint",
    "bmo",
    "bsde",
    "cli",
    "example",
    "grids",
    "models",
    "regression",
    "sde",
    "smp",
    "spike",
]

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: cli loads on first use, so `python -m quadsmp.cli` runs it fresh
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
