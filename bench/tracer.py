"""Span and counter tracer that times quadsmp from outside the program.

Modules bind names at import (``from .regression import
conditional_expectation``), so patching the defining module alone would miss
most calls. The tracer finds every quadsmp module attribute that *is* a
traced function and replaces each such binding with its own wrapper; model
callables are wrapped by replacing the model factories, so every ModelSpec
they build carries timed callables. ``restore()`` puts every original back.

A span is (name, parent, start, end) on ``time.perf_counter``; the tracer is
single-threaded (the workloads run with ``--jobs 1``). Counters: ridge
fallbacks from ``RankDeficientRegression`` warnings recorded under
``simplefilter("always")``, and the Z clip rate read from the ``SolverReport``
that ``solve_bsde_lsmc`` returns.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
import warnings

# defining module -> traced public functions; each becomes the span name
# "<module>.<function>"
TRACED = {
    "grids": ["generate_brownian"],
    "regression": ["polynomial_design", "conditional_expectation"],
    "sde": ["simulate_forward_sde", "simulate_matrix_flow"],
    "bsde": [
        "solve_bsde_lsmc",
        "solve_linear_bsde_weighted",
        "solve_multidim_linear_bsde",
        "exponential_weight",
    ],
    "adjoint": ["solve_adjoints", "solve_first_order", "solve_second_order", "upsilon_process"],
    "spike": [
        "run_spike_study",
        "hatted_coefficients",
        "solve_x1",
        "solve_x2",
        "compute_y1z1",
        "solve_yhat",
        "compute_y2z2",
        "expansion_residuals",
        "value_remainder_estimate",
    ],
    "smp": ["check_global_smp", "local_smp_gradient"],
    "example": ["run_example_experiment", "girsanov_cost_estimate"],
    "bmo": ["energy_inequality_report", "john_nirenberg_report"],
    "cli": ["run"],
}
MODEL_SPAN = "models.callables"
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + [MODEL_SPAN]
PACKAGE_MODULES = [
    "quadsmp", "quadsmp.grids", "quadsmp.regression", "quadsmp.bmo", "quadsmp.sde",
    "quadsmp.models", "quadsmp.bsde", "quadsmp.adjoint", "quadsmp.spike", "quadsmp.smp",
    "quadsmp.example", "quadsmp.reports", "quadsmp.cli",
]
# program factories whose models get timed callables
MODEL_FACTORIES = [("quadsmp.models", "benchmark_model"), ("quadsmp.example", "example_model")]


class TracingError(RuntimeError):
    """A traced name is missing, or an expected binding was never entered."""


class Tracer:
    def __init__(self, extra_factories=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, parent, start, end]
        self._stack: list[int] = []
        self.entries: dict[str, int] = {}  # binding site -> times entered
        self.clip_rates: list[float] = []
        self._patched: list[tuple] = []  # (module, attr, original)
        self._extra_factories = list(extra_factories)
        self._warnings_cm = None
        self._recorded: list = []

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, site: str, on_return=None):
        name_id = self._name_id(name)
        spans, stack, entries = self.spans, self._stack, self.entries
        entries.setdefault(site, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entries[site] += 1
            idx = len(spans)
            spans.append([name_id, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_model(self, model):
        """Copy of a ModelSpec whose callable fields open MODEL_SPAN spans."""
        timed = {
            f.name: self._wrap(getattr(model, f.name), MODEL_SPAN, MODEL_SPAN)
            for f in dataclasses.fields(model)
            if callable(getattr(model, f.name))
        }
        return dataclasses.replace(model, **timed)

    # -- patching ------------------------------------------------------
    def _set(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_everywhere(self, original, make_wrapper):
        """Replace every quadsmp binding of ``original`` by make_wrapper(site)."""
        for mod_name in PACKAGE_MODULES:
            module = importlib.import_module(mod_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    site = f"{mod_name.removeprefix('quadsmp.')}.{attr}"
                    self._set(module, attr, make_wrapper(site))

    def install(self):
        lsmc_hook = lambda result: self.clip_rates.append(float(result[2].clip_rate))
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"quadsmp.{mod}")
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if original is None:
                    raise TracingError(f"quadsmp.{mod} has no function {fn_name}")
                name = f"{mod}.{fn_name}"
                hook = lsmc_hook if name == "bsde.solve_bsde_lsmc" else None
                self._patch_everywhere(
                    original, lambda site, o=original, n=name, h=hook: self._wrap(o, n, site, h)
                )
        for mod_name, attr in MODEL_FACTORIES:
            original = getattr(importlib.import_module(mod_name), attr)
            self._patch_everywhere(original, lambda site, o=original: self._factory(o))
        for module, attr in self._extra_factories:
            self._set(module, attr, self._factory(getattr(module, attr)))

        from quadsmp.regression import RankDeficientRegression

        self._warnings_cm = warnings.catch_warnings(record=True)
        self._recorded = self._warnings_cm.__enter__()
        warnings.simplefilter("always", RankDeficientRegression)
        self._fallback_category = RankDeficientRegression
        return self

    def _factory(self, original):
        def factory(*args, **kwargs):
            return self.wrap_model(original(*args, **kwargs))

        factory.__wrapped__ = original
        return factory

    def restore(self):
        """Put every original binding back, in reverse order of patching."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        leftover = [
            f"{m.__name__}.{a}" for m, a, o in self._patched if getattr(m, a) is not o
        ]
        self._patched.clear()
        if self._warnings_cm is not None:
            self._warnings_cm.__exit__(None, None, None)
            self._warnings_cm = None
        if leftover:
            raise TracingError(f"bindings not restored: {leftover}")

    def require_entered(self, sites):
        """Fail loudly when an expected binding was never entered."""
        missing = [s for s in sites if self.entries.get(s, 0) == 0]
        if missing:
            raise TracingError(f"expected bindings never entered: {missing}")

    # -- results -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        top_level_s = 0.0
        ce_ms = []
        ce_id = self._name_ids.get("regression.conditional_expectation")
        for i, (name_id, parent, start, end) in enumerate(self.spans):
            agg = per_name[self.names[name_id]]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if parent < 0:
                top_level_s += end - start
            if name_id == ce_id:
                ce_ms.append((end - start) * 1e3)
        fallbacks = sum(
            1 for w in self._recorded if issubclass(w.category, self._fallback_category)
        )
        return {
            "spans": per_name,
            "top_level_s": top_level_s,
            "conditional_expectation_ms": ce_ms,
            "ridge_fallbacks": fallbacks,
            "clip_rates": self.clip_rates,
            "entries": dict(self.entries),
        }

    def write_spans(self, path) -> None:
        """All spans as {"names": [...], "spans": [[name, parent, start, end], ...]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
