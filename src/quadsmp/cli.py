"""Experiment orchestration: seeded, configurable, reproducible runs.

Subcommands: simulate, solve-bsde, adjoint, spike, check-smp, example,
bmo-suite. ``read_config`` checks a whole config against ``FIELDS`` (each
subcommand's fields, in checking order, with their defaults) and
``FIELD_TABLE`` (each field's type and least value) before anything is
written. A valid run writes manifest.json (the config echo plus a content
hash), report.json and per-experiment CSV files into the output directory,
and exits 0 iff every enabled check passed. Outputs are byte-identical
across re-runs of the same configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bmo, example, smp
from .adjoint import linearize, solve_adjoints
from .bsde import (
    BsdeSolverError,
    ControlledTrajectory,
    LinearBsdeData,
    solve_bsde_lsmc,
    solve_linear_bsde_weighted,
)
from .grids import TimeGrid, constant_control, generate_brownian
from .models import benchmark_model, validate_derivatives
from .reports import content_hash, write_csv, write_json
from .sde import SimulationError, simulate_forward_sde
from .spike import FIT_TARGETS, run_spike_study

# slope band of each fitted functional, by its target order
ORDER_BANDS = {1.0: (0.8, 1.2), 2.0: (1.7, 2.3)}
DEFAULT_SLOPE_BANDS = {name: ORDER_BANDS[order] for name, order in FIT_TARGETS.items()}

REQUIRED = object()  # the default of a field that every config must give

# each config field's default, and a scalar field's type and least value
FIELD_TABLE = {
    "seed": (REQUIRED, int, 0),  # no wall-clock seeding
    "n_paths": (REQUIRED, int, 2),  # a standard error needs two paths
    "n_steps": (REQUIRED, int, 1),
    "horizon": (REQUIRED, float, math.ulp(0.0)),  # the least positive float: any horizon > 0
    "equation": ("model", None, None),
    "model": ("benchmark", str, None),
    "x0": (lambda model: 0.0 if model.name == "arctan-example" else 1.0, float, None),  # the example's optimum
    "control": (0.0, float, None),
    "candidate": (0.0, float, None),
    "replacement": (1.0, float, None),
    "basis_degree": (2, int, 1),
    "tolerance": (0.05, float, 0.0),  # a negative one would count positive gaps as violations
    "csv_paths": (32, int, 0),
    "n_norms": (100, int, 1),
    "eps_steps": ([8, 16, 32, 64], None, None),
    "t0": (0.25, float, None),
    "slope_bands": ({}, None, None),
    "test_controls": (None, None, None),  # None: the model's own probe set
    **{key: (default, float, None) for key, default in (("lam", 0.0), ("mu", 0.0), ("phi", 0.0), ("xi", 1.0))},
}
CONTROLS = ("control", "candidate", "replacement")  # constant controls, inside the model's domain


def _fields(*names) -> dict:
    return {name: FIELD_TABLE[name][0] for name in names}


# each subcommand's config fields in checking order, with their defaults;
# solve-bsde also reads the fields of its equation
SCALE = ("seed", "n_paths", "n_steps", "horizon")
CANDIDATE = ("model", "x0", "control", "basis_degree")
FIELDS = {
    "simulate": _fields(*SCALE, "model", "x0", "control", "csv_paths"),
    "solve-bsde": _fields(*SCALE, "equation"),
    "adjoint": _fields(*SCALE, *CANDIDATE, "tolerance"),
    "spike": _fields(
        *SCALE, "model", "eps_steps", "t0", "x0", "replacement", "candidate", "basis_degree", "slope_bands"
    ),
    "check-smp": _fields(*SCALE, "model", "x0", "candidate", "basis_degree", "tolerance", "test_controls"),
    # the solvable example runs at its acceptance scale unless told otherwise
    "example": {"seed": REQUIRED, "n_paths": 20000, "n_steps": 200, "horizon": 1.0},
    "bmo-suite": _fields(*SCALE, "n_norms"),
}
EQUATION_FIELDS = {"model": CANDIDATE, "linear": ("lam", "mu", "phi", "xi")}


class ConfigError(ValueError):
    pass


def _models():
    return {"benchmark": benchmark_model, "example": example.example_model}


def _is_number(val) -> bool:
    """A finite JSON number; bool subclasses int, but true and false are no numbers."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def _is_vector(val, length: int) -> bool:
    return isinstance(val, list) and len(val) == length and all(_is_number(v) for v in val)


def read_config(kind: str, cfg: dict) -> dict:
    """The values a run of this kind reads: each field of FIELDS[kind], checked
    in order with its default filled in ("model" becomes the built ModelSpec,
    its derivatives checked), plus the "grid"; then the spike's and
    check-smp's cross-field rules. Raises ConfigError at the first fault."""
    fields = FIELDS[kind]
    if kind == "solve-bsde":
        equation = cfg.get("equation", fields["equation"])
        if not isinstance(equation, str) or equation not in EQUATION_FIELDS:
            raise ConfigError(f"config field 'equation' must be 'model' or 'linear', got {equation!r:.40}")
        fields = {**fields, **_fields(*EQUATION_FIELDS[equation])}
    unknown = next((key for key in cfg if key not in fields), None)
    if unknown is not None:
        raise ConfigError(f"config field '{unknown}' is not read by {kind} (fields: {', '.join(fields)})")
    v = {}
    for key, default in fields.items():
        val = cfg.get(key, default(v["model"]) if callable(default) else default)
        if val is REQUIRED:
            raise ConfigError(f"config field '{key}' is required")
        _, typ, least = FIELD_TABLE[key]
        if typ is not None:
            if not (_is_number(val) if typ is float else isinstance(val, typ) and not isinstance(val, bool)):
                raise ConfigError(f"config field '{key}': expected {typ.__name__}, got {val!r:.40}")
            val = float(val) if typ is float else val
            if least is not None and not val >= least:
                raise ConfigError(f"config field '{key}' must be at least {least!r}, got {val}")
        if key == "model":
            if val not in _models():
                raise ConfigError(f"config field 'model': unknown model '{val}' (choose from {sorted(_models())})")
            val = _models()[val]()
            validate_derivatives(val, n_probes=32)
        elif key in CONTROLS and not v["model"].control_domain.contains(val):
            raise ConfigError(f"config field '{key}': {val} lies outside the model's control domain")
        v[key] = val
    v["grid"] = TimeGrid(v["horizon"], v["n_steps"])
    if not v["grid"].dt > 0.0:
        raise ConfigError(f"config field 'horizon': {v['horizon']} / {v['n_steps']} steps underflows to 0")
    if kind == "spike":
        _check_spike(v)
    if kind == "check-smp":
        model, controls = v["model"], v["test_controls"]
        if controls is None:
            v["test_controls"] = model.control_domain.test_controls(model.k).tolist()
        elif not (isinstance(controls, list) and controls) or not all(
            _is_vector(c, model.k) and model.control_domain.contains(c) for c in controls
        ):
            raise ConfigError(f"config field 'test_controls' must list {model.k}-number controls in its domain")
    return v


def _check_spike(v: dict) -> None:
    """The spike's cross-field rules; fills in the slope bands the config leaves out."""
    if v["model"].name == "arctan-example":  # b = 0 and sigma = u: X2 vanishes, no order-2 fit exists
        raise ConfigError("config field 'model': the spike study needs a second variation; use 'benchmark'")
    eps_steps, grid = v["eps_steps"], v["grid"]
    if not isinstance(eps_steps, list) or not eps_steps or not all(
        isinstance(e, int) and not isinstance(e, bool) and e > 0 for e in eps_steps
    ):
        raise ConfigError("config field 'eps_steps' must be a non-empty list of positive integers")
    if any(a >= b for a, b in zip(eps_steps, eps_steps[1:])):  # the remainder check reads list order as width order
        raise ConfigError(f"config field 'eps_steps' must be strictly increasing, got {eps_steps}")
    if max(eps_steps) > grid.n_steps:
        raise ConfigError("config field 'eps_steps': window exceeds the horizon")
    k0 = v["t0"] / grid.dt
    if not 0 <= k0 <= grid.n_steps or abs(k0 - round(k0)) > 1e-9:
        raise ConfigError(f"config field 't0': {v['t0']} is not on the grid (dt={grid.dt})")
    if round(k0) + max(eps_steps) > grid.n_steps:
        raise ConfigError("config field 't0': largest window leaves the horizon")
    if v["replacement"] == v["candidate"]:
        raise ConfigError("config field 'replacement' must differ from 'candidate'")
    if len(eps_steps) < 4:
        raise ConfigError("config field 'eps_steps' needs at least 4 distinct widths to fit orders")
    bands = v["slope_bands"]
    if not isinstance(bands, dict) or not all(
        name in DEFAULT_SLOPE_BANDS and _is_vector(band, 2) and band[0] <= band[1] for name, band in bands.items()
    ):
        raise ConfigError(f"config field 'slope_bands' must map {sorted(DEFAULT_SLOPE_BANDS)} to [lo, hi], lo <= hi")
    v["eps_steps"], v["slope_bands"] = tuple(eps_steps), {**DEFAULT_SLOPE_BANDS, **bands}


def _solve_candidate(v: dict, control_key: str = "control"):
    """The constant control v[control_key] from x0, solved by LSMC: the trajectory and the solver report."""
    model, grid, n_paths = v["model"], v["grid"], v["n_paths"]
    w = generate_brownian(n_paths, grid, model.d, v["seed"])
    u = constant_control(v[control_key], n_paths, grid.n_steps)
    x = simulate_forward_sde(model, v["x0"], u, w)
    y, z, report = solve_bsde_lsmc(model, x, u, w, degree=v["basis_degree"])
    return ControlledTrajectory(w=w, x=x, y=y, z=z, u=u), report


def run_simulate(v: dict, out: Path) -> dict:
    model, grid, n_paths = v["model"], v["grid"], v["n_paths"]
    w = generate_brownian(n_paths, grid, model.d, v["seed"])
    x = simulate_forward_sde(model, v["x0"], constant_control(v["control"], n_paths, grid.n_steps), w)
    rows = [[*index, value] for index, value in np.ndenumerate(x[: v["csv_paths"]])]
    write_csv(out / "state.csv", ["path", "step", "coordinate", "value"], rows)
    terminal = x[:, -1]
    return {
        "checks": {"finite": bool(np.isfinite(x).all())},
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_std": terminal.std(axis=0, ddof=1).tolist(),
    }


def run_solve_bsde(v: dict, out: Path) -> dict:
    if v["equation"] == "linear":
        n_paths, grid, lam, mu, phi, xi = (v[key] for key in ("n_paths", "grid", "lam", "mu", "phi", "xi"))
        w = generate_brownian(n_paths, grid, 1, v["seed"])
        data = LinearBsdeData(
            lam=np.full((n_paths, grid.n_steps), lam),
            mu=np.full((n_paths, grid.n_steps, 1), mu),
            phi=np.full((n_paths, grid.n_steps), phi),
            xi=np.full(n_paths, xi),
        )
        y, _, report = solve_linear_bsde_weighted(data, w)
        payload = {"y0": report.y0, "y0_std_error": report.y0_std_error}
        checks = {}
        if phi == 0.0:  # constant coefficients: Z = 0 and Y0 = xi e^(lam T) for every mu
            closed_form = xi * float(np.exp(lam * grid.horizon))
            gap = abs(report.y0 - closed_form)
            payload["closed_form"] = closed_form
            payload["relative_error"] = gap / max(1e-12, abs(closed_form))
            tolerance = max(0.01 * abs(closed_form), 4.0 * report.y0_std_error)
            checks["closed_form_within_tolerance"] = bool(gap <= tolerance)
        (out / "solver.json").write_text(report.to_json() + "\n")
        return {"checks": checks, **payload}
    traj, report = _solve_candidate(v)
    (out / "solver.json").write_text(report.to_json() + "\n")
    return {
        "checks": {"finite": bool(np.isfinite(traj.y).all() and np.isfinite(traj.z).all())},
        "y0": report.y0,
        "y0_std_error": report.y0_std_error,
        "clip_rate": report.clip_rate,
    }


def run_adjoint(v: dict, out: Path) -> dict:
    model = v["model"]
    traj, _ = _solve_candidate(v)
    adj = solve_adjoints(linearize(model, traj), degree=v["basis_degree"])
    rows = [
        [k, float(np.abs(adj.p[:, k]).mean()), float(np.abs(adj.big_p[:, k]).mean())]
        for k in range(traj.w.grid.n_steps + 1)
    ]
    write_csv(out / "adjoint_means.csv", ["step", "mean_abs_p", "mean_abs_P"], rows)
    payload = {
        "sup_abs_p": float(np.abs(adj.p).max()),
        "sup_rms_q": example.sup_time_rms(adj.q),
        "sup_abs_P": float(np.abs(adj.big_p).max()),
        "sup_rms_Q": example.sup_time_rms(adj.big_q),
    }
    checks = {"p_bounded": bool(np.isfinite(payload["sup_abs_p"]))}
    # (p, P) = (1, 0) in closed form along the zero control from the zero state
    if model.name == "arctan-example" and not traj.u.any() and not traj.x[:, 0].any():
        deviations = example.ExampleAdjointReport.of(adj)
        payload["sup_p_minus_one"] = deviations.sup_p_minus_one
        checks["adjoint_constants"] = deviations.within(v["tolerance"])
    return {"checks": checks, **payload}


def run_spike(v: dict, out: Path) -> dict:
    result = run_spike_study(
        v["model"], v["x0"], v["grid"], v["n_paths"], v["seed"], v["t0"], v["eps_steps"],
        replacement=v["replacement"], u_bar_value=v["candidate"], degree=v["basis_degree"],
    )
    rows = []
    for name, fit in result.fits.items():
        for eps, err in zip(fit.eps_values, fit.errors):
            rows.append([name, eps, err, fit.slope, fit.ci_low, fit.ci_high])
    write_csv(out / "order_fits.csv", ["functional", "eps", "error", "slope", "ci_low", "ci_high"], rows)
    checks = {}
    for name, fit in result.fits.items():
        lo, hi = v["slope_bands"][name]
        checks[f"slope_{name}"] = bool(lo <= fit.slope <= hi)
    ratios = np.asarray(result.y2_at_zero) / np.asarray(result.eps_values)
    spread = float((ratios.max() - ratios.min()) / np.abs(ratios).max())
    checks["y2_over_eps_spread_le_25pct"] = bool(spread <= 0.25)
    # windows are listed by increasing width; the scaled remainder must fall
    # strictly as the window shrinks
    rem = result.remainder_over_eps
    checks["remainder_over_eps_decreasing"] = bool(
        all(rem[i] < rem[i + 1] for i in range(len(rem) - 1))
    )
    return {
        "checks": checks,
        "slopes": {name: fit.slope for name, fit in result.fits.items()},
        "y2_over_eps": ratios.tolist(),
        "y2_over_eps_spread": spread,
        "remainder_over_eps": list(rem),
        "remainder_over_eps_se": list(result.remainder_over_eps_se),
        "remainder_over_eps_diff_z": list(result.remainder_over_eps_diff_z),
        "candidate_value": result.y_bar_0,
    }


def run_check_smp(v: dict, out: Path) -> dict:
    tol, test_controls = v["tolerance"], v["test_controls"]
    traj, _ = _solve_candidate(v, control_key="candidate")
    lin = linearize(v["model"], traj)
    adj = solve_adjoints(lin, degree=v["basis_degree"])
    report = smp.check_global_smp(lin, adj, test_controls, tolerance=tol)
    write_json(out / "smp_violations.json", report.to_dict())
    worst_rows = [[e[0], e[1], json.dumps(e[2]), e[3]] for e in report.entries[:100]]
    write_csv(out / "worst_cells.csv", ["path", "step", "control", "gap"], worst_rows)
    payload = {
        "checks": {"global_smp_no_violation": report.empty},
        "n_violations": report.n_violations,
        "worst_gap": report.worst_gap,
    }
    # the local (variational) necessary condition presumes a convex control
    # domain, so it is only checked on box domains
    if v["model"].b_u is not None and v["model"].control_domain.kind == "box":
        _, local_report = smp.local_smp_gradient(lin, adj.p, adj.q, test_controls=test_controls, tolerance=tol)
        payload["local"] = local_report
        payload["checks"]["local_smp_no_violation"] = bool(local_report["passed"])
    return payload


def run_example(v: dict, out: Path) -> dict:
    detail = example.run_example_experiment(v["n_paths"], v["n_steps"], v["horizon"], v["seed"])
    checks = {name: bool(c["passed"]) for name, c in detail.items()}
    write_csv(out / "verdict.csv", ["check", "passed"], [[name, int(ok)] for name, ok in sorted(checks.items())])
    return {"checks": checks, "detail": detail}


def run_bmo_suite(v: dict, out: Path) -> dict:
    norms = np.logspace(-6, 0.4, v["n_norms"])
    worst_roundtrip = max(abs(bmo.psi(bmo.critical_exponent(norm)) - norm) for norm in norms)
    checks = {"psi_roundtrip_1e_10": bool(worst_roundtrip <= 1e-10)}
    checks["reverse_holder_value"] = bool(abs(bmo.reverse_holder_constant(1.5, 0.0) - 4.0) <= 1e-12)
    w = generate_brownian(v["n_paths"], v["grid"], 1, v["seed"])
    paths = w.paths()[:, :-1, :]
    integrands = {
        "constant": np.ones_like(w.increments),
        "sine_of_w": np.sin(paths),
        "half_indicator": 0.5 * (paths > 0.0),
    }
    rows = []
    for name, h in integrands.items():
        mart = bmo.MartingalePathSet.from_integrand(h, w)
        declared = float(np.abs(h).max()) * np.sqrt(v["horizon"])
        for n in (1, 2, 3):
            rep = bmo.energy_inequality_report(mart, n, declared)
            checks[f"energy_{name}_n{n}"] = rep.passed
            rows.append([name, f"energy_n{n}", int(rep.passed), rep.worst_margin])
        with np.errstate(over="ignore"):
            delta = 0.5 * declared**-2 if declared > 0.0 else 1.0  # any delta > 0 bounds a zero martingale by 1
        if not np.isfinite(delta):
            raise SimulationError(f"{name}: delta = 1/(2 norm^2) overflows at norm {declared:.3g}")
        jn = bmo.john_nirenberg_report(mart, delta, declared)
        checks[f"john_nirenberg_{name}"] = jn.passed
        rows.append([name, "john_nirenberg", int(jn.passed), jn.worst_margin])
    write_csv(out / "bmo_checks.csv", ["ensemble", "check", "passed", "margin"], rows)
    return {"checks": checks, "worst_psi_roundtrip": float(worst_roundtrip)}


RUNNERS = {
    "simulate": run_simulate,
    "solve-bsde": run_solve_bsde,
    "adjoint": run_adjoint,
    "spike": run_spike,
    "check-smp": run_check_smp,
    "example": run_example,
    "bmo-suite": run_bmo_suite,
}


def run(kind: str, cfg: dict, out_dir) -> int:
    """Validate, execute and report one experiment; returns the exit status."""
    values = read_config(kind, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = json.dumps({"experiment": kind, "config": cfg}, sort_keys=True, indent=2)
    manifest = {"experiment": kind, "config": cfg, "config_hash": content_hash(echo.encode())}
    write_json(out / "manifest.json", manifest)
    payload = RUNNERS[kind](values, out)
    write_json(out / "report.json", payload)
    return 0 if all(payload.get("checks", {}).values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadsmp",
        description="Seeded Monte Carlo experiments for quadratic-generator stochastic control",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        # windows run serially; the option stays for callers that pass --jobs 1
        p.add_argument("--jobs", type=int, default=1, choices=(1,), help="worker count; 1 is the only value")
        p.add_argument("--out", type=str, default="out", help="output directory")
    args = parser.parse_args(argv)

    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print(f"config error: {args.config} must hold a JSON object, got {cfg!r:.40}", file=sys.stderr)
            return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        return run(args.experiment, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, BsdeSolverError) as exc:
        # a valid config whose run breaks down numerically passes no check
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
