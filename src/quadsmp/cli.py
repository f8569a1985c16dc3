"""Experiment orchestration: seeded, configurable, reproducible runs.

Subcommands: simulate, solve-bsde, adjoint, spike, check-smp, example,
bmo-suite. Each run validates its configuration, writes manifest.json (the
config echo plus a content hash), report.json and per-experiment CSV files
into the output directory, and exits 0 iff every enabled check passed.
Outputs are byte-identical across re-runs of the same configuration.
"""

from __future__ import annotations

import argparse
import json
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
from .grids import TimeGrid, constant_control, generate_brownian, write_ensemble_csv
from .models import benchmark_model, validate_derivatives
from .reports import content_hash, write_csv, write_json
from .sde import SimulationError, simulate_forward_sde
from .spike import FIT_TARGETS, run_spike_study

# slope band of each fitted functional, by its target order
ORDER_BANDS = {1.0: (0.8, 1.2), 2.0: (1.7, 2.3)}
DEFAULT_SLOPE_BANDS = {name: ORDER_BANDS[order] for name, order in FIT_TARGETS.items()}


class ConfigError(ValueError):
    pass


def _models():
    return {"benchmark": benchmark_model, "example": example.example_model}


def _is_number(val) -> bool:
    """A finite JSON number; bool subclasses int, but true and false are no numbers."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def _is_vector(val, length: int) -> bool:
    return isinstance(val, list) and len(val) == length and all(_is_number(v) for v in val)


def _require(cfg: dict, key: str, kind, positive: bool = False):
    if key not in cfg:
        raise ConfigError(f"config field '{key}' is required")
    val = cfg[key]
    ok = _is_number(val) if kind is float else isinstance(val, kind) and not isinstance(val, bool)
    if not ok:
        raise ConfigError(f"config field '{key}': expected {kind.__name__}, got {val!r:.40}")
    if kind is float:
        val = float(val)
    if positive and not val > 0:
        raise ConfigError(f"config field '{key}' must be positive, got {val}")
    return val


def _control(cfg: dict, key: str, model) -> float:
    """A constant control: a finite number inside the model's control domain."""
    val = _require(cfg, key, float)
    if not model.control_domain.contains(val):
        raise ConfigError(f"config field '{key}': {val} lies outside the model's control domain")
    return val


def _common(cfg: dict):
    n_paths = _require(cfg, "n_paths", int, positive=True)
    n_steps = _require(cfg, "n_steps", int, positive=True)
    horizon = _require(cfg, "horizon", float, positive=True)
    seed = _require(cfg, "seed", int)
    if seed < 0:
        raise ConfigError(f"config field 'seed' must be non-negative, got {seed}")
    return n_paths, TimeGrid(horizon, n_steps), seed


def _model_from(cfg: dict):
    name = _require({"model": "benchmark", **cfg}, "model", str)
    factory = _models().get(name)
    if factory is None:
        raise ConfigError(f"config field 'model': unknown model '{name}' (choose from {sorted(_models())})")
    model = factory()
    validate_derivatives(model, n_probes=32)
    return model


def _solve_candidate(cfg: dict, model, control_key: str = "control"):
    """Brownian ensemble -> constant control -> forward SDE -> LSMC.

    Returns the candidate trajectory, the solver report and the basis degree.
    x0 defaults to 0 for the arctan example (its optimal state) and to 1
    otherwise; the control to 0 and the basis degree to 2.
    """
    n_paths, grid, seed = _common(cfg)
    x0_default = 0.0 if model.name == "arctan-example" else 1.0
    cfg = {"x0": x0_default, control_key: 0.0, "basis_degree": 2, **cfg}
    x0 = _require(cfg, "x0", float)
    control = _control(cfg, control_key, model)
    degree = _require(cfg, "basis_degree", int, positive=True)
    w = generate_brownian(n_paths, grid, model.d, seed)
    u = constant_control(control, n_paths, grid.n_steps)
    x = simulate_forward_sde(model, x0, u, w)
    y, z, report = solve_bsde_lsmc(model, x, u, w, degree=degree)
    return ControlledTrajectory(w=w, x=x, y=y, z=z, u=u), report, degree


def run_simulate(cfg: dict, out: Path) -> dict:
    n_paths, grid, seed = _common(cfg)
    model = _model_from(cfg)
    cfg = {"x0": 1.0, "control": 0.0, "csv_paths": 32, **cfg}
    x0 = _require(cfg, "x0", float)
    control = _control(cfg, "control", model)
    snap = min(n_paths, _require(cfg, "csv_paths", int))
    if snap < 0:
        raise ConfigError(f"config field 'csv_paths' must be non-negative, got {snap}")
    w = generate_brownian(n_paths, grid, model.d, seed)
    u = constant_control(control, n_paths, grid.n_steps)
    x = simulate_forward_sde(model, x0, u, w)
    write_ensemble_csv(out / "state.csv", x[:snap])
    terminal = x[:, -1]
    return {
        "checks": {"finite": bool(np.isfinite(x).all())},
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_std": terminal.std(axis=0, ddof=1).tolist(),
    }


def run_solve_bsde(cfg: dict, out: Path) -> dict:
    n_paths, grid, seed = _common(cfg)
    kind = cfg.get("equation", "model")
    if kind not in ("model", "linear"):
        raise ConfigError(f"config field 'equation' must be 'model' or 'linear', got {kind!r:.40}")
    if kind == "linear":
        cfg = {"lam": 0.0, "mu": 0.0, "phi": 0.0, "xi": 1.0, **cfg}
        lam, mu, phi, xi = (_require(cfg, key, float) for key in ("lam", "mu", "phi", "xi"))
        w = generate_brownian(n_paths, grid, 1, seed)
        data = LinearBsdeData(
            lam=np.full((n_paths, grid.n_steps), lam),
            mu=np.full((n_paths, grid.n_steps, 1), mu),
            phi=np.full((n_paths, grid.n_steps), phi),
            xi=np.full(n_paths, xi),
        )
        y, _, report = solve_linear_bsde_weighted(data, w)
        closed_form = xi * float(np.exp(lam * grid.horizon)) if mu == 0.0 and phi == 0.0 else None
        payload = {"y0": report.y0, "y0_std_error": report.y0_std_error}
        checks = {}
        if closed_form is not None:
            rel = abs(report.y0 - closed_form) / max(1e-12, abs(closed_form))
            payload["closed_form"] = closed_form
            payload["relative_error"] = rel
            checks["closed_form_within_1pct"] = bool(rel <= 0.01)
        (out / "solver.json").write_text(report.to_json() + "\n")
        return {"checks": checks, **payload}
    traj, report, _ = _solve_candidate(cfg, _model_from(cfg))
    (out / "solver.json").write_text(report.to_json() + "\n")
    return {
        "checks": {"finite": bool(np.isfinite(traj.y).all() and np.isfinite(traj.z).all())},
        "y0": report.y0,
        "y0_std_error": report.y0_std_error,
        "clip_rate": report.clip_rate,
    }


def run_adjoint(cfg: dict, out: Path) -> dict:
    model = _model_from(cfg)
    tol = _require({"tolerance": 0.05, **cfg}, "tolerance", float)
    traj, _, degree = _solve_candidate(cfg, model)
    adj = solve_adjoints(linearize(model, traj), degree=degree)
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
    if model.name == "arctan-example" and cfg.get("control", 0.0) == 0.0:
        deviations = example.ExampleAdjointReport.of(adj)
        payload["sup_p_minus_one"] = deviations.sup_p_minus_one
        checks["adjoint_constants"] = deviations.within(tol)
    return {"checks": checks, **payload}


def run_spike(cfg: dict, out: Path, jobs: int = 1) -> dict:
    n_paths, grid, seed = _common(cfg)
    model = _model_from(cfg)
    if model.name == "arctan-example":  # b = 0 and sigma = u: X2 vanishes, no order-2 fit exists
        raise ConfigError("config field 'model': the spike study needs a second variation; use 'benchmark'")
    eps_steps = cfg.get("eps_steps", [8, 16, 32, 64])
    if not isinstance(eps_steps, list) or not eps_steps or not all(
        isinstance(e, int) and not isinstance(e, bool) and e > 0 for e in eps_steps
    ):
        raise ConfigError("config field 'eps_steps' must be a non-empty list of positive integers")
    if max(eps_steps) > grid.n_steps:
        raise ConfigError("config field 'eps_steps': window exceeds the horizon")
    cfg = {"t0": 0.25, "x0": 1.0, "replacement": 1.0, "candidate": 0.0, "basis_degree": 2, **cfg}
    t0 = _require(cfg, "t0", float)
    k0 = t0 / grid.dt
    if abs(k0 - round(k0)) > 1e-9 or k0 < 0:
        raise ConfigError(f"config field 't0': {t0} is not on the grid (dt={grid.dt})")
    if round(k0) + max(eps_steps) > grid.n_steps:
        raise ConfigError("config field 't0': largest window leaves the horizon")
    x0 = _require(cfg, "x0", float)
    replacement = _control(cfg, "replacement", model)
    candidate = _control(cfg, "candidate", model)
    degree = _require(cfg, "basis_degree", int, positive=True)
    if replacement == candidate:
        raise ConfigError("config field 'replacement' must differ from 'candidate'")
    if len(set(eps_steps)) < 4:
        raise ConfigError("config field 'eps_steps' needs at least 4 distinct widths to fit orders")
    bands = cfg.get("slope_bands", {})
    if not isinstance(bands, dict) or not all(
        name in DEFAULT_SLOPE_BANDS and _is_vector(band, 2) for name, band in bands.items()
    ):
        raise ConfigError(f"config field 'slope_bands' must map names from {sorted(DEFAULT_SLOPE_BANDS)} to [lo, hi]")
    result = run_spike_study(
        model, x0, grid, n_paths, seed, t0, tuple(eps_steps),
        replacement=replacement, u_bar_value=candidate, degree=degree, jobs=jobs,
    )
    rows = []
    for name, fit in result.fits.items():
        for eps, err in zip(fit.eps_values, fit.errors):
            rows.append([name, eps, err, fit.slope, fit.ci_low, fit.ci_high])
    write_csv(
        out / "order_fits.csv",
        ["functional", "eps", "error", "slope", "ci_low", "ci_high"],
        rows,
    )
    bands = {**DEFAULT_SLOPE_BANDS, **bands}
    checks = {}
    for name, fit in result.fits.items():
        lo, hi = bands[name]
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


def run_check_smp(cfg: dict, out: Path) -> dict:
    model = _model_from(cfg)
    tol = _require({"tolerance": 0.05, **cfg}, "tolerance", float)
    test_controls = cfg.get("test_controls")
    if test_controls is None:
        test_controls = model.control_domain.test_controls(model.k).tolist()
    elif not (isinstance(test_controls, list) and test_controls) or not all(
        _is_vector(c, model.k) and model.control_domain.contains(c) for c in test_controls
    ):
        raise ConfigError(
            f"config field 'test_controls' must be a non-empty list of {model.k}-number lists"
            " inside the model's control domain"
        )
    # the local (variational) necessary condition presumes a convex control
    # domain, so it is only checked by default on box domains
    local = cfg.get("local", model.b_u is not None and model.control_domain.kind == "box")
    if not isinstance(local, bool):
        raise ConfigError(f"config field 'local' must be true or false, got {local!r:.40}")
    traj, _, degree = _solve_candidate(cfg, model, control_key="candidate")
    lin = linearize(model, traj)
    adj = solve_adjoints(lin, degree=degree)
    report = smp.check_global_smp(lin, adj, test_controls, tolerance=tol)
    write_json(out / "smp_violations.json", report.to_dict())
    worst_rows = [[e[0], e[1], json.dumps(e[2]), e[3]] for e in report.entries[:100]]
    write_csv(out / "worst_cells.csv", ["path", "step", "control", "gap"], worst_rows)
    payload = {
        "checks": {"global_smp_no_violation": report.empty},
        "n_violations": report.n_violations,
        "worst_gap": report.worst_gap,
    }
    if local:
        _, local_report = smp.local_smp_gradient(lin, adj.p, adj.q, test_controls=test_controls, tolerance=tol)
        payload["local"] = local_report
        payload["checks"]["local_smp_no_violation"] = bool(local_report["passed"])
    return payload


def run_example(cfg: dict, out: Path) -> dict:
    n_paths, grid, seed = _common({"n_paths": 20000, "n_steps": 200, "horizon": 1.0, **cfg})
    verdict = example.run_example_experiment(
        n_paths=n_paths, n_steps=grid.n_steps, horizon=grid.horizon, seed=seed
    )
    rows = [
        [name, int(check["passed"])]
        for name, check in sorted(verdict.checks.items())
    ]
    write_csv(out / "verdict.csv", ["check", "passed"], rows)
    checks = {name: bool(c["passed"]) for name, c in verdict.checks.items()}
    detail = {
        name: {k: v for k, v in c.items() if isinstance(v, (int, float, bool, type(None)))}
        for name, c in verdict.checks.items()
    }
    return {"checks": checks, "detail": detail}


def run_bmo_suite(cfg: dict, out: Path) -> dict:
    n_paths, grid, seed = _common(cfg)
    norms = np.logspace(-6, 0.4, _require({"n_norms": 100, **cfg}, "n_norms", int, positive=True))
    worst_roundtrip = max(
        abs(bmo.psi(bmo.critical_exponent(v)) - v) for v in norms
    )
    checks = {"psi_roundtrip_1e_10": bool(worst_roundtrip <= 1e-10)}
    checks["reverse_holder_value"] = bool(
        abs(bmo.reverse_holder_constant(1.5, 0.0) - 4.0) <= 1e-12
    )
    w = generate_brownian(n_paths, grid, 1, seed)
    paths = w.paths()[:, :-1, :]
    integrands = {
        "constant": np.ones_like(w.increments),
        "sine_of_w": np.sin(paths),
        "half_indicator": 0.5 * (paths > 0.0),
    }
    rows = []
    for name, h in integrands.items():
        mart = bmo.MartingalePathSet.from_integrand(h, w)
        declared = float(np.abs(h).max()) * np.sqrt(grid.horizon)
        for n in (1, 2, 3):
            rep = bmo.energy_inequality_report(mart, n, declared)
            checks[f"energy_{name}_n{n}"] = rep.passed
            rows.append([name, f"energy_n{n}", int(rep.passed), rep.worst_margin])
        delta = 0.5 * declared**-2
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


def run(kind: str, cfg: dict, out_dir, jobs: int = 1) -> int:
    """Validate, execute and report one experiment; returns the exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = json.dumps({"experiment": kind, "config": cfg}, sort_keys=True, indent=2)
    write_json(
        out / "manifest.json",
        {"experiment": kind, "config": cfg, "config_hash": content_hash(echo.encode())},
    )
    if kind == "spike":
        payload = RUNNERS[kind](cfg, out, jobs=jobs)
    else:
        payload = RUNNERS[kind](cfg, out)
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
        p.add_argument("--jobs", type=int, default=1, help="worker cap for parallel windows")
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
    if "seed" not in cfg:
        print("config error: field 'seed' is required (no wall-clock seeding)", file=sys.stderr)
        return 2
    try:
        return run(args.experiment, cfg, args.out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, BsdeSolverError) as exc:
        # a valid config whose run breaks down numerically passes no check
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
