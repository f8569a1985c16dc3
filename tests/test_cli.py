"""CLI harness: validation, artifacts, determinism."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsmp import cli
from quadsmp.adjoint import AdjointBundle
from quadsmp.example import ExampleAdjointReport


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidation:
    def test_seed_required(self, tmp_path, capsys):
        code = cli.main(["simulate", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [None, [1], "x", 3])
    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "1"]])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, payload, seed_flag):
        cfg = _write_config(tmp_path, payload)
        code = cli.main(["example", "--config", cfg, *seed_flag, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and cfg in err

    def test_unknown_model_field_error(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"n_paths": 10, "n_steps": 4, "horizon": 1.0, "seed": 1, "model": "nope"},
        )
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_negative_count_rejected(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"n_paths": -5, "n_steps": 4, "horizon": 1.0, "seed": 1}
        )
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n_paths" in capsys.readouterr().err

    def test_off_grid_window_rejected(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "n_paths": 10, "n_steps": 16, "horizon": 1.0, "seed": 1,
                "t0": 0.33, "eps_steps": [2, 4],
            },
        )
        code = cli.main(["spike", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "t0" in capsys.readouterr().err

    def test_window_beyond_horizon_rejected(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "n_paths": 10, "n_steps": 16, "horizon": 1.0, "seed": 1,
                "t0": 0.25, "eps_steps": [2, 4, 8, 32],
            },
        )
        code = cli.main(["spike", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "experiment,fields,bad_key",
        [
            ("example", {"n_paths": "abc"}, "n_paths"),
            ("example", {"n_paths": 0}, "n_paths"),
            ("example", {"horizon": "1"}, "horizon"),
            ("adjoint", {"tolerance": "x"}, "tolerance"),
            ("adjoint", {"x0": "0"}, "x0"),
            ("solve-bsde", {"control": [1.0, 2.0]}, "control"),
            ("solve-bsde", {"basis_degree": 0}, "basis_degree"),
            ("check-smp", {"candidate": "zero"}, "candidate"),
            ("check-smp", {"tolerance": None}, "tolerance"),
            ("spike", {"t0": "x", "eps_steps": [1, 2]}, "t0"),
            ("spike", {"x0": "one", "eps_steps": [1, 2]}, "x0"),
            ("spike", {"replacement": "one", "eps_steps": [1, 2]}, "replacement"),
            ("spike", {"candidate": "zero", "eps_steps": [1, 2]}, "candidate"),
            ("spike", {"basis_degree": "two", "eps_steps": [1, 2]}, "basis_degree"),
            ("simulate", {"x0": "one"}, "x0"),
            ("simulate", {"control": "zero"}, "control"),
            ("simulate", {"csv_paths": "all"}, "csv_paths"),
            ("bmo-suite", {"n_norms": "many"}, "n_norms"),
            ("bmo-suite", {"n_norms": 0}, "n_norms"),
            ("solve-bsde", {"equation": "linear", "lam": "x"}, "lam"),
            ("solve-bsde", {"equation": "linear", "mu": None}, "mu"),
            ("solve-bsde", {"equation": "linear", "phi": "x"}, "phi"),
            ("solve-bsde", {"equation": "linear", "xi": [1.0]}, "xi"),
            ("solve-bsde", {"equation": "linear", "xi": True}, "xi"),
            ("solve-bsde", {"basis_degree": True}, "basis_degree"),
            ("adjoint", {"x0": float("inf")}, "x0"),
            ("adjoint", {"x0": 10**400}, "x0"),
            ("simulate", {"csv_paths": -3}, "csv_paths"),
            ("simulate", {"model": ["x"]}, "model"),
            ("simulate", {"seed": -1}, "seed"),
            ("spike", {"eps_steps": [True, 2]}, "eps_steps"),
            ("spike", {"eps_steps": []}, "eps_steps"),
            ("spike", {"eps_steps": [1, 2]}, "eps_steps"),
            ("spike", {"replacement": 0.0, "eps_steps": [1, 2]}, "replacement"),
            ("spike", {"model": "example", "eps_steps": [1, 2]}, "model"),
            ("spike", {"slope_bands": [], "t0": 0.0, "eps_steps": [1, 2, 3, 4]}, "slope_bands"),
            ("spike", {"slope_bands": {"x1_sup_sq": 5}, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}, "slope_bands"),
            ("check-smp", {"test_controls": "abc"}, "test_controls"),
            ("check-smp", {"test_controls": [[0.5, 1.0]]}, "test_controls"),
            ("check-smp", {"local": "no"}, "local"),
            ("check-smp", {"local": [1]}, "local"),
            ("solve-bsde", {"equation": "Linear"}, "equation"),
            ("simulate", {"control": 1.5}, "control"),
            ("solve-bsde", {"control": -2982}, "control"),
            ("adjoint", {"model": "example", "control": 0.5}, "control"),
            ("check-smp", {"candidate": 2.0}, "candidate"),
            ("check-smp", {"test_controls": [[0.0], [3.0]]}, "test_controls"),
            ("spike", {"replacement": 1.5, "eps_steps": [1, 2]}, "replacement"),
            ("spike", {"candidate": -2.0, "eps_steps": [1, 2]}, "candidate"),
            ("spike", {"t0": 0.0, "eps_steps": [4, 3, 2, 1]}, "eps_steps"),
            ("spike", {"t0": 0.0, "eps_steps": [1, 2, 2, 3, 4]}, "eps_steps"),
            ("spike", {"replacment": 0.5, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}, "replacment"),
            ("simulate", {"n_path": 10}, "n_path"),
            ("solve-bsde", {"equation": "linear", "model": "example"}, "model"),
            ("solve-bsde", {"equation": "linear", "x0": 0.5}, "x0"),
            ("solve-bsde", {"equation": "linear", "control": 0.5}, "control"),
            ("solve-bsde", {"equation": "linear", "basis_degree": 3}, "basis_degree"),
            ("solve-bsde", {"lam": 0.4}, "lam"),
            ("adjoint", {"candidate": 0.0}, "candidate"),
            ("check-smp", {"control": 1.0}, "control"),
            ("check-smp", {"local": True}, "local"),
            ("check-smp", {"model": "example", "local": True}, "local"),
            ("check-smp", {"local": False}, "local"),
            ("example", {"n_paths": 200, "n_steps": 10, "local": True}, "local"),
            ("bmo-suite", {"x0": 1.0}, "x0"),
            # a standard error needs two paths: one path wrote NaN into report.json
            ("simulate", {"n_paths": 1}, "n_paths"),
            ("spike", {"n_paths": 1, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}, "n_paths"),
            ("example", {"n_paths": 1, "n_steps": 10}, "n_paths"),
            ("adjoint", {"tolerance": -0.5}, "tolerance"),
            ("check-smp", {"tolerance": -0.5}, "tolerance"),
            ("spike", {"slope_bands": {"x1_sup_sq": [1.2, 0.8]}, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}, "slope_bands"),
            # the step horizon / n_steps underflows to 0: t0 / dt and every 1/dt divide by zero
            ("simulate", {"horizon": 5e-324}, "horizon"),
            # t0 / dt overflows to inf, which has no nearest grid node
            ("spike", {"horizon": 1e-310, "eps_steps": [1, 2, 3, 4]}, "t0"),
        ],
    )
    def test_malformed_field_rejected(self, tmp_path, capsys, experiment, fields, bad_key):
        payload = {"seed": 1, **fields}
        if experiment != "example":
            payload = {"n_paths": 10, "n_steps": 4, "horizon": 1.0, **payload}
        cfg = _write_config(tmp_path, payload)
        code = cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert bad_key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # the whole config is checked before anything is written


    @pytest.mark.parametrize("experiment,jobs", [("spike", "-3"), ("simulate", "0"), ("spike", "2")])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, experiment, jobs):
        cfg = _write_config(
            tmp_path, {"n_paths": 10, "n_steps": 4, "horizon": 1.0, "seed": 1, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}
        )
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", cfg, "--jobs", jobs, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_numerical_breakdown_exits_1(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"n_paths": 10, "n_steps": 4, "horizon": 1.0, "seed": 1, "x0": 1.7e308}
        )
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "run failed" in capsys.readouterr().err

    def test_underflowed_weight_exits_1(self, tmp_path, capsys):
        # mu = 45 drives the exponential weight to 0 on some paths, so its
        # inverse is not finite; the solver reports that without a numpy warning
        cfg = _write_config(
            tmp_path, {"n_paths": 1000, "n_steps": 50, "horizon": 1.0, "seed": 1, "equation": "linear", "mu": 45.0}
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve-bsde", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "run failed" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "experiment,fields",
        [
            # the sine integrand's declared norm is ~1e-155, so delta = 1/(2 norm^2) overflows
            ("bmo-suite", {"n_steps": 4}),
            # the spike's squared state gaps underflow to 0, which has no logarithm
            ("spike", {"n_steps": 8, "t0": 0.0, "eps_steps": [1, 2, 3, 4]}),
        ],
    )
    def test_tiny_horizon_exits_1(self, tmp_path, capsys, experiment, fields):
        code, err = _run_quietly(tmp_path, capsys, experiment, {"seed": 1, "n_paths": 10, "horizon": 1e-155, **fields})
        assert code == 1 and _one_failure_line(err)

    @pytest.mark.parametrize(
        "experiment,fields",
        [
            # features of order 1e50 overflow the standardized regression design (SVD did not converge)
            ("example", {"horizon": 1e50}),
            ("adjoint", {"horizon": 1e50, "model": "example"}),
            ("check-smp", {"horizon": 1e50, "model": "example"}),
            # an energy moment's standard error overflows: an infinite one passed any mean, a nan margin failed
            ("bmo-suite", {"horizon": 1e100}),
            ("bmo-suite", {"horizon": 1e150}),
        ],
    )
    def test_huge_horizon_exits_1(self, tmp_path, capsys, experiment, fields):
        code, err = _run_quietly(tmp_path, capsys, experiment, {"seed": 1, "n_paths": 10, "n_steps": 8, **fields})
        assert code == 1 and _one_failure_line(err)


def _run_quietly(tmp_path, capsys, experiment, cfg):
    """Exit status and stderr of a run that must print no RuntimeWarning."""
    path = _write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([experiment, "--config", path, "--out", str(tmp_path / "o")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, capsys.readouterr().err


def _one_failure_line(err):
    return err.startswith("run failed: ") and err.count("\n") == 1


# every subcommand, on both models where it takes one
EVERY_RUN = [
    ("simulate", {}), ("simulate", {"model": "example"}),
    ("solve-bsde", {}), ("solve-bsde", {"model": "example"}),
    ("adjoint", {}), ("adjoint", {"model": "example"}),
    ("spike", {"t0": 0.0, "eps_steps": [1, 2, 3, 4]}),
    ("check-smp", {}), ("check-smp", {"model": "example"}),
    ("example", {}), ("bmo-suite", {}),
]


@pytest.mark.parametrize("horizon", [1e20, 1e50, 1e100, 1e150, 1e200, 1e300])
@pytest.mark.parametrize("experiment,fields", EVERY_RUN)
def test_huge_horizon_fails_quietly(tmp_path, capsys, experiment, fields, horizon):
    # each overflow is followed by a check that decides the run: exit 0, or 1
    # with one line, and no RuntimeWarning on the way
    cfg = {"seed": 1, "n_paths": 10, "n_steps": 8, "horizon": horizon, **fields}
    code, err = _run_quietly(tmp_path, capsys, experiment, cfg)
    assert code in (0, 1)
    assert err == "" or _one_failure_line(err), err


NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.floats(-3, 3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# fields that size an allocation draw small numbers or non-numbers only
SIZES = st.integers(-2, 8) | st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(-2, 8), max_size=5)
# horizons of 1e-300 to 1e-150 and of 1e150 to 1e300, log-uniform: their squares
# and inverse squares leave float64
TINY_HORIZONS = st.floats(-300, -150).map(lambda e: 10.0**e)
HUGE_HORIZONS = st.floats(150, 300).map(lambda e: 10.0**e)
FIELD_VALUES = {
    "model": st.sampled_from(["benchmark", "example"]) | JSON_VALUES,
    "horizon": TINY_HORIZONS | HUGE_HORIZONS | NUMBERS | JSON_VALUES,
    "equation": st.just("linear") | JSON_VALUES,
    "eps_steps": st.lists(st.integers(1, 6), min_size=4, max_size=5, unique=True).map(sorted) | SIZES,
    "test_controls": st.lists(st.lists(NUMBERS, min_size=1, max_size=2), max_size=3) | JSON_VALUES,
    "slope_bands": st.dictionaries(
        st.sampled_from(["x1_sup_sq", "y1_sup_sq", "other"]), st.lists(NUMBERS, min_size=2, max_size=2)
    ) | JSON_VALUES,
    **{key: SIZES for key in ("basis_degree", "csv_paths", "n_paths", "n_steps", "n_norms")},
}
UNKNOWN_FIELD = "unknown_field"


def _field_names(experiment):
    """Every config field the CLI reads for this subcommand, and one it does not."""
    names = set(cli.FIELDS[experiment])
    if experiment == "solve-bsde":
        names.update(*cli.EQUATION_FIELDS.values())
    return sorted(names) + [UNKNOWN_FIELD]


class TestAnyConfig:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), experiment=st.sampled_from(sorted(cli.FIELDS)))
    def test_exit_status_never_a_traceback(self, data, experiment):
        # 10 paths x 8 steps: every run is small, whatever the drawn fields say;
        # the spike's default windows do not fit in 8 steps, these do
        cfg = {"n_paths": 10, "n_steps": 8, "horizon": 1.0, "seed": 1}
        if experiment == "spike":
            cfg.update(t0=0.0, eps_steps=[1, 2, 3, 4])
        fields = st.lists(st.sampled_from(_field_names(experiment)), unique=True, min_size=1, max_size=3)
        for key in data.draw(fields):
            cfg[key] = data.draw(FIELD_VALUES.get(key, NUMBERS | JSON_VALUES), label=key)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code = cli.main([experiment, "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2)
        if UNKNOWN_FIELD in cfg:
            assert code == 2


class TestArtifacts:
    def test_simulate_writes_reports(self, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {"n_paths": 32, "n_steps": 8, "horizon": 1.0, "seed": 3, "model": "benchmark"},
        )
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert len(manifest["config_hash"]) == 40
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["finite"] is True
        assert (out / "state.csv").exists()

    def test_simulate_state_csv(self, tmp_path):
        # the reports' CSV writer: a header, 17 significant digits, LF line ends
        out = tmp_path / "run"
        cfg = _write_config(tmp_path, {"n_paths": 4, "n_steps": 2, "horizon": 1.0, "seed": 3, "csv_paths": 2})
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "state.csv").read_bytes()
        assert b"\r" not in body and body.endswith(b"\n")
        lines = body.decode().splitlines()
        assert lines[0] == "path,step,coordinate,value"
        assert lines[1] == "0,0,0,1"  # the benchmark model starts at x0 = 1
        assert len(lines) == 1 + 2 * 3
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:3] for row in rows] == [[str(p), str(k), "0"] for p in range(2) for k in range(3)]
        moved = [row[3] for row in rows if row[1] != "0"]
        assert all(float(v) != 1.0 and format(float(v), ".17g") == v for v in moved)

    def test_simulate_starts_example_where_the_candidates_do(self, tmp_path):
        # the arctan example's default start is its optimal state 0 under
        # every subcommand; under the zero control the state stays there
        out = tmp_path / "run"
        cfg = _write_config(tmp_path, {"n_paths": 8, "n_steps": 4, "horizon": 1.0, "seed": 1, "model": "example"})
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["terminal_mean"] == [0.0]

    def test_solve_bsde_linear_closed_form(self, tmp_path):
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {
                "n_paths": 500, "n_steps": 50, "horizon": 1.0, "seed": 3,
                "equation": "linear", "lam": 0.4, "xi": 2.0,
            },
        )
        code = cli.main(["solve-bsde", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["closed_form_within_tolerance"] is True

    @pytest.mark.parametrize("mu,n_paths,passed", [(1.0, 2000, True), (30.0, 1000, False)])
    def test_solve_bsde_linear_closed_form_for_any_mu(self, tmp_path, mu, n_paths, passed):
        # phi = 0 with constant coefficients: Z = 0 and Y0 = xi e^(lam T) for
        # every mu; at mu = 30 the weight is degenerate and Y0 reads ~1e-162
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {"n_paths": n_paths, "n_steps": 50, "horizon": 1.0, "seed": 1, "equation": "linear", "lam": 0.3, "mu": mu},
        )
        assert cli.main(["solve-bsde", "--config", cfg, "--out", str(out)]) == (0 if passed else 1)
        report = json.loads((out / "report.json").read_text())
        assert report["closed_form"] == pytest.approx(math.exp(0.3), rel=1e-15)
        assert report["checks"]["closed_form_within_tolerance"] is passed

    def test_bmo_suite_one_step_margins_are_finite(self, tmp_path):
        # at one step the sine and indicator integrands are 0 at W_0 = 0, so
        # their declared norm is 0
        out = tmp_path / "run"
        cfg = _write_config(tmp_path, {"n_paths": 200, "n_steps": 1, "horizon": 1.0, "seed": 1})
        assert cli.main(["bmo-suite", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "bmo_checks.csv").read_text().splitlines()[1:]
        margins = {tuple(row.split(",")[:2]): float(row.split(",")[3]) for row in rows}
        assert len(margins) == 12
        assert all(math.isfinite(v) for v in margins.values())

    def test_adjoint_constants_catch_p_below_one(self, tmp_path):
        # p = 1 but for one cell at 0.9: sup |p| stays 1, so the check must
        # read sup |p - 1|
        p = np.ones((4, 3, 1))
        p[2, 1, 0] = 0.9
        adj = AdjointBundle(p=p, q=np.zeros((4, 2, 1, 1)), big_p=np.zeros((4, 3, 1, 1)), big_q=np.zeros((4, 2, 1, 1, 1)))
        deviations = ExampleAdjointReport.of(adj)
        assert np.abs(adj.p).max() == 1.0
        assert deviations.sup_p_minus_one == pytest.approx(0.1)
        assert not deviations.within(0.05)
        # and the CLI run exits 1 once its tolerance is below the observed deviation
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {"model": "example", "n_paths": 2000, "n_steps": 50, "horizon": 1.0, "control": 0.0, "seed": 6, "tolerance": 0.001},
        )
        code = cli.main(["adjoint", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["sup_p_minus_one"] > 0.001
        assert report["checks"]["adjoint_constants"] is False
        assert code == 1

    def test_adjoint_constants_only_at_zero_state(self, tmp_path):
        # (p, P) = (1, 0) holds at x0 = 0 alone; at x0 = 1 the state stays put
        # and p = phi'(1) = 1/2, which is no failure of the solver
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {"model": "example", "n_paths": 2000, "n_steps": 50, "horizon": 1.0, "x0": 1.0, "control": 0.0, "seed": 1},
        )
        code = cli.main(["adjoint", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["sup_abs_p"] == pytest.approx(0.5, abs=0.05)
        assert "sup_p_minus_one" not in report
        assert report["checks"] == {"p_bounded": True}
        assert code == 0

    def test_seed_flag_overrides(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = _write_config(
            tmp_path, {"n_paths": 16, "n_steps": 4, "horizon": 1.0, "seed": 1}
        )
        cli.main(["simulate", "--config", cfg, "--out", str(out_a)])
        cli.main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out_b)])
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["terminal_mean"] != b["terminal_mean"]


# each subcommand at the smallest scale it accepts, 2 paths
TWO_PATH_CONFIGS = {
    "simulate": {},
    "solve-bsde": {},
    "adjoint": {"model": "example"},
    "spike": {"t0": 0.0, "eps_steps": [1, 2, 3, 4]},
    "check-smp": {},
    "example": {},
    "bmo-suite": {"n_norms": 4},
}


def _strict_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


@pytest.mark.parametrize("experiment", sorted(TWO_PATH_CONFIGS))
def test_two_path_report_is_strict_json(tmp_path, experiment):
    payload = {"n_paths": 2, "n_steps": 8, "horizon": 1.0, "seed": 1, **TWO_PATH_CONFIGS[experiment]}
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) in (0, 1)
    json.loads((out / "report.json").read_text(), parse_constant=_strict_constant)


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment,extra",
        [
            ("simulate", {"model": "benchmark"}),
            ("bmo-suite", {"n_norms": 25}),
            ("spike", {"eps_steps": [2, 4, 8, 16], "t0": 0.25, "n_paths": 300}),
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, experiment, extra):
        cfg_payload = {"n_paths": 200, "n_steps": 64, "horizon": 1.0, "seed": 5, **extra}
        cfg = _write_config(tmp_path, cfg_payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main([experiment, "--config", cfg, "--out", str(out_a)])
        cli.main([experiment, "--config", cfg, "--out", str(out_b)])
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        if experiment == "spike":  # each z-score is the stated formula of the written numbers
            report = json.loads((out_a / "report.json").read_text())
            rem, se = report["remainder_over_eps"], report["remainder_over_eps_se"]
            expected = [(rem[i + 1] - rem[i]) / math.hypot(se[i], se[i + 1]) for i in range(len(rem) - 1)]
            assert report["remainder_over_eps_diff_z"] == pytest.approx(expected, rel=1e-15)
