"""CLI harness: validation, artifacts, determinism."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsmp import cli


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


    def test_numerical_breakdown_exits_1(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"n_paths": 10, "n_steps": 4, "horizon": 1.0, "seed": 1, "x0": 1.7e308}
        )
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "run failed" in capsys.readouterr().err


NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.floats(-3, 3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# fields that size an allocation draw small numbers or non-numbers only
SIZES = st.integers(-2, 8) | st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(-2, 8), max_size=5)
FIELD_VALUES = {
    "model": st.sampled_from(["benchmark", "example"]) | JSON_VALUES,
    "equation": st.just("linear") | JSON_VALUES,
    "eps_steps": st.lists(st.integers(1, 6), min_size=4, max_size=5, unique=True) | SIZES,
    "test_controls": st.lists(st.lists(NUMBERS, min_size=1, max_size=2), max_size=3) | JSON_VALUES,
    "slope_bands": st.dictionaries(
        st.sampled_from(["x1_sup_sq", "y1_sup_sq", "other"]), st.lists(NUMBERS, min_size=2, max_size=2)
    ) | JSON_VALUES,
    **{key: SIZES for key in ("basis_degree", "csv_paths", "n_paths", "n_steps", "n_norms")},
}
OPTIONAL_FIELDS = {
    "simulate": ["model", "x0", "control", "csv_paths"],
    "solve-bsde": ["model", "x0", "control", "basis_degree", "equation", "lam", "mu", "phi", "xi"],
    "adjoint": ["model", "x0", "control", "basis_degree", "tolerance"],
    "spike": ["model", "eps_steps", "t0", "x0", "replacement", "candidate", "basis_degree", "slope_bands"],
    "check-smp": ["model", "x0", "candidate", "basis_degree", "tolerance", "test_controls", "local"],
    "example": ["n_paths", "n_steps", "horizon"],
    "bmo-suite": ["n_norms"],
}


class TestAnyConfig:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), experiment=st.sampled_from(sorted(OPTIONAL_FIELDS)))
    def test_exit_status_never_a_traceback(self, data, experiment):
        # 10 paths x 8 steps: every run is small, whatever the optional fields say
        cfg = {"n_paths": 10, "n_steps": 8, "horizon": 1.0, "seed": 1}
        fields = st.lists(st.sampled_from(OPTIONAL_FIELDS[experiment]), unique=True, min_size=1, max_size=3)
        for key in data.draw(fields):
            cfg[key] = data.draw(FIELD_VALUES.get(key, NUMBERS | JSON_VALUES), label=key)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code = cli.main([experiment, "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2)


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
        assert report["checks"]["closed_form_within_1pct"] is True

    def test_adjoint_constants_catch_p_below_one(self, tmp_path):
        # on this seed p sags to 0.926 while sup |p| stays within 0.05 of 1,
        # so the check must read sup |p - 1|, as the example verdict does
        out = tmp_path / "run"
        cfg = _write_config(
            tmp_path,
            {"model": "example", "n_paths": 10_000, "n_steps": 100, "horizon": 1.0, "control": 0.0, "seed": 6},
        )
        code = cli.main(["adjoint", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert abs(report["sup_abs_p"] - 1.0) <= 0.05
        assert report["sup_p_minus_one"] > 0.05
        assert report["checks"]["adjoint_constants"] is False
        assert code == 1

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

    def test_jobs_flag_does_not_change_bytes(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "n_paths": 300, "n_steps": 64, "horizon": 1.0, "seed": 5,
                "eps_steps": [2, 4, 8, 16], "t0": 0.25,
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["spike", "--config", cfg, "--out", str(out_a)])
        cli.main(["spike", "--config", cfg, "--jobs", "3", "--out", str(out_b)])
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        report = json.loads((out_a / "report.json").read_text())
        rem, se = report["remainder_over_eps"], report["remainder_over_eps_se"]
        expected = [(rem[i + 1] - rem[i]) / math.hypot(se[i], se[i + 1]) for i in range(len(rem) - 1)]
        assert report["remainder_over_eps_diff_z"] == pytest.approx(expected, rel=1e-15)
