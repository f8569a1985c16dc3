"""Acceptance gate: one test per release criterion, at the stated scales.

Each criterion prints a PASS/FAIL line, replayed in the terminal summary.
The two heavy fixtures are the full example experiment
(criteria 1-4, target under 2 minutes) and the spike-order study
(criterion 5, target under 10 minutes).
"""

import json
import time

import conftest
import numpy as np
import pytest
import scipy.linalg as sla
from support import driver_model, random_linear_instance

from quadsmp import bmo, cli, smp
from quadsmp.bsde import (
    MultiLinearBsdeData,
    solve_bsde_lsmc,
    solve_linear_bsde_weighted,
)
from quadsmp.example import example_model, run_example_experiment
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import benchmark_model
from quadsmp.sde import simulate_forward_sde, simulate_matrix_flow
from quadsmp.spike import run_spike_study

EXAMPLE_SCALE = dict(n_paths=20_000, n_steps=200, horizon=1.0, seed=1)
SPIKE_SCALE = dict(n_paths=20_000, n_steps=512, seed=3, t0=0.25, eps_steps=(8, 16, 32, 64))


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion-{number}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # replayed in the terminal summary
    assert ok, f"criterion-{number}: {detail}"


@pytest.fixture(scope="session")
def example_run():
    start = time.time()
    verdict = run_example_experiment(**EXAMPLE_SCALE)
    return verdict, time.time() - start


@pytest.fixture(scope="session")
def spike_run():
    start = time.time()
    result = run_spike_study(
        model=benchmark_model(),
        x0=1.0,
        grid=TimeGrid(1.0, SPIKE_SCALE["n_steps"]),
        n_paths=SPIKE_SCALE["n_paths"],
        seed=SPIKE_SCALE["seed"],
        t0=SPIKE_SCALE["t0"],
        eps_steps=SPIKE_SCALE["eps_steps"],
        replacement=1.0,
        u_bar_value=0.0,
    )
    return result, time.time() - start


class TestCriterion1ExampleCost:
    def test_costs_and_runtime(self, example_run):
        verdict, elapsed = example_run
        zero = verdict["zero_control_cost"]
        unit = verdict["unit_control_cost_positive"]
        ok = (
            abs(zero["estimate"]) <= 1e-8
            and unit["estimate"] > 3.0 * unit["std_error"]
            and elapsed < 120.0
        )
        _verdict(
            1,
            ok,
            f"J(0)={zero['estimate']:.2e}, J(1)={unit['estimate']:.4f} "
            f"(se {unit['std_error']:.4f}), runtime {elapsed:.0f}s",
        )


class TestCriterion2ExampleAdjoints:
    def test_adjoint_deviations(self, example_run):
        verdict, _ = example_run
        adj = verdict["adjoint_constants"]
        ok = all(
            adj[key] <= 0.05
            for key in ("sup_p_minus_one", "sup_q", "sup_big_p", "sup_big_q")
        )
        _verdict(
            2,
            ok,
            "deviations p/q/P/Q = "
            f"{adj['sup_p_minus_one']:.4f}/{adj['sup_q']:.4f}/"
            f"{adj['sup_big_p']:.4f}/{adj['sup_big_q']:.4f} (tol 0.05)",
        )


class TestCriterion3ExampleSmp:
    def test_global_smp(self, example_run):
        verdict, _ = example_run
        res = verdict["global_smp"]
        ok = res["violations"] == 0 and res["gap_at_one"] == 1.5
        _verdict(
            3,
            ok,
            f"violations={res['violations']}, analytic gap at unit control = "
            f"{res['gap_at_one']} (exact)",
        )


class TestCriterion4ConvexHull:
    def test_counterexample(self, example_run):
        verdict, _ = example_run
        res = verdict["convex_hull_counterexample"]
        grad = res["pipeline_gradient_mean"]
        ok = (
            res["analytic_gradient_at_zero"] == -0.5
            and grad is not None
            and abs(grad - (-0.5)) <= 0.05
            and res["passed"]
        )
        _verdict(4, ok, f"gradient at zero candidate = {grad:.4f} (analytic -0.5)")


class TestCriterion5SpikeOrders:
    BANDS = {
        "state_gap_sup_sq": (0.8, 1.2),
        "x1_sup_sq": (0.8, 1.2),
        "state_gap_minus_x1_sup_sq": (1.7, 2.3),
        "x2_sup_sq": (1.7, 2.3),
        "value_gap_sup_sq_plus_int_z": (0.8, 1.2),
    }

    def test_orders(self, spike_run):
        result, elapsed = spike_run
        problems = []
        for name, (lo, hi) in self.BANDS.items():
            slope = result.fits[name].slope
            if not lo <= slope <= hi:
                problems.append(f"{name} slope {slope:.3f} outside [{lo}, {hi}]")
        ratios = np.asarray(result.y2_at_zero) / np.asarray(result.eps_values)
        spread = float((ratios.max() - ratios.min()) / np.abs(ratios).max())
        if spread > 0.25:
            problems.append(f"second-variation ratio spread {spread:.3f} > 0.25")
        rem = result.remainder_over_eps
        if not all(rem[i] < rem[i + 1] for i in range(len(rem) - 1)):
            problems.append(f"scaled remainder not decreasing along refinement: {rem}")
        if elapsed >= 600.0:
            problems.append(f"runtime {elapsed:.0f}s over 10 minutes")
        slopes = {n: round(result.fits[n].slope, 3) for n in self.BANDS}
        _verdict(
            5,
            not problems,
            f"slopes {slopes}, spread {spread:.3f}, remainder/eps "
            f"{[round(r, 5) for r in rem]}, runtime {elapsed:.0f}s"
            + ("; " + "; ".join(problems) if problems else ""),
        )


class TestCriterion6LinearSolvers:
    def test_constant_coefficient_closed_form(self):
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(5):
            lam = float(rng.uniform(-0.8, 0.8))
            c = float(rng.uniform(0.5, 2.0))
            grid = TimeGrid(1.0, 100)
            w = generate_brownian(8000, grid, 1, int(rng.integers(1 << 30)))
            target = c * np.exp(lam)

            from quadsmp.bsde import LinearBsdeData

            data = LinearBsdeData(
                lam=np.full((8000, 100), lam),
                mu=np.zeros((8000, 100, 1)),
                phi=np.zeros((8000, 100)),
                xi=np.full(8000, c),
            )
            _, _, rep_w = solve_linear_bsde_weighted(data, w)

            model = driver_model(
                lambda t, x, _l=lam: _l + 0.0 * x,
                lambda t, x: 0.0 * x,
                lambda t, x: 0.0 * x,
                lambda x, _c=c: np.full_like(x, _c),
                lam, 0.0, 0.0, c,
            )
            u = constant_control(0.0, 8000, 100)
            x = simulate_forward_sde(model, 0.0, u, w)
            _, _, rep_l = solve_bsde_lsmc(model, x, u, w)
            worst = max(
                worst,
                abs(rep_w.y0 - target) / abs(target),
                abs(rep_l.y0 - target) / abs(target),
            )
        _verdict("6a", worst <= 0.01, f"worst closed-form relative error {worst:.5f} (tol 1%)")

    def test_random_coefficient_agreement(self):
        worst_sigma = 0.0
        for seed in range(5):
            model, data, x, u, w = random_linear_instance(seed + 100, n_paths=8000, n_steps=100)
            _, _, rep_w = solve_linear_bsde_weighted(data, w)
            _, _, rep_l = solve_bsde_lsmc(model, x, u, w)
            combined = float(np.hypot(rep_w.y0_std_error, rep_l.y0_std_error))
            worst_sigma = max(worst_sigma, abs(rep_w.y0 - rep_l.y0) / combined)
        _verdict(
            "6b", worst_sigma <= 3.0, f"worst disagreement {worst_sigma:.2f} combined sigmas (tol 3)"
        )


class TestCriterion7MultidimRepresentation:
    A = np.array([[0.3, 0.1], [-0.2, 0.25]])

    def test_matrix_ode_oracle(self):
        m, n = 4000, 128
        w = generate_brownian(m, TimeGrid(1.0, n), 2, seed=29)
        xi = np.array([1.0, -0.5])
        beta = np.broadcast_to(np.array([0.08, 0.05]), (m, n, 2))
        c = np.broadcast_to(
            0.06 * np.stack([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]),
            (m, n, 2, 2, 2),
        )
        data = MultiLinearBsdeData(
            a=np.broadcast_to(self.A, (m, n, 2, 2)), beta=beta, c=c,
            driver=np.zeros((m, n, 2)), xi=np.broadcast_to(xi, (m, 2)),
        )
        from quadsmp.bsde import solve_multidim_linear_bsde

        y, _, _, _ = solve_multidim_linear_bsde(data, w)
        worst = 0.0
        for k in (0, n // 4, n // 2):
            target = sla.expm(self.A.T * (1.0 - k / n)) @ xi
            err = np.abs(y[:, k].mean(axis=0) - target).max() / np.abs(target).max()
            worst = max(worst, float(err))
        _verdict("7a", worst <= 0.01, f"worst relative error vs matrix exponential {worst:.5f}")

    def test_flow_inverse_halving(self):
        a2 = np.array([[0.4, 0.15], [-0.25, 0.35]])
        beta = 0.02 * np.array([1.0, 0.6])
        c = 0.016 * np.stack([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
        errors = []
        for n_steps in (64, 128, 256):
            w = generate_brownian(4000, TimeGrid(1.0, n_steps), 2, seed=17)
            errors.append(simulate_matrix_flow(a2, beta, c, w).inverse_identity_error())
        factors = [errors[i] / errors[i + 1] for i in range(2)]
        ok = all(1.5 <= f <= 2.5 for f in factors)
        _verdict("7b", ok, f"inverse-identity decay factors {[round(f, 2) for f in factors]}")


class TestCriterion8BmoSuite:
    def test_formula_round_trips(self):
        worst = max(abs(bmo.psi(bmo.critical_exponent(v)) - v) for v in np.logspace(-6, 0.4, 100))
        rh = abs(bmo.reverse_holder_constant(1.5, 0.0) - 4.0)
        ok = worst <= 1e-10 and rh <= 1e-12
        _verdict("8a", ok, f"worst round trip {worst:.2e}, reverse-Holder gap {rh:.2e}")

    def test_inequalities_on_ensembles(self):
        grid = TimeGrid(1.0, 64)
        w = generate_brownian(4000, grid, 1, seed=42)
        paths = w.paths()[:, :-1, :]
        integrands = {
            "constant": np.ones_like(w.increments),
            "sine_of_w": np.sin(paths),
            "half_indicator": 0.5 * (paths > 0.0),
        }
        problems = []
        for name, h in integrands.items():
            mart = bmo.MartingalePathSet.from_integrand(h, w)
            declared = float(np.abs(h).max()) * np.sqrt(grid.horizon)
            for n in (1, 2, 3):
                if not bmo.energy_inequality_report(mart, n, declared).passed:
                    problems.append(f"energy n={n} on {name}")
            jn = bmo.john_nirenberg_report(mart, 0.5 * declared**-2, declared)
            # the criterion requires the initial-time check; the report is
            # stronger (every node), so track the initial node explicitly too
            target0 = np.exp(0.5 * declared**-2 * mart.bracket[:, -1])
            bound = 1.0 / (1.0 - 0.5)
            se0 = target0.std(ddof=1) / np.sqrt(mart.n_paths)
            if target0.mean() > bound + 3.0 * se0:
                problems.append(f"exp-moment at start on {name}")
            if not jn.passed:
                problems.append(f"exp-moment at interior nodes on {name}")
        _verdict("8b", not problems, "; ".join(problems) if problems else "all ensemble checks hold")


class TestCriterion9HamiltonianIdentity:
    @pytest.mark.parametrize("maker", [benchmark_model, example_model])
    def test_identity(self, maker):
        model = maker()
        rng = np.random.default_rng(90)
        size = 1000
        n, d, k = model.n, model.d, model.k
        u = model.control_domain.sample(rng, size, k)
        u_ref = model.control_domain.sample(rng, size, k)
        err = smp.hamiltonian_difference_identity(
            model,
            0.4,
            rng.uniform(-1, 1, (size, n)),
            rng.uniform(-1, 1, size),
            rng.uniform(-1, 1, (size, d)),
            u,
            u_ref,
            rng.uniform(-1, 1, (size, n)),
            rng.uniform(-1, 1, (size, n, d)),
            rng.uniform(-1, 1, (size, n, n)),
        )
        _verdict(9, err <= 1e-12, f"{model.name}: max identity error {err:.2e}")


class TestCriterion10Determinism:
    def test_cli_rerun_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "n_paths": 2000, "n_steps": 64, "horizon": 1.0, "seed": 5,
                    "eps_steps": [4, 8, 16, 32], "t0": 0.25,
                }
            )
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["spike", "--config", str(cfg_path), "--out", str(out_a)])
        cli.main(["spike", "--config", str(cfg_path), "--out", str(out_b)])
        mismatched = [
            p.name
            for p in sorted(out_a.iterdir())
            if (out_a / p.name).read_bytes() != (out_b / p.name).read_bytes()
        ]
        _verdict(10, not mismatched, f"mismatched files: {mismatched or 'none'}")
