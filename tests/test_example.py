"""The solvable arctan problem: conditions, costs, adjoints, optimality."""

import numpy as np
import pytest

from quadsmp.adjoint import linearize, solve_adjoints
from quadsmp.bsde import ControlledTrajectory, solve_bsde_lsmc
from quadsmp.example import (
    TOLERANCE,
    ExampleAdjointReport,
    analytic_adjoint_residual,
    convex_hull_counterexample,
    confirm_global_smp,
    example_model,
    g_prime,
    g_running,
    girsanov_cost_estimate,
    integrand_positivity,
    validate_example_conditions,
    _solve_for_control,
)
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.sde import simulate_forward_sde


class TestRunningCost:
    def test_closed_form_values(self):
        assert g_running(0.0) == 0.0
        assert g_running(1.0) == 0.5
        assert g_prime(0.0) == -0.5
        # product form (z/2)(2|z| - 1) against the expanded form
        z = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(g_running(z), (z / 2.0) * (2.0 * np.abs(z) - 1.0), atol=1e-15)

    def test_derivative_agrees_with_differences(self):
        z = np.linspace(-2, 2, 41)
        h = 1e-6
        fd = (g_running(z + h) - g_running(z - h)) / (2 * h)
        np.testing.assert_allclose(g_prime(z), fd, atol=1e-6)

    def test_bounded_on_unit_interval(self):
        z = np.linspace(0.0, 1.0, 1001)
        assert np.abs(g_running(z)).max() <= 0.5


class TestStructuralConditions:
    def test_all_pass(self):
        report = validate_example_conditions()
        assert report["passed"]

    def test_boundary_margins(self):
        report = validate_example_conditions()
        # phi'(0) = 1 attains the upper boundary of [0, 1]
        assert report["margins"]["phi_prime_upper"] == pytest.approx(0.0, abs=1e-12)
        assert report["margins"]["g_at_one"] == pytest.approx(0.5)
        assert report["margins"]["g_prime_at_zero"] == pytest.approx(0.5)

    def test_integrand_positivity(self):
        report = integrand_positivity()
        assert report["passed"]
        assert report["min_at_one"] > 0.0


class TestCosts:
    def test_zero_control_cost_is_exact_zero(self):
        _, rep = _solve_for_control(example_model(), 0.0, generate_brownian(1500, TimeGrid(1.0, 40), 1, seed=5))
        assert abs(rep.y0) <= 1e-10

    def test_unit_control_cost_positive(self):
        model = example_model()
        traj, rep = _solve_for_control(model, 1.0, generate_brownian(4000, TimeGrid(1.0, 64), 1, seed=5))
        assert rep.y0 > 3.0 * rep.y0_std_error

    def test_reweighted_estimate_agrees(self):
        model = example_model()
        traj, rep = _solve_for_control(model, 1.0, generate_brownian(6000, TimeGrid(1.0, 64), 1, seed=6))
        jg, seg = girsanov_cost_estimate(traj)
        assert abs(rep.y0 - jg) <= 3.0 * float(np.hypot(rep.y0_std_error, seg))


@pytest.fixture(scope="module")
def zero_candidate():
    """Linearization and adjoints along the zero control, 4000 paths x 64 steps."""
    model = example_model()
    traj, _ = _solve_for_control(model, 0.0, generate_brownian(4000, TimeGrid(1.0, 64), 1, seed=1))
    lin = linearize(model, traj)
    return lin, solve_adjoints(lin)


class TestAdjoints:
    def test_analytic_residual_is_zero(self, zero_candidate):
        assert analytic_adjoint_residual(zero_candidate[0]) == 0.0

    def test_analytic_residual_reads_the_candidate(self):
        # from x0 = 1 the zero control keeps X at 1, so the terminal value is
        # phi'(1) = 1/2 and (p, q) = (1, 0) misses it by exactly 1/2
        model = example_model()
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(200, grid, model.d, seed=1)
        u = constant_control(0.0, 200, grid.n_steps)
        x = simulate_forward_sde(model, 1.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        lin = linearize(model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u))
        assert analytic_adjoint_residual(lin) == 0.5

    def test_recovered_constants_loose(self, zero_candidate):
        report = ExampleAdjointReport.of(zero_candidate[1])
        assert report.sup_p_minus_one <= 0.1
        assert report.sup_q <= 0.1
        assert report.sup_big_p <= 0.05
        assert report.sup_big_q <= 0.05

    @pytest.mark.parametrize("seed", [6, 27])
    def test_criterion_2_bounds_at_bench_scale(self, seed):
        # seeds on which a test of the design's columns let p tilt or q leak
        # past the acceptance tolerance at 10^4 paths x 100 steps
        model = example_model()
        traj, _ = _solve_for_control(model, 0.0, generate_brownian(10_000, TimeGrid(1.0, 100), 1, seed=seed))
        assert ExampleAdjointReport.of(solve_adjoints(linearize(model, traj))).within(TOLERANCE)

    def test_smp_confirmation(self, zero_candidate):
        result = confirm_global_smp(*zero_candidate)
        assert result["gap_at_zero"] == 0.0
        assert result["gap_at_one"] == 1.5
        assert result["violations"] == 0
        assert result["passed"]

    def test_convex_hull_counterexample(self, zero_candidate):
        result = convex_hull_counterexample(*zero_candidate)
        assert result["analytic_gradient_at_zero"] == -0.5
        assert result["pipeline_gradient_mean"] == pytest.approx(-0.5, abs=0.05)
        assert result["passed"]
