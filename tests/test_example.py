"""The solvable arctan problem: conditions, costs, adjoints, optimality."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import girsanov_quadrature_reference, girsanov_whole_array_reference

from quadsmp import regression
from quadsmp.adjoint import linearize, solve_adjoints
from quadsmp.bsde import ControlledTrajectory, solve_bsde_lsmc
from quadsmp.example import (
    TOLERANCE,
    ExampleAdjointReport,
    analytic_adjoint_residual,
    convex_hull_counterexample,
    confirm_global_smp,
    example_model,
    g_chord_slope,
    g_prime,
    g_running,
    girsanov_cost_estimate,
    integrand_positivity,
    validate_example_conditions,
    _solve_for_control,
)
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.sde import simulate_forward_sde

ENDS = st.floats(-1e6, 1e6, allow_nan=False)
# (z, a) pairs: free, equal, one ulp apart, and on either side of 0
CHORDS = (
    st.tuples(ENDS, ENDS)
    | ENDS.map(lambda a: (a, a))
    | st.tuples(ENDS, ENDS).map(lambda p: (float(np.nextafter(p[1], p[0])), p[1]))
    | st.tuples(ENDS, ENDS).map(lambda p: (abs(p[0]), -abs(p[1])))
)


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


class TestChordSlope:
    @settings(max_examples=300, deadline=None)
    @given(CHORDS)
    @example((0.0, 0.0))
    @example((0.4, 0.4))
    @example((-0.3, 0.7))
    @example((float(np.nextafter(0.25, 1.0)), 0.25))
    def test_slope_times_chord_is_the_rise(self, chord):
        z, a = np.array([chord[0]]), np.array([chord[1]])
        rise = g_running(z) - g_running(a)
        scale = max(abs(float(g_running(z)[0])), abs(float(g_running(a)[0])), 1.0)
        assert abs(float(g_chord_slope(z, a)[0] * (z - a)[0] - rise[0])) <= 1e-14 * scale

    def test_equal_ends_give_the_derivative(self):
        a = np.array([-1.5, -0.2, 0.0, 0.3, 2.0])
        assert np.array_equal(g_chord_slope(a, a), g_prime(a))


@pytest.fixture(scope="module")
def unit_control_6000():
    """The unit control solved on 6000 paths x 64 steps, seed 6."""
    return _solve_for_control(example_model(), 1.0, generate_brownian(6000, TimeGrid(1.0, 64), 1, seed=6))


class TestCosts:
    def test_zero_control_cost_is_exact_zero(self):
        _, rep = _solve_for_control(example_model(), 0.0, generate_brownian(1500, TimeGrid(1.0, 40), 1, seed=5))
        assert rep.y0 == 0.0

    def test_zero_control_solve_fits_nothing(self, monkeypatch):
        # X = Y = 0 on every path, so every LSMC target is constant
        factored = []
        factor = regression._factor_block
        monkeypatch.setattr(regression, "_factor_block", lambda *a: factored.append(1) or factor(*a))
        traj, _ = _solve_for_control(example_model(), 0.0, generate_brownian(1500, TimeGrid(1.0, 40), 1, seed=5))
        assert not factored
        assert np.all(traj.y == 0.0) and np.all(traj.z == 0.0)

    def test_unit_control_cost_positive(self):
        model = example_model()
        traj, rep = _solve_for_control(model, 1.0, generate_brownian(4000, TimeGrid(1.0, 64), 1, seed=5))
        assert rep.y0 > 3.0 * rep.y0_std_error

    def test_reweighted_estimate_agrees(self, unit_control_6000):
        traj, rep = unit_control_6000
        jg, seg = girsanov_cost_estimate(traj)
        assert abs(rep.y0 - jg) <= 3.0 * float(np.hypot(rep.y0_std_error, seg))

    def test_reweighted_estimate_matches_whole_array_sums(self, unit_control_6000):
        # the per-step sums add the steps in the order np.sum adds them across
        # the step axis of step-major storage
        traj, _ = unit_control_6000
        jg, seg = girsanov_cost_estimate(traj)
        jw, sew = girsanov_whole_array_reference(traj)
        assert np.array_equal([jg, seg], [jw, sew])

    def test_reweighted_estimate_matches_quadrature(self, unit_control_6000):
        traj, _ = unit_control_6000
        jg, seg = girsanov_cost_estimate(traj)
        jq, seq = girsanov_quadrature_reference(traj)
        assert jg == pytest.approx(jq, rel=1e-6)
        assert seg == pytest.approx(seq, rel=1e-6)


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
