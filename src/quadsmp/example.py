"""End-to-end laboratory for the explicitly solvable control problem.

The system is scalar: the state is the running integral of the control
against the Brownian motion, the generator is g(z) + u^2 with
g(z) = z(|z| - 1/2) = (z/2)(2|z| - 1), the terminal map is arctan, and the
control set is {0, 1}. The zero control is the unique minimizer with value 0
and trajectories identically zero; the adjoint processes are (1, 0) and
(0, 0), and the pointwise Hamiltonian gap at a test control u is
g(u) + u^2 >= 0. Replacing the control set by its convex hull [0, 1] flips
the local optimality check: the control gradient at the zero candidate is
g'(0) = -1/2 < 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import smp
from .adjoint import AdjointBundle, Linearization, assemble_first_order, linearize, solve_adjoints
from .bsde import ControlledTrajectory, solve_bsde_lsmc
from .grids import BrownianEnsemble, TimeGrid, constant_control, generate_brownian
from .models import ControlDomain, ModelSpec, scalar_model
from .sde import simulate_forward_sde

__all__ = [
    "g_running",
    "g_prime",
    "g_chord_slope",
    "phi_prime",
    "phi_second",
    "example_model",
    "validate_example_conditions",
    "girsanov_cost_estimate",
    "sup_time_rms",
    "analytic_adjoint_residual",
    "confirm_global_smp",
    "convex_hull_counterexample",
    "integrand_positivity",
    "run_example_experiment",
]

# tolerance of the adjoint-constant, global and convex-hull checks
TOLERANCE = 0.05


def g_running(z):
    """g(z) = (z/2)(2|z| - 1); g(0) = 0, g(1) = 1/2, g'(0) = -1/2."""
    z = np.asarray(z, dtype=float)
    return z * (np.abs(z) - 0.5)


def g_prime(z):
    """g'(z) = 2|z| - 1/2, continuous; the second derivative jumps at 0."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.abs(z) - 0.5


def g_second(z):
    z = np.asarray(z, dtype=float)
    return 2.0 * np.sign(z)


def g_chord_slope(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The average of g' along the chord from a to z, elementwise.

    g' = 2|s| - 1/2 is piecewise linear, so the average is exactly the chord
    slope (g(z) - g(a))/(z - a): |z| + |a| - 1/2 where z a >= 0 (g'(a) at
    z = a), and (z^2 + a^2)/(|z| + |a|) - 1/2 where the chord crosses 0.
    Neither form cancels, so slope (z - a) = g(z) - g(a) to round-off.
    z, a: float arrays of one shape.
    """
    slope = np.abs(z) + np.abs(a)
    crossing = z * a < 0.0
    slope[crossing] = (z[crossing] ** 2 + a[crossing] ** 2) / slope[crossing]
    slope -= 0.5
    return slope


def phi_prime(x):
    """arctan'(x) = 1/(1 + x^2), in (0, 1] with phi'(0) = 1."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + x**2)


def phi_second(x):
    """arctan''(x) = -2x/(1 + x^2)^2, below 1 in absolute value."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # (1 + x^2)^2 is inf beyond |x| ~ 1e77, where |phi''| < 1e-230 reads 0
        return -2.0 * x / (1.0 + x**2) ** 2


def example_model() -> ModelSpec:
    """ModelSpec of the solvable problem, on the control set {0, 1}."""
    return scalar_model(
        b=lambda t, x, u: np.zeros_like(x),
        b_x=lambda t, x, u: np.zeros_like(x),
        sigma=lambda t, x, u: u + np.zeros_like(x),
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: g_running(z) + u**2,
        f_x=lambda t, x, y, z, u: np.zeros_like(x),
        f_y=lambda t, x, y, z, u: np.zeros_like(y),
        f_z=lambda t, x, y, z, u: g_prime(z),
        f_zz=lambda t, x, y, z, u: g_second(z),
        phi=np.arctan,
        phi_x=phi_prime,
        phi_xx=phi_second,
        b_u=lambda t, x, u: np.zeros_like(x),
        sigma_u=lambda t, x, u: np.ones_like(x),
        f_u=lambda t, x, y, z, u: 2.0 * u,
        alpha=1.0,
        gamma=2.0,
        l1=2.0,
        l2=1.0,
        l3=0.5,
        phi_bound=np.pi / 2,
        f_y_bound=0.0,
        control_domain=ControlDomain("finite", ((0.0,), (1.0,))),
        name="arctan-example",
    )


def validate_example_conditions() -> dict:
    """Dense-grid verification of the structural conditions on phi and g.

    phi(0) = 0, 0 <= phi' <= 1, |phi''| < 1 on the real line (sampled on a
    wide grid); g(0) = 0, g(1) > 0, g'(0) < 0 and |g| <= 1/2 on [0, 1].
    """
    x = np.linspace(-50.0, 50.0, 20001)
    phi_x, phi_xx = phi_prime(x), phi_second(x)
    z = np.linspace(0.0, 1.0, 20001)
    margins = {
        "phi_at_zero": abs(float(np.arctan(0.0))),
        "phi_prime_lower": float(phi_x.min()),
        "phi_prime_upper": float(1.0 - phi_x.max()),
        "phi_second_strict": float(1.0 - np.abs(phi_xx).max()),
        "g_at_zero": abs(float(g_running(0.0))),
        "g_at_one": float(g_running(1.0)),
        "g_prime_at_zero": float(-g_prime(0.0)),
        "g_bounded_on_unit": float(0.5 - np.abs(g_running(z)).max()),
    }
    passed = (
        margins["phi_at_zero"] == 0.0
        and margins["g_at_zero"] == 0.0
        and margins["phi_prime_lower"] >= 0.0
        and margins["phi_prime_upper"] >= 0.0
        and margins["phi_second_strict"] > 0.0
        and margins["g_at_one"] > 0.0
        and margins["g_prime_at_zero"] > 0.0
        and margins["g_bounded_on_unit"] >= 0.0
    )
    return {"passed": bool(passed), "margins": margins}


def _solve_for_control(model: ModelSpec, control_value: float, w: BrownianEnsemble):
    u = constant_control(control_value, w.n_paths, w.grid.n_steps)
    x = simulate_forward_sde(model, 0.0, u, w)
    y, z, report = solve_bsde_lsmc(model, x, u, w)
    return ControlledTrajectory(w=w, x=x, y=y, z=z, u=u), report


def girsanov_cost_estimate(traj: ControlledTrajectory) -> tuple[float, float]:
    """Reweighted estimate of the unit-control cost.

    Uses the change-of-measure identity for this model: the cost equals the
    expectation, under the tilted measure with density given by the
    stochastic exponential of the averaged slope alpha integrated against W,
    of int_0^T [g(phi'(X_s) u_s) + (1 + phi''(X_s)/2) u_s^2] ds. alpha is the
    g' average along the chord from phi'(X)u to Z, in closed form by
    g_chord_slope. The three path sums are accumulated one step at a time.
    """
    dt = traj.w.grid.dt
    sums = np.zeros((3, traj.n_paths))  # of alpha dW, of alpha^2 and of the integrand
    for k in range(traj.w.grid.n_steps):
        x_k, u_k = traj.x[:, k, 0], traj.u[:, k, 0]
        anchor = phi_prime(x_k) * u_k
        alpha = g_chord_slope(traj.z[:, k, 0], anchor)
        sums[0] += alpha * traj.w.increments[:, k, 0]
        sums[1] += alpha**2
        sums[2] += g_running(anchor) + (1.0 + 0.5 * phi_second(x_k)) * u_k**2
    density = np.exp(sums[0] - 0.5 * sums[1] * dt)
    payoff = density * sums[2] * dt
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(payoff.shape[0]))


@dataclass(frozen=True)
class ExampleAdjointReport:
    """Deviations from the closed-form adjoints, each in the norm matching
    the space the object lives in: the first adjoint and the second-order
    state are uniformly bounded (sup over paths and times), while their
    martingale integrands are square-integrable (sup over times of the
    cross-path root mean square)."""

    sup_p_minus_one: float
    sup_q: float
    sup_big_p: float
    sup_big_q: float

    @classmethod
    def of(cls, adj: AdjointBundle) -> "ExampleAdjointReport":
        """Deviations of an adjoint bundle from (1, 0) and (0, 0)."""
        return cls(
            sup_p_minus_one=float(np.abs(adj.p - 1.0).max()),
            sup_q=sup_time_rms(adj.q),
            sup_big_p=float(np.abs(adj.big_p).max()),
            sup_big_q=sup_time_rms(adj.big_q),
        )

    def within(self, tol: float) -> bool:
        return all(dev <= tol for dev in asdict(self).values())


def sup_time_rms(steps: np.ndarray) -> float:
    """max over steps of the cross-path RMS of the pointwise norm."""
    sq = steps**2
    per_cell = sq.reshape(sq.shape[0], sq.shape[1], -1).sum(axis=2)
    return float(np.sqrt(per_cell.mean(axis=0)).max())


def analytic_adjoint_residual(lin: Linearization) -> float:
    """Residual of the constant pair (p, q) = (1, 0) in the first-order
    equation assembled along lin: sup |xi - 1| + sup |A'1 + f_x|. Along the
    zero candidate from x0 = 0 the terminal value is phi'(0) = 1 and every
    coefficient multiplying the pair vanishes, so the residual is exactly 0."""
    data = assemble_first_order(lin)
    return float(np.abs(data.xi - 1.0).max()) + float(np.abs(data.a.sum(axis=-1) + data.driver).max())


def confirm_global_smp(lin: Linearization, adj: AdjointBundle) -> dict:
    """Hamiltonian gap at the candidate: analytically g(u) + u^2 for test
    controls in {0, 1}; passed iff the simulated pipeline finds no violation."""
    report = smp.check_global_smp(lin, adj, test_controls=[[0.0], [1.0]], tolerance=TOLERANCE)
    return {
        "passed": report.empty,
        "gap_at_zero": float(g_running(0.0) + 0.0),
        "gap_at_one": float(g_running(1.0) + 1.0),
        "violations": report.n_violations,
    }


def convex_hull_counterexample(lin: Linearization, adj: AdjointBundle) -> dict:
    """Local check on the convex hull [0, 1] at the zero candidate.

    Analytically the control gradient is [g'(0) p + q + 2 u](1 - u) = -1/2 at
    the zero candidate, violating the local condition, so the zero control is
    not optimal on the hull; at the unit candidate the (1 - u) factor is 0 and
    the inequality holds trivially. The pipeline gradient is evaluated along
    the solved trajectory/adjoint pair; it never reads the control set, so
    the model on {0, 1} serves. Passed iff the analytic gradient is negative,
    the pipeline finds violations and its mean gradient matches the analytic
    one within TOLERANCE.
    """
    analytic_at_zero = float(g_prime(0.0) * 1.0 + 0.0 + 0.0)
    grad, report = smp.local_smp_gradient(lin, adj.p, adj.q, test_controls=[[1.0]], tolerance=TOLERANCE)
    grad_mean = float(grad.mean())
    matches = abs(grad_mean - analytic_at_zero) <= TOLERANCE
    return {
        "passed": bool(analytic_at_zero < 0.0 and report["n_violations"] > 0 and matches),
        "analytic_gradient_at_zero": analytic_at_zero,
        "pipeline_gradient_mean": grad_mean,
    }


def integrand_positivity() -> dict:
    """g(phi'(x) u) + [1 + phi''(x)/2] u^2 >= 0 with equality iff u = 0."""
    x = np.linspace(-20.0, 20.0, 4001)
    phi_x, phi_xx = phi_prime(x), phi_second(x)
    at_zero, at_one = (g_running(phi_x * u) + (1.0 + 0.5 * phi_xx) * u**2 for u in (0.0, 1.0))
    return {
        "min_at_zero": float(np.abs(at_zero).max()),
        "min_at_one": float(at_one.min()),
        "passed": bool(np.all(at_zero == 0.0) and at_one.min() > 0.0),
    }


def run_example_experiment(n_paths: int, n_steps: int, horizon: float, seed: int) -> dict:
    """All checks of the solvable problem on one seeded configuration:
    check name -> {"passed": bool, ...its numbers}."""
    grid = TimeGrid(horizon, n_steps)
    model = example_model()

    # both controls run on one ensemble; the zero-control solve also gives the adjoints
    w = generate_brownian(n_paths, grid, model.d, seed)
    traj0, report0 = _solve_for_control(model, 0.0, w)
    j0, se0 = report0.y0, report0.y0_std_error
    traj1, report1 = _solve_for_control(model, 1.0, w)
    j1, se1 = report1.y0, report1.y0_std_error
    jg, seg = girsanov_cost_estimate(traj1)
    del traj1  # nothing below reads the unit-control paths
    combined_se = float(np.hypot(se1, seg))

    lin = linearize(model, traj0)
    adj = solve_adjoints(lin)
    deviations = ExampleAdjointReport.of(adj)
    residual = analytic_adjoint_residual(lin)

    return {
        "structural_conditions": {"passed": validate_example_conditions()["passed"]},
        "integrand_positivity": integrand_positivity(),
        "zero_control_cost": {"passed": abs(j0) <= 1e-8, "estimate": j0, "std_error": se0},
        "unit_control_cost_positive": {"passed": j1 > 3.0 * se1, "estimate": j1, "std_error": se1},
        "reweighted_cost_agreement": {
            "passed": abs(j1 - jg) <= 3.0 * combined_se,
            "pipeline": j1,
            "reweighted": jg,
            "combined_std_error": combined_se,
        },
        "adjoint_constants": {"passed": deviations.within(TOLERANCE), **asdict(deviations)},
        "analytic_adjoint_residual": {"passed": residual == 0.0, "residual": residual},
        "global_smp": confirm_global_smp(lin, adj),
        "convex_hull_counterexample": convex_hull_counterexample(lin, adj),
    }
