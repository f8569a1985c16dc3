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

from dataclasses import dataclass

import numpy as np

from . import smp
from .adjoint import AdjointBundle, Linearization, linearize, solve_adjoints
from .bsde import ControlledTrajectory, solve_bsde_lsmc
from .grids import TimeGrid, constant_control, generate_brownian
from .models import ControlDomain, ModelSpec, scalar_model
from .sde import simulate_forward_sde

__all__ = [
    "g_running",
    "g_prime",
    "example_model",
    "validate_example_conditions",
    "girsanov_cost_estimate",
    "sup_time_rms",
    "analytic_adjoint_residual",
    "confirm_global_smp",
    "convex_hull_counterexample",
    "integrand_positivity",
    "ExampleVerdict",
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
        phi_x=lambda x: 1.0 / (1.0 + x**2),
        phi_xx=lambda x: -2.0 * x / (1.0 + x**2) ** 2,
        b_u=lambda t, x, u: np.zeros_like(x),
        sigma_u=lambda t, x, u: np.ones_like(x),
        f_u=lambda t, x, y, z, u: 2.0 * u,
        alpha=1.0,
        gamma=2.0,
        l1=2.0,
        l2=1.0,
        l3=0.5,
        l4=2.0,
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
    phi_x = 1.0 / (1.0 + x**2)
    phi_xx = -2.0 * x / (1.0 + x**2) ** 2
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


def _solve_for_control(model: ModelSpec, control_value: float, n_paths: int, grid: TimeGrid, seed: int):
    w = generate_brownian(n_paths, grid, model.d, seed)
    u = constant_control(control_value, n_paths, grid.n_steps)
    x = simulate_forward_sde(model, 0.0, u, w)
    y, z, report = solve_bsde_lsmc(model, x, u, w)
    return ControlledTrajectory(w=w, x=x, y=y, z=z, u=u), report


def girsanov_cost_estimate(traj: ControlledTrajectory) -> tuple[float, float]:
    """Reweighted estimate of the unit-control cost.

    Uses the change-of-measure identity for this model: the cost equals the
    expectation, under the tilted measure with density given by the
    stochastic exponential of the averaged slope alpha integrated against W,
    of int_0^T [g(phi'(X_s) u_s) + (1 + phi''(X_s)/2) u_s^2] ds. alpha is the
    g' average along the chord from phi'(X)u to Z, by fixed Gauss-Legendre
    quadrature (16 nodes) in the chord parameter.
    """
    grid = traj.w.grid
    dt = grid.dt
    n_steps = grid.n_steps
    x_steps = traj.x[:, :n_steps, 0]
    u_steps = traj.u[:, :, 0]
    z_steps = traj.z[:, :, 0]
    phi_prime = 1.0 / (1.0 + x_steps**2)
    phi_second = -2.0 * x_steps / (1.0 + x_steps**2) ** 2
    anchor = phi_prime * u_steps
    nodes, weights = np.polynomial.legendre.leggauss(16)
    theta = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    alpha = np.zeros_like(z_steps)
    for th, wt in zip(theta, wq):
        alpha += wt * g_prime(anchor + th * (z_steps - anchor))
    dw = traj.w.increments[:, :, 0]
    log_density = np.sum(alpha * dw, axis=1) - 0.5 * np.sum(alpha**2, axis=1) * dt
    density = np.exp(log_density)
    integrand = g_running(anchor) + (1.0 + 0.5 * phi_second) * u_steps**2
    payoff = density * np.sum(integrand, axis=1) * dt
    m = payoff.shape[0]
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(m))


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
        return (
            self.sup_p_minus_one <= tol
            and self.sup_q <= tol
            and self.sup_big_p <= tol
            and self.sup_big_q <= tol
        )


def sup_time_rms(steps: np.ndarray) -> float:
    """max over steps of the cross-path RMS of the pointwise norm."""
    sq = steps**2
    per_cell = sq.reshape(sq.shape[0], sq.shape[1], -1).sum(axis=2)
    return float(np.sqrt(per_cell.mean(axis=0)).max())


def analytic_adjoint_residual() -> float:
    """Residual of the constant pair (p, q) = (1, 0) in the first-order
    equation for this model: the terminal value is phi'(0) = 1 and every
    coefficient multiplying the pair vanishes, so the residual is exactly 0."""
    model = example_model()
    x = np.zeros((1, 1))
    u = np.zeros((1, 1))
    y = np.zeros(1)
    z = np.zeros((1, 1))
    terminal_gap = abs(float(model.phi_x(x)[0, 0]) - 1.0)
    a_part = (
        np.einsum("md,mdij->mij", model.f_z(0.0, x, y, z, u), model.sigma_x(0.0, x, u))
        + model.f_y(0.0, x, y, z, u)[:, None, None] * np.eye(1)
        + model.b_x(0.0, x, u)
    )
    drift_residual = abs(float(a_part[0, 0, 0] * 1.0 + model.f_x(0.0, x, y, z, u)[0, 0]))
    return terminal_gap + drift_residual


def confirm_global_smp(lin: Linearization, adj: AdjointBundle, tolerance: float = TOLERANCE) -> dict:
    """Hamiltonian gap at the candidate: analytically g(u) + u^2 for test
    controls in {0, 1}, and the simulated-pipeline violation report."""
    analytic = {
        "gap_at_zero": float(g_running(0.0) + 0.0),
        "gap_at_one": float(g_running(1.0) + 1.0),
    }
    report = smp.check_global_smp(lin, adj, test_controls=[[0.0], [1.0]], tolerance=tolerance)
    return {"analytic": analytic, "pipeline": report, "passed": report.empty}


def convex_hull_counterexample(lin: Linearization, adj: AdjointBundle, tolerance: float = TOLERANCE) -> dict:
    """Local check on the convex hull [0, 1] at the zero candidate.

    Analytically the control gradient is [g'(0) p + q + 2 u](1 - u) = -1/2 at
    the zero candidate, violating the local condition, so the zero control is
    not optimal on the hull; at the unit candidate the (1 - u) factor is 0 and
    the inequality holds trivially. The pipeline gradient is evaluated along
    the solved trajectory/adjoint pair; it never reads the control set, so
    the model on {0, 1} serves.
    """
    analytic_at_zero = float(g_prime(0.0) * 1.0 + 0.0 + 0.0)
    grad, report = smp.local_smp_gradient(lin, adj.p, adj.q, test_controls=[[1.0]], tolerance=tolerance)
    grad_mean = float(grad.mean())
    return {
        "analytic_gradient_at_zero": analytic_at_zero,
        "analytic_violation": analytic_at_zero < 0.0,
        "at_one_left_side": 0.0,  # (1 - u) factor kills the product
        "pipeline_gradient_mean": grad_mean,
        "pipeline_report": report,
        "pipeline_violation": bool(report["n_violations"] > 0),
        "matches_analytic": abs(grad_mean - analytic_at_zero) <= tolerance,
    }


def integrand_positivity() -> dict:
    """g(phi'(x) u) + [1 + phi''(x)/2] u^2 >= 0 with equality iff u = 0."""
    x = np.linspace(-20.0, 20.0, 4001)
    phi_prime = 1.0 / (1.0 + x**2)
    phi_second = -2.0 * x / (1.0 + x**2) ** 2
    at_zero = np.zeros_like(x)
    at_one = g_running(phi_prime) + (1.0 + 0.5 * phi_second)
    return {
        "min_at_zero": float(np.abs(at_zero).max()),
        "min_at_one": float(at_one.min()),
        "passed": bool(np.all(at_zero == 0.0) and at_one.min() > 0.0),
    }


@dataclass(frozen=True)
class ExampleVerdict:
    checks: dict


def run_example_experiment(
    n_paths: int = 20000,
    n_steps: int = 200,
    horizon: float = 1.0,
    seed: int = 1,
) -> ExampleVerdict:
    """All checks of the solvable problem on one seeded configuration."""
    grid = TimeGrid(horizon, n_steps)
    model = example_model()

    conditions = validate_example_conditions()
    positivity = integrand_positivity()

    # one solve of the zero-control candidate gives J(0) and the adjoints
    traj0, report0 = _solve_for_control(model, 0.0, n_paths, grid, seed)
    j0, se0 = report0.y0, report0.y0_std_error
    traj1, report1 = _solve_for_control(model, 1.0, n_paths, grid, seed)
    j1, se1 = report1.y0, report1.y0_std_error
    jg, seg = girsanov_cost_estimate(traj1)

    lin = linearize(model, traj0)
    adj = solve_adjoints(lin)
    adj_report = ExampleAdjointReport.of(adj)
    smp_result = confirm_global_smp(lin, adj)
    hull = convex_hull_counterexample(lin, adj)
    residual = analytic_adjoint_residual()

    checks = {
        "structural_conditions": {"passed": conditions["passed"], **conditions},
        "integrand_positivity": {"passed": positivity["passed"], **positivity},
        "zero_control_cost": {
            "passed": abs(j0) <= 1e-8,
            "estimate": j0,
            "std_error": se0,
        },
        "unit_control_cost_positive": {
            "passed": j1 > 3.0 * se1,
            "estimate": j1,
            "std_error": se1,
        },
        "reweighted_cost_agreement": {
            "passed": abs(j1 - jg) <= 3.0 * float(np.hypot(se1, seg)),
            "pipeline": j1,
            "reweighted": jg,
            "combined_std_error": float(np.hypot(se1, seg)),
        },
        "adjoint_constants": {
            "passed": adj_report.within(TOLERANCE),
            "sup_p_minus_one": adj_report.sup_p_minus_one,
            "sup_q": adj_report.sup_q,
            "sup_big_p": adj_report.sup_big_p,
            "sup_big_q": adj_report.sup_big_q,
        },
        "analytic_adjoint_residual": {
            "passed": residual == 0.0,
            "residual": residual,
        },
        "global_smp": {
            "passed": smp_result["passed"],
            "gap_at_zero": smp_result["analytic"]["gap_at_zero"],
            "gap_at_one": smp_result["analytic"]["gap_at_one"],
            "violations": smp_result["pipeline"].n_violations,
        },
        "convex_hull_counterexample": {
            "passed": bool(
                hull["analytic_violation"] and hull["pipeline_violation"] and hull["matches_analytic"]
            ),
            "analytic_gradient_at_zero": hull["analytic_gradient_at_zero"],
            "pipeline_gradient_mean": hull["pipeline_gradient_mean"],
        },
    }
    return ExampleVerdict(checks=checks)
