"""Spike perturbations, variational solutions and expansion-order fits.

A spike replaces the candidate control on a window [t0, t0 + eps) aligned to
grid cells k0 .. k1 - 1. Every variational source carries the window's
indicator, so the hatted gaps are held on the window's n_eps cells and the
pieces slice [k0, k1) of the step arrays. The first/second-order variational
states (X1, X2) are 0 up to k0 and are simulated from there by linearized
dynamics with window sources; the backward values Y1 and Y2 are evaluated
through the adjoint processes, with the auxiliary value Yhat solved as a
weighted scalar linear equation on [0, t_k1], past which it is exactly 0.
Order fits quantify how the error functionals scale across a dyadic ladder
of window widths, on one common Brownian ensemble so pathwise differences
are meaningful; each window releases its full-horizon arrays after their
last read, so a window holds at most nine of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointBundle, Linearization, linearize, solve_adjoints
from .bsde import (
    ControlledTrajectory,
    LinearBsdeData,
    exponential_weight,
    solve_bsde_lsmc,
    solve_linear_bsde_weighted,
)
from .grids import BrownianEnsemble, TimeGrid, constant_control, generate_brownian, step_major
from .models import ModelSpec
from .sde import SimulationError, simulate_forward_sde
from .smp import hamiltonian_gap

__all__ = [
    "SpikePerturbation",
    "build_spiked_control",
    "HattedCoefficients",
    "hatted_coefficients",
    "solve_x1",
    "solve_x2",
    "compute_y1z1",
    "solve_yhat",
    "compute_y2z2",
    "ExpansionResiduals",
    "expansion_residuals",
    "OrderFitReport",
    "fit_convergence_order",
    "sup_square",
    "integrated_square",
    "SpikeStudyResult",
    "run_spike_study",
]


@dataclass(frozen=True)
class SpikePerturbation:
    """Control replacement on the half-open window [t0, t0 + eps)."""

    t0: float
    eps: float
    replacement: np.ndarray  # constant control value, shape (k,) or scalar

    def window(self, grid: TimeGrid) -> tuple[int, int]:
        """(first step index, number of steps); validates grid alignment."""
        k0 = grid.index_of(self.t0)
        n_eps = grid.index_of(self.eps) if self.eps > 0 else 0
        if k0 + n_eps > grid.n_steps:
            raise ValueError(f"window [{self.t0}, {self.t0 + self.eps}] leaves the horizon")
        return k0, n_eps


def build_spiked_control(u_bar: np.ndarray, spike: SpikePerturbation, grid: TimeGrid) -> np.ndarray:
    """Candidate control with the replacement value on the spike window."""
    k0, n_eps = spike.window(grid)
    out = np.array(u_bar, dtype=float, copy=True)
    out[:, k0 : k0 + n_eps] = np.atleast_1d(np.asarray(spike.replacement, dtype=float))
    return out


@dataclass(frozen=True)
class HattedCoefficients:
    """Replacement-minus-candidate coefficient gaps on the window's cells.

    Cell j is grid step k0 + j for j < n_eps; off the window every gap is 0.
    b_hat: (m, n_eps, n); sigma_hat: (m, n_eps, n, d);
    sigma_x_hat: (m, n_eps, d, n, n); delta: (m, n_eps, d) with
    delta^i = (sigma_hat^i)' p; gap: (m, n_eps) the Hamiltonian gap
    ``smp.hamiltonian_gap``, which drives the auxiliary value.
    """

    k0: int
    b_hat: np.ndarray = field(repr=False)
    sigma_hat: np.ndarray = field(repr=False)
    sigma_x_hat: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    gap: np.ndarray = field(repr=False)

    @property
    def k1(self) -> int:
        """One past the window's last step."""
        return self.k0 + self.b_hat.shape[1]


def hatted_coefficients(lin: Linearization, spike: SpikePerturbation, adj: AdjointBundle) -> HattedCoefficients:
    """Evaluate the model at the spike's replacement on the window's cells."""
    model, traj = lin.model, lin.traj
    grid = traj.w.grid
    k0, n_eps = spike.window(grid)
    m = traj.n_paths
    ur = np.broadcast_to(np.asarray(spike.replacement, dtype=float), (m, model.k))
    b_hat = step_major((m, n_eps, model.n))
    sigma_hat = step_major((m, n_eps, model.n, model.d))
    sigma_x_hat = step_major((m, n_eps, model.d, model.n, model.n))
    delta = step_major((m, n_eps, model.d))
    gap = step_major((m, n_eps))
    for j, k in enumerate(range(k0, k0 + n_eps)):
        t, xk = grid.times[k], traj.x[:, k]
        gap[:, j], b_hat[:, j], sigma_hat[:, j], delta[:, j] = hamiltonian_gap(
            model, t, xk, traj.y[:, k], traj.z[:, k], ur, adj.p[:, k], adj.q[:, k], adj.big_p[:, k],
            (lin.b[:, k], lin.sigma[:, k], lin.f[:, k]),
        )
        sigma_x_hat[:, j] = model.sigma_x(t, xk, ur) - lin.sigma_x[:, k]
    return HattedCoefficients(
        k0=k0, b_hat=b_hat, sigma_hat=sigma_hat, sigma_x_hat=sigma_x_hat, delta=delta, gap=gap
    )


def solve_x1(lin: Linearization, hats: HattedCoefficients) -> np.ndarray:
    """First variational state: linearized dynamics with the window diffusion
    impulse sigma_hat 1_E; 0 up to the window. Shape (m, N+1, n)."""
    grid = lin.traj.w.grid
    dt = grid.dt
    dw = lin.traj.w.increments
    x1 = step_major((lin.traj.n_paths, grid.n_steps + 1, lin.model.n), 0.0)
    for k in range(hats.k0, grid.n_steps):
        xk = x1[:, k]
        incr = np.einsum("mij,mj->mi", lin.b_x[:, k], xk) * dt
        incr += np.einsum("mdij,mj,md->mi", lin.sigma_x[:, k], xk, dw[:, k])
        if k < hats.k1:
            incr += np.einsum("mid,md->mi", hats.sigma_hat[:, k - hats.k0], dw[:, k])
        x1[:, k + 1] = xk + incr
    return x1


def solve_x2(lin: Linearization, x1: np.ndarray, hats: HattedCoefficients) -> np.ndarray:
    """Second variational state: window drift impulse b_hat 1_E, window
    diffusion sigma_x_hat X1 1_E and the quadratic curvature sources; 0 up to
    the window."""
    grid = lin.traj.w.grid
    dt = grid.dt
    dw = lin.traj.w.increments
    x2 = step_major((lin.traj.n_paths, grid.n_steps + 1, lin.model.n), 0.0)
    for k in range(hats.k0, grid.n_steps):
        xk = x2[:, k]
        x1k = x1[:, k]
        drift = np.einsum("mij,mj->mi", lin.b_x[:, k], xk)
        drift += 0.5 * np.einsum("mijk,mj,mk->mi", lin.b_xx[:, k], x1k, x1k)
        diff = np.einsum("mdij,mj->mid", lin.sigma_x[:, k], xk)
        diff += 0.5 * np.einsum("mjdab,ma,mb->mjd", lin.sigma_xx[:, k], x1k, x1k)
        if k < hats.k1:
            drift += hats.b_hat[:, k - hats.k0]
            diff += np.einsum("mdij,mj->mid", hats.sigma_x_hat[:, k - hats.k0], x1k)
        x2[:, k + 1] = xk + drift * dt + np.einsum("mid,md->mi", diff, dw[:, k])
    return x2


def compute_y1z1(adj: AdjointBundle, x1: np.ndarray) -> np.ndarray:
    """First backward variation via the adjoint relation: Y1 = p'X1 on nodes,
    shape (m, N+1). The name stays while the benchmark's traced sites pin it."""
    return np.einsum("mti,mti->mt", adj.p, x1)


def _yhat_driver(hats: HattedCoefficients, n_steps: int) -> np.ndarray:
    """The window's Hamiltonian gap on each of the first n_steps >= k1 steps,
    0 off the window. Shape (m, n_steps)."""
    out = step_major((hats.gap.shape[0], n_steps), 0.0)
    out[:, hats.k0 : hats.k1] = hats.gap
    return out


@dataclass(frozen=True)
class _HeadGrid(TimeGrid):
    """The first n_steps cells of a grid, stepping with its dt: horizon /
    n_steps can miss that dt in the last bit."""

    step: float

    @property
    def dt(self) -> float:
        return self.step


def solve_yhat(lin: Linearization, hats: HattedCoefficients, degree: int = 2) -> np.ndarray:
    """Auxiliary value Yhat on nodes, (m, N+1): scalar linear equation with the
    window Hamiltonian-gap driver, generator slopes (f_y, f_z) and zero
    terminal value.

    The driver is 0 from t_k1 on, so Yhat and Zhat are exactly 0 on
    [t_k1, T], and so are the representation's targets there: the equation
    is solved on the ensemble's first k1 steps (one for an empty window at
    0) and padded with zeros, with the same fits as on the whole grid. The
    name stays while the benchmark's traced sites pin it."""
    traj, w = lin.traj, lin.traj.w
    m, k1 = traj.n_paths, max(hats.k1, 1)
    head = BrownianEnsemble(
        grid=_HeadGrid(horizon=float(w.grid.times[k1]), n_steps=k1, step=w.grid.dt),
        dim=w.dim,
        seed=w.seed,
        increments=w.increments[:, :k1],
    )
    data = LinearBsdeData(
        lam=lin.f_y[:, :k1],
        mu=lin.f_z[:, :k1],
        phi=_yhat_driver(hats, k1),
        xi=np.zeros(m),
        state=traj.x[:, : k1 + 1],
    )
    y_head, _, _ = solve_linear_bsde_weighted(data, head, degree=degree)
    y_hat = step_major((m, w.grid.n_steps + 1), 0.0)
    y_hat[:, : k1 + 1] = y_head
    return y_hat


def compute_y2z2(adj: AdjointBundle, x1: np.ndarray, x2: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Second backward variation via the adjoint relation:
    Y2 = Yhat + p'X2 + X1'P X1 / 2 on nodes, shape (m, N+1). The name stays
    while the benchmark's traced sites pin it."""
    y2 = y_hat + np.einsum("mti,mti->mt", adj.p, x2)
    y2 += 0.5 * np.einsum("mti,mtij,mtj->mt", x1, adj.big_p, x1)
    return y2


@dataclass(frozen=True)
class ExpansionResiduals:
    """Gaps between the spiked and candidate systems that the order fits read.

    xi1 = X^eps - X and xi2 = xi1 - X1 on nodes, (m, N+1, n);
    eta1 = Y^eps - Y on nodes, (m, N+1); zeta1 = Z^eps - Z on steps, (m, N, d).
    """

    xi1: np.ndarray = field(repr=False)
    xi2: np.ndarray = field(repr=False)
    eta1: np.ndarray = field(repr=False)
    zeta1: np.ndarray = field(repr=False)


def expansion_residuals(
    base: ControlledTrajectory, spiked: ControlledTrajectory, x1: np.ndarray
) -> ExpansionResiduals:
    """Pathwise gaps of two systems driven by the same BrownianEnsemble object."""
    if base.w is not spiked.w:
        raise ValueError("residuals need the two systems on one Brownian ensemble")
    xi1 = spiked.x - base.x
    return ExpansionResiduals(
        xi1=xi1, xi2=xi1 - x1, eta1=spiked.y - base.y, zeta1=spiked.z - base.z
    )


def value_remainder_estimate(
    lin: Linearization,
    cost_gap: np.ndarray,
    x1: np.ndarray,
    adj: AdjointBundle,
    hats: HattedCoefficients,
    gamma_tilde: np.ndarray,
) -> tuple[float, float]:
    """Low-variance estimate of Y^eps_0 - Y_0 - Y1(0) - Y2(0).

    Averages the pathwise cost-difference rollout cost_gap (m,), the spiked
    minus the candidate ``SolverReport.rollout``, minus the weighted rollouts
    of the two variational values (whose means are exactly Y1(0) = 0 and
    Y2(0)); with common random numbers the leading fluctuations cancel
    pathwise. The second rollout is the window's gap against the weight
    gamma_tilde on the window's cells. Returns (estimate, std error).
    """
    base = lin.traj
    dt, n_steps = base.w.grid.dt, base.w.grid.n_steps

    # first-variation rollout: terminal phi_x'X1 (p_T is phi_x(X_T) exactly)
    # plus driver f_x'X1 minus the window coupling through (p, q); X1 is 0 up
    # to the window, and the weighted mean of the rollout is Y1(0) = 0
    r1 = gamma_tilde[:, n_steps] * np.einsum("mi,mi->m", adj.p[:, n_steps], x1[:, n_steps])
    for k in range(hats.k0, n_steps):
        drv = np.einsum("mi,mi->m", lin.f_x[:, k], x1[:, k])
        if k < hats.k1:
            drv -= np.einsum("md,md->m", lin.f_z[:, k], hats.delta[:, k - hats.k0])
            drv -= np.einsum("mid,mid->m", adj.q[:, k], hats.sigma_hat[:, k - hats.k0])
        r1 += gamma_tilde[:, k] * drv * dt

    r2 = np.sum(gamma_tilde[:, hats.k0 : hats.k1] * hats.gap, axis=1) * dt

    samples = cost_gap - r1 - r2
    m = samples.shape[0]
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(m))


def sup_square(nodes: np.ndarray) -> float:
    """E[sup_t |v_t|^2] for a node process (m, N+1) or (m, N+1, n)."""
    v = nodes if nodes.ndim == 3 else nodes[:, :, None]
    return float(np.sum(v**2, axis=2).max(axis=1).mean())


def integrated_square(steps: np.ndarray, dt: float) -> float:
    """E[int |v_t|^2 dt] for a step process (m, N) or (m, N, d)."""
    v = steps if steps.ndim == 3 else steps[:, :, None]
    return float((np.sum(v**2, axis=(1, 2)) * dt).mean())


@dataclass(frozen=True)
class OrderFitReport:
    """Log-log slope of an error functional against the window width."""

    eps_values: tuple
    errors: tuple
    slope: float
    ci_low: float
    ci_high: float


def _t_quantile(dof: int, p: float) -> float:
    """Student-t quantile for an integer dof >= 1. P(|T| <= t) has a closed
    form in theta = arctan(t / sqrt(dof)) (Abramowitz & Stegun 26.7.3-26.7.4),
    increasing on [0, pi/2), which bisection inverts to the last bit."""

    def central(theta):
        odd, c2 = dof % 2, math.cos(theta) ** 2
        term = total = 1.0
        for j in range(1, (dof - 1) // 2 if odd else dof // 2):
            term *= (2 * j - 1 + odd) / (2 * j + odd) * c2
            total += term
        if odd:
            return 2.0 / math.pi * (theta + (math.sin(theta) * math.cos(theta) * total if dof > 1 else 0.0))
        return math.sin(theta) * total

    target, lo, hi = abs(2.0 * p - 1.0), 0.0, math.pi / 2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if central(mid) < target else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.copysign(math.sqrt(dof) * math.tan(mid), p - 0.5)


def fit_convergence_order(eps_values, errors) -> OrderFitReport:
    """Least-squares slope of log error against log eps, with a t-interval
    from the fit residuals. Requires >= 4 positive pairs."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_values.shape != errors.shape or eps_values.size < 4:
        raise ValueError("need at least 4 (eps, error) pairs")
    if np.any(eps_values <= 0) or np.any(errors <= 0):
        raise ValueError("eps and error values must be positive")
    x = np.log(eps_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(np.sum(resid**2) / dof / sxx)
    half = float(_t_quantile(dof, 0.975) * se)
    return OrderFitReport(
        eps_values=tuple(eps_values),
        errors=tuple(errors),
        slope=float(slope),
        ci_low=float(slope - half),
        ci_high=float(slope + half),
    )


@dataclass(frozen=True)
class SpikeStudyResult:
    """Fitted orders and per-window value-level ratios of one spike study.

    fits maps each FIT_TARGETS functional to its OrderFitReport, whose errors
    hold the functional's value per window; y2_at_zero, remainder_over_eps and
    its standard error remainder_over_eps_se hold one value per window and
    y_bar_0 is the candidate value.
    """

    eps_values: tuple
    fits: dict  # name -> OrderFitReport
    y2_at_zero: tuple
    remainder_over_eps: tuple
    remainder_over_eps_se: tuple
    y_bar_0: float

    @property
    def remainder_over_eps_diff_z(self) -> tuple:
        """z-score of each successive difference of remainder_over_eps,
        (r[i+1] - r[i]) / hypot(se[i], se[i+1]): one value per window pair."""
        r = np.asarray(self.remainder_over_eps)
        se = np.asarray(self.remainder_over_eps_se)
        return tuple((np.diff(r) / np.hypot(se[:-1], se[1:])).tolist())


# functionals fitted on the dyadic ladder, with their target slopes
FIT_TARGETS = {
    "state_gap_sup_sq": 1.0,
    "x1_sup_sq": 1.0,
    "state_gap_minus_x1_sup_sq": 2.0,
    "x2_sup_sq": 2.0,
    "value_gap_sup_sq_plus_int_z": 1.0,
    "y1_sup_sq": 1.0,
}


def run_spike_study(
    model: ModelSpec,
    x0,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    t0: float,
    eps_steps: tuple,
    replacement,
    u_bar_value=0.0,
    degree: int = 2,
) -> SpikeStudyResult:
    """Full spike-order study on one common ensemble.

    Solves the candidate system once, the adjoints once, then for each window
    width in turn: the spiked system, both variational states, the backward
    relations and the residual ladder. eps_steps are step counts (dyadic by
    convention). Raises SimulationError when a fitted functional underflows
    to 0, as on a horizon near 1e-155.
    """
    w = generate_brownian(n_paths, grid, model.d, seed)
    u_bar = constant_control(u_bar_value, n_paths, grid.n_steps)
    x_bar = simulate_forward_sde(model, x0, u_bar, w)
    y_bar, z_bar, base_report = solve_bsde_lsmc(model, x_bar, u_bar, w, degree=degree)
    lin = linearize(model, ControlledTrajectory(w=w, x=x_bar, y=y_bar, z=z_bar, u=u_bar))
    adj = solve_adjoints(lin, degree=degree)
    gamma_tilde = exponential_weight(lin.f_y, lin.f_z, w)
    dt = grid.dt

    # each helper's full-horizon arrays die when it returns, so a window holds
    # X1, the spiked system and its four gaps at most (in expansion_residuals)
    def spiked_residuals(spike: SpikePerturbation, x1: np.ndarray) -> tuple[ExpansionResiduals, np.ndarray]:
        """The spiked system's gaps to the candidate and its cost-difference rollout."""
        u_eps = build_spiked_control(u_bar, spike, grid)
        x_eps = simulate_forward_sde(model, x0, u_eps, w)
        y_eps, z_eps, spiked_report = solve_bsde_lsmc(model, x_eps, u_eps, w, degree=degree)
        spiked = ControlledTrajectory(w=w, x=x_eps, y=y_eps, z=z_eps, u=u_eps)
        return expansion_residuals(lin.traj, spiked, x1), spiked_report.rollout - base_report.rollout

    def spiked_functionals(spike: SpikePerturbation, hats: HattedCoefficients, x1: np.ndarray) -> dict:
        """The functionals that read the spiked system: its gaps' and the value remainder."""
        res, cost_gap = spiked_residuals(spike, x1)
        rem_cv, rem_se = value_remainder_estimate(lin, cost_gap, x1, adj, hats, gamma_tilde)
        return {
            "state_gap_sup_sq": sup_square(res.xi1),
            "state_gap_minus_x1_sup_sq": sup_square(res.xi2),
            "value_gap_sup_sq_plus_int_z": sup_square(res.eta1) + integrated_square(res.zeta1, dt),
            "value_remainder": abs(rem_cv),
            "value_remainder_se": rem_se,
        }

    def second_order(hats: HattedCoefficients, x1: np.ndarray) -> dict:
        """X2's functional and Y2(0)."""
        x2 = solve_x2(lin, x1, hats)
        y2 = compute_y2z2(adj, x1, x2, solve_yhat(lin, hats, degree=degree))
        return {"x2_sup_sq": sup_square(x2), "y2_at_zero": float(y2[:, 0].mean())}

    def study_window(n_eps: int) -> dict:
        spike = SpikePerturbation(
            t0=grid.times[grid.index_of(t0)],
            eps=n_eps * dt,
            replacement=np.atleast_1d(replacement),
        )
        hats = hatted_coefficients(lin, spike, adj)
        x1 = solve_x1(lin, hats)
        return {
            "x1_sup_sq": sup_square(x1),
            "y1_sup_sq": sup_square(compute_y1z1(adj, x1)),
            **spiked_functionals(spike, hats, x1),
            **second_order(hats, x1),
        }

    eps_values = [n_eps * dt for n_eps in eps_steps]
    window_results = [study_window(n_eps) for n_eps in eps_steps]

    def fit(name: str) -> OrderFitReport:
        errors = [res[name] for res in window_results]
        if min(errors) <= 0.0:  # a sum of squares reads 0 only where it underflowed
            raise SimulationError(f"spike functional {name} underflowed to 0; its order cannot be fitted")
        return fit_convergence_order(eps_values, errors)

    return SpikeStudyResult(
        eps_values=tuple(eps_values),
        fits={name: fit(name) for name in FIT_TARGETS},
        y2_at_zero=tuple(res["y2_at_zero"] for res in window_results),
        remainder_over_eps=tuple(res["value_remainder"] / e for res, e in zip(window_results, eps_values)),
        remainder_over_eps_se=tuple(res["value_remainder_se"] / e for res, e in zip(window_results, eps_values)),
        y_bar_0=base_report.y0,
    )
