"""Hamiltonian evaluation and maximum-principle checks.

The Hamiltonian carries a z-slot shift built from the diffusion difference
against the reference pair and a quadratic second-adjoint term; pointwise
minimization of it over the control set along the candidate trajectory is the
necessary condition checked here, together with its local (convex-domain)
version and the sampled sufficient condition built on the auxiliary
Hamiltonian without those extra terms. ``hamiltonian_gap`` writes
H(u) - H(u_ref) once; the global check and the spike's auxiliary driver read
it, with the reference's coefficients taken from the linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointBundle, Linearization
from .bsde import ControlledTrajectory
from .grids import constant_control
from .models import ModelSpec
from .sde import simulate_forward_sde

__all__ = [
    "hamiltonian",
    "auxiliary_hamiltonian",
    "hamiltonian_gap",
    "hamiltonian_difference_identity",
    "SmpViolationReport",
    "check_global_smp",
    "local_smp_gradient",
    "check_sufficient_conditions",
]

# violating cells listed in an SmpViolationReport
MAX_ENTRIES = 1000


def hamiltonian(
    model: ModelSpec,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    big_p: np.ndarray,
    u_ref: np.ndarray,
) -> np.ndarray:
    """Batched Hamiltonian with the diffusion-difference shift in the z slot.

    The shift is built from sigma(t, x, u) - sigma(t, x, u_ref).
    x, p: (m, n); y: (m,); z: (m, d); u, u_ref: (m, k); q: (m, n, d);
    big_p: (m, n, n). Returns (m,).
    """
    sigma = model.sigma(t, x, u)
    sigma_diff = sigma - model.sigma(t, x, u_ref)
    delta = np.einsum("mid,mi->md", sigma_diff, p)
    value = np.einsum("mi,mi->m", p, model.b(t, x, u))
    value += np.einsum("mid,mid->m", q, sigma)
    value += model.f(t, x, y, z + delta, u)
    value += 0.5 * np.einsum("mid,mij,mjd->m", sigma_diff, big_p, sigma_diff)
    return value


def auxiliary_hamiltonian(
    model: ModelSpec,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Plain Hamiltonian p'b + sum_i (q^i)' sigma^i + f, no shift or quadratic.

    x, p: (m, n); y: (m,); z: (m, d); u: (m, k); q: (m, n, d). Returns (m,).
    """
    value = np.einsum("mi,mi->m", p, model.b(t, x, u))
    value += np.einsum("mid,mid->m", q, model.sigma(t, x, u))
    value += model.f(t, x, y, z, u)
    return value


def hamiltonian_gap(
    model: ModelSpec,
    t: float,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    big_p: np.ndarray,
    ref: tuple,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """H(u) - H(u_ref) from the reference's coefficients ref = (b, sigma, f).

    The gap is p'b_hat + sum_i (q^i)' sigma_hat^i + [f(t, x, y, z + Delta, u)
    - f_ref] + sum_i (sigma_hat^i)' P sigma_hat^i / 2, with the hats taken
    against ref and Delta^i = (sigma_hat^i)' p. Shapes as in ``hamiltonian``;
    ref: (m, n), (m, n, d), (m,). Returns (gap, b_hat, sigma_hat, Delta).
    """
    b_ref, sigma_ref, f_ref = ref
    b_hat = model.b(t, x, u) - b_ref
    sigma_hat = model.sigma(t, x, u) - sigma_ref
    delta = np.einsum("mid,mi->md", sigma_hat, p)
    gap = np.einsum("mi,mi->m", p, b_hat)
    gap += np.einsum("mid,mid->m", q, sigma_hat)
    gap += model.f(t, x, y, z + delta, u) - f_ref
    gap += 0.5 * np.einsum("mid,mij,mjd->m", sigma_hat, big_p, sigma_hat)
    return gap, b_hat, sigma_hat, delta


def hamiltonian_difference_identity(
    model: ModelSpec,
    t: float,
    x_ref: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    u_ref: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    big_p: np.ndarray,
) -> float:
    """Max absolute gap between H(u) - H(u_ref) and ``hamiltonian_gap``.

    The two are equal algebraically; the returned value should be at
    round-off level.
    """
    lhs = hamiltonian(model, t, x_ref, y, z, u, p, q, big_p, u_ref)
    lhs -= hamiltonian(model, t, x_ref, y, z, u_ref, p, q, big_p, u_ref)
    ref = (model.b(t, x_ref, u_ref), model.sigma(t, x_ref, u_ref), model.f(t, x_ref, y, z, u_ref))
    rhs, *_ = hamiltonian_gap(model, t, x_ref, y, z, u, p, q, big_p, ref)
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class SmpViolationReport:
    """Cells where a test control improves the Hamiltonian beyond tolerance.

    entries is a sample capped at MAX_ENTRIES; n_violations is the full count,
    so the report is empty (n_violations == 0) iff no cell violates.
    """

    tolerance: float
    n_cells: int
    n_violations: int
    worst_gap: float
    violation_fraction: float
    entries: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "n_cells": self.n_cells,
            "n_violations": self.n_violations,
            "worst_gap": self.worst_gap,
            "violation_fraction": self.violation_fraction,
            "entries": [
                {"path": int(p), "step": int(k), "control": c, "gap": float(g)}
                for (p, k, c, g) in self.entries
            ],
        }


def check_global_smp(
    lin: Linearization, adj: AdjointBundle, test_controls, tolerance: float
) -> SmpViolationReport:
    """Hamiltonian gap H(u) - H(u_bar) over every (path, step, test control).

    The candidate's coefficients are read from lin. A cell violates when its
    gap is below -tolerance; the check passes (``empty``) only when no cell
    violates. The first MAX_ENTRIES violating cells are listed.
    """
    model, traj = lin.model, lin.traj
    grid = traj.w.grid
    m, n_steps = traj.n_paths, grid.n_steps
    controls = np.atleast_2d(np.asarray(test_controls, dtype=float))
    entries: list = []
    n_viol = 0
    worst = np.inf
    for k in range(n_steps):
        xk, yk, zk = traj.x[:, k], traj.y[:, k], traj.z[:, k]
        ref = (lin.b[:, k], lin.sigma[:, k], lin.f[:, k])
        for c in controls:
            u_test = np.broadcast_to(c, (m, model.k))
            gap, *_ = hamiltonian_gap(
                model, grid.times[k], xk, yk, zk, u_test, adj.p[:, k], adj.q[:, k], adj.big_p[:, k], ref
            )
            worst = min(worst, float(gap.min()))
            bad = np.nonzero(gap < -tolerance)[0]
            n_viol += bad.size
            for idx in bad[: max(0, MAX_ENTRIES - len(entries))]:
                entries.append((int(idx), k, c.tolist(), float(gap[idx])))
    n_cells = m * n_steps * controls.shape[0]
    return SmpViolationReport(
        tolerance=tolerance,
        n_cells=n_cells,
        n_violations=n_viol,
        worst_gap=float(worst) if np.isfinite(worst) else 0.0,
        violation_fraction=n_viol / n_cells,
        entries=entries,
    )


def local_smp_gradient(
    lin: Linearization,
    p: np.ndarray,
    q: np.ndarray,
    test_controls=None,
    tolerance: float = 0.0,
) -> tuple[np.ndarray, dict]:
    """Control-gradient row of the Hamiltonian along the candidate.

    Per (path, step): sum_i f_{z_i} p'sigma_u^i + f_u' + p'b_u
    + sum_i (q^i)' sigma_u^i, shape (m, N, k), with f_z read from lin. When
    test_controls are given, also checks the variational inequality
    <row, u - u_bar> >= -tolerance.
    """
    model, traj = lin.model, lin.traj
    if model.b_u is None or model.sigma_u is None or model.f_u is None:
        raise ValueError("model lacks control derivatives (b_u, sigma_u, f_u)")
    grid = traj.w.grid
    m, n_steps = traj.n_paths, grid.n_steps
    grad = np.empty((m, n_steps, model.k))
    for k in range(n_steps):
        t = grid.times[k]
        xk, yk, zk, uk = traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]
        pk, qk = p[:, k], q[:, k]
        sigma_u = model.sigma_u(t, xk, uk)
        grad[:, k] = np.einsum("md,ml,mdlk->mk", lin.f_z[:, k], pk, sigma_u)
        grad[:, k] += model.f_u(t, xk, yk, zk, uk)
        grad[:, k] += np.einsum("ml,mlk->mk", pk, model.b_u(t, xk, uk))
        grad[:, k] += np.einsum("mld,mdlk->mk", qk, sigma_u)

    report = {"sup_abs_gradient": float(np.abs(grad).max())}
    if test_controls is not None:
        controls = np.atleast_2d(np.asarray(test_controls, dtype=float))
        worst = np.inf
        n_viol = 0
        for c in controls:
            pairing = np.einsum("mtk,mtk->mt", grad, c - traj.u)
            worst = min(worst, float(pairing.min()))
            n_viol += int(np.count_nonzero(pairing < -tolerance))
        report.update(
            {
                "worst_pairing": worst,
                "n_violations": n_viol,
                "passed": n_viol == 0,
                "tolerance": tolerance,
            }
        )
    return grad, report


def _aux_gradients(model: ModelSpec, t, x, y, z, u, p, q):
    """Gradient pieces of the auxiliary Hamiltonian at the barred tuple."""
    b_x = model.b_x(t, x, u)
    sigma_x = model.sigma_x(t, x, u)
    h_x = np.einsum("mji,mj->mi", b_x, p)
    h_x += np.einsum("mdjk,mjd->mk", sigma_x, q)
    h_x += model.f_x(t, x, y, z, u)
    h_y = model.f_y(t, x, y, z, u)
    h_z = model.f_z(t, x, y, z, u)
    h_u = np.einsum("mjk,mj->mk", model.b_u(t, x, u), p)
    h_u += np.einsum("mjd,mdjk->mk", q, model.sigma_u(t, x, u))
    h_u += model.f_u(t, x, y, z, u)
    return h_x, h_y, h_z, h_u


def check_sufficient_conditions(
    model: ModelSpec,
    traj: ControlledTrajectory,
    p: np.ndarray,
    q: np.ndarray,
    x0,
    comparison_controls,
    n_samples: int = 4096,
    sample_box: float = 1.0,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> dict:
    """Sampled verification of the two sufficiency requirements.

    (a) terminal condition: phi(X_T^u) - phi(X_T) >= phi_x(X_T)'(X_T^u - X_T)
    pathwise for each comparison control, simulated on the same ensemble;
    (b) the auxiliary-Hamiltonian inequality, including the diffusion
    remainder term, on random tuples drawn from a centered box, with the
    adjoint pair read at random (path, step) cells. Reports worst margins.
    """
    if model.b_u is None or model.sigma_u is None or model.f_u is None:
        raise ValueError("model lacks control derivatives (b_u, sigma_u, f_u)")
    grid = traj.w.grid
    rng = np.random.default_rng(seed)

    worst_terminal = np.inf
    x_bar_t = traj.x[:, -1]
    phi_bar = model.phi(x_bar_t)
    phi_x_bar = model.phi_x(x_bar_t)
    for c in np.atleast_2d(np.asarray(comparison_controls, dtype=float)):
        u_c = constant_control(c, traj.n_paths, grid.n_steps)
        x_u = simulate_forward_sde(model, x0, u_c, traj.w)
        margin = model.phi(x_u[:, -1]) - phi_bar
        margin -= np.einsum("mi,mi->m", phi_x_bar, x_u[:, -1] - x_bar_t)
        worst_terminal = min(worst_terminal, float(margin.min()))

    n, d, k = model.n, model.d, model.k
    steps = rng.integers(0, grid.n_steps, size=n_samples)
    paths = rng.integers(0, traj.n_paths, size=n_samples)
    t_mid = float(grid.times[grid.n_steps // 2])
    p_s = p[paths, steps]
    q_s = q[paths, steps]
    box = sample_box
    x_a = rng.uniform(-box, box, (n_samples, n))
    x_b = rng.uniform(-box, box, (n_samples, n))
    y_a = rng.uniform(-box, box, n_samples)
    y_b = rng.uniform(-box, box, n_samples)
    z_a = rng.uniform(-box, box, (n_samples, d))
    z_b = rng.uniform(-box, box, (n_samples, d))
    if model.control_domain is not None:
        u_a = model.control_domain.sample(rng, n_samples, k)
        u_b = model.control_domain.sample(rng, n_samples, k)
    else:
        u_a = rng.uniform(-box, box, (n_samples, k))
        u_b = rng.uniform(-box, box, (n_samples, k))

    lhs = auxiliary_hamiltonian(model, t_mid, x_a, y_a, z_a, u_a, p_s, q_s)
    lhs -= auxiliary_hamiltonian(model, t_mid, x_b, y_b, z_b, u_b, p_s, q_s)
    h_x, h_y, h_z, h_u = _aux_gradients(model, t_mid, x_b, y_b, z_b, u_b, p_s, q_s)
    rhs = np.einsum("mi,mi->m", h_x, x_a - x_b) + h_y * (y_a - y_b)
    rhs += np.einsum("md,md->m", h_z, z_a - z_b)
    rhs += np.einsum("mk,mk->m", h_u, u_a - u_b)
    sigma_rem = model.sigma(t_mid, x_a, u_a) - model.sigma(t_mid, x_b, u_b)
    sigma_rem -= np.einsum("mdij,mj->mid", model.sigma_x(t_mid, x_b, u_b), x_a - x_b)
    sigma_rem -= np.einsum("mdik,mk->mid", model.sigma_u(t_mid, x_b, u_b), u_a - u_b)
    rhs -= np.einsum("md,mi,mid->m", h_z, p_s, sigma_rem)
    worst_convexity = float((lhs - rhs).min())

    return {
        "terminal_worst_margin": worst_terminal,
        "convexity_worst_margin": worst_convexity,
        "passed": bool(worst_terminal >= -tolerance and worst_convexity >= -tolerance),
        "tolerance": tolerance,
        "n_samples": n_samples,
    }
