"""Hamiltonian evaluation and maximum-principle checks.

The Hamiltonian carries a z-slot shift built from the diffusion difference
against the reference pair and a quadratic second-adjoint term; pointwise
minimization of it over the control set along the candidate trajectory is the
necessary condition checked here, together with its local (convex-domain)
version. ``hamiltonian`` evaluates H itself and is the reference that
``hamiltonian_difference_identity`` holds the gap to. ``hamiltonian_gap`` writes
H(u) - H(u_ref) once; the global check and the spike's auxiliary driver read
it, with the reference's coefficients evaluated at the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointBundle, Linearization
from .grids import step_major
from .models import ModelSpec

__all__ = [
    "hamiltonian",
    "hamiltonian_gap",
    "hamiltonian_difference_identity",
    "SmpViolationReport",
    "check_global_smp",
    "local_smp_gradient",
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

    The candidate's b, sigma and f are evaluated once a step. A cell violates
    when its gap is below -tolerance; the check passes (``empty``) only when
    no cell violates. The first MAX_ENTRIES violating cells are listed.
    """
    model, traj = lin.model, lin.traj
    grid = traj.w.grid
    m, n_steps = traj.n_paths, grid.n_steps
    controls = np.atleast_2d(np.asarray(test_controls, dtype=float))
    entries: list = []
    n_viol = 0
    worst = np.inf
    for k in range(n_steps):
        t, xk, yk, zk, uk = grid.times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]
        ref = (model.b(t, xk, uk), model.sigma(t, xk, uk), model.f(t, xk, yk, zk, uk))
        for c in controls:
            u_test = np.broadcast_to(c, (m, model.k))
            gap, *_ = hamiltonian_gap(model, t, xk, yk, zk, u_test, adj.p[:, k], adj.q[:, k], adj.big_p[:, k], ref)
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
    test_controls,
    tolerance: float,
) -> tuple[np.ndarray, dict]:
    """Control-gradient row of the Hamiltonian along the candidate, and the
    variational inequality <row, u - u_bar> >= -tolerance at every test control.

    Per (path, step) the row is sum_i f_{z_i} p'sigma_u^i + f_u' + p'b_u
    + sum_i (q^i)' sigma_u^i, shape (m, N, k), with f_z read from lin.
    """
    model, traj = lin.model, lin.traj
    if model.b_u is None or model.sigma_u is None or model.f_u is None:
        raise ValueError("model lacks control derivatives (b_u, sigma_u, f_u)")
    grid = traj.w.grid
    m, n_steps = traj.n_paths, grid.n_steps
    grad = step_major((m, n_steps, model.k))
    for k in range(n_steps):
        t = grid.times[k]
        xk, yk, zk, uk = traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]
        pk, qk = p[:, k], q[:, k]
        sigma_u = model.sigma_u(t, xk, uk)
        grad[:, k] = np.einsum("md,ml,mdlk->mk", lin.f_z[:, k], pk, sigma_u)
        grad[:, k] += model.f_u(t, xk, yk, zk, uk)
        grad[:, k] += np.einsum("ml,mlk->mk", pk, model.b_u(t, xk, uk))
        grad[:, k] += np.einsum("mld,mdlk->mk", qk, sigma_u)

    controls = np.atleast_2d(np.asarray(test_controls, dtype=float))
    worst = np.inf
    n_viol = 0
    for c in controls:
        pairing = np.einsum("mtk,mtk->mt", grad, c - traj.u)
        worst = min(worst, float(pairing.min()))
        n_viol += int(np.count_nonzero(pairing < -tolerance))
    report = {
        "sup_abs_gradient": float(np.abs(grad).max()),
        "worst_pairing": worst,
        "n_violations": n_viol,
        "passed": n_viol == 0,
        "tolerance": tolerance,
    }
    return grad, report
