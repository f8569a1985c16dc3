"""Forward simulation: controlled state SDE and matrix-valued linear flows.

The matrix flow X solves dX = A X dt + sum_i D^i X dW^i from the identity,
with D^i = beta^i I + C^i; the companion flow Lambda solves
dLambda = Lambda (-A + sum_i (D^i)^2) dt - sum_i Lambda D^i dW^i and is the
pathwise inverse of X, which the pair exposes for the inverse-identity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import BrownianEnsemble

__all__ = [
    "SimulationError",
    "simulate_forward_sde",
    "MatrixFlowPair",
    "simulate_matrix_flow",
]


class SimulationError(RuntimeError):
    """Non-finite values encountered during time stepping."""


def _abort_if_nonfinite(x: np.ndarray, step: int, what: str) -> None:
    if np.isfinite(x).all():
        return
    bad = np.argwhere(~np.isfinite(x))
    path = int(bad[0][0])
    raise SimulationError(f"{what} became non-finite at path {path}, step {step}")


def simulate_forward_sde(model, x0, u: np.ndarray, w: BrownianEnsemble) -> np.ndarray:
    """Euler-Maruyama for dX = b(t,X,u) dt + sigma(t,X,u) dW, X_0 = x0.

    Returns node paths of shape (n_paths, n_steps+1, n). The scheme is exact
    when b and sigma are constant in (x, u) over each cell.
    """
    grid = w.grid
    dt = grid.dt
    times = grid.times
    n_paths = w.n_paths
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.shape[0]
    u = np.asarray(u, dtype=float)
    u = np.broadcast_to(u, (n_paths, grid.n_steps, u.shape[-1]))

    x = np.empty((n_paths, grid.n_steps + 1, n))
    x[:, 0] = x0
    for k in range(grid.n_steps):
        xk = x[:, k]
        drift = model.b(times[k], xk, u[:, k])
        diff = model.sigma(times[k], xk, u[:, k])  # (m, n, d)
        x[:, k + 1] = xk + drift * dt + np.einsum("mnd,md->mn", diff, w.increments[:, k])
        _abort_if_nonfinite(x[:, k + 1], k + 1, "state")
    return x


@dataclass(frozen=True)
class MatrixFlowPair:
    """Fundamental solution X and its inverse flow Lambda on the grid.

    flow and inverse: (n_paths, n_steps+1, n, n) with Lambda_t X_t = I up to
    a discretization error that vanishes with dt.
    """

    w: BrownianEnsemble
    flow: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.flow.shape[-1]

    def inverse_identity_error(self) -> float:
        """max over paths/nodes of the Frobenius norm of Lambda_t X_t - I."""
        prod = np.einsum("mtij,mtjk->mtik", self.inverse, self.flow)
        prod = prod - np.eye(self.dim)
        return float(np.sqrt(np.sum(prod**2, axis=(2, 3))).max())


def _coef_arrays(a, beta, c, n_paths: int, n_steps: int, n: int, d: int):
    a = np.broadcast_to(np.asarray(a, dtype=float), (n_paths, n_steps, n, n))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n_paths, n_steps, d))
    c = np.broadcast_to(np.asarray(c, dtype=float), (n_paths, n_steps, d, n, n))
    return a, beta, c


def simulate_matrix_flow(a, beta, c, w: BrownianEnsemble) -> MatrixFlowPair:
    """Euler-Maruyama for the matrix flow and its inverse flow.

    a: drift matrix process, broadcastable to (n_paths, n_steps, n, n);
    beta: scalar diffusion loadings, broadcastable to (n_paths, n_steps, d);
    c: matrix diffusion parts, broadcastable to (n_paths, n_steps, d, n, n).
    """
    dw = w.increments
    n_paths, n_steps, d = dw.shape
    n = np.asarray(a).shape[-1]
    a, beta, c = _coef_arrays(a, beta, c, n_paths, n_steps, n, d)

    eye = np.eye(n)
    x = np.empty((n_paths, n_steps + 1, n, n))
    lam = np.empty_like(x)
    x[:, 0] = eye
    lam[:, 0] = eye
    for k in range(n_steps):
        dk = beta[:, k, :, None, None] * eye + c[:, k]  # (m, d, n, n)
        xk, lk = x[:, k], lam[:, k]
        dx = np.einsum("mij,mjk->mik", a[:, k], xk) * w.grid.dt
        dx += np.einsum("md,mdij,mjk->mik", dw[:, k], dk, xk)
        x[:, k + 1] = xk + dx
        d_sq = np.einsum("mdij,mdjk->mik", dk, dk)
        dl = np.einsum("mij,mjk->mik", lk, d_sq - a[:, k]) * w.grid.dt
        dl -= np.einsum("md,mij,mdjk->mik", dw[:, k], lk, dk)
        lam[:, k + 1] = lk + dl
        _abort_if_nonfinite(x[:, k + 1], k + 1, "matrix flow")
        _abort_if_nonfinite(lam[:, k + 1], k + 1, "inverse flow")
    return MatrixFlowPair(w=w, flow=x, inverse=lam)

