"""Forward simulation: controlled state SDE and matrix-valued linear flows.

The matrix flow X solves dX = A X dt + sum_i D^i X dW^i from the identity,
with D^i = beta^i I + C^i; the companion flow Lambda solves
dLambda = Lambda (-A + sum_i (D^i)^2) dt - sum_i Lambda D^i dW^i and is the
pathwise inverse of X. Simulating the flow steps X alone; the pair steps
Lambda from the coefficients it keeps on the first read of its ``inverse``,
which only the inverse-identity check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import BrownianEnsemble, step_major

__all__ = [
    "SimulationError",
    "simulate_forward_sde",
    "MatrixFlowPair",
    "simulate_matrix_flow",
]


class SimulationError(RuntimeError):
    """A simulated quantity left the float64 range: a non-finite value during
    time stepping, or a statistic of the paths that overflowed or underflowed."""


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

    x = step_major((n_paths, grid.n_steps + 1, n))
    x[:, 0] = x0
    with np.errstate(over="ignore", invalid="ignore"):  # a step that leaves float64 aborts the run
        for k in range(grid.n_steps):
            xk = x[:, k]
            drift = model.b(times[k], xk, u[:, k])
            diff = model.sigma(times[k], xk, u[:, k])  # (m, n, d)
            x[:, k + 1] = xk + drift * dt + np.einsum("mnd,md->mn", diff, w.increments[:, k])
            _abort_if_nonfinite(x[:, k + 1], k + 1, "state")
    return x


@dataclass(frozen=True)
class MatrixFlowPair:
    """Fundamental solution X on the grid, with its inverse flow Lambda on demand.

    flow: (n_paths, n_steps+1, n, n); a, beta and c: the coefficients it was
    stepped with, broadcast to full shape. ``inverse`` (the flow's shape) is
    stepped from them on first read and then kept; Lambda_t X_t = I up to a
    discretization error that vanishes with dt.
    """

    w: BrownianEnsemble
    flow: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.flow.shape[-1]

    @cached_property
    def inverse(self) -> np.ndarray:
        """Euler-Maruyama for dLambda = Lambda (-A + sum_i (D^i)^2) dt - sum_i Lambda D^i dW^i."""
        dw, dt = self.w.increments, self.w.grid.dt
        eye = np.eye(self.dim)
        lam = step_major(self.flow.shape)
        lam[:, 0] = eye
        with np.errstate(over="ignore", invalid="ignore"):  # a step that leaves float64 aborts the read
            for k in range(dw.shape[1]):
                dk = _diffusion_matrices(self.beta[:, k], self.c[:, k], eye)
                step = (np.matmul(dk, dk).sum(axis=1) - self.a[:, k]) * dt
                step -= _noise_term(dw[:, k], dk)
                step += eye
                np.matmul(lam[:, k], step, out=lam[:, k + 1])
                _abort_if_nonfinite(lam[:, k + 1], k + 1, "inverse flow")
        return lam

    def inverse_identity_error(self) -> float:
        """max over paths/nodes of the Frobenius norm of Lambda_t X_t - I."""
        prod = np.matmul(self.inverse, self.flow)
        prod -= np.eye(self.dim)
        return float(np.sqrt(np.sum(prod**2, axis=(2, 3))).max())


def _coef_arrays(a, beta, c, n_paths: int, n_steps: int, n: int, d: int):
    a = np.broadcast_to(np.asarray(a, dtype=float), (n_paths, n_steps, n, n))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n_paths, n_steps, d))
    c = np.broadcast_to(np.asarray(c, dtype=float), (n_paths, n_steps, d, n, n))
    return a, beta, c


def _diffusion_matrices(beta_k: np.ndarray, c_k: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """D^i = beta^i I + C^i at one step: (m, d, n, n)."""
    return beta_k[:, :, None, None] * eye + c_k


def _noise_term(dw_k: np.ndarray, d_k: np.ndarray) -> np.ndarray:
    """sum_i dW^i D^i at one step: (m, n, n)."""
    m, d, n, _ = d_k.shape
    return np.matmul(dw_k[:, None, :], d_k.reshape(m, d, n * n)).reshape(m, n, n)


def simulate_matrix_flow(a, beta, c, w: BrownianEnsemble) -> MatrixFlowPair:
    """Euler-Maruyama for the matrix flow, one batched product per step:
    X_{k+1} = (I + A_k dt + sum_i dW^i_k D^i_k) X_k.

    a: drift matrix process, broadcastable to (n_paths, n_steps, n, n);
    beta: scalar diffusion loadings, broadcastable to (n_paths, n_steps, d);
    c: matrix diffusion parts, broadcastable to (n_paths, n_steps, d, n, n).
    The inverse flow is stepped only when the pair's ``inverse`` is read.
    """
    dw = w.increments
    n_paths, n_steps, d = dw.shape
    n = np.asarray(a).shape[-1]
    a, beta, c = _coef_arrays(a, beta, c, n_paths, n_steps, n, d)

    eye = np.eye(n)
    x = step_major((n_paths, n_steps + 1, n, n))
    x[:, 0] = eye
    with np.errstate(over="ignore", invalid="ignore"):  # a step that leaves float64 aborts the run
        for k in range(n_steps):
            step = _noise_term(dw[:, k], _diffusion_matrices(beta[:, k], c[:, k], eye))
            step += a[:, k] * w.grid.dt
            step += eye
            np.matmul(step, x[:, k], out=x[:, k + 1])
            _abort_if_nonfinite(x[:, k + 1], k + 1, "matrix flow")
    return MatrixFlowPair(w=w, flow=x, a=a, beta=beta, c=c)
