"""Backward solvers for the controlled system.

One quadratic solver and one linear representation:

* ``solve_bsde_lsmc`` - regression Monte Carlo backward induction for the
  quadratic-generator equation dY = -f(t,X,Y,Z,u) dt + Z'dW, Y_T = phi(X_T),
  implicit in Y and explicit (clipped) in Z;
* the fundamental-solution representation of the linear equation with driver
  A'Y + sum_i (beta^i I + C^i)' Z^i + f, one kernel with two entry points:
  ``solve_multidim_linear_bsde`` (n-dimensional, on the matrix flow pair) and
  ``solve_linear_bsde_weighted`` (scalar, driver lam Y + mu'Z + phi, where the
  flow is the exponential weight).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import BrownianEnsemble
from .regression import conditional_expectation
from .sde import MatrixFlowPair, simulate_matrix_flow

__all__ = [
    "BsdeSolverError",
    "WeightOverflowError",
    "ControlledTrajectory",
    "LinearBsdeData",
    "MultiLinearBsdeData",
    "SolverReport",
    "exponential_weight",
    "solve_bsde_lsmc",
    "solve_linear_bsde_weighted",
    "solve_multidim_linear_bsde",
]

_LOG_OVERFLOW = 700.0  # exp overflows float64 just above this


class BsdeSolverError(RuntimeError):
    pass


class WeightOverflowError(BsdeSolverError):
    pass


@dataclass(frozen=True)
class ControlledTrajectory:
    """Adapted paths of the controlled system on one ensemble.

    x: (m, N+1, n) nodes; y: (m, N+1) nodes with y[:, N] = phi(x_T) exactly;
    z: (m, N, d) steps; u: (m, N, k) steps.
    """

    w: BrownianEnsemble
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class LinearBsdeData:
    """Scalar linear data: lam, phi (m, N); mu (m, N, d); xi (m,).

    state, when given, supplies extra conditioning features per node
    (m, N+1, p); the exponential weight itself is always a feature.
    """

    lam: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    state: Optional[np.ndarray] = None


@dataclass(frozen=True)
class MultiLinearBsdeData:
    """n-dimensional linear data, coefficient shapes as in the matrix flow.

    a: (m, N, n, n); beta: (m, N, d); c: (m, N, d, n, n); driver: (m, N, n);
    xi: (m, n). state as in LinearBsdeData; the flattened flow is always a
    conditioning feature.
    """

    a: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    driver: np.ndarray
    xi: np.ndarray
    state: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolverReport:
    y0: float
    y0_std_error: float
    clip_rate: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "y0": self.y0,
            "y0_std_error": self.y0_std_error,
            "clip_rate": self.clip_rate,
            **self.extras,
        }
        return json.dumps(payload, sort_keys=True)


def _node_features(base: np.ndarray, state: Optional[np.ndarray], k: int) -> np.ndarray:
    cols = [base]
    if state is not None:
        extra = state[:, k]
        cols.append(extra if extra.ndim == 2 else extra[:, None])
    return np.column_stack(cols)


def solve_bsde_lsmc(
    model,
    x: np.ndarray,
    u: np.ndarray,
    w: BrownianEnsemble,
    degree: int = 2,
) -> tuple[np.ndarray, np.ndarray, SolverReport]:
    """Backward regression induction for the quadratic-generator equation.

    Per step: Z from the regression of the centered increment
    (Y_{k+1} - E^[Y_{k+1}|X_k]) dW_k / dt on the state basis (centering by the
    fitted conditional mean changes nothing in expectation and removes the
    O(|Y|/sqrt(dt)) variance of the raw product), clipped in norm at the
    model's z_truncation_default; Y from the regression of Y_{k+1} plus an
    implicit fixed point in the f(.., Y, ..) dt term (at most 10 iterations,
    to a sup-norm gap of 1e-10). The regressions keep every basis term.
    """
    grid = w.grid
    dt, times, n_steps = grid.dt, grid.times, grid.n_steps
    m = w.n_paths
    u = np.asarray(u, dtype=float)
    u = np.broadcast_to(u, (m, n_steps, u.shape[-1]))
    z_truncation = model.z_truncation_default(grid.horizon)

    y = np.empty((m, n_steps + 1))
    z = np.zeros((m, n_steps, model.d))
    y[:, n_steps] = model.phi(x[:, n_steps])
    clip_hits = 0
    for k in range(n_steps - 1, -1, -1):
        feats = x[:, k]
        y_next = y[:, k + 1]
        e_next = conditional_expectation(feats, y_next, degree, t_min=0.0)
        z_fit = conditional_expectation(
            feats, (y_next - e_next)[:, None] * w.increments[:, k] / dt, degree, t_min=0.0
        )
        z_norm = np.sqrt(np.sum(z_fit**2, axis=1))
        over = z_norm > z_truncation
        clip_hits += int(over.sum())
        scale = np.where(over, z_truncation / np.maximum(z_norm, 1e-300), 1.0)
        z[:, k] = z_fit * scale[:, None]
        y_k = e_next
        for _ in range(10):
            y_new = e_next + model.f(times[k], feats, y_k, z[:, k], u[:, k]) * dt
            gap = float(np.max(np.abs(y_new - y_k)))
            y_k = y_new
            if gap <= 1e-10:
                break
        else:
            raise BsdeSolverError(f"implicit Y iteration did not converge at step {k} (gap {gap:.3e})")
        y[:, k] = y_k

    # honest Y0 uncertainty: the unsmoothed pathwise rollout of terminal plus
    # running generator (the one-step regression target is already smoothed)
    rollout = y[:, n_steps].copy()
    for k in range(n_steps):
        rollout += model.f(times[k], x[:, k], y[:, k], z[:, k], u[:, k]) * dt
    se = float(rollout.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    report = SolverReport(
        y0=float(y[:, 0].mean()),
        y0_std_error=se,
        clip_rate=clip_hits / (m * n_steps),
        extras={"solver": "lsmc", "z_truncation": z_truncation},
    )
    return y, z, report


def exponential_weight(lam: np.ndarray, mu: np.ndarray, w: BrownianEnsemble) -> np.ndarray:
    """Node paths (m, N+1) of the weight
    Gamma-tilde = exp(int lam ds + int mu'dW - 1/2 int |mu|^2 ds)."""
    dt = w.grid.dt
    m, n_steps, _ = w.increments.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (m, n_steps))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), w.increments.shape)
    log_weight = np.zeros((m, n_steps + 1))
    np.cumsum(np.sum(mu * w.increments, axis=2) - 0.5 * np.sum(mu * mu, axis=2) * dt, axis=1, out=log_weight[:, 1:])
    lam_int = np.zeros((m, n_steps + 1))
    np.cumsum(lam * dt, axis=1, out=lam_int[:, 1:])
    log_weight += lam_int
    if float(log_weight.max()) > _LOG_OVERFLOW:
        raise WeightOverflowError(
            "exponential weight overflows float64; truncate mu or shorten the horizon"
        )
    return np.exp(log_weight)


def _represent(flow, inv, driver, xi, beta, c, state, w: BrownianEnsemble, degree: int):
    """Fundamental-solution representation of the linear equation with driver
    A'Y + sum_i (beta^i I + C^i)' Z^i + f.

    flow: (m, N+1, n, n) the fundamental solution X of the coefficients and
    inv its pathwise inverse Lambda; driver, xi, beta, c and state as in
    MultiLinearBsdeData. Y_t = Lambda_t' E[X_T' xi + int_t^T X_s' f_s ds | F_t];
    Z^i is recovered from the one-step martingale increments of
    X'Y + int X'f ds as Lambda_t' psi^i_t - (beta^i I + C^i)' Y_t. The flattened
    flow (and state) are the regression features, with the default t-pretest.

    Returns y: (m, N+1, n), z: (m, N, n, d) and the pathwise Y0 targets (m, n).
    """
    grid = w.grid
    dt, n_steps, m = grid.dt, grid.n_steps, w.n_paths
    n = flow.shape[-1]
    d = w.increments.shape[2]
    driver = np.broadcast_to(np.asarray(driver, dtype=float), (m, n_steps, n))
    xi = np.broadcast_to(np.asarray(xi, dtype=float), (m, n))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (m, n_steps, d))
    c = np.broadcast_to(np.asarray(c, dtype=float), (m, n_steps, d, n, n))

    weighted_f = np.einsum("mtij,mti->mtj", flow[:, :n_steps], driver) * dt
    # pathwise X_T' xi + int_t^T X_s' f_s ds
    bracket = np.zeros((m, n_steps + 1, n))
    bracket[:, :n_steps] = np.cumsum(weighted_f[:, ::-1], axis=1)[:, ::-1]
    bracket += np.einsum("mij,mi->mj", flow[:, n_steps], xi)[:, None]

    # the inverse flow at the conditioning time is known per path, so it goes
    # inside the regression target; regressing Lambda'(bracket) keeps the
    # noise level uniform instead of amplifying it where the flow is small.
    # y holds each node's target until its regression replaces it; a constant
    # target is its own conditional expectation and stays
    y = np.empty((m, n_steps + 1, n))
    np.einsum("mtji,mtj->mti", inv[:, :n_steps], bracket[:, :n_steps], out=y[:, :n_steps])
    y[:, n_steps] = xi
    flat_flow = flow.reshape(m, n_steps + 1, n * n)
    for k in range(n_steps):
        target = y[:, k]
        if not np.all(target == target[0]):
            y[:, k] = conditional_expectation(_node_features(flat_flow[:, k], state, k), target, degree)

    prefix = np.zeros((m, n_steps + 1, n))
    np.cumsum(weighted_f, axis=1, out=prefix[:, 1:])
    g_mart = np.einsum("mtji,mtj->mti", flow, y) + prefix
    incrs = np.einsum("mtji,mtj->mti", inv[:, :n_steps], np.diff(g_mart, axis=1))
    del g_mart  # only its increments are regressed
    z = np.empty((m, n_steps, n, d))
    eye = np.eye(n)
    for k in range(n_steps):
        tgt = (incrs[:, k, :, None] * w.increments[:, k][:, None, :] / dt).reshape(m, n * d)
        if np.all(tgt == 0.0):
            psi_scaled = np.zeros((m, n, d))
        else:
            psi_scaled = conditional_expectation(
                _node_features(flat_flow[:, k], state, k), tgt, degree
            ).reshape(m, n, d)
        d_k = beta[:, k, :, None, None] * eye + c[:, k]  # (m, d, n, n)
        z[:, k] = psi_scaled - np.einsum("mdji,mj->mid", d_k, y[:, k])
    return y, z, bracket[:, 0]


def solve_linear_bsde_weighted(
    data: LinearBsdeData,
    w: BrownianEnsemble,
    degree: int = 2,
) -> tuple[np.ndarray, np.ndarray, SolverReport]:
    """Scalar linear equation: the representation with the exponential weight
    G~ as the one-dimensional flow.

    Y_t is the conditional expectation of (G~_T/G~_t) xi + int_t^T (G~_s/G~_t)
    phi_s ds; Z = psi - Y mu with psi from the one-step martingale increment
    of G~ Y + int G~ phi ds against dW. Returns y: (m, N+1), z: (m, N, d).
    """
    m, n_steps, d = w.increments.shape
    gt = exponential_weight(data.lam, data.mu, w)
    flow = gt[:, :, None, None]
    y, z, target0 = _represent(
        flow,
        1.0 / flow,
        np.asarray(data.phi, dtype=float)[..., None],
        np.asarray(data.xi, dtype=float)[..., None],
        data.mu,
        np.broadcast_to(0.0, (m, n_steps, d, 1, 1)),
        data.state,
        w,
        degree,
    )
    se = float(target0[:, 0].std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    report = SolverReport(y0=float(y[:, 0, 0].mean()), y0_std_error=se, extras={"solver": "weighted"})
    return y[:, :, 0], z[:, :, 0], report


def solve_multidim_linear_bsde(
    data: MultiLinearBsdeData,
    w: BrownianEnsemble,
    degree: int = 2,
) -> tuple[np.ndarray, np.ndarray, SolverReport, MatrixFlowPair]:
    """n-dimensional linear equation: the representation on the matrix flow
    pair of the data coefficients.

    Lambda is the pathwise inverse of the simulated flow, so the scheme's
    flow/inverse product error does not contaminate the representation.
    Returns y: (m, N+1, n), z: (m, N, n, d), the report and the flow pair.
    """
    pair = simulate_matrix_flow(data.a, data.beta, data.c, w)
    inv = np.linalg.inv(pair.flow)
    if not np.isfinite(inv).all():
        raise BsdeSolverError("simulated flow is numerically singular; cannot invert")
    y, z, target0 = _represent(pair.flow, inv, data.driver, data.xi, data.beta, data.c, data.state, w, degree)
    m = w.n_paths
    se_vec = target0.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.zeros(y.shape[2])
    y0_vec = y[:, 0].mean(axis=0)
    report = SolverReport(
        y0=float(np.linalg.norm(y0_vec)),
        y0_std_error=float(np.linalg.norm(se_vec)),
        extras={"solver": "multidim", "y0_vector": y0_vec.tolist()},
    )
    return y, z, report, pair

