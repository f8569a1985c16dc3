"""Shared builders for solver tests: linear-generator models and instances,
an n = d = k = 2 model with every derivative layout visible, an independent
estimate of the spike auxiliary value, the two-einsum Euler step of the
matrix flow pair as an oracle for the flow kernel, and, as oracles for the
shared regression basis, the one-call regression kernel and the two-pass
linear representation."""

import warnings

import numpy as np

from quadsmp.bsde import LinearBsdeData
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import ControlDomain, ModelSpec, scalar_model
from quadsmp.regression import RIDGE, RankDeficientRegression, conditional_expectation, polynomial_design
from quadsmp.sde import _diffusion_matrices, simulate_forward_sde
from quadsmp.spike import _yhat_driver


def driver_model(lam_fn, mu_fn, phi_fn, terminal_fn, lam_sup, mu_sup, phi_sup, term_sup):
    """Scalar model whose generator is lam(t,x) y + mu(t,x) z + phi(t,x)."""
    return scalar_model(
        b=lambda t, x, u: np.zeros_like(x),
        b_x=lambda t, x, u: np.zeros_like(x),
        sigma=lambda t, x, u: np.ones_like(x),
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: lam_fn(t, x) * y + mu_fn(t, x) * z + phi_fn(t, x),
        f_x=lambda t, x, y, z, u: np.zeros_like(x),  # not exercised by the solver
        f_y=lambda t, x, y, z, u: lam_fn(t, x) + np.zeros_like(y),
        f_z=lambda t, x, y, z, u: mu_fn(t, x) + np.zeros_like(z),
        phi=terminal_fn,
        phi_x=lambda x: np.zeros_like(x),
        phi_xx=lambda x: np.zeros_like(x),
        alpha=abs(phi_sup) + 1e-9,
        gamma=0.1,
        l1=1.0,
        l2=1.0,
        l3=abs(mu_sup) + 0.1,
        phi_bound=abs(term_sup) + 1e-9,
        f_y_bound=abs(lam_sup) + 1e-9,
    )


def random_linear_instance(seed, n_paths=8000, n_steps=100):
    """A seeded random-coefficient scalar linear instance on a Brownian state.

    Returns (model, data, x, u, w): the same equation expressed for the
    regression solver (model, x, u) and for the weighted representation
    (data), on one common ensemble.
    """
    rng = np.random.default_rng(seed)
    a0, a1 = rng.uniform(-0.4, 0.4, 2)
    b0, b1 = rng.uniform(-0.4, 0.4, 2)
    c0, c1 = rng.uniform(-0.4, 0.4, 2)
    d0, d1 = rng.uniform(0.3, 1.0), rng.uniform(-0.3, 0.3)
    lam_fn = lambda t, x: a0 + a1 * np.tanh(x)
    mu_fn = lambda t, x: b0 + b1 * np.tanh(x)
    phi_fn = lambda t, x: c0 + c1 * np.sin(x)
    terminal_fn = lambda x: d0 * np.tanh(x) + d1

    model = driver_model(
        lam_fn, mu_fn, phi_fn, terminal_fn,
        lam_sup=abs(a0) + abs(a1),
        mu_sup=abs(b0) + abs(b1),
        phi_sup=abs(c0) + abs(c1),
        term_sup=abs(d0) + abs(d1),
    )
    grid = TimeGrid(1.0, n_steps)
    w = generate_brownian(n_paths, grid, 1, seed=seed + 1000)
    u = constant_control(0.0, n_paths, n_steps)
    x = simulate_forward_sde(model, 0.0, u, w)

    lam = np.empty((n_paths, n_steps))
    mu = np.empty((n_paths, n_steps, 1))
    phi = np.empty((n_paths, n_steps))
    for k in range(n_steps):
        lam[:, k] = lam_fn(grid.times[k], x[:, k, 0])
        mu[:, k, 0] = mu_fn(grid.times[k], x[:, k, 0])
        phi[:, k] = phi_fn(grid.times[k], x[:, k, 0])
    data = LinearBsdeData(lam=lam, mu=mu, phi=phi, xi=terminal_fn(x[:, -1, 0]), state=x)
    return model, data, x, u, w


def planar_model():
    """An n = d = k = 2 model whose derivatives fill every axis of their layout.

    b = A x + B[x, x]/2 + C u; sigma^{ic} = S_ic + G_c,i x + T_ic[x, x]/2
    + V_c,i sin(u), so sigma_x is not diagonal, sigma_xx differs between
    sigma^{01} and sigma^{10}, and sigma_u depends on u; f couples x, y and z
    (f_hess has x-y, x-z, y-z and z-z entries); phi = tanh(x0 - x1/2)
    + x0 x1/10. Coefficients are fixed by a seeded draw; controls lie in
    [-1, 1]^2.
    """
    rng = np.random.default_rng(11)
    a, c = rng.uniform(-0.5, 0.5, (2, 2, 2))
    half = rng.uniform(-0.2, 0.2, (2, 2, 2))
    bxx = half + half.transpose(0, 2, 1)  # [i] = Hessian of b^i
    s0 = rng.uniform(-0.5, 0.5, (2, 2))
    g = rng.uniform(-0.5, 0.5, (2, 2, 2))  # [c, i, j] = d sigma^{ic} / d x_j at x = 0
    half = rng.uniform(-0.2, 0.2, (2, 2, 2, 2))
    sxx = half + half.transpose(0, 1, 3, 2)  # [i, c] = Hessian of sigma^{ic}
    v = rng.uniform(-0.5, 0.5, (2, 2, 2))  # [c, i, l] = loading of sin(u_l) in sigma^{ic}
    tilt = np.array([1.0, -0.5])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def batch(arr, x):
        return np.broadcast_to(arr, (x.shape[0],) + arr.shape)

    def f_hess(t, x, y, z, u):
        s = np.sin(x @ tilt)
        sz = np.sin(z[:, 0] + x[:, 0])
        th, sech2 = np.tanh(y), 1.0 - np.tanh(y) ** 2
        h = np.zeros((x.shape[0], 5, 5))  # (x0, x1, y, z0, z1)
        entries = {
            (0, 0): -0.2 * s - 0.1 * sz,
            (0, 1): 0.1 * s,
            (1, 1): -0.05 * s - 0.3 * th * np.cos(x[:, 1]),
            (1, 2): -0.3 * sech2 * np.sin(x[:, 1]),
            (2, 2): -2.0 * th * sech2 * (0.3 * np.cos(x[:, 1]) + 0.1 * np.sin(z[:, 1])),
            (0, 3): -0.1 * sz,
            (2, 4): 0.1 * sech2 * np.cos(z[:, 1]),
            (3, 3): -0.1 * sz,
            (3, 4): np.full(x.shape[0], 0.25),
            (4, 4): -0.1 * th * np.sin(z[:, 1]),
        }
        for (i, j), val in entries.items():
            h[:, i, j] = h[:, j, i] = val
        return h

    def phi_xx(x):
        th = np.tanh(x @ tilt)
        return (-2.0 * th * (1.0 - th**2))[:, None, None] * np.outer(tilt, tilt) + 0.1 * swap

    return ModelSpec(
        n=2,
        d=2,
        k=2,
        b=lambda t, x, u: x @ a.T + 0.5 * np.einsum("ijk,mj,mk->mi", bxx, x, x) + u @ c.T,
        sigma=lambda t, x, u: (
            s0
            + np.einsum("cij,mj->mic", g, x)
            + 0.5 * np.einsum("icjk,mj,mk->mic", sxx, x, x)
            + np.einsum("cil,ml->mic", v, np.sin(u))
        ),
        f=lambda t, x, y, z, u: (
            0.2 * np.sin(x @ tilt)
            + 0.3 * np.tanh(y) * np.cos(x[:, 1])
            + 0.1 * np.sin(z[:, 0] + x[:, 0])
            + 0.1 * np.tanh(y) * np.sin(z[:, 1])
            + 0.25 * z[:, 0] * z[:, 1]
            + 0.1 * u[:, 1] * z[:, 0]
            + 0.5 * u[:, 0] ** 2
            + 0.2 * u[:, 0] * u[:, 1]
        ),
        phi=lambda x: np.tanh(x @ tilt) + 0.1 * x[:, 0] * x[:, 1],
        b_x=lambda t, x, u: a + np.einsum("ijk,mk->mij", bxx, x),
        sigma_x=lambda t, x, u: g + np.einsum("icjk,mk->mcij", sxx, x),
        f_x=lambda t, x, y, z, u: np.stack(
            [
                0.2 * np.cos(x @ tilt) + 0.1 * np.cos(z[:, 0] + x[:, 0]),
                -0.1 * np.cos(x @ tilt) - 0.3 * np.tanh(y) * np.sin(x[:, 1]),
            ],
            axis=1,
        ),
        f_y=lambda t, x, y, z, u: (1.0 - np.tanh(y) ** 2) * (0.3 * np.cos(x[:, 1]) + 0.1 * np.sin(z[:, 1])),
        f_z=lambda t, x, y, z, u: np.stack(
            [
                0.1 * np.cos(z[:, 0] + x[:, 0]) + 0.25 * z[:, 1] + 0.1 * u[:, 1],
                0.1 * np.tanh(y) * np.cos(z[:, 1]) + 0.25 * z[:, 0],
            ],
            axis=1,
        ),
        phi_x=lambda x: (1.0 - np.tanh(x @ tilt) ** 2)[:, None] * tilt + 0.1 * x[:, ::-1],
        b_xx=lambda t, x, u: batch(bxx, x),
        sigma_xx=lambda t, x, u: batch(sxx, x),
        f_hess=f_hess,
        phi_xx=phi_xx,
        b_u=lambda t, x, u: batch(c, x),
        sigma_u=lambda t, x, u: v * np.cos(u)[:, None, None, :],
        f_u=lambda t, x, y, z, u: np.stack([u[:, 0] + 0.2 * u[:, 1], 0.2 * u[:, 0] + 0.1 * z[:, 0]], axis=1),
        alpha=1.0,
        gamma=0.25,
        l1=1.0,
        l2=1.0,
        l3=0.3,
        control_domain=ControlDomain("box", (-1.0, 1.0)),
        name="planar",
    )


def yhat0_direct_estimate(lin, hats):
    """Independent estimate of the auxiliary value at 0.

    Integrates the window driver against the weight solved as an SDE by
    Euler-Maruyama (dG = f_y G dt + G f_z'dW, G_0 = 1) instead of the closed
    exponential, and averages pathwise. Returns (estimate, std error).
    """
    traj = lin.traj
    dt = traj.w.grid.dt
    m = traj.n_paths
    weight = np.ones(m)
    acc = np.zeros(m)
    drv = _yhat_driver(hats, traj.w.grid.n_steps)
    for k in range(traj.w.grid.n_steps):
        acc += weight * drv[:, k] * dt
        growth = lin.f_y[:, k] * dt + np.einsum("md,md->m", lin.f_z[:, k], traj.w.increments[:, k])
        weight = weight * (1.0 + growth)
    return float(acc.mean()), float(acc.std(ddof=1) / np.sqrt(m))


def euler_flow_pair_reference(a, beta, c, w):
    """The matrix flow X and its inverse flow Lambda, stepped together with the
    unregrouped Euler-Maruyama increments (two einsums per flow and step).

    Coefficients are full-shape: a (m, N, n, n), beta (m, N, d), c (m, N, d, n, n).
    Returns (x, lam), each (m, N+1, n, n).
    """
    dw, dt = w.increments, w.grid.dt
    m, n_steps, _ = dw.shape
    n = a.shape[-1]
    eye = np.eye(n)
    x = np.empty((m, n_steps + 1, n, n))
    lam = np.empty_like(x)
    x[:, 0] = eye
    lam[:, 0] = eye
    for k in range(n_steps):
        dk = beta[:, k, :, None, None] * eye + c[:, k]
        xk, lk = x[:, k], lam[:, k]
        dx = np.einsum("mij,mjk->mik", a[:, k], xk) * dt
        dx += np.einsum("md,mdij,mjk->mik", dw[:, k], dk, xk)
        x[:, k + 1] = xk + dx
        d_sq = np.einsum("mdij,mdjk->mik", dk, dk)
        dl = np.einsum("mij,mjk->mik", lk, d_sq - a[:, k]) * dt
        dl -= np.einsum("md,mij,mdjk->mik", dw[:, k], lk, dk)
        lam[:, k + 1] = lk + dl
    return x, lam


def conditional_expectation_reference(features, targets, degree=2, winsor=0.005, t_min=2.0):
    """The regression kernel as it stood before the shared basis: every call
    winsorizes, designs, standardizes and solves by lstsq on its own.

    Returns (fitted, kept): kept holds, per target column, the boolean mask of
    the terms the t-pretest kept, or None when no pretest ran (t_min = 0, an
    intercept-only design, too few rows, or the ridge fallback)."""
    t = np.asarray(targets, dtype=float)
    squeeze = t.ndim == 1
    if squeeze:
        t = t[:, None]
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if winsor > 0.0 and x.shape[0] > 20:
        lo, hi = np.quantile(x, [winsor, 1.0 - winsor], axis=0)
        x = np.clip(x, lo, hi)
    design = polynomial_design(x, degree)

    mean = design.mean(axis=0)
    mean[0] = 0.0
    scale = design.std(axis=0)
    scale[0] = 1.0
    keep = scale > 1e-10 * (1.0 + np.abs(mean))
    keep[0] = True
    scale[~keep] = 1.0
    a = (design - mean) / scale
    a = a[:, keep]
    m, p = a.shape

    coef, _, rank, _ = np.linalg.lstsq(a, t, rcond=None)
    pretest = t_min > 0.0 and p > 1 and m > p + 2
    deficiency = f"{rank} < {p} columns" if rank < p else None
    if deficiency is None and pretest:
        try:
            gram_inv_diag = np.diag(np.linalg.inv(a.T @ a))
        except np.linalg.LinAlgError:
            deficiency = f"singular Gram matrix at rank {rank}"
    kept = [None] * t.shape[1]
    if deficiency is not None:
        warnings.warn(
            f"rank-deficient regression design ({deficiency}); falling back to ridge",
            RankDeficientRegression,
            stacklevel=2,
        )
        gram = a.T @ a
        lam = RIDGE * max(1.0, float(np.trace(gram)) / p)
        penalty = lam * np.eye(p)
        penalty[0, 0] = 0.0
        coef = np.linalg.solve(gram + penalty, a.T @ t)
        fitted = a @ coef
        return (fitted[:, 0] if squeeze else fitted), kept

    if pretest:
        resid = t - a @ coef
        dof = m - p
        sigma2 = np.sum(resid**2, axis=0) / dof
        fitted = np.empty_like(t)
        for col in range(t.shape[1]):
            se = np.sqrt(np.maximum(sigma2[col] * gram_inv_diag, 1e-300))
            significant = np.abs(coef[:, col]) >= t_min * se
            significant[0] = True
            kept[col] = significant
            if significant.all():
                fitted[:, col] = a @ coef[:, col]
            elif not significant[1:].any():
                fitted[:, col] = t[:, col].mean()
            else:
                sub = a[:, significant]
                sub_coef, *_ = np.linalg.lstsq(sub, t[:, col], rcond=None)
                fitted[:, col] = sub @ sub_coef
        return (fitted[:, 0] if squeeze else fitted), kept

    fitted = a @ coef
    return (fitted[:, 0] if squeeze else fitted), kept


def represent_two_pass_reference(flow, inv, driver, xi, beta, c, state, w, degree=2):
    """The linear representation as it stood before its fused backward pass:
    every Y regression first, then the martingale increments of the whole
    path, then every Z regression, each fit on features built anew.
    Full-shape arguments as in bsde._represent; returns (y, z)."""
    dt, n_steps, m = w.grid.dt, w.grid.n_steps, w.n_paths
    n, d = flow.shape[-1], w.increments.shape[2]

    def features(k):
        return np.column_stack([flow[:, k].reshape(m, n * n), state[:, k]])

    weighted_f = np.einsum("mtij,mti->mtj", flow[:, :n_steps], driver) * dt
    bracket = np.zeros((m, n_steps + 1, n))
    bracket[:, :n_steps] = np.cumsum(weighted_f[:, ::-1], axis=1)[:, ::-1]
    bracket += np.einsum("mij,mi->mj", flow[:, n_steps], xi)[:, None]
    y = np.empty((m, n_steps + 1, n))
    np.einsum("mtji,mtj->mti", inv[:, :n_steps], bracket[:, :n_steps], out=y[:, :n_steps])
    y[:, n_steps] = xi
    for k in range(n_steps):
        target = y[:, k]
        if not np.all(target == target[0]):
            y[:, k] = conditional_expectation(features(k), target, degree)
    prefix = np.zeros((m, n_steps + 1, n))
    np.cumsum(weighted_f, axis=1, out=prefix[:, 1:])
    g_mart = np.einsum("mtji,mtj->mti", flow, y) + prefix
    incrs = np.einsum("mtji,mtj->mti", inv[:, :n_steps], np.diff(g_mart, axis=1))
    z = np.empty((m, n_steps, n, d))
    for k in range(n_steps):
        tgt = (incrs[:, k, :, None] * w.increments[:, k][:, None, :] / dt).reshape(m, n * d)
        psi_scaled = conditional_expectation(features(k), tgt, degree).reshape(m, n, d)
        d_y = np.matmul(y[:, k, None, None, :], _diffusion_matrices(beta[:, k], c[:, k], np.eye(n)))[:, :, 0]
        z[:, k] = psi_scaled - d_y.swapaxes(1, 2)
    return y, z
