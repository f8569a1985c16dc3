"""Shared builders for solver tests: linear-generator models and instances,
and an independent estimate of the spike auxiliary value."""

import numpy as np

from quadsmp.bsde import LinearBsdeData
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import scalar_model
from quadsmp.sde import simulate_forward_sde
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


def yhat0_direct_estimate(lin, spike, adj, hats):
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
    drv = _yhat_driver(traj, spike, adj, hats)
    for k in range(traj.w.grid.n_steps):
        acc += weight * drv[:, k] * dt
        growth = lin.f_y[:, k] * dt + np.einsum("md,md->m", lin.f_z[:, k], traj.w.increments[:, k])
        weight = weight * (1.0 + growth)
    return float(acc.mean()), float(acc.std(ddof=1) / np.sqrt(m))
