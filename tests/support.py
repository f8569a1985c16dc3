"""Shared builders for solver tests: linear-generator models and instances,
n = d = 2 matrix-flow linear data, an n = d = k = 2 model with every
derivative layout visible, the plain Hamiltonian as the reference for smp's
shifted one, an independent
estimate of the spike auxiliary value, its solve on the whole grid as the
reference for the solve up to the window's end, the spike remainder
estimator that re-evaluates the costs along both trajectories, the
two-einsum Euler step of the matrix flow pair as an oracle for the flow
kernel, and, as oracles for the shared regression basis, the component
test restated call by call and the two-pass linear representation; the
example's reweighted cost with the chord slope by quadrature, and on whole
arrays as the reference for its per-step sums; a one-node regression basis
for fits on raw features; the per-node BMO estimators as oracles for bmo's
shared node walk;
and, for the step-major storage, path-major copies of any solver input with
the checks that compare them, and the linearization with every field stored
as the reference for the one that stores a constant field once."""

import dataclasses
import warnings

import numpy as np

from quadsmp.adjoint import Linearization
from quadsmp.bsde import ControlledTrajectory, LinearBsdeData, MultiLinearBsdeData, solve_bsde_lsmc, solve_linear_bsde_weighted
from quadsmp.example import g_chord_slope, g_prime, g_running, phi_prime, phi_second
from quadsmp.grids import TimeGrid, constant_control, generate_brownian, step_major
from quadsmp.models import COEFFICIENTS, ControlDomain, ModelSpec, coefficient_shape, evaluate, scalar_model
from quadsmp.regression import NodeBases, RankDeficientRegression, conditional_expectation, polynomial_design
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


def girsanov_whole_array_reference(traj):
    """example.girsanov_cost_estimate on whole (m, N) arrays, summing each of
    its three path sums over the step axis at once: the reference for the
    estimate that accumulates them one step at a time."""
    dt = traj.w.grid.dt
    x_steps = traj.x[:, :-1, 0]
    u_steps = traj.u[:, :, 0]
    z_steps = traj.z[:, :, 0]
    anchor = phi_prime(x_steps) * u_steps
    alpha = g_chord_slope(z_steps, anchor)
    dw = traj.w.increments[:, :, 0]
    log_density = np.sum(alpha * dw, axis=1) - 0.5 * np.sum(alpha**2, axis=1) * dt
    density = np.exp(log_density)
    integrand = g_running(anchor) + (1.0 + 0.5 * phi_second(x_steps)) * u_steps**2
    payoff = density * np.sum(integrand, axis=1) * dt
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(payoff.shape[0]))


def girsanov_quadrature_reference(traj):
    """The reweighted unit-control cost of example.girsanov_cost_estimate with
    the chord slope alpha averaged by 16-node Gauss-Legendre quadrature in the
    chord parameter instead of in closed form."""
    dt = traj.w.grid.dt
    x_steps = traj.x[:, :-1, 0]
    u_steps = traj.u[:, :, 0]
    z_steps = traj.z[:, :, 0]
    anchor = phi_prime(x_steps) * u_steps
    nodes, weights = np.polynomial.legendre.leggauss(16)
    alpha = np.zeros_like(z_steps)
    for th, wt in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        alpha += wt * g_prime(anchor + th * (z_steps - anchor))
    dw = traj.w.increments[:, :, 0]
    density = np.exp(np.sum(alpha * dw, axis=1) - 0.5 * np.sum(alpha**2, axis=1) * dt)
    integrand = g_running(anchor) + (1.0 + 0.5 * phi_second(x_steps)) * u_steps**2
    payoff = density * np.sum(integrand, axis=1) * dt
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(payoff.shape[0]))


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


def plain_hamiltonian(model, t, x, y, z, u, p, q):
    """p'b + sum_i (q^i)' sigma^i + f, without the z-slot shift or the P
    term: smp.hamiltonian at u = u_ref, and the base of its control gradient.

    x, p: (m, n); y: (m,); z: (m, d); u: (m, k); q: (m, n, d). Returns (m,).
    """
    value = np.einsum("mi,mi->m", p, model.b(t, x, u))
    value += np.einsum("mid,mid->m", q, model.sigma(t, x, u))
    value += model.f(t, x, y, z, u)
    return value


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


def solve_yhat_full_reference(lin, hats, degree=2):
    """spike.solve_yhat on the whole grid: the window's gap driver padded
    with zeros to every step, solved to the horizon. Returns (m, N+1)."""
    traj = lin.traj
    data = LinearBsdeData(
        lam=lin.f_y,
        mu=lin.f_z,
        phi=_yhat_driver(hats, traj.w.grid.n_steps),
        xi=np.zeros(traj.n_paths),
        state=traj.x,
    )
    y_hat, _, _ = solve_linear_bsde_weighted(data, traj.w, degree=degree)
    return y_hat


def linearize_stored_reference(model, traj):
    """adjoint.linearize with every field stored step-major, a constant one
    too: the layout that storing a constant field once replaced."""
    grid = traj.w.grid
    steps = {
        f.name: step_major((traj.n_paths, grid.n_steps) + coefficient_shape(model, f.name))
        for f in dataclasses.fields(Linearization)
        if f.name in COEFFICIENTS
    }
    for k in range(grid.n_steps):
        point = {"t": grid.times[k], "x": traj.x[:, k], "y": traj.y[:, k], "z": traj.z[:, k], "u": traj.u[:, k]}
        for name, arr in steps.items():
            arr[:, k] = evaluate(model, name, point)
    for arr in steps.values():
        arr.flags.writeable = False
    return Linearization(model=model, traj=traj, **steps)


def value_remainder_reference(lin, spiked, x1, adj, hats, gamma_tilde):
    """spike.value_remainder_estimate with its cost-difference rollout formed
    from the two trajectories: phi at both terminal states, and f along the
    spiked trajectory against the candidate's f at every step. Returns
    (estimate, std error)."""
    model, base = lin.model, lin.traj
    grid = base.w.grid
    dt, n_steps, times = grid.dt, grid.n_steps, grid.times

    diff = model.phi(spiked.x[:, -1]) - model.phi(base.x[:, -1])
    for k in range(n_steps):
        diff += (
            model.f(times[k], spiked.x[:, k], spiked.y[:, k], spiked.z[:, k], spiked.u[:, k])
            - lin.f[:, k]
        ) * dt

    r1 = gamma_tilde[:, n_steps] * np.einsum(
        "mi,mi->m", model.phi_x(base.x[:, -1]), x1[:, n_steps]
    )
    for k in range(hats.k0, n_steps):
        drv = np.einsum("mi,mi->m", lin.f_x[:, k], x1[:, k])
        if k < hats.k1:
            drv -= np.einsum("md,md->m", lin.f_z[:, k], hats.delta[:, k - hats.k0])
            drv -= np.einsum("mid,mid->m", adj.q[:, k], hats.sigma_hat[:, k - hats.k0])
        r1 += gamma_tilde[:, k] * drv * dt

    r2 = np.sum(gamma_tilde[:, :n_steps] * _yhat_driver(hats, n_steps), axis=1) * dt

    samples = diff - r1 - r2
    m = samples.shape[0]
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(m))


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


def node_basis(features, degree=2):
    """The RegressionBasis of one node's features (m, p) or (m,): a NodeBases
    walk of one node."""
    x = np.asarray(features, dtype=float)
    return NodeBases(x.reshape(len(x), 1, -1), degree=degree)[0]


def standardized_design_reference(features, degree=2, winsor=0.005):
    """The standardized design of conditional_expectation_reference:
    winsorized by np.quantile, centered and scaled by std, constant columns dropped."""
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
    return a[:, keep]


def conditional_expectation_reference(features, targets, degree=2, winsor=0.005, t_min=4.0):
    """The regression kernel restated target by target: every call winsorizes,
    designs and standardizes on its own, takes np.linalg.svd of the slope
    columns cut at lstsq's rule on the Gram matrix (s > sqrt(p eps) s_max),
    and keeps each component alpha_j = U_j'(y - mean) whose |alpha_j| reaches
    t_min times the standard error of the explicit residual on m - rank dof.

    Returns (fitted, kept): kept holds, per target column, the boolean mask of
    the components the test kept."""
    t = np.asarray(targets, dtype=float)
    squeeze = t.ndim == 1
    if squeeze:
        t = t[:, None]
    a = standardized_design_reference(features, degree, winsor)
    m, p = a.shape
    u, s, _ = np.linalg.svd(a[:, 1:], full_matrices=False)
    u = u[:, s > np.sqrt(p * np.finfo(float).eps) * s.max(initial=0.0)]
    rank = u.shape[1] + 1
    if rank < p:
        warnings.warn(f"rank-deficient regression design ({rank} < {p} columns)", RankDeficientRegression, stacklevel=2)
    fitted = np.empty_like(t)
    kept = []
    for col in range(t.shape[1]):
        centered = t[:, col] - t[:, col].mean()
        alpha = u.T @ centered
        resid = centered - u @ alpha
        mask = np.abs(alpha) >= t_min * np.sqrt(resid @ resid / (m - rank))
        kept.append(mask)
        fitted[:, col] = t[:, col].mean() + u[:, mask] @ alpha[mask]
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
            y[:, k] = conditional_expectation(node_basis(features(k), degree), target)
    prefix = np.zeros((m, n_steps + 1, n))
    np.cumsum(weighted_f, axis=1, out=prefix[:, 1:])
    g_mart = np.einsum("mtji,mtj->mti", flow, y) + prefix
    incrs = np.einsum("mtji,mtj->mti", inv[:, :n_steps], np.diff(g_mart, axis=1))
    z = np.empty((m, n_steps, n, d))
    for k in range(n_steps):
        tgt = (incrs[:, k, :, None] * w.increments[:, k][:, None, :] / dt).reshape(m, n * d)
        psi_scaled = conditional_expectation(node_basis(features(k), degree), tgt).reshape(m, n, d)
        d_y = np.matmul(y[:, k, None, None, :], _diffusion_matrices(beta[:, k], c[:, k], np.eye(n)))[:, :, 0]
        z[:, k] = psi_scaled - d_y.swapaxes(1, 2)
    return y, z


def _bmo_features_at(m, conditioner, k):
    if conditioner is None:
        return m.values[:, k : k + 1]
    state = np.asarray(conditioner, dtype=float)
    if state.ndim == 2:
        state = state[:, :, None]
    return state[:, k, :]


def estimate_bmo2_norm_reference(m, conditioner=None):
    """bmo.estimate_bmo2_norm as it stood before the shared node walk: nodes
    0..N forward, each regressed on a basis of its own features, an all-zero
    remaining bracket skipped."""
    total = m.bracket[:, -1]
    if np.all(total == 0.0):
        return 0.0
    worst = 0.0
    for k in range(m.grid.n_steps + 1):
        remaining = total - m.bracket[:, k]
        if np.all(remaining == 0.0):
            continue
        fitted = conditional_expectation(node_basis(_bmo_features_at(m, conditioner, k)), remaining)
        worst = max(worst, float(fitted.max()))
    return np.sqrt(max(worst, 0.0))


def john_nirenberg_reference(m, delta, bmo2_norm):
    """bmo.john_nirenberg_report as it stood before the shared node walk:
    nodes 0..N forward, the earliest of tied nodes reported. Returns
    (passed, worst_margin, detail)."""
    bound = 1.0 / (1.0 - delta * bmo2_norm**2)
    total = m.bracket[:, -1]
    worst_margin, worst, passed = np.inf, None, True
    for k in range(m.grid.n_steps + 1):
        target = np.exp(delta * (total - m.bracket[:, k]))
        if np.all(target == target[0]):
            estimate = float(target[0])
        else:
            estimate = float(conditional_expectation(node_basis(m.values[:, k]), target).max())
        se = float(target.std(ddof=1) / np.sqrt(m.n_paths))
        margin = bound + 3.0 * se - estimate
        if margin < worst_margin:
            worst_margin = margin
            worst = {"node": k, "estimate": estimate, "std_error": se, "bound": bound}
        if margin < 0:
            passed = False
    return passed, worst_margin, worst or {}


def path_major(obj):
    """obj with every array, in nested dataclasses too, copied to C order, so
    a[:, k] of a node or step process is strided across paths again."""
    if isinstance(obj, np.ndarray):
        return np.ascontiguousarray(obj)
    if not dataclasses.is_dataclass(obj) or isinstance(obj, ModelSpec):
        return obj
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray) or dataclasses.is_dataclass(value):
            changes[f.name] = path_major(value)
    return dataclasses.replace(obj, **changes)


def steps_contiguous(a) -> bool:
    """Every per-step slice a[:, k] of a node or step process is one C-contiguous block."""
    return all(a[:, k].flags.c_contiguous for k in range(a.shape[1]))


def same_bits(a, b) -> bool:
    """a and b have one shape and equal float64 bit patterns: -0.0 differs
    from +0.0, and a NaN equals a NaN with the same bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_close_rel(actual, expected, rel=1e-12):
    """max |actual - expected| within rel times max |expected|."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def planar_flow_data(m, n_steps):
    """n = d = 2 data with path- and step-dependent coefficients on a
    Brownian state; returns (data, w)."""
    w = generate_brownian(m, TimeGrid(1.0, n_steps), 2, seed=17)
    rng = np.random.default_rng(17)
    state = w.paths()[:, :, :1]
    data = MultiLinearBsdeData(
        a=rng.uniform(-0.5, 0.5, (n_steps, 2, 2)) + 0.2 * np.tanh(state[:, :n_steps, :, None]) * [[0.0, 1.0], [-1.0, 0.5]],
        beta=rng.uniform(-0.2, 0.2, (n_steps, 2)),
        c=rng.uniform(-0.3, 0.3, (n_steps, 2, 2, 2)),
        driver=np.concatenate([np.sin(state[:, :n_steps]), np.cos(2.0 * state[:, :n_steps])], axis=2),
        xi=np.column_stack([np.tanh(state[:, -1, 0]), state[:, -1, 0] ** 2]),
        state=state,
    )
    return data, w


def planar_candidate(n_paths, n_steps, seed, control=(0.2, -0.4), x0=(0.3, -0.2)):
    """A solved planar_model candidate trajectory on a unit horizon."""
    model = planar_model()
    grid = TimeGrid(1.0, n_steps)
    w = generate_brownian(n_paths, grid, model.d, seed)
    u = constant_control(list(control), n_paths, n_steps)
    x = simulate_forward_sde(model, list(x0), u, w)
    y, z, _ = solve_bsde_lsmc(model, x, u, w)
    return model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
