"""Coefficient bundles for the controlled forward-backward system.

A ModelSpec carries the drift b, diffusion sigma, generator f and terminal
map phi together with their first and second derivatives and the structural
constants of the admissible class. All callables are vectorized over a batch
axis m:

    b(t, x, u)            -> (m, n)          x: (m, n), u: (m, k)
    sigma(t, x, u)        -> (m, n, d)       column i is the loading on W^i
    f(t, x, y, z, u)      -> (m,)            y: (m,), z: (m, d)
    phi(x)                -> (m,)
    b_x                   -> (m, n, n)       [i, j] = d b^i / d x_j
    sigma_x               -> (m, d, n, n)    [i] = Jacobian of column i
    f_x, f_y, f_z         -> (m, n), (m,), (m, d)
    phi_x, phi_xx         -> (m, n), (m, n, n)
    b_xx                  -> (m, n, n, n)    [i] = Hessian of b^i
    sigma_xx              -> (m, n, d, n, n) [i, j] = Hessian of sigma^{ij}
    f_hess                -> (m, n+1+d, n+1+d)  Hessian in (x, y, z)
    b_u, sigma_u, f_u     -> (m, n, k), (m, d, n, k), (m, k)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ControlDomain",
    "ModelSpec",
    "scalar_model",
    "benchmark_model",
    "validate_derivatives",
]


@dataclass(frozen=True)
class ControlDomain:
    """Admissible control set: either a box or a finite set of points in R^k."""

    kind: str  # "box" or "finite"
    points: tuple  # box: (lo, hi) per coordinate; finite: tuple of k-vectors

    def sample(self, rng: np.random.Generator, size: int, k: int) -> np.ndarray:
        if self.kind == "box":
            lo, hi = np.broadcast_to(self.points[0], k), np.broadcast_to(self.points[1], k)
            return rng.uniform(lo, hi, size=(size, k))
        pts = np.atleast_2d(np.asarray(self.points, dtype=float)).reshape(len(self.points), k)
        return pts[rng.integers(0, len(pts), size=size)]

    def contains(self, u) -> bool:
        """Whether the control u lies in the set; a scalar u stands for (u, ..., u)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "box":
            return bool(np.all((self.points[0] <= u) & (u <= self.points[1])))
        return any(bool(np.all(np.asarray(pt, dtype=float) == u)) for pt in self.points)

    def test_controls(self, k: int) -> np.ndarray:
        """Finite probe set: the points themselves, or the box corners."""
        if self.kind == "finite":
            return np.atleast_2d(np.asarray(self.points, dtype=float)).reshape(len(self.points), k)
        lo, hi = np.broadcast_to(self.points[0], k), np.broadcast_to(self.points[1], k)
        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1)
        return corners.reshape(-1, k)


@dataclass(frozen=True)
class ModelSpec:
    n: int
    d: int
    k: int
    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    b_x: Callable
    sigma_x: Callable
    f_x: Callable
    f_y: Callable
    f_z: Callable
    phi_x: Callable
    b_xx: Callable
    sigma_xx: Callable
    f_hess: Callable
    phi_xx: Callable
    alpha: float
    gamma: float
    l1: float
    l2: float
    l3: float
    l4: float = 0.0
    phi_bound: float = 1.0
    f_y_bound: float = 1.0
    b_u: Optional[Callable] = None
    sigma_u: Optional[Callable] = None
    f_u: Optional[Callable] = None
    control_domain: Optional[ControlDomain] = None
    name: str = "model"

    def z_truncation_default(self, horizon: float) -> float:
        """Generous clip level for the Z regression in the quadratic solver.

        The solution satisfies a uniform bound in Y and a BMO bound in Z, so a
        clip far above that scale does not bias the limit; the surrogate below
        grows the terminal/driver bound by the generator's Lipschitz factors.
        """
        y_bound = (self.phi_bound + self.alpha * horizon) * np.exp(self.f_y_bound * horizon)
        return 2.0 * (1.0 + self.l3 + self.gamma * y_bound) * max(1.0, y_bound)


def _as_batch(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    return a if a.ndim > 0 else a[None]


def scalar_model(
    *,
    b,
    b_x,
    sigma,
    sigma_x,
    f,
    f_x,
    f_y,
    f_z,
    phi,
    phi_x,
    phi_xx,
    b_xx=None,
    sigma_xx=None,
    f_xx=None,
    f_xy=None,
    f_xz=None,
    f_yy=None,
    f_yz=None,
    f_zz=None,
    b_u=None,
    sigma_u=None,
    f_u=None,
    **kwargs,
) -> ModelSpec:
    """Build a one-dimensional (n = d = k = 1) ModelSpec from scalar callables.

    Every callable takes and returns flat float arrays; omitted second
    derivatives default to zero.
    """
    zero = lambda *args: np.zeros_like(_as_batch(args[1]))
    zero5 = lambda t, x, y, z, u: np.zeros_like(_as_batch(x))

    b_xx = b_xx or zero
    sigma_xx = sigma_xx or zero
    f_xx = f_xx or zero5
    f_xy = f_xy or zero5
    f_xz = f_xz or zero5
    f_yy = f_yy or zero5
    f_yz = f_yz or zero5
    f_zz = f_zz or zero5

    def shaped_f_hess(t, x, y, z, u):
        xs, ys, zs, us = x[:, 0], y, z[:, 0], u[:, 0]
        h = np.zeros((xs.shape[0], 3, 3))
        h[:, 0, 0] = f_xx(t, xs, ys, zs, us)
        h[:, 0, 1] = h[:, 1, 0] = f_xy(t, xs, ys, zs, us)
        h[:, 0, 2] = h[:, 2, 0] = f_xz(t, xs, ys, zs, us)
        h[:, 1, 1] = f_yy(t, xs, ys, zs, us)
        h[:, 1, 2] = h[:, 2, 1] = f_yz(t, xs, ys, zs, us)
        h[:, 2, 2] = f_zz(t, xs, ys, zs, us)
        return h

    def wrap2(g):  # (t, x, u) scalar -> shaped
        return lambda t, x, u, _g=g: _as_batch(_g(t, x[:, 0], u[:, 0]))

    return ModelSpec(
        n=1,
        d=1,
        k=1,
        b=lambda t, x, u: wrap2(b)(t, x, u)[:, None],
        sigma=lambda t, x, u: wrap2(sigma)(t, x, u)[:, None, None],
        f=lambda t, x, y, z, u: _as_batch(f(t, x[:, 0], y, z[:, 0], u[:, 0])),
        phi=lambda x: _as_batch(phi(x[:, 0])),
        b_x=lambda t, x, u: wrap2(b_x)(t, x, u)[:, None, None],
        sigma_x=lambda t, x, u: wrap2(sigma_x)(t, x, u)[:, None, None, None],
        f_x=lambda t, x, y, z, u: _as_batch(f_x(t, x[:, 0], y, z[:, 0], u[:, 0]))[:, None],
        f_y=lambda t, x, y, z, u: _as_batch(f_y(t, x[:, 0], y, z[:, 0], u[:, 0])),
        f_z=lambda t, x, y, z, u: _as_batch(f_z(t, x[:, 0], y, z[:, 0], u[:, 0]))[:, None],
        phi_x=lambda x: _as_batch(phi_x(x[:, 0]))[:, None],
        b_xx=lambda t, x, u: wrap2(b_xx)(t, x, u)[:, None, None, None],
        sigma_xx=lambda t, x, u: wrap2(sigma_xx)(t, x, u)[:, None, None, None, None],
        f_hess=shaped_f_hess,
        phi_xx=lambda x: _as_batch(phi_xx(x[:, 0]))[:, None, None],
        b_u=None if b_u is None else (lambda t, x, u: wrap2(b_u)(t, x, u)[:, None, None]),
        sigma_u=None
        if sigma_u is None
        else (lambda t, x, u: wrap2(sigma_u)(t, x, u)[:, None, None, None]),
        f_u=None
        if f_u is None
        else (lambda t, x, y, z, u: _as_batch(f_u(t, x[:, 0], y, z[:, 0], u[:, 0]))[:, None]),
        **kwargs,
    )


def benchmark_model() -> ModelSpec:
    """Smooth scalar test model with controlled drift and diffusion.

    b = 0.1 x + u, sigma = 0.2 x + u, f = -0.1 y + 0.1 sin z + u^2,
    phi = tanh, control domain [-1, 1].
    """
    return scalar_model(
        b=lambda t, x, u: 0.1 * x + u,
        b_x=lambda t, x, u: np.full_like(x, 0.1),
        sigma=lambda t, x, u: 0.2 * x + u,
        sigma_x=lambda t, x, u: np.full_like(x, 0.2),
        f=lambda t, x, y, z, u: -0.1 * y + 0.1 * np.sin(z) + u**2,
        f_x=lambda t, x, y, z, u: np.zeros_like(x),
        f_y=lambda t, x, y, z, u: np.full_like(y, -0.1),
        f_z=lambda t, x, y, z, u: 0.1 * np.cos(z),
        f_zz=lambda t, x, y, z, u: -0.1 * np.sin(z),
        phi=np.tanh,
        phi_x=lambda x: 1.0 - np.tanh(x) ** 2,
        phi_xx=lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2),
        b_u=lambda t, x, u: np.ones_like(x),
        sigma_u=lambda t, x, u: np.ones_like(x),
        f_u=lambda t, x, y, z, u: 2.0 * u,
        alpha=1.1,
        gamma=0.1,
        l1=2.0,
        l2=2.0,
        l3=0.1,
        l4=2.0,
        phi_bound=1.0,
        f_y_bound=0.1,
        control_domain=ControlDomain("box", (-1.0, 1.0)),
        name="benchmark",
    )


def validate_derivatives(
    model: ModelSpec,
    seed: int = 0,
    n_probes: int = 64,
    step: float = 1e-5,
    rel_tol: float = 1e-4,
) -> None:
    """Check supplied derivatives against central differences at random probes.

    Also spot-checks |f(t, x, 0, 0, u)| <= alpha and |f_z| <= l3 + gamma |z|.
    Raises ValueError on the first disagreement.
    """
    rng = np.random.default_rng(seed)
    m, n, d, k = n_probes, model.n, model.d, model.k
    t = 0.37
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    z = rng.standard_normal((m, d))
    if model.control_domain is not None:
        u = model.control_domain.sample(rng, m, k)
    else:
        u = rng.standard_normal((m, k))
    h = step

    def compare(tag, supplied, fd):
        err = np.abs(supplied - fd)
        tol = rel_tol * (1.0 + np.abs(supplied))
        if np.any(err > tol):
            worst = float((err - tol).max())
            raise ValueError(f"derivative check failed for {tag} (excess {worst:.3e})")

    def shift(a, j, delta):
        out = a.copy()
        out[:, j] += delta
        return out

    # first order in x
    fd_bx = np.stack(
        [(model.b(t, shift(x, j, h), u) - model.b(t, shift(x, j, -h), u)) / (2 * h) for j in range(n)],
        axis=2,
    )
    compare("b_x", model.b_x(t, x, u), fd_bx)
    fd_sx = np.stack(
        [
            (model.sigma(t, shift(x, j, h), u) - model.sigma(t, shift(x, j, -h), u)) / (2 * h)
            for j in range(n)
        ],
        axis=3,
    )  # (m, n, d, n) -> reorder to (m, d, n, n)
    compare("sigma_x", model.sigma_x(t, x, u), np.transpose(fd_sx, (0, 2, 1, 3)))
    fd_fx = np.stack(
        [(model.f(t, shift(x, j, h), y, z, u) - model.f(t, shift(x, j, -h), y, z, u)) / (2 * h) for j in range(n)],
        axis=1,
    )
    compare("f_x", model.f_x(t, x, y, z, u), fd_fx)
    compare(
        "f_y",
        model.f_y(t, x, y, z, u),
        (model.f(t, x, y + h, z, u) - model.f(t, x, y - h, z, u)) / (2 * h),
    )
    fd_fz = np.stack(
        [(model.f(t, x, y, shift(z, j, h), u) - model.f(t, x, y, shift(z, j, -h), u)) / (2 * h) for j in range(d)],
        axis=1,
    )
    compare("f_z", model.f_z(t, x, y, z, u), fd_fz)
    fd_phix = np.stack(
        [(model.phi(shift(x, j, h)) - model.phi(shift(x, j, -h))) / (2 * h) for j in range(n)],
        axis=1,
    )
    compare("phi_x", model.phi_x(x), fd_phix)

    # second order: differentiate the supplied first derivatives
    fd_bxx = np.stack(
        [(model.b_x(t, shift(x, j, h), u) - model.b_x(t, shift(x, j, -h), u)) / (2 * h) for j in range(n)],
        axis=3,
    )
    compare("b_xx", model.b_xx(t, x, u), fd_bxx)
    fd_sxx = np.stack(
        [
            (model.sigma_x(t, shift(x, j, h), u) - model.sigma_x(t, shift(x, j, -h), u)) / (2 * h)
            for j in range(n)
        ],
        axis=4,
    )  # (m, d, n, n, n); sigma_xx is (m, n, d, n, n)
    compare("sigma_xx", model.sigma_xx(t, x, u), np.transpose(fd_sxx, (0, 2, 1, 3, 4)))
    fd_phixx = np.stack(
        [(model.phi_x(shift(x, j, h)) - model.phi_x(shift(x, j, -h))) / (2 * h) for j in range(n)],
        axis=2,
    )
    compare("phi_xx", model.phi_xx(x), fd_phixx)

    def grad_xyz(tt, xx, yy, zz, uu):
        return np.concatenate(
            [
                model.f_x(tt, xx, yy, zz, uu),
                model.f_y(tt, xx, yy, zz, uu)[:, None],
                model.f_z(tt, xx, yy, zz, uu),
            ],
            axis=1,
        )

    cols = []
    for j in range(n):
        cols.append((grad_xyz(t, shift(x, j, h), y, z, u) - grad_xyz(t, shift(x, j, -h), y, z, u)) / (2 * h))
    cols.append((grad_xyz(t, x, y + h, z, u) - grad_xyz(t, x, y - h, z, u)) / (2 * h))
    for j in range(d):
        cols.append((grad_xyz(t, x, y, shift(z, j, h), u) - grad_xyz(t, x, y, shift(z, j, -h), u)) / (2 * h))
    compare("f_hess", model.f_hess(t, x, y, z, u), np.stack(cols, axis=2))

    # control derivatives, when the model declares them
    if model.b_u is not None:
        fd_bu = np.stack(
            [(model.b(t, x, shift(u, j, h)) - model.b(t, x, shift(u, j, -h))) / (2 * h) for j in range(k)],
            axis=2,
        )
        compare("b_u", model.b_u(t, x, u), fd_bu)
    if model.sigma_u is not None:
        fd_su = np.stack(
            [(model.sigma(t, x, shift(u, j, h)) - model.sigma(t, x, shift(u, j, -h))) / (2 * h) for j in range(k)],
            axis=3,
        )
        compare("sigma_u", model.sigma_u(t, x, u), np.transpose(fd_su, (0, 2, 1, 3)))
    if model.f_u is not None:
        fd_fu = np.stack(
            [(model.f(t, x, y, z, shift(u, j, h)) - model.f(t, x, y, z, shift(u, j, -h))) / (2 * h) for j in range(k)],
            axis=1,
        )
        compare("f_u", model.f_u(t, x, y, z, u), fd_fu)

    # structural bounds, spot-checked on the probe cloud
    f0 = model.f(t, x, np.zeros(m), np.zeros((m, d)), u)
    if np.any(np.abs(f0) > model.alpha + 1e-9):
        raise ValueError(f"|f(t,x,0,0,u)| exceeds alpha={model.alpha}")
    fz = np.sqrt(np.sum(model.f_z(t, x, y, z, u) ** 2, axis=1))
    growth = model.l3 + model.gamma * np.sqrt(np.sum(z**2, axis=1))
    if np.any(fz > growth + 1e-9):
        raise ValueError(f"|f_z| exceeds l3 + gamma |z| for model {model.name}")
