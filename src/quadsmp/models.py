"""Coefficient bundles for the controlled forward-backward system.

A ModelSpec carries the drift b, diffusion sigma, generator f and terminal
map phi together with their first and second derivatives and the structural
constants of the admissible class. All callables are vectorized over a batch
axis m, with arguments t (a float), x: (m, n), y: (m,), z: (m, d) and
u: (m, k). ``COEFFICIENTS`` states each callable's arguments and the axes of
its value after the batch axis; ``scalar_model``, ``validate_derivatives``
and ``adjoint.linearize`` read both from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "ControlDomain",
    "ModelSpec",
    "Coefficient",
    "COEFFICIENTS",
    "coefficient_shape",
    "evaluate",
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
        with np.errstate(over="ignore"):  # an infinite level clips nothing
            y_bound = (self.phi_bound + self.alpha * horizon) * np.exp(self.f_y_bound * horizon)
            return 2.0 * (1.0 + self.l3 + self.gamma * y_bound) * max(1.0, y_bound)


class Coefficient(NamedTuple):
    """A ModelSpec callable's arguments, in call order, and the axes of its
    value after the batch axis: n, d, k, or h = n + 1 + d for (x, y, z)."""

    args: tuple
    axes: str


_X = ("x",)
_TXU = ("t", "x", "u")
_TXYZU = ("t", "x", "y", "z", "u")

COEFFICIENTS = {
    "b": Coefficient(_TXU, "n"),
    "sigma": Coefficient(_TXU, "nd"),  # column i is the loading on W^i
    "f": Coefficient(_TXYZU, ""),
    "phi": Coefficient(_X, ""),
    "b_x": Coefficient(_TXU, "nn"),  # [i, j] = d b^i / d x_j
    "sigma_x": Coefficient(_TXU, "dnn"),  # [i] = Jacobian of column i
    "f_x": Coefficient(_TXYZU, "n"),
    "f_y": Coefficient(_TXYZU, ""),
    "f_z": Coefficient(_TXYZU, "d"),
    "phi_x": Coefficient(_X, "n"),
    "b_xx": Coefficient(_TXU, "nnn"),  # [i] = Hessian of b^i
    "sigma_xx": Coefficient(_TXU, "ndnn"),  # [i, j] = Hessian of sigma^{ij}
    "f_hess": Coefficient(_TXYZU, "hh"),  # Hessian in (x, y, z)
    "phi_xx": Coefficient(_X, "nn"),
    "b_u": Coefficient(_TXU, "nk"),
    "sigma_u": Coefficient(_TXU, "dnk"),  # [i] = control Jacobian of column i
    "f_u": Coefficient(_TXYZU, "k"),
}


def coefficient_shape(model: ModelSpec, name: str) -> tuple:
    """Shape of the named callable's value after the batch axis, for this model."""
    size = {"n": model.n, "d": model.d, "k": model.k, "h": model.n + 1 + model.d}
    return tuple(size[axis] for axis in COEFFICIENTS[name].axes)


def evaluate(model: ModelSpec, name: str, point: dict) -> np.ndarray:
    """The named callable at point, a dict that holds its arguments by name."""
    return getattr(model, name)(*(point[arg] for arg in COEFFICIENTS[name].args))


def _as_batch(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    return a if a.ndim > 0 else a[None]


# per argument family: (scalar callable g, value index e) -> callable on (m, 1) arrays
_SCALAR_WRAPPERS = {
    _X: lambda g, e: lambda x: _as_batch(g(x[:, 0]))[e],
    _TXU: lambda g, e: lambda t, x, u: _as_batch(g(t, x[:, 0], u[:, 0]))[e],
    _TXYZU: lambda g, e: lambda t, x, y, z, u: _as_batch(g(t, x[:, 0], y, z[:, 0], u[:, 0]))[e],
}

# entries of the scalar generator's second derivatives in its (x, y, z) Hessian
_SCALAR_HESSIAN = {"f_xx": (0, 0), "f_xy": (0, 1), "f_xz": (0, 2), "f_yy": (1, 1), "f_yz": (1, 2), "f_zz": (2, 2)}


def scalar_model(**fields) -> ModelSpec:
    """Build a one-dimensional (n = d = k = 1) ModelSpec from scalar callables.

    Every callable of the table but f_hess takes and returns flat float
    arrays; f_hess is assembled from f_xx, f_xy, f_xz, f_yy, f_yz and f_zz.
    Omitted second derivatives default to zero; the other fields pass through.
    """
    pieces = [(ij, fields.pop(name, None)) for name, ij in _SCALAR_HESSIAN.items()]

    def f_hess(t, x, y, z, u):
        h = np.zeros((x.shape[0], 3, 3))
        for (i, j), g in pieces:
            if g is not None:
                h[:, i, j] = h[:, j, i] = g(t, x[:, 0], y, z[:, 0], u[:, 0])
        return h

    zero = lambda t, x, u: np.zeros_like(x)
    fields["b_xx"] = fields.get("b_xx") or zero
    fields["sigma_xx"] = fields.get("sigma_xx") or zero
    for name, (args, axes) in COEFFICIENTS.items():
        if fields.get(name) is not None:
            fields[name] = _SCALAR_WRAPPERS[args](fields[name], (slice(None),) + (None,) * len(axes))
    return ModelSpec(n=1, d=1, k=1, f_hess=f_hess, **fields)


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
        phi_bound=1.0,
        f_y_bound=0.1,
        control_domain=ControlDomain("box", (-1.0, 1.0)),
        name="benchmark",
    )


# (supplied derivative, callables it differentiates, variables), in check order;
# f_hess differentiates the joined gradient (f_x, f_y, f_z) in (x, y, z)
_DERIVATIVE_CHECKS = (
    ("b_x", "b", "x"),
    ("sigma_x", "sigma", "x"),
    ("f_x", "f", "x"),
    ("f_y", "f", "y"),
    ("f_z", "f", "z"),
    ("phi_x", "phi", "x"),
    ("b_xx", "b_x", "x"),
    ("sigma_xx", "sigma_x", "x"),
    ("phi_xx", "phi_x", "x"),
    ("f_hess", "f_x f_y f_z", "xyz"),
    ("b_u", "b", "u"),
    ("sigma_u", "sigma", "u"),
    ("f_u", "f", "u"),
)


def validate_derivatives(model: ModelSpec, n_probes: int = 64) -> None:
    """Check supplied derivatives against central differences at random probes.

    Also spot-checks |f(t, x, 0, 0, u)| <= alpha and |f_z| <= l3 + gamma |z|.
    Raises ValueError on the first disagreement; b_u, sigma_u and f_u are
    checked when the model declares them.
    """
    rng = np.random.default_rng(0)
    m, d, k = n_probes, model.d, model.k
    point = {
        "t": 0.37,
        "x": rng.standard_normal((m, model.n)),
        "y": rng.standard_normal(m),
        "z": rng.standard_normal((m, d)),
    }
    domain = model.control_domain
    point["u"] = domain.sample(rng, m, k) if domain is not None else rng.standard_normal((m, k))
    h, rel_tol = 1e-5, 1e-4

    def joined(names, at):
        values = [evaluate(model, name, at) for name in names]
        return values[0] if len(values) == 1 else np.concatenate([v.reshape(m, -1) for v in values], axis=1)

    def shifted(var, j, delta):
        moved = point[var].copy()
        moved.reshape(m, -1)[:, j] += delta
        return {**point, var: moved}

    def central(names, variables):
        """Central differences in every coordinate of the variables, on a new last axis."""
        cols = [
            (joined(names, shifted(var, j, h)) - joined(names, shifted(var, j, -h))) / (2 * h)
            for var in variables
            for j in range(point[var].reshape(m, -1).shape[1])
        ]
        return np.stack(cols, axis=-1)

    for name, names, variables in _DERIVATIVE_CHECKS:
        if getattr(model, name) is None:
            continue
        fd = central(names.split(), variables)
        if name.startswith("sigma"):  # the sigma family leads with the column index
            fd = np.swapaxes(fd, 1, 2)
        fd = fd.reshape((m,) + coefficient_shape(model, name))
        supplied = evaluate(model, name, point)
        err = np.abs(supplied - fd)
        tol = rel_tol * (1.0 + np.abs(supplied))
        if np.any(err > tol):
            worst = float((err - tol).max())
            raise ValueError(f"derivative check failed for {name} (excess {worst:.3e})")

    # structural bounds, spot-checked on the probe cloud
    t, x, y, z, u = (point[arg] for arg in _TXYZU)
    f0 = model.f(t, x, np.zeros(m), np.zeros((m, d)), u)
    if np.any(np.abs(f0) > model.alpha + 1e-9):
        raise ValueError(f"|f(t,x,0,0,u)| exceeds alpha={model.alpha}")
    fz = np.sqrt(np.sum(model.f_z(t, x, y, z, u) ** 2, axis=1))
    growth = model.l3 + model.gamma * np.sqrt(np.sum(z**2, axis=1))
    if np.any(fz > growth + 1e-9):
        raise ValueError(f"|f_z| exceeds l3 + gamma |z| for model {model.name}")
