"""Time grids, Brownian ensembles and control processes.

Array conventions used throughout the package:

* node processes (states, Y-components, adjoint p/P, weights) have shape
  ``(n_paths, n_steps + 1, ...)`` and live on the grid nodes ``t_0 .. t_N``;
* step processes (controls, Z-components, adjoint q/Q, coefficients of
  backward equations) have shape ``(n_paths, n_steps, ...)`` and are read at
  the left endpoint of each grid cell;
* Brownian increments have shape ``(n_paths, n_steps, d)``.

Every node and step process the package allocates is stored step-major:
``step_major`` orders the memory ``(n_steps, n_paths, ...)`` and hands out
the transposed ``(n_paths, n_steps, ...)`` view, so the per-step slice
``a[:, k]`` that every recursion reads is one contiguous block. Functions
accept inputs in any layout; only their own allocations follow this order.
A coefficient that is constant along the candidate is stored once instead:
``adjoint.linearize`` hands it out as a broadcast view of its one value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "BrownianEnsemble",
    "step_major",
    "cumsum_steps",
    "generate_brownian",
    "constant_control",
]


def step_major(shape, fill=None) -> np.ndarray:
    """An (n_paths, n_steps, ...) float array stored as (n_steps, n_paths, ...).

    Uninitialized when fill is None, else filled with it: a scalar, or an
    array in any layout that broadcasts to shape.
    """
    out = np.empty((shape[1], shape[0]) + tuple(shape[2:])).swapaxes(0, 1)
    if fill is not None:
        out[...] = fill
    return out


def cumsum_steps(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=1, out=out) by one np.add per step: the same adds in
    the same order, so bit-identical, each on one contiguous block of
    step-major storage, where np.cumsum runs across the strided step axis."""
    out[:, 0] = a[:, 0]
    for k in range(1, a.shape[1]):
        np.add(out[:, k - 1], a[:, k], out=out[:, k])
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n_steps cells."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a node time t; raises if t is off-grid."""
        k = t / self.dt
        k_round = int(round(k))
        if not (0 <= k_round <= self.n_steps) or abs(k - k_round) > 1e-9 * max(1, abs(k)):
            raise ValueError(f"time {t} is not a node of the grid (dt={self.dt})")
        return k_round


@dataclass(frozen=True)
class BrownianEnsemble:
    """Seeded i.i.d. Gaussian increments of a d-dimensional Brownian motion."""

    grid: TimeGrid
    dim: int
    seed: int
    increments: np.ndarray = field(repr=False)  # (n_paths, n_steps, dim)

    def __post_init__(self) -> None:
        expected = (self.n_paths, self.grid.n_steps, self.dim)
        if self.increments.shape != expected:
            raise ValueError(f"increments shape {self.increments.shape}, expected {expected}")

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    def paths(self) -> np.ndarray:
        """Brownian node values W_{t_k}, shape (n_paths, n_steps+1, dim)."""
        w = step_major((self.n_paths, self.grid.n_steps + 1, self.dim), 0.0)
        cumsum_steps(self.increments, out=w[:, 1:])
        return w


def generate_brownian(n_paths: int, grid: TimeGrid, d: int, seed: int) -> BrownianEnsemble:
    """Draw a reproducible ensemble; increments are N(0, dt) per coordinate."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((n_paths, grid.n_steps, d))
    dw = step_major(draw.shape, draw)
    dw *= np.sqrt(grid.dt)
    return BrownianEnsemble(grid=grid, dim=d, seed=seed, increments=dw)


def constant_control(value, n_paths: int, n_steps: int) -> np.ndarray:
    """Step process equal to a constant control value, shape (n_paths, n_steps, k)."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return step_major((n_paths, n_steps, v.shape[-1]), v)
