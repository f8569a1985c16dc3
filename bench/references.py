"""References computed apart from the program, for the output checks."""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import expm, solve_banded


def _unit_control_pde(nx: int, nt: int, span: float = 10.0) -> float:
    """v(0, 0) of v_t + v_xx/2 + g(v_x) + 1 = 0, v(1, x) = arctan x, with
    g(z) = z(|z| - 1/2): the cost of the unit control in the solvable example
    (X = W, generator g(z) + u^2).

    Backward Euler in time to tau = 1 - t, implicit diffusion and explicit
    g(v_x) on a uniform grid over [-span, span]; the edge nodes follow
    v_tau = g(v_x) + 1, which leaves v(0, 0) unchanged to 1e-6 at span 10.
    """
    x = np.linspace(-span, span, nx)
    dx = x[1] - x[0]
    dtau = 1.0 / nt
    r = 0.5 * dtau / dx**2
    banded = np.zeros((3, nx))
    banded[0, 2:] = -r
    banded[1, :] = 1.0 + 2.0 * r
    banded[2, :-2] = -r
    banded[1, 0] = banded[1, -1] = 1.0
    v = np.arctan(x)
    for _ in range(nt):
        vx = np.gradient(v, dx)
        v = solve_banded((1, 1), banded, v + dtau * (vx * (np.abs(vx) - 0.5) + 1.0))
    return float(np.interp(0.0, x, v))


@functools.cache
def unit_control_value() -> float:
    """The PDE value on a fine grid, after checking it is steady under refinement."""
    coarse = _unit_control_pde(2001, 1000)
    fine = _unit_control_pde(4001, 2000)
    if abs(fine - coarse) > 2e-4:
        raise RuntimeError(f"PDE reference not steady under refinement: {coarse} vs {fine}")
    return fine


def matrix_exponential_targets(a, xi, n_steps: int, nodes) -> dict:
    """E[Y_{t_k}] = expm(A'(1 - t_k)) xi for the constant-coefficient equation
    dY = -A'Y dt + Z dW (no source term), whose mean the matrix flow represents."""
    a, xi = np.asarray(a, dtype=float), np.asarray(xi, dtype=float)
    return {k: (expm(a.T * (1.0 - k / n_steps)) @ xi).tolist() for k in nodes}
