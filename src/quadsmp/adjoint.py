"""First and second-order adjoint equations along a candidate trajectory.

``linearize`` evaluates the derivatives of the system along the candidate once;
the adjoint equations here and the spike pieces read them from that one
Linearization. The first-order pair (p, q) solves an n-dimensional linear
backward equation whose coefficients are those derivatives; the second-order
pair (P, Q) solves the matrix-valued analogue, vectorized on the symmetric
subspace with sqrt(2)-scaled off-diagonal coordinates so Frobenius inner
products are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import ControlledTrajectory, MultiLinearBsdeData, solve_multidim_linear_bsde
from .models import ModelSpec

__all__ = [
    "Linearization",
    "linearize",
    "AdjointBundle",
    "svec",
    "unsvec",
    "assemble_first_order",
    "solve_first_order",
    "upsilon_process",
    "assemble_second_order_source",
    "solve_second_order",
    "solve_adjoints",
]


def _svec_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def svec(s: np.ndarray) -> np.ndarray:
    """Symmetric (..., n, n) -> (..., n(n+1)/2), isometric for Frobenius."""
    n = s.shape[-1]
    cols = []
    for i, j in _svec_pairs(n):
        cols.append(s[..., i, j] * (1.0 if i == j else np.sqrt(2.0)))
    return np.stack(cols, axis=-1)


def unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec; output is exactly symmetric."""
    out = np.zeros(v.shape[:-1] + (n, n))
    for r, (i, j) in enumerate(_svec_pairs(n)):
        if i == j:
            out[..., i, j] = v[..., r]
        else:
            out[..., i, j] = out[..., j, i] = v[..., r] / np.sqrt(2.0)
    return out


def _operator_on_svec(linmap, n: int, batch_shape: tuple) -> np.ndarray:
    """Matrix of a symmetric-to-symmetric linear map in svec coordinates.

    linmap takes a batched symmetric (..., n, n) and returns the same shape;
    the result op satisfies op @ svec(S) = svec(linmap(S)).
    """
    s_dim = n * (n + 1) // 2
    op = np.empty(batch_shape + (s_dim, s_dim))
    basis = np.eye(s_dim)
    for r in range(s_dim):
        e = unsvec(basis[r], n)
        image = linmap(np.broadcast_to(e, batch_shape + (n, n)))
        op[..., :, r] = svec(image)
    return op


@dataclass(frozen=True)
class Linearization:
    """Coefficients and their derivatives along one candidate trajectory, per step.

    b: (m, N, n); sigma: (m, N, n, d); f: (m, N); b_x: (m, N, n, n);
    sigma_x: (m, N, d, n, n); b_xx: (m, N, n, n, n); sigma_xx: (m, N, n, d, n, n);
    f_x: (m, N, n); f_y: (m, N); f_z: (m, N, d). Built once by ``linearize``
    and shared read-only by the adjoint equations and every spike window.
    """

    model: ModelSpec
    traj: ControlledTrajectory
    b: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    b_x: np.ndarray = field(repr=False)
    sigma_x: np.ndarray = field(repr=False)
    b_xx: np.ndarray = field(repr=False)
    sigma_xx: np.ndarray = field(repr=False)
    f_x: np.ndarray = field(repr=False)
    f_y: np.ndarray = field(repr=False)
    f_z: np.ndarray = field(repr=False)


def linearize(model: ModelSpec, traj: ControlledTrajectory) -> Linearization:
    """Evaluate the model coefficients and derivatives along the candidate (x, y, z, u)."""
    grid = traj.w.grid
    n, d = model.n, model.d
    shapes = {
        "b": (n,),
        "sigma": (n, d),
        "f": (),
        "b_x": (n, n),
        "sigma_x": (d, n, n),
        "b_xx": (n, n, n),
        "sigma_xx": (n, d, n, n),
        "f_x": (n,),
        "f_y": (),
        "f_z": (d,),
    }
    steps = {name: np.empty((traj.n_paths, grid.n_steps) + s) for name, s in shapes.items()}
    times = grid.times
    for k in range(grid.n_steps):
        t, xk, uk = times[k], traj.x[:, k], traj.u[:, k]
        for name in ("b", "sigma", "b_x", "sigma_x", "b_xx", "sigma_xx"):
            steps[name][:, k] = getattr(model, name)(t, xk, uk)
        for name in ("f", "f_x", "f_y", "f_z"):
            steps[name][:, k] = getattr(model, name)(t, xk, traj.y[:, k], traj.z[:, k], uk)
    for arr in steps.values():  # shared across spike windows and threads
        arr.flags.writeable = False
    return Linearization(model=model, traj=traj, **steps)


@dataclass(frozen=True)
class AdjointBundle:
    """Adjoint processes along one candidate trajectory.

    p: (m, N+1, n); q: (m, N, n, d); big_p: (m, N+1, n, n) symmetric;
    big_q: (m, N, n, n, d).
    """

    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    big_p: np.ndarray = field(repr=False)
    big_q: np.ndarray = field(repr=False)


def assemble_first_order(lin: Linearization) -> MultiLinearBsdeData:
    """Linear data of the first-order adjoint equation.

    Y-coefficient transpose: sum_i f_{z_i} (sigma_x^i)' + f_y I + b_x';
    Z^i-coefficient transpose: f_{z_i} I + (sigma_x^i)'; driver f_x; terminal
    phi_x at the trajectory endpoint.
    """
    eye = np.eye(lin.model.n)
    a = (
        np.einsum("mtd,mtdij->mtij", lin.f_z, lin.sigma_x)
        + lin.f_y[:, :, None, None] * eye
        + lin.b_x
    )
    return MultiLinearBsdeData(
        a=a,
        beta=lin.f_z,
        c=lin.sigma_x,
        driver=lin.f_x,
        xi=lin.model.phi_x(lin.traj.x[:, -1]),
        state=lin.traj.x,
    )


def solve_first_order(lin: Linearization, degree: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Solve for (p, q); p is expected essentially bounded.

    Returns p: (m, N+1, n) and q: (m, N, n, d).
    """
    p, q, _, _ = solve_multidim_linear_bsde(assemble_first_order(lin), lin.traj.w, degree=degree)
    return p, q


def upsilon_process(lin: Linearization, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Columns (sigma_x^i)' p + q^i, shape (m, N, n, d)."""
    n_steps = lin.traj.w.grid.n_steps
    return np.einsum("mtdij,mti->mtjd", lin.sigma_x, p[:, :n_steps]) + q


def assemble_second_order_source(lin: Linearization, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Matrix source of the second-order equation, shape (m, N, n, n).

    sum_i b_xx^i p^i + sum_{i,j} sigma_xx^{ij} (f_{z_j} p^i + q^{ij})
    + (I, p, Upsilon) Hess(f) (I, p, Upsilon)'.
    """
    model, traj = lin.model, lin.traj
    m, n = traj.n_paths, model.n
    times = traj.w.grid.times
    n_steps = traj.w.grid.n_steps
    p_steps = p[:, :n_steps]
    phi1 = np.einsum("mtijk,mti->mtjk", lin.b_xx, p_steps)
    coef = lin.f_z[:, :, None, :] * p_steps[:, :, :, None] + q
    phi2 = np.einsum("mtidjk,mtid->mtjk", lin.sigma_xx, coef)
    upsilon = upsilon_process(lin, p, q)
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    # Hess(f) is contracted step by step, so one (m, n+1+d, n+1+d) block is live at a time
    phi3 = np.empty((m, n_steps, n, n))
    for k in range(n_steps):
        jac = np.concatenate([eye, p_steps[:, k, :, None], upsilon[:, k]], axis=2)  # (m, n, n+1+d)
        f_hess = model.f_hess(times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k])
        phi3[:, k] = np.einsum("mia,mab,mjb->mij", jac, f_hess, jac)
    return phi1 + phi2 + phi3


def solve_second_order(
    lin: Linearization,
    p: np.ndarray,
    q: np.ndarray,
    degree: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for (P, Q) in svec coordinates; P stays symmetric by construction.

    Returns big_p: (m, N+1, n, n) and big_q: (m, N, n, n, d).
    """
    model, traj = lin.model, lin.traj
    n, d = model.n, model.d
    n_steps = traj.w.grid.n_steps
    batch = (traj.n_paths, n_steps)
    f_y, f_z, b_x, sigma_x = lin.f_y, lin.f_z, lin.b_x, lin.sigma_x

    def map_for_p(s):
        out = f_y[:, :, None, None] * s
        sig_p = np.einsum("mtdji,mtjk->mtdik", sigma_x, s)  # (sigma_x^i)' S
        out += np.einsum("mtd,mtdik->mtik", f_z, sig_p + np.swapaxes(sig_p, 3, 4))
        bx_p = np.einsum("mtji,mtjk->mtik", b_x, s)  # b_x' S
        out += bx_p + np.swapaxes(bx_p, 2, 3)
        out += np.einsum("mtdji,mtjk,mtdkl->mtil", sigma_x, s, sigma_x)
        return out

    def map_for_q(i):
        def g(s):
            sig_q = np.einsum("mtji,mtjk->mtik", sigma_x[:, :, i], s)
            return f_z[:, :, i, None, None] * s + sig_q + np.swapaxes(sig_q, 2, 3)

        return g

    a_transpose = _operator_on_svec(map_for_p, n, batch)
    a = np.swapaxes(a_transpose, 2, 3)
    s_dim = n * (n + 1) // 2
    beta = f_z
    c = np.empty(batch + (d, s_dim, s_dim))
    for i in range(d):
        gi = map_for_q(i)

        def g_only(s, _g=gi, _fz=f_z[:, :, i]):
            return _g(s) - _fz[:, :, None, None] * s

        c[:, :, i] = np.swapaxes(_operator_on_svec(g_only, n, batch), 2, 3)

    phi_src = assemble_second_order_source(lin, p, q)
    data = MultiLinearBsdeData(
        a=a,
        beta=beta,
        c=c,
        driver=svec(phi_src),
        xi=svec(model.phi_xx(traj.x[:, -1])),
        state=traj.x,
    )
    pv, qv, _, _ = solve_multidim_linear_bsde(data, traj.w, degree=degree)
    big_q = np.stack([unsvec(qv[:, :, :, i], n) for i in range(d)], axis=-1)
    return unsvec(pv, n), big_q


def solve_adjoints(lin: Linearization, degree: int = 2) -> AdjointBundle:
    """Full bundle (p, q, P, Q) along the candidate trajectory."""
    p, q = solve_first_order(lin, degree=degree)
    big_p, big_q = solve_second_order(lin, p, q, degree=degree)
    return AdjointBundle(p=p, q=q, big_p=big_p, big_q=big_q)
