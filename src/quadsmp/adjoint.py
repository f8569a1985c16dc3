"""First and second-order adjoint equations along a candidate trajectory.

``linearize`` evaluates the derivatives of the system along the candidate once;
the adjoint equations here and the spike pieces read them from that one
Linearization. The first-order pair (p, q) solves an n-dimensional linear
backward equation whose coefficients are those derivatives; the second-order
pair (P, Q) solves the matrix-valued analogue, vectorized on the symmetric
subspace with sqrt(2)-scaled off-diagonal coordinates so Frobenius inner
products are preserved. Its coefficients are Kronecker sums of the same
derivatives, written in those coordinates through one constant embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bsde import ControlledTrajectory, MultiLinearBsdeData, solve_multidim_linear_bsde
from .grids import step_major
from .models import COEFFICIENTS, ModelSpec, coefficient_shape, evaluate

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


def _svec_basis(n: int) -> np.ndarray:
    """U, (n*n, n(n+1)/2), orthonormal columns, U v = vec(unsvec(v)) with row-major vec.

    Column r is 1 at (i, i), or 1/sqrt(2) at (i, j) and (j, i), for the r-th pair
    i <= j in row-major order.
    """
    i, j = np.triu_indices(n)
    r = np.arange(i.size)
    basis = np.zeros((n, n, i.size))
    basis[i, j, r] = basis[j, i, r] = np.where(i == j, 1.0, np.sqrt(0.5))
    return basis.reshape(n * n, i.size)


def svec(s: np.ndarray) -> np.ndarray:
    """Symmetric (..., n, n) -> (..., n(n+1)/2), isometric for Frobenius."""
    n = s.shape[-1]
    return s.reshape(s.shape[:-2] + (n * n,)) @ _svec_basis(n)


def unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec; output is exactly symmetric."""
    return (v @ _svec_basis(n).T).reshape(v.shape[:-1] + (n, n))


@dataclass(frozen=True)
class Linearization:
    """Coefficients and their derivatives along one candidate trajectory, per step.

    Each array field is the model callable of that name at every step, shaped
    (m, N) followed by its value axes in ``models.COEFFICIENTS``: step-major
    storage, or, for a field that holds one value at every path and step, a
    broadcast view of that value. Built once by ``linearize`` and shared
    read-only by the adjoint equations and every spike window.
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
    points = [
        {"t": t, "x": traj.x[:, k], "y": traj.y[:, k], "z": traj.z[:, k], "u": traj.u[:, k]}
        for k, t in enumerate(grid.times[: grid.n_steps])
    ]
    steps = {}
    for f in fields(Linearization):  # one field at a time: it is collapsed before the next is allocated
        if f.name not in COEFFICIENTS:
            continue
        arr = step_major((traj.n_paths, grid.n_steps) + coefficient_shape(model, f.name))
        for k, point in enumerate(points):
            arr[:, k] = evaluate(model, f.name, point)
        bits = arr.view(np.uint64)  # bit-exact: keeps -0.0 apart from +0.0, NaN equal to itself
        if (bits == bits[0, 0]).all():  # one value along the candidate: store it once
            arr = np.broadcast_to(arr[0, 0].copy(), arr.shape)  # a view of arr would keep it alive
        else:
            arr.flags.writeable = False  # shared, read-only, by every spike window
        steps[f.name] = arr
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


def _distinct(a: np.ndarray) -> np.ndarray:
    """a with its path and step axes cut to length 1 where its stride there is 0:
    each value of a broadcast field once, for the result to be broadcast back."""
    return a[tuple(slice(None, 1) if s == 0 else slice(None) for s in a.strides[:2])]


def assemble_first_order(lin: Linearization) -> MultiLinearBsdeData:
    """Linear data of the first-order adjoint equation.

    Y-coefficient transpose: sum_i f_{z_i} (sigma_x^i)' + f_y I + b_x';
    Z^i-coefficient transpose: f_{z_i} I + (sigma_x^i)'; driver f_x; terminal
    phi_x at the trajectory endpoint. The Y-coefficient is a broadcast view
    wherever all of its inputs are.
    """
    eye = np.eye(lin.model.n)
    f_z, sigma_x, f_y, b_x = (_distinct(x) for x in (lin.f_z, lin.sigma_x, lin.f_y, lin.b_x))
    a = np.einsum("mtd,mtdij->mtij", f_z, sigma_x) + f_y[:, :, None, None] * eye + b_x
    return MultiLinearBsdeData(
        a=np.broadcast_to(a, lin.b_x.shape),
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
    source = np.einsum("mtijk,mti->mtjk", lin.b_xx, p_steps, out=step_major((m, n_steps, n, n)))
    coef = lin.f_z[:, :, None, :] * p_steps[:, :, :, None] + q
    source += np.einsum("mtidjk,mtid->mtjk", lin.sigma_xx, coef)
    upsilon = upsilon_process(lin, p, q)
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    # Hess(f) is contracted step by step, so one (m, n+1+d, n+1+d) block is live at a time
    for k in range(n_steps):
        jac = np.concatenate([eye, p_steps[:, k, :, None], upsilon[:, k]], axis=2)  # (m, n, n+1+d)
        f_hess = model.f_hess(times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k])
        source[:, k] += np.einsum("mia,mab,mjb->mij", jac, f_hess, jac)
    return source


def _second_order_operators(
    f_y: np.ndarray, f_z: np.ndarray, b_x: np.ndarray, sigma_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Y- and Z-coefficients of the (P, Q) equation in svec coordinates.

    f_y: (..., ); f_z: (..., d); b_x: (..., n, n); sigma_x: (..., d, n, n).
    With M = (f_y/2) I + sum_i f_{z_i} (sigma_x^i)' + b_x', the generator's
    P-term S -> M S + S M' + sum_i (sigma_x^i)' S sigma_x^i has the row-major
    Kronecker matrix K_P = M (x) I + I (x) M + sum_i (sigma_x^i)' (x) (sigma_x^i)';
    beyond f_{z_i} S, the Q^i-term S -> (sigma_x^i)' S + S sigma_x^i has
    K_Q^i = (sigma_x^i)' (x) I + I (x) (sigma_x^i)'. In svec coordinates a map
    with Kronecker matrix K is U'KU; the solver takes the transposes.
    Returns a: (..., s, s) and c: (..., d, s, s) with s = n(n+1)/2, each a
    broadcast view on the leading (path and step) axes where all inputs are.
    """
    n = b_x.shape[-1]
    batch = np.broadcast_shapes(f_y.shape, f_z.shape[:-1], b_x.shape[:-2], sigma_x.shape[:-3])
    f_y, f_z, b_x, sigma_x = (_distinct(x) for x in (f_y, f_z, b_x, sigma_x))
    u = _svec_basis(n)
    eye = np.eye(n)
    sig_t = np.swapaxes(sigma_x, -1, -2)
    big_m = 0.5 * f_y[..., None, None] * eye + np.einsum("...d,...dij->...ij", f_z, sig_t)
    big_m = big_m + np.swapaxes(b_x, -1, -2)

    def kron(x, y):
        k = x[..., :, None, :, None] * y[..., None, :, None, :]
        return k.reshape(k.shape[:-4] + (n * n, n * n))

    k_p = kron(big_m, eye) + kron(eye, big_m) + kron(sig_t, sig_t).sum(axis=-3)
    k_q = kron(sig_t, eye) + kron(eye, sig_t)
    a, c = (np.swapaxes(u.T @ k @ u, -1, -2) for k in (k_p, k_q))
    return np.broadcast_to(a, batch + a.shape[-2:]), np.broadcast_to(c, batch + c.shape[-3:])


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
    n = model.n
    a, c = _second_order_operators(lin.f_y, lin.f_z, lin.b_x, lin.sigma_x)
    driver = svec(assemble_second_order_source(lin, p, q))
    data = MultiLinearBsdeData(
        a=a,
        beta=lin.f_z,
        c=c,
        driver=step_major(driver.shape, driver),
        xi=svec(model.phi_xx(traj.x[:, -1])),
        state=traj.x,
    )
    del a, c, driver  # the step-major copy is the one the solve reads
    pv, qv = solve_multidim_linear_bsde(data, traj.w, degree=degree)[:2]
    del data
    # one at a time into step-major storage: pv is released before Q is built
    big_p = unsvec(pv, n)
    big_p = step_major(big_p.shape, big_p)
    del pv
    big_q = np.moveaxis(unsvec(np.swapaxes(qv, 2, 3), n), 2, -1)
    return big_p, step_major(big_q.shape, big_q)


def solve_adjoints(lin: Linearization, degree: int = 2) -> AdjointBundle:
    """Full bundle (p, q, P, Q) along the candidate trajectory."""
    p, q = solve_first_order(lin, degree=degree)
    big_p, big_q = solve_second_order(lin, p, q, degree=degree)
    return AdjointBundle(p=p, q=q, big_p=big_p, big_q=big_q)
