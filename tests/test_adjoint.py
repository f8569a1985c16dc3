"""Adjoint equations: assembly, closed-form oracles, symmetry."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from support import driver_model

from quadsmp.adjoint import (
    assemble_first_order,
    assemble_second_order_source,
    linearize,
    solve_adjoints,
    solve_first_order,
    solve_second_order,
    svec,
    unsvec,
    upsilon_process,
)
from quadsmp.bsde import ControlledTrajectory, solve_bsde_lsmc
from quadsmp.example import example_model
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import benchmark_model, scalar_model
from quadsmp.sde import simulate_forward_sde


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((5, 3, 3))
        s = s + np.swapaxes(s, 1, 2)
        assert unsvec(svec(s), 3) == pytest.approx(s)

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        a, b = a + a.T, b + b.T
        assert float(svec(a) @ svec(b)) == pytest.approx(np.trace(a @ b.T))


def _trajectory(model, x0, n_paths=3000, n_steps=64, seed=7, control=0.0):
    grid = TimeGrid(1.0, n_steps)
    w = generate_brownian(n_paths, grid, model.d, seed)
    u = constant_control(control, n_paths, n_steps)
    x = simulate_forward_sde(model, x0, u, w)
    y, z, _ = solve_bsde_lsmc(model, x, u, w)
    return ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)


def constant_slope_model():
    """All first derivatives constant; the adjoint pair is deterministic."""
    return scalar_model(
        b=lambda t, x, u: 0.2 * x,
        b_x=lambda t, x, u: np.full_like(x, 0.2),
        sigma=lambda t, x, u: 0.3 * x,
        sigma_x=lambda t, x, u: np.full_like(x, 0.3),
        f=lambda t, x, y, z, u: 0.1 * y + 0.25 * z + 0.05 * x,
        f_x=lambda t, x, y, z, u: np.full_like(x, 0.05),
        f_y=lambda t, x, y, z, u: np.full_like(y, 0.1),
        f_z=lambda t, x, y, z, u: np.full_like(z, 0.25),
        phi=lambda x: 0.7 * x,
        phi_x=lambda x: np.full_like(x, 0.7),
        phi_xx=lambda x: np.zeros_like(x),
        alpha=10.0,
        gamma=0.1,
        l1=1.0,
        l2=1.0,
        l3=0.3,
        phi_bound=10.0,
        f_y_bound=0.1,
    )


def quadratic_terminal_model():
    """Zero first derivatives in the dynamics; the pair follows the state."""
    return scalar_model(
        b=lambda t, x, u: np.zeros_like(x),
        b_x=lambda t, x, u: np.zeros_like(x),
        sigma=lambda t, x, u: np.full_like(x, 0.3),
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: 0.05 * x**2,
        f_x=lambda t, x, y, z, u: 0.1 * x,
        f_y=lambda t, x, y, z, u: np.zeros_like(y),
        f_z=lambda t, x, y, z, u: np.zeros_like(z),
        f_xx=lambda t, x, y, z, u: np.full_like(x, 0.1),
        phi=lambda x: 0.2 * x**2,
        phi_x=lambda x: 0.4 * x,
        phi_xx=lambda x: np.full_like(x, 0.4),
        alpha=10.0,
        gamma=0.1,
        l1=1.0,
        l2=1.0,
        l3=0.1,
        phi_bound=10.0,
        f_y_bound=0.1,
    )


class TestLinearization:
    @pytest.mark.parametrize("factory,x0", [(benchmark_model, 1.0), (example_model, 0.0)])
    def test_arrays_equal_per_step_evaluation(self, factory, x0):
        model = factory()
        traj = _trajectory(model, x0, n_paths=300, n_steps=16, seed=8)
        lin = linearize(model, traj)
        assert lin.model is model and lin.traj is traj
        times = traj.w.grid.times
        for k in range(traj.w.grid.n_steps):
            t, xk, yk, zk, uk = times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]
            for name in ("b", "sigma", "b_x", "sigma_x", "b_xx", "sigma_xx"):
                assert np.array_equal(getattr(lin, name)[:, k], getattr(model, name)(t, xk, uk)), name
            for name in ("f", "f_x", "f_y", "f_z"):
                expected = getattr(model, name)(t, xk, yk, zk, uk)
                assert np.array_equal(getattr(lin, name)[:, k], expected), name
        for name in ("b", "sigma", "f", "b_x", "sigma_x", "b_xx", "sigma_xx", "f_x", "f_y", "f_z"):
            assert not getattr(lin, name).flags.writeable, name


class TestFirstOrder:
    def test_zero_derivative_model_constant_pair(self):
        model = driver_model(
            lambda t, x: 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: 2.0 * x, 0.0, 0.0, 0.0, 5.0,
        )
        # phi_x must be the constant 2 for this wiring
        model = scalar_model(
            b=lambda t, x, u: np.zeros_like(x),
            b_x=lambda t, x, u: np.zeros_like(x),
            sigma=lambda t, x, u: np.ones_like(x),
            sigma_x=lambda t, x, u: np.zeros_like(x),
            f=lambda t, x, y, z, u: np.zeros_like(y),
            f_x=lambda t, x, y, z, u: np.zeros_like(x),
            f_y=lambda t, x, y, z, u: np.zeros_like(y),
            f_z=lambda t, x, y, z, u: np.zeros_like(z),
            phi=lambda x: 2.0 * x,
            phi_x=lambda x: np.full_like(x, 2.0),
            phi_xx=lambda x: np.zeros_like(x),
            alpha=1.0, gamma=0.1, l1=1.0, l2=1.0, l3=0.1, phi_bound=5.0, f_y_bound=0.0,
        )
        traj = _trajectory(model, 0.0, n_paths=1000, n_steps=32)
        p, q = solve_first_order(linearize(model, traj))
        assert np.abs(p - 2.0).max() < 1e-8
        assert np.abs(q).max() < 0.05

    def test_example_assembly_constants(self):
        model = example_model()
        traj = _trajectory(model, 0.0, n_paths=200, n_steps=16, seed=3)
        data = assemble_first_order(linearize(model, traj))
        assert np.abs(data.a).max() == 0.0  # f_z sigma_x + f_y I + b_x all vanish
        assert data.beta == pytest.approx(np.full((200, 16, 1), -0.5))  # g'(0)
        assert np.abs(data.c).max() == 0.0
        assert np.abs(data.driver).max() == 0.0
        assert data.xi == pytest.approx(np.ones((200, 1)))  # phi'(0)

    def test_constant_coefficient_ode_oracle(self):
        model = constant_slope_model()
        traj = _trajectory(model, 1.0, n_paths=4000, n_steps=128, seed=11)
        p, q = solve_first_order(linearize(model, traj))

        k_lin = 0.25 * 0.3 + 0.1 + 0.2
        rhs = lambda t, pv: -(k_lin * pv + 0.05)
        sol = solve_ivp(rhs, [1.0, 0.0], [0.7], dense_output=True, rtol=1e-10, atol=1e-12)
        grid_t = traj.w.grid.times
        oracle = sol.sol(grid_t)[0]
        est = p[:, :, 0].mean(axis=0)
        assert np.abs(est - oracle).max() / np.abs(oracle).max() < 0.01
        assert np.sqrt((q**2).mean()) < 0.04  # the true q vanishes

    def test_state_proportional_oracle(self):
        model = quadratic_terminal_model()
        traj = _trajectory(model, 0.5, n_paths=6000, n_steps=64, seed=13)
        p, q = solve_first_order(linearize(model, traj))
        grid_t = traj.w.grid.times
        oracle = traj.x[:, :, 0] * (0.4 + 0.1 * (1.0 - grid_t))
        err = np.sqrt(((p[:, :, 0] - oracle) ** 2).mean(axis=0)).max()
        assert err < 0.02
        q_oracle = 0.3 * (0.4 + 0.1 * (1.0 - grid_t[:-1]))
        q_est = q[:, :, 0, 0].mean(axis=0)
        assert np.abs(q_est - q_oracle).max() < 0.02


class TestSecondOrder:
    def test_all_zero_data(self):
        model = driver_model(
            lambda t, x: 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: 0.0 * x, 0.0, 0.0, 0.0, 1.0,
        )
        traj = _trajectory(model, 0.0, n_paths=500, n_steps=16, seed=5)
        lin = linearize(model, traj)
        p, q = solve_first_order(lin)
        big_p, big_q = solve_second_order(lin, p, q)
        assert np.abs(big_p).max() < 1e-10
        assert np.abs(big_q).max() < 1e-10

    def test_source_picks_xx_entry(self):
        model = quadratic_terminal_model()
        traj = _trajectory(model, 0.5, n_paths=200, n_steps=8, seed=2)
        p = np.zeros((200, 9, 1))
        q = np.zeros((200, 8, 1, 1))
        src = assemble_second_order_source(linearize(model, traj), p, q)
        assert src == pytest.approx(np.full((200, 8, 1, 1), 0.1))

    def test_linear_in_time_oracle(self):
        model = quadratic_terminal_model()
        traj = _trajectory(model, 0.5, n_paths=4000, n_steps=64, seed=13)
        lin = linearize(model, traj)
        p, q = solve_first_order(lin)
        big_p, big_q = solve_second_order(lin, p, q)
        grid_t = traj.w.grid.times
        oracle = 0.4 + 0.1 * (1.0 - grid_t)
        est = big_p[:, :, 0, 0].mean(axis=0)
        assert np.abs(est - oracle).max() / oracle.max() < 0.01
        assert np.sqrt((big_q**2).mean()) < 0.02

    def test_source_equals_batched_contraction(self):
        # the step-by-step Hessian contraction equals the stacked (m, N, .., ..)
        # contraction it replaced, bit for bit
        model = benchmark_model()
        m, n_steps = 300, 8
        traj = _trajectory(model, 1.0, n_paths=m, n_steps=n_steps, seed=6)
        lin = linearize(model, traj)
        rng = np.random.default_rng(2)
        p = rng.standard_normal((m, n_steps + 1, 1))
        q = rng.standard_normal((m, n_steps, 1, 1))
        times = traj.w.grid.times
        f_hess = np.stack(
            [model.f_hess(times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]) for k in range(n_steps)],
            axis=1,
        )
        p_steps = p[:, :n_steps]
        jac = np.concatenate([np.ones((m, n_steps, 1, 1)), p_steps[:, :, :, None], upsilon_process(lin, p, q)], axis=3)
        phi1 = np.einsum("mtijk,mti->mtjk", lin.b_xx, p_steps)
        phi2 = np.einsum("mtidjk,mtid->mtjk", lin.sigma_xx, lin.f_z[:, :, None, :] * p_steps[:, :, :, None] + q)
        phi3 = np.einsum("mtia,mtab,mtjb->mtij", jac, f_hess, jac)
        assert np.array_equal(assemble_second_order_source(lin, p, q), phi1 + phi2 + phi3)

    def test_symmetry_exact(self):
        model = constant_slope_model()
        traj = _trajectory(model, 1.0, n_paths=500, n_steps=16, seed=4)
        adj = solve_adjoints(linearize(model, traj))
        assert np.array_equal(adj.big_p, np.swapaxes(adj.big_p, 2, 3))


class TestExampleAdjoints:
    def test_known_constants_loose(self):
        model = example_model()
        traj = _trajectory(model, 0.0, n_paths=4000, n_steps=64, seed=1)
        adj = solve_adjoints(linearize(model, traj))
        assert np.abs(adj.p - 1.0).max() < 0.1
        assert np.sqrt((adj.q**2).mean(axis=0)).max() < 0.1
        assert np.abs(adj.big_p).max() < 0.05
        assert np.abs(adj.big_q).max() < 0.05
