"""Adjoint equations: assembly, closed-form oracles, symmetry, and the
storage of the linearization they read."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from support import (
    assert_close_rel,
    driver_model,
    linearize_stored_reference,
    path_major,
    planar_candidate,
    planar_model,
    same_bits,
    steps_contiguous,
)

from quadsmp.adjoint import (
    _second_order_operators,
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
from quadsmp.example import _solve_for_control, example_model
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import benchmark_model, scalar_model
from quadsmp.sde import simulate_forward_sde
from quadsmp.spike import SpikePerturbation, hatted_coefficients, solve_x1, solve_x2

FIELDS = ("b", "sigma", "f", "b_x", "sigma_x", "b_xx", "sigma_xx", "f_x", "f_y", "f_z")


def broadcast(a) -> bool:
    """a holds one value, read at every path and step through stride 0."""
    return a.strides[:2] == (0, 0)


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((5, 3, 3))
        s = s + np.swapaxes(s, 1, 2)
        assert unsvec(svec(s), 3) == pytest.approx(s)
        v = rng.standard_normal((5, 6))
        assert svec(unsvec(v, 3)) == pytest.approx(v)

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


def _assert_equals_per_step_evaluation(model, traj):
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
    for name in FIELDS:
        assert not getattr(lin, name).flags.writeable, name


class TestLinearization:
    @pytest.mark.parametrize("factory,x0", [(benchmark_model, 1.0), (example_model, 0.0)])
    def test_arrays_equal_per_step_evaluation(self, factory, x0):
        model = factory()
        _assert_equals_per_step_evaluation(model, _trajectory(model, x0, n_paths=300, n_steps=16, seed=8))

    def test_planar_arrays_equal_per_step_evaluation(self):
        # n = d = k = 2 with every layout axis filled, along a random candidate
        model = planar_model()
        rng = np.random.default_rng(4)
        m, n_steps = 50, 6
        traj = ControlledTrajectory(
            w=generate_brownian(m, TimeGrid(1.0, n_steps), model.d, 4),
            x=rng.standard_normal((m, n_steps + 1, 2)),
            y=rng.standard_normal((m, n_steps + 1)),
            z=rng.standard_normal((m, n_steps, 2)),
            u=rng.uniform(-1.0, 1.0, (m, n_steps, 2)),
        )
        _assert_equals_per_step_evaluation(model, traj)


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

    @pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2)])
    def test_operators_match_written_out_map(self, n, d):
        # P's generator term f_y S + sum_i f_{z_i} (sigma_x^i'S + S sigma_x^i)
        # + b_x'S + S b_x + sum_i sigma_x^i'S sigma_x^i, and Q^i's beyond f_{z_i} S
        rng = np.random.default_rng(10 * n + d)
        batch = (4, 3)
        f_y = rng.standard_normal(batch)
        f_z = rng.standard_normal(batch + (d,))
        b_x = rng.standard_normal(batch + (n, n))
        sigma_x = rng.standard_normal(batch + (d, n, n))
        s = rng.standard_normal(batch + (n, n))
        s = s + np.swapaxes(s, -1, -2)
        a, c = _second_order_operators(f_y, f_z, b_x, sigma_x)

        def applied(op):
            return unsvec(np.einsum("...rc,...c->...r", np.swapaxes(op, -1, -2), svec(s)), n)

        def assert_close(got, want):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        sig_t = np.swapaxes(sigma_x, -1, -2)
        s_i = s[..., None, :, :]
        q_terms = sig_t @ s_i + s_i @ sigma_x
        p_term = (
            f_y[..., None, None] * s
            + np.einsum("...d,...dij->...ij", f_z, q_terms)
            + np.swapaxes(b_x, -1, -2) @ s
            + s @ b_x
            + (sig_t @ s_i @ sigma_x).sum(axis=-3)
        )
        assert_close(applied(a), p_term)
        for i in range(d):
            assert_close(applied(c[..., i, :, :]), q_terms[..., i, :, :])

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


class TestSpikeCandidateAdjoints:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_q_does_not_collapse(self, seed):
        # on the benchmark candidate (u = 0, x0 = 1) the first-order flow moves
        # with the state (correlation above 0.99), and q ~ -0.13 near T; a test
        # on the design's collinear columns flattens p and zeroes q at most nodes
        model = benchmark_model()
        traj = _trajectory(model, 1.0, n_paths=500, n_steps=64, seed=seed)
        adj = solve_adjoints(linearize(model, traj))
        assert np.abs(adj.q[..., 0, 0]).mean(axis=0).min() >= 0.05


class TestStepMajorStorage:
    """Step-major outputs at n = d = k = 2, and the same values from path-major inputs."""

    @pytest.fixture(scope="class")
    def planar(self):
        model, traj = planar_candidate(300, 8, seed=5)
        lin = linearize(model, traj)
        return lin, solve_adjoints(lin)

    def test_linearization(self, planar):
        # each field is step-major, or one value broadcast over the path and
        # step axes that equals the stored evaluation bit for bit
        lin, _ = planar
        lin_pm = linearize(lin.model, path_major(lin.traj))
        stored = linearize_stored_reference(lin.model, lin.traj)
        assert not steps_contiguous(lin_pm.traj.x)
        for name in FIELDS:
            for arr in (getattr(lin, name), getattr(lin_pm, name)):
                assert steps_contiguous(arr) or (broadcast(arr) and same_bits(arr, getattr(stored, name))), name
            assert_close_rel(getattr(lin_pm, name), getattr(lin, name))

    @pytest.mark.parametrize("inside, outside", [(-0.0, 0.0), (np.nan, 1.0)])
    def test_two_bit_patterns_stay_stored(self, inside, outside):
        # one entry, at the last path and step, differs from the rest; -0.0 ==
        # 0.0, and NaN drops out of nan-aware ranges: only the bit patterns
        # tell these fields from a constant one
        def f_x(t, x, y, z, u):
            last = (np.arange(x.shape[0]) == x.shape[0] - 1)[:, None] & (t > 0.8)
            return np.where(last, inside, outside)

        base = benchmark_model()
        model = dataclasses.replace(base, f_x=f_x)
        traj = _trajectory(base, 1.0, n_paths=50, n_steps=8, seed=3)
        lin, stored = linearize(model, traj), linearize_stored_reference(model, traj)
        assert np.unique(stored.f_x.view(np.uint64)).size == 2
        assert steps_contiguous(lin.f_x) and not lin.f_x.flags.writeable
        assert same_bits(lin.f_x, stored.f_x)

    @pytest.mark.parametrize("value", [-0.0, np.nan])
    def test_one_bit_pattern_is_stored_once(self, value):
        base = benchmark_model()
        model = dataclasses.replace(base, f_x=lambda t, x, y, z, u: np.full_like(x, value))
        traj = _trajectory(base, 1.0, n_paths=50, n_steps=8, seed=3)
        lin = linearize(model, traj)
        assert broadcast(lin.f_x) and not lin.f_x.flags.writeable
        assert same_bits(lin.f_x, linearize_stored_reference(model, traj).f_x)

    def test_adjoints(self, planar):
        lin, adj = planar
        adj_pm = solve_adjoints(path_major(lin))
        for name in ("p", "q", "big_p", "big_q"):
            assert steps_contiguous(getattr(adj, name)), name
            assert steps_contiguous(getattr(adj_pm, name)), name
            assert_close_rel(getattr(adj_pm, name), getattr(adj, name))

    def test_second_order_source(self, planar):
        lin, adj = planar
        source = assemble_second_order_source(lin, adj.p, adj.q)
        assert steps_contiguous(source)
        source_pm = assemble_second_order_source(path_major(lin), path_major(adj.p), path_major(adj.q))
        assert_close_rel(source_pm, source)


def _benchmark_candidate():
    model = benchmark_model()
    return model, _trajectory(model, 1.0, n_paths=400, n_steps=32, seed=21)


def _example_zero_candidate():
    model = example_model()
    traj, _ = _solve_for_control(model, 0.0, generate_brownian(400, TimeGrid(1.0, 32), 1, seed=1))
    return model, traj


# name -> (candidate, the fields that hold one value along it, spike replacement)
CANDIDATES = {
    "benchmark": (_benchmark_candidate, {"b_x", "sigma_x", "b_xx", "sigma_xx", "f_x", "f_y"}, [1.0]),
    "example": (_example_zero_candidate, set(FIELDS), [1.0]),
    "planar": (lambda: planar_candidate(300, 16, seed=5), {"b_xx", "sigma_xx"}, [0.8, -0.6]),
}


class TestConstantFieldsStoredOnce:
    """linearize stores a field that holds one value along the candidate once,
    broadcast; the linearization with every field stored is the reference,
    bit for bit, for the adjoints and the spike pieces that read it."""

    @pytest.fixture(scope="class", params=list(CANDIDATES))
    def pair(self, request):
        make, constant, replacement = CANDIDATES[request.param]
        model, traj = make()
        return linearize(model, traj), linearize_stored_reference(model, traj), constant, replacement

    def test_which_fields_are_broadcast(self, pair):
        lin, stored, constant, _ = pair
        assert {name for name in FIELDS if broadcast(getattr(lin, name))} == constant
        for name in FIELDS:
            assert same_bits(getattr(lin, name), getattr(stored, name)), name
            assert broadcast(getattr(lin, name)) or steps_contiguous(getattr(lin, name)), name

    def test_readers_bit_identical(self, pair):
        lin, stored, _, replacement = pair
        adj, adj_ref = solve_adjoints(lin), solve_adjoints(stored)
        for name in ("p", "q", "big_p", "big_q"):
            assert same_bits(getattr(adj, name), getattr(adj_ref, name)), name
        spike = SpikePerturbation(t0=0.25, eps=0.25, replacement=np.array(replacement))
        hats, hats_ref = hatted_coefficients(lin, spike, adj), hatted_coefficients(stored, spike, adj_ref)
        for name in ("b_hat", "sigma_hat", "sigma_x_hat", "delta", "gap"):
            assert same_bits(getattr(hats, name), getattr(hats_ref, name)), name
        x1, x1_ref = solve_x1(lin, hats), solve_x1(stored, hats_ref)
        assert same_bits(x1, x1_ref)
        assert same_bits(solve_x2(lin, x1, hats), solve_x2(stored, x1_ref, hats_ref))
