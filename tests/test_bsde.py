"""The three backward solvers against closed forms and each other."""

import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from support import (
    assert_close_rel,
    driver_model,
    node_basis,
    path_major,
    planar_candidate,
    planar_flow_data,
    random_linear_instance,
    represent_two_pass_reference,
    steps_contiguous,
)

from quadsmp import bmo, regression
from quadsmp.bsde import (
    BsdeSolverError,
    LinearBsdeData,
    MultiLinearBsdeData,
    WeightOverflowError,
    exponential_weight,
    solve_bsde_lsmc,
    solve_linear_bsde_weighted,
    _flow_inverse,
    solve_multidim_linear_bsde,
)
from quadsmp.example import example_model
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.regression import NodeBases, conditional_expectation
from quadsmp.sde import simulate_forward_sde, simulate_matrix_flow


@pytest.fixture(scope="module")
def small_setup():
    grid = TimeGrid(1.0, 100)
    w = generate_brownian(4000, grid, 1, seed=11)
    return grid, w


def _const(value, shape):
    return np.full(shape, value)


def _weighted_reference(data, w, degree=2):
    """The scalar exponential-weight representation written out directly,
    dividing by G~ where the solver multiplies by the 1x1 flow inverse.
    Needs a (m, N+1, 1) state and non-constant, non-zero regression targets."""
    dt, n_steps, m = w.grid.dt, w.grid.n_steps, w.n_paths
    gt = exponential_weight(data.lam, data.mu, w)
    weighted_phi = gt[:, :n_steps] * data.phi * dt
    suffix = np.zeros((m, n_steps + 1))
    suffix[:, :n_steps] = np.cumsum(weighted_phi[:, ::-1], axis=1)[:, ::-1]
    terminal = gt[:, n_steps] * data.xi
    feats = [np.column_stack([gt[:, k], data.state[:, k, 0]]) for k in range(n_steps)]
    y = np.empty((m, n_steps + 1))
    y[:, n_steps] = data.xi
    for k in range(n_steps):
        y[:, k] = conditional_expectation(node_basis(feats[k], degree), (terminal + suffix[:, k]) / gt[:, k])
    prefix = np.zeros((m, n_steps + 1))
    np.cumsum(weighted_phi, axis=1, out=prefix[:, 1:])
    g_mart = gt * y + prefix
    z = np.empty((m, n_steps, 1))
    for k in range(n_steps):
        incr = ((g_mart[:, k + 1] - g_mart[:, k]) / gt[:, k])[:, None] * w.increments[:, k] / dt
        z[:, k] = conditional_expectation(node_basis(feats[k], degree), incr) - y[:, k : k + 1] * data.mu[:, k]
    return y, z


class TestLsmcSolver:
    def test_constant_terminal_zero_generator(self, small_setup):
        grid, w = small_setup
        model = driver_model(
            lambda t, x: 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: np.full_like(x, 3.0), 0.0, 0.0, 0.0, 3.0,
        )
        u = constant_control(0.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, rep = solve_bsde_lsmc(model, x, u, w)
        assert np.abs(y - 3.0).max() < 1e-10
        assert np.abs(z).max() < 1e-10

    def test_linear_generator_ode_oracle(self, small_setup):
        grid, w = small_setup
        r, c = 0.5, 2.0
        model = driver_model(
            lambda t, x: r + 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: np.full_like(x, c), r, 0.0, 0.0, c,
        )
        u = constant_control(0.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, rep = solve_bsde_lsmc(model, x, u, w)
        assert rep.y0 == pytest.approx(c * np.exp(r), rel=0.01)

    def test_example_zero_control_degenerate(self):
        model = example_model()
        grid = TimeGrid(1.0, 50)
        w = generate_brownian(2000, grid, 1, seed=5)
        u = constant_control(0.0, 2000, 50)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, rep = solve_bsde_lsmc(model, x, u, w)
        assert abs(rep.y0) <= 1e-10
        assert abs(rep.y0) <= 3.0 * rep.y0_std_error + 1e-10

    def test_terminal_consistency(self, small_setup):
        grid, w = small_setup
        model = example_model()
        u = constant_control(1.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        assert np.array_equal(y[:, -1], model.phi(x[:, -1]))

    def test_nonconvergent_inner_loop_names_step(self, small_setup):
        grid, w = small_setup
        # f_y dt = 5 > 1: the fixed point diverges
        model = driver_model(
            lambda t, x: 500.0 + 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: np.ones_like(x), 500.0, 0.0, 0.0, 1.0,
        )
        u = constant_control(0.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        with pytest.raises(BsdeSolverError, match=r"step \d+"):
            solve_bsde_lsmc(model, x, u, w)

    def test_slow_contraction_runs_to_convergence(self):
        # dt = 0.5 and |f_y| <= 0.4: the implicit map shrinks the gap by about
        # 0.2 per iteration, so it needs more iterations than a fixed cap of 10
        _, traj = planar_candidate(400, 2, seed=3)
        assert float(traj.y[:, 0].mean()) == pytest.approx(0.1297, abs=1e-4)

    def test_non_contraction_is_named(self, small_setup):
        grid, w = small_setup
        model = driver_model(
            lambda t, x: 200.0 + 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: np.ones_like(x), 200.0, 0.0, 0.0, 1.0,
        )
        u = constant_control(0.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        with pytest.raises(BsdeSolverError, match=r"does not contract at step 99"):
            solve_bsde_lsmc(model, x, u, w)


class TestExponentialWeight:
    def test_starts_at_one_and_stays_positive(self, small_setup):
        grid, w = small_setup
        m, n = w.n_paths, grid.n_steps
        rng = np.random.default_rng(0)
        lam = rng.uniform(-0.5, 0.5, (m, n))
        mu = rng.uniform(-0.5, 0.5, (m, n, 1))
        gamma_tilde = exponential_weight(lam, mu, w)
        assert gamma_tilde.shape == (m, n + 1)
        assert np.all(gamma_tilde[:, 0] == 1.0) and np.all(gamma_tilde > 0.0)
        growth = np.exp(np.cumsum(lam * grid.dt, axis=1))
        girsanov = np.exp(
            np.cumsum(mu[:, :, 0] * w.increments[:, :, 0] - 0.5 * mu[:, :, 0] ** 2 * grid.dt, axis=1)
        )
        assert gamma_tilde[:, 1:] == pytest.approx(growth * girsanov, rel=1e-12)


class TestWeightedSolver:
    def test_trivial_constant(self, small_setup):
        grid, w = small_setup
        m, n = w.n_paths, grid.n_steps
        data = LinearBsdeData(
            lam=_const(0.0, (m, n)), mu=_const(0.0, (m, n, 1)),
            phi=_const(0.0, (m, n)), xi=_const(4.0, m),
        )
        y, z, rep = solve_linear_bsde_weighted(data, w)
        assert np.all(y == 4.0)
        assert np.all(z == 0.0)

    def test_constant_lambda_pathwise(self, small_setup):
        grid, w = small_setup
        m, n = w.n_paths, grid.n_steps
        lam, c = 0.5, 2.0
        data = LinearBsdeData(
            lam=_const(lam, (m, n)), mu=_const(0.0, (m, n, 1)),
            phi=_const(0.0, (m, n)), xi=_const(c, m),
        )
        y, z, rep = solve_linear_bsde_weighted(data, w)
        target = c * np.exp(lam * (1.0 - grid.times))
        assert np.abs(y - target).max() / target.max() < 0.01
        assert np.abs(z).max() < 1e-10

    def test_constant_mu_deterministic_terminal(self, small_setup):
        # plugging Z = 0 into the driver shows Y must stay equal to xi
        grid, w = small_setup
        m, n = w.n_paths, grid.n_steps
        data = LinearBsdeData(
            lam=_const(0.0, (m, n)), mu=_const(0.4, (m, n, 1)),
            phi=_const(0.0, (m, n)), xi=_const(2.0, m),
        )
        y, z, rep = solve_linear_bsde_weighted(data, w)
        assert rep.y0 == pytest.approx(2.0, rel=0.01)
        assert np.sqrt((y - 2.0) ** 2).mean() < 0.01
        assert np.sqrt((z**2).mean()) < 0.02

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_direct_scalar_algorithm(self, seed):
        _, data, _, _, w = random_linear_instance(seed, n_paths=2000, n_steps=40)
        y, z, rep = solve_linear_bsde_weighted(data, w)
        y_ref, z_ref = _weighted_reference(data, w)
        # multiplying by 1/G~ instead of dividing by G~ changes rounding only
        assert np.abs(y - y_ref).max() <= 1e-10 * np.abs(y_ref).max()
        assert np.abs(z - z_ref).max() <= 1e-10 * np.abs(z_ref).max()
        assert rep.y0 == pytest.approx(float(y_ref[:, 0].mean()), rel=1e-12)

    def test_doubling_is_exact(self):
        _, data, _, _, w = random_linear_instance(seed=0, n_paths=2000, n_steps=40)
        y1, z1, _ = solve_linear_bsde_weighted(data, w)
        doubled = LinearBsdeData(
            lam=data.lam, mu=data.mu, phi=2.0 * data.phi, xi=2.0 * data.xi, state=data.state
        )
        y2, z2, _ = solve_linear_bsde_weighted(doubled, w)
        assert y2 == pytest.approx(2.0 * y1, rel=1e-10, abs=1e-12)
        assert z2 == pytest.approx(2.0 * z1, rel=1e-10, abs=1e-12)

    def test_monotone_in_terminal(self):
        _, data, _, _, w = random_linear_instance(seed=1, n_paths=4000, n_steps=40)
        base = LinearBsdeData(
            lam=np.zeros_like(data.lam), mu=data.mu, phi=np.zeros_like(data.phi),
            xi=data.xi, state=data.state,
        )
        lifted = LinearBsdeData(
            lam=base.lam, mu=base.mu, phi=base.phi, xi=data.xi + 1.0, state=data.state
        )
        _, _, rep_a = solve_linear_bsde_weighted(base, w)
        _, _, rep_b = solve_linear_bsde_weighted(lifted, w)
        slack = 2.0 * float(np.hypot(rep_a.y0_std_error, rep_b.y0_std_error))
        assert rep_b.y0 >= rep_a.y0 - slack

    def test_fused_pass_matches_two_pass_reference(self):
        # the scalar entry with a non-zero driver that depends on the state
        _, data, _, _, w = random_linear_instance(seed=5, n_paths=3000, n_steps=16)
        m, n_steps = w.n_paths, w.grid.n_steps
        assert np.ptp(data.phi) > 0.0
        y, z, _ = solve_linear_bsde_weighted(data, w)
        flow = exponential_weight(data.lam, data.mu, w)[:, :, None, None]
        y_ref, z_ref = represent_two_pass_reference(
            flow, 1.0 / flow, data.phi[:, :, None], data.xi[:, None], data.mu,
            np.zeros((m, n_steps, 1, 1, 1)), data.state, w,
        )
        assert np.abs(y - y_ref[:, :, 0]).max() <= 1e-10 * np.abs(y_ref).max()
        assert np.abs(z - z_ref[:, :, 0]).max() <= 1e-10 * np.abs(z_ref).max()

    @pytest.mark.parametrize("log_terminal", [-800.0, -720.0])
    def test_weight_singular_only_at_the_terminal_node_raises(self, log_terminal):
        # lam is 0 but on the last step, where it drives the log weight to
        # log_terminal: at -800 the weight underflows to 0, at -720 it is
        # subnormal and its inverse overflows. The pass never reads the
        # terminal inverse, and the solver still refuses the weight
        m, n_steps = 200, 8
        w = generate_brownian(m, TimeGrid(1.0, n_steps), 1, seed=5)
        lam = np.zeros((m, n_steps))
        lam[:, -1] = log_terminal / w.grid.dt
        data = LinearBsdeData(lam=lam, mu=np.zeros((m, n_steps, 1)), phi=np.ones((m, n_steps)), xi=np.ones(m))
        gt = exponential_weight(data.lam, data.mu, w)
        assert np.all(gt[:, :n_steps] == 1.0) and np.all(gt[:, n_steps] < 1e-300)
        with pytest.raises(BsdeSolverError):
            solve_linear_bsde_weighted(data, w)

    def test_weight_overflow_advises(self, small_setup):
        grid, w = small_setup
        m, n = w.n_paths, grid.n_steps
        data = LinearBsdeData(
            lam=_const(900.0, (m, n)), mu=_const(0.0, (m, n, 1)),
            phi=_const(0.0, (m, n)), xi=_const(1.0, m),
        )
        with pytest.raises(WeightOverflowError, match="truncate"):
            solve_linear_bsde_weighted(data, w)


class TestMultidimSolver:
    def test_zero_data_exact(self):
        w = generate_brownian(500, TimeGrid(1.0, 20), 2, seed=13)
        m, n = 500, 20
        data = MultiLinearBsdeData(
            a=np.zeros((m, n, 2, 2)), beta=np.zeros((m, n, 2)), c=np.zeros((m, n, 2, 2, 2)),
            driver=np.zeros((m, n, 2)), xi=np.broadcast_to([2.0, -1.0], (m, 2)),
        )
        y, z, rep, pair = solve_multidim_linear_bsde(data, w)
        assert np.all(y == np.array([2.0, -1.0]))
        assert np.all(z == 0.0)
        # the representation inverts X itself; the inverse flow stays unstepped
        assert "inverse" not in pair.__dict__

    def test_matrix_ode_oracle(self):
        a = np.array([[0.3, 0.1], [-0.2, 0.25]])
        xi = np.array([1.0, -0.5])
        m, n = 4000, 128
        w = generate_brownian(m, TimeGrid(1.0, n), 2, seed=29)
        beta = np.broadcast_to(np.array([0.08, 0.05]), (m, n, 2))
        c = np.broadcast_to(
            0.06 * np.stack([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]),
            (m, n, 2, 2, 2),
        )
        data = MultiLinearBsdeData(
            a=np.broadcast_to(a, (m, n, 2, 2)), beta=beta, c=c,
            driver=np.zeros((m, n, 2)), xi=np.broadcast_to(xi, (m, 2)),
        )
        y, _, rep, _ = solve_multidim_linear_bsde(data, w)
        for k in (0, n // 2):
            target = sla.expm(a.T * (1.0 - k / n)) @ xi
            assert y[:, k].mean(axis=0) == pytest.approx(target, rel=0.01)

    def test_scalar_reduction_matches_weighted(self):
        _, data, x, _, w = random_linear_instance(seed=2, n_paths=6000, n_steps=50)
        y_s, _, rep_s = solve_linear_bsde_weighted(data, w)
        m, n = 6000, 50
        multi = MultiLinearBsdeData(
            a=data.lam[:, :, None, None],
            beta=data.mu,
            c=np.zeros((m, n, 1, 1, 1)),
            driver=data.phi[:, :, None],
            xi=data.xi[:, None],
            state=data.state,
        )
        y_m, _, rep_m, _ = solve_multidim_linear_bsde(multi, w)
        combined = float(np.hypot(rep_s.y0_std_error, rep_m.y0_std_error))
        assert abs(rep_s.y0 - float(y_m[:, 0, 0].mean())) <= 2.0 * combined + 1e-4

    def test_fused_pass_matches_two_pass_reference(self):
        # n = d = 2 with non-symmetric, path- and step-dependent coefficients,
        # so a transposed flow or inverse, or a misplaced increment, shows
        m, n_steps = 3000, 16
        rng = np.random.default_rng(17)
        w = generate_brownian(m, TimeGrid(1.0, n_steps), 2, seed=17)
        state = np.zeros((m, n_steps + 1, 1))
        state[:, 1:, 0] = np.cumsum(w.increments[:, :, 0], axis=1)
        s = state[:, :n_steps, :, None]
        data = MultiLinearBsdeData(
            a=rng.uniform(-0.5, 0.5, (n_steps, 2, 2)) + 0.2 * np.tanh(s) * np.array([[0.0, 1.0], [-1.0, 0.5]]),
            beta=np.broadcast_to(rng.uniform(-0.2, 0.2, (n_steps, 2)), (m, n_steps, 2)),
            c=np.broadcast_to(rng.uniform(-0.3, 0.3, (n_steps, 2, 2, 2)), (m, n_steps, 2, 2, 2)),
            driver=np.concatenate([np.sin(state[:, :n_steps]), np.cos(2.0 * state[:, :n_steps])], axis=2),
            xi=np.column_stack([np.tanh(state[:, -1, 0]), state[:, -1, 0] ** 2]),
            state=state,
        )
        y, z, _, pair = solve_multidim_linear_bsde(data, w)
        y_ref, z_ref = represent_two_pass_reference(
            pair.flow, np.linalg.inv(pair.flow), data.driver, data.xi, pair.beta, pair.c, state, w
        )
        assert np.abs(y - y_ref).max() <= 1e-10 * np.abs(y_ref).max()
        assert np.abs(z - z_ref).max() <= 1e-10 * np.abs(z_ref).max()

    def test_terminal_consistency(self):
        _, data, _, _, w = random_linear_instance(seed=3, n_paths=500, n_steps=20)
        multi = MultiLinearBsdeData(
            a=data.lam[:, :, None, None], beta=data.mu, c=np.zeros((500, 20, 1, 1, 1)),
            driver=data.phi[:, :, None], xi=data.xi[:, None], state=data.state,
        )
        y, _, _, _ = solve_multidim_linear_bsde(multi, w)
        assert np.array_equal(y[:, -1, 0], data.xi)


class TestFlowInverse:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        flow = np.eye(n) + 0.4 * rng.standard_normal((300, 17, n, n))
        inv = _flow_inverse(flow)
        assert np.abs(inv - np.linalg.inv(flow)).max() <= 1e-12 * np.abs(inv).max()
        assert np.abs(inv @ flow - np.eye(n)).max() <= 1e-12

    def test_scalar_inverse_is_the_adjugate_over_the_determinant(self):
        # 1/X is the n = 1 adjugate, ones, over the determinant X, bit for bit
        rng = np.random.default_rng(4)
        flow = np.exp(rng.standard_normal((300, 17, 1, 1)) * 30.0)
        flow[::2] *= -1.0
        assert np.array_equal(_flow_inverse(flow), np.ones_like(flow) / flow[..., 0, 0][..., None, None])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_nonfinite_determinant_raises(self, n, bad):
        flow = np.broadcast_to(np.eye(n), (5, 3, n, n)).copy()
        flow[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the abort is the only report
            with pytest.raises(BsdeSolverError, match="determinant"):
                _flow_inverse(flow)

    @pytest.mark.parametrize("n", [1, 2])
    def test_singular_flow_aborts_the_solver(self, n):
        # A = -I/dt makes the first Euler step I + A dt = 0: the flow is singular
        m, n_steps = 50, 8
        w = generate_brownian(m, TimeGrid(1.0, n_steps), 1, seed=3)
        data = MultiLinearBsdeData(
            a=np.broadcast_to(-np.eye(n) / w.grid.dt, (m, n_steps, n, n)), beta=np.zeros((m, n_steps, 1)),
            c=np.zeros((m, n_steps, 1, n, n)), driver=np.zeros((m, n_steps, n)), xi=np.ones((m, n)),
        )
        with pytest.raises(BsdeSolverError, match="determinant"):
            solve_multidim_linear_bsde(data, w)

    @pytest.mark.parametrize("n", [2, 3])
    def test_flow_singular_only_at_the_terminal_node_raises(self, n):
        # A = -I/dt on the last step alone: X_N = X_{N-1} (I + A dt) = 0
        m, n_steps = 50, 8
        w = generate_brownian(m, TimeGrid(1.0, n_steps), 1, seed=3)
        a = np.zeros((m, n_steps, n, n))
        a[:, -1] = -np.eye(n) / w.grid.dt
        data = MultiLinearBsdeData(
            a=a, beta=np.zeros((m, n_steps, 1)), c=np.zeros((m, n_steps, 1, n, n)),
            driver=np.ones((m, n_steps, n)), xi=np.ones((m, n)),
        )
        flow = simulate_matrix_flow(data.a, data.beta, data.c, w).flow
        assert np.all(flow[:, n_steps] == 0.0)
        assert np.all(np.abs(np.linalg.det(flow[:, :n_steps])) > 0.5)
        with pytest.raises(BsdeSolverError, match="determinant"):
            solve_multidim_linear_bsde(data, w)


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lsmc_agrees_with_weighted(self, seed):
        model, data, x, u, w = random_linear_instance(seed, n_paths=8000, n_steps=100)
        y_w, _, rep_w = solve_linear_bsde_weighted(data, w)
        y_l, _, rep_l = solve_bsde_lsmc(model, x, u, w)
        combined = float(np.hypot(rep_w.y0_std_error, rep_l.y0_std_error))
        assert abs(rep_w.y0 - rep_l.y0) <= 3.0 * combined


class TestAprioriBounds:
    def test_example_zero_control(self):
        model = example_model()
        grid = TimeGrid(1.0, 40)
        w = generate_brownian(1000, grid, 1, seed=3)
        u = constant_control(0.0, 1000, 40)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        assert float(np.abs(y).max()) <= 1e-10
        mart = bmo.MartingalePathSet.from_integrand(z, w)
        assert bmo.estimate_bmo2_norm(mart, conditioner=x) <= 1e-8

    def test_bounded_terminal_martingale(self):
        # zero generator: Y is the conditional expectation of a bounded payoff
        model = driver_model(
            lambda t, x: 0.0 * x, lambda t, x: 0.0 * x, lambda t, x: 0.0 * x,
            np.tanh, 0.0, 0.0, 0.0, 1.0,
        )
        grid = TimeGrid(1.0, 40)
        w = generate_brownian(4000, grid, 1, seed=9)
        u = constant_control(0.0, 4000, 40)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        # the conditional mean of a |payoff| <= 1 stays inside the band; the
        # global polynomial estimate can poke out where the payoff saturates,
        # so the band is asserted in bulk terms
        assert abs(float(y[:, 0].mean())) <= 1.0
        assert np.abs(y).mean() <= 1.0
        assert np.quantile(np.abs(y), 0.9) <= 1.0
        assert float((np.abs(y) > 1.05).mean()) <= 0.05


class TestStepMajorStorage:
    """Step-major outputs, and the same values from path-major inputs."""

    def test_lsmc(self):
        model, traj = planar_candidate(300, 8, seed=5)
        assert steps_contiguous(traj.y) and steps_contiguous(traj.z)
        pm = path_major(traj)
        assert not steps_contiguous(pm.x)
        y, z, _ = solve_bsde_lsmc(model, pm.x, pm.u, pm.w)
        assert_close_rel(y, traj.y)
        assert_close_rel(z, traj.z)

    def test_weighted_representation(self):
        _, data, _, _, w = random_linear_instance(seed=3, n_paths=500, n_steps=20)
        y, z, _ = solve_linear_bsde_weighted(data, w)
        gt = exponential_weight(data.lam, data.mu, w)
        for a in (y, z, gt):
            assert steps_contiguous(a)
        y_pm, z_pm, _ = solve_linear_bsde_weighted(path_major(data), path_major(w))
        assert_close_rel(y_pm, y)
        assert_close_rel(z_pm, z)
        assert_close_rel(exponential_weight(data.lam, np.ascontiguousarray(data.mu), path_major(w)), gt)

    def test_multidim_representation(self):
        data, w = planar_flow_data(400, 12)
        y, z, _, pair = solve_multidim_linear_bsde(data, w)
        assert steps_contiguous(y) and steps_contiguous(z) and steps_contiguous(pair.flow)
        y_pm, z_pm, _, _ = solve_multidim_linear_bsde(path_major(data), path_major(w))
        assert_close_rel(y_pm, y)
        assert_close_rel(z_pm, z)


class TestBlockWalk:
    """The solvers' bases, factored a block of nodes at a time."""

    def test_one_node_blocks_give_the_same_solutions(self, monkeypatch):
        model, data, x, u, w = random_linear_instance(seed=4, n_paths=1500, n_steps=64)
        flow_data, flow_w = planar_flow_data(1500, 64)
        solves = [
            lambda: solve_bsde_lsmc(model, x, u, w)[:2],
            lambda: solve_linear_bsde_weighted(data, w)[:2],
            lambda: solve_multidim_linear_bsde(flow_data, flow_w)[:2],
        ]
        blocked = [solve() for solve in solves]
        monkeypatch.setattr(regression, "_BLOCK_BYTES", 1)
        for (y, z), solve in zip(blocked, solves):
            y_node, z_node = solve()
            assert_close_rel(y_node, y)
            assert_close_rel(z_node, z)

    def test_constant_targets_above_k_factor_no_node_there(self, monkeypatch):
        # lam = mu = 0 and a driver that stops after node K: every Y target
        # above K is xi = 1 and every Z target there is 0, so no fit reads
        # those nodes
        m, n_steps, K = 500, 64, 40
        w = generate_brownian(m, TimeGrid(1.0, n_steps), 1, seed=21)
        state = w.paths()
        phi = np.where(np.arange(n_steps) <= K, np.sin(state[:, :n_steps, 0]), 0.0)
        data = LinearBsdeData(lam=np.zeros((m, n_steps)), mu=np.zeros((m, n_steps, 1)), phi=phi, xi=np.ones(m), state=state)
        factored = []
        design = regression.polynomial_design

        def counted(features, degree):
            factored.append(len(features))
            return design(features, degree)

        monkeypatch.setattr(regression, "polynomial_design", counted)
        y, z, _ = solve_linear_bsde_weighted(data, w)
        assert sum(factored) == K + 1  # nodes 0..K, each once
        assert np.all(y[:, K + 1 :] == 1.0) and np.all(z[:, K + 1 :] == 0.0)

    def test_constant_lsmc_targets_request_no_basis(self, small_setup, monkeypatch):
        # constant lam and xi, no source: every Y target is constant across
        # paths, so Z = 0 and the implicit step is Y_k = Y_{k+1}/(1 - lam dt)
        grid, w = small_setup
        lam, xi = 0.5, 2.0
        model = driver_model(
            lambda t, x: lam + 0.0 * x, lambda t, x: 0.3 + 0.0 * x, lambda t, x: 0.0 * x,
            lambda x: np.full_like(x, xi), lam, 0.3, 0.0, xi,
        )
        u = constant_control(0.0, w.n_paths, grid.n_steps)
        x = simulate_forward_sde(model, 0.0, u, w)
        factored = []
        factor = regression._factor_block
        monkeypatch.setattr(regression, "_factor_block", lambda *a: factored.append(1) or factor(*a))
        _, z, rep = solve_bsde_lsmc(model, x, u, w)
        assert not factored
        assert np.all(z == 0.0)
        assert rep.y0 == pytest.approx(xi * (1.0 - lam * grid.dt) ** -grid.n_steps, rel=1e-9)

    def test_released_block_is_freed(self, monkeypatch):
        monkeypatch.setattr(regression, "_BLOCK_BYTES", 4 * 8 * 200 * 3)  # four nodes of 200 paths, 3 terms
        bases = NodeBases(np.random.default_rng(0).standard_normal((200, 9, 1)), degree=2)
        block = weakref.ref(bases[8].components.base)
        bases[5]
        assert block() is not None  # nodes 5..8 are one block
        bases[4]
        gc.collect()
        assert block() is None
