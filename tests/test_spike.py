"""Spike windows, variational solutions, residual ladders and order fits."""

import dataclasses

import numpy as np
import pytest
from scipy.special import stdtrit
from support import (
    assert_close_rel,
    expansion_residuals_reference,
    integrated_square_reference,
    path_major,
    planar_candidate,
    run_spike_study_reference,
    same_bits,
    solve_yhat_full_reference,
    steps_contiguous,
    sup_square_reference,
    value_remainder_reference,
    yhat0_direct_estimate,
)

from quadsmp.adjoint import AdjointBundle, linearize, solve_adjoints
from quadsmp.bsde import (
    ControlledTrajectory,
    LinearBsdeData,
    exponential_weight,
    solve_bsde_lsmc,
    solve_linear_bsde_weighted,
)
from quadsmp.grids import TimeGrid, constant_control, generate_brownian, step_major
from quadsmp.models import benchmark_model
from quadsmp.sde import simulate_forward_sde
from quadsmp.spike import (
    ExpansionResiduals,
    SpikePerturbation,
    build_spiked_control,
    compute_y1z1,
    compute_y2z2,
    expansion_residuals,
    fit_convergence_order,
    hatted_coefficients,
    integrated_square,
    run_spike_study,
    solve_x1,
    solve_x2,
    solve_yhat,
    sup_square,
    value_remainder_estimate,
    _t_quantile,
)


@pytest.fixture(scope="module")
def base_pipeline():
    model = benchmark_model()
    grid = TimeGrid(1.0, 128)
    w = generate_brownian(3000, grid, 1, seed=21)
    u_bar = constant_control(0.0, 3000, 128)
    x = simulate_forward_sde(model, 1.0, u_bar, w)
    y, z, _ = solve_bsde_lsmc(model, x, u_bar, w)
    traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u_bar)
    lin = linearize(model, traj)
    adj = solve_adjoints(lin)
    return model, grid, traj, adj, lin


class TestSpikeWindow:
    def test_zero_width_is_identity(self):
        grid = TimeGrid(1.0, 16)
        u = constant_control(0.3, 4, 16)
        spike = SpikePerturbation(t0=0.25, eps=0.0, replacement=np.array([1.0]))
        assert np.array_equal(build_spiked_control(u, spike, grid), u)

    def test_full_horizon_replacement(self):
        grid = TimeGrid(1.0, 16)
        u = constant_control(0.3, 4, 16)
        spike = SpikePerturbation(t0=0.0, eps=1.0, replacement=np.array([1.0]))
        assert np.all(build_spiked_control(u, spike, grid) == 1.0)

    def test_single_cell(self):
        grid = TimeGrid(1.0, 16)
        u = constant_control(0.0, 4, 16)
        spike = SpikePerturbation(t0=0.5, eps=grid.dt, replacement=np.array([1.0]))
        spiked = build_spiked_control(u, spike, grid)
        changed = np.nonzero((spiked != u).any(axis=(0, 2)))[0]
        assert list(changed) == [8]

    def test_off_grid_rejected(self):
        grid = TimeGrid(1.0, 16)
        u = constant_control(0.0, 4, 16)
        with pytest.raises(ValueError):
            build_spiked_control(u, SpikePerturbation(0.26, 0.125, np.array([1.0])), grid)
        with pytest.raises(ValueError):
            build_spiked_control(u, SpikePerturbation(0.9375, 0.125, np.array([1.0])), grid)


def _unit_adjoints(m, n_steps):
    """p = 1 and q = P = Q = 0 for a scalar model."""
    return AdjointBundle(
        p=np.ones((m, n_steps + 1, 1)),
        q=np.zeros((m, n_steps, 1, 1)),
        big_p=np.zeros((m, n_steps + 1, 1, 1)),
        big_q=np.zeros((m, n_steps, 1, 1, 1)),
    )


# spike windows on a 64-step unit grid: at the start, interior, ending at the horizon
WINDOWS = [(0.0, 0.25), (0.25, 0.25), (0.75, 0.25)]


class TestVariationalStates:
    def test_no_spike_gives_zero(self, base_pipeline):
        model, grid, traj, adj, lin = base_pipeline
        spike = SpikePerturbation(t0=0.25, eps=8 * grid.dt, replacement=np.array([0.0]))
        hats = hatted_coefficients(lin, spike, adj)
        x1 = solve_x1(lin, hats)
        x2 = solve_x2(lin, x1, hats)
        y1 = compute_y1z1(adj, x1)
        y_hat = solve_yhat(lin, hats)
        y2 = compute_y2z2(adj, x1, x2, y_hat)
        for arr in (x1, x2, y1, y_hat, y2):
            assert np.all(arr == 0.0)
        assert expansion_residuals(traj, traj, x1) == ExpansionResiduals(0.0, 0.0, 0.0)
        gamma_tilde = exponential_weight(lin.f_y, lin.f_z, traj.w)
        no_cost_gap = np.zeros(traj.n_paths)
        assert value_remainder_estimate(lin, no_cost_gap, x1, adj, hats, gamma_tilde) == (0.0, 0.0)

    def test_hats_live_on_the_window(self, base_pipeline, spiked):
        model, grid, traj, adj, lin = base_pipeline
        spike, _, hats, _, _ = spiked
        k0, n_eps = spike.window(grid)
        assert (hats.k0, hats.k1) == (k0, k0 + n_eps)
        assert hats.b_hat.shape[1] == hats.sigma_x_hat.shape[1] == hats.gap.shape[1] == n_eps
        u = np.broadcast_to(spike.replacement, (traj.n_paths, model.k))
        f_hat_delta = np.empty((traj.n_paths, n_eps))
        for j in range(n_eps):
            k = k0 + j
            t, x, y, z, u_bar = grid.times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k]
            # against the candidate's coefficients, the calls linearize made when it held them
            assert np.array_equal(hats.b_hat[:, j], model.b(t, x, u) - model.b(t, x, u_bar))
            assert np.array_equal(hats.sigma_hat[:, j], model.sigma(t, x, u) - model.sigma(t, x, u_bar))
            assert np.array_equal(hats.sigma_x_hat[:, j], model.sigma_x(t, x, u) - lin.sigma_x[:, k])
            delta = np.einsum("mid,mi->md", hats.sigma_hat[:, j], adj.p[:, k])
            assert np.array_equal(hats.delta[:, j], delta)
            f_hat_delta[:, j] = model.f(t, x, y, z + delta, u) - model.f(t, x, y, z, u_bar)
        # the window-wide driver formula that hats.gap replaced, bit for bit
        k1 = k0 + n_eps
        drv = np.einsum("mti,mti->mt", adj.p[:, k0:k1], hats.b_hat)
        q_sigma_hat = np.einsum("mtid,mtid->mt", adj.q[:, k0:k1], hats.sigma_hat)
        assert np.array_equal(hats.q_sigma_hat, q_sigma_hat)
        drv += q_sigma_hat
        drv += f_hat_delta
        drv += 0.5 * np.einsum("mtid,mtij,mtjd->mt", hats.sigma_hat, adj.big_p[:, k0:k1], hats.sigma_hat)
        assert np.array_equal(hats.gap, drv)

    @pytest.mark.parametrize("t0,eps", WINDOWS, ids=["start", "interior", "end"])
    def test_x1_additive_window_integral(self, t0, eps):
        # frozen dynamics: the first variation is the windowed diffusion gap
        model = benchmark_model()
        grid = TimeGrid(1.0, 64)
        w = generate_brownian(200, grid, 1, seed=3)
        u_bar = constant_control(0.0, 200, 64)
        x = np.zeros((200, 65, 1))
        y = np.zeros((200, 65))
        z = np.zeros((200, 64, 1))
        frozen = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u_bar)

        import quadsmp.models as models_mod

        flat = models_mod.scalar_model(
            b=lambda t, xx, u: np.zeros_like(xx),
            b_x=lambda t, xx, u: np.zeros_like(xx),
            sigma=lambda t, xx, u: u + np.zeros_like(xx),
            sigma_x=lambda t, xx, u: np.zeros_like(xx),
            f=lambda t, xx, y_, z_, u: np.zeros_like(y_),
            f_x=lambda t, xx, y_, z_, u: np.zeros_like(xx),
            f_y=lambda t, xx, y_, z_, u: np.zeros_like(y_),
            f_z=lambda t, xx, y_, z_, u: np.zeros_like(z_),
            phi=lambda xx: np.zeros_like(xx),
            phi_x=lambda xx: np.zeros_like(xx),
            phi_xx=lambda xx: np.zeros_like(xx),
            alpha=1.0, gamma=0.1, l1=1.0, l2=1.0, l3=0.1,
        )
        spike = SpikePerturbation(t0=t0, eps=eps, replacement=np.array([2.0]))
        lin = linearize(flat, frozen)
        hats = hatted_coefficients(lin, spike, _unit_adjoints(200, 64))
        x1 = solve_x1(lin, hats)
        k0, n_eps = spike.window(grid)
        paths = w.paths()[:, :, 0]
        window_w = paths[:, np.minimum(np.arange(65), k0 + n_eps)] - paths[:, np.minimum(np.arange(65), k0)]
        assert x1[:, :, 0] == pytest.approx(2.0 * window_w, abs=1e-12)

    @pytest.mark.parametrize("t0,eps", WINDOWS, ids=["start", "interior", "end"])
    def test_x2_drift_window_integral(self, t0, eps):
        # zero curvature and sigma_x_hat: the second variation is b_hat * elapsed
        import quadsmp.models as models_mod

        flat = models_mod.scalar_model(
            b=lambda t, xx, u: u + np.zeros_like(xx),
            b_x=lambda t, xx, u: np.zeros_like(xx),
            sigma=lambda t, xx, u: np.zeros_like(xx),
            sigma_x=lambda t, xx, u: np.zeros_like(xx),
            f=lambda t, xx, y_, z_, u: np.zeros_like(y_),
            f_x=lambda t, xx, y_, z_, u: np.zeros_like(xx),
            f_y=lambda t, xx, y_, z_, u: np.zeros_like(y_),
            f_z=lambda t, xx, y_, z_, u: np.zeros_like(z_),
            phi=lambda xx: np.zeros_like(xx),
            phi_x=lambda xx: np.zeros_like(xx),
            phi_xx=lambda xx: np.zeros_like(xx),
            alpha=1.0, gamma=0.1, l1=1.0, l2=1.0, l3=0.1,
        )
        grid = TimeGrid(1.0, 64)
        w = generate_brownian(50, grid, 1, seed=4)
        u_bar = constant_control(0.0, 50, 64)
        frozen = ControlledTrajectory(
            w=w, x=np.zeros((50, 65, 1)), y=np.zeros((50, 65)), z=np.zeros((50, 64, 1)), u=u_bar
        )
        spike = SpikePerturbation(t0=t0, eps=eps, replacement=np.array([3.0]))
        lin = linearize(flat, frozen)
        hats = hatted_coefficients(lin, spike, _unit_adjoints(50, 64))
        x1 = solve_x1(lin, hats)
        x2 = solve_x2(lin, x1, hats)
        elapsed = np.clip(grid.times, t0, t0 + eps) - t0
        assert x2[:, :, 0] == pytest.approx(np.broadcast_to(3.0 * elapsed, (50, 65)), abs=1e-12)


@pytest.fixture(scope="module")
def spiked(base_pipeline):
    model, grid, traj, adj, lin = base_pipeline
    spike = SpikePerturbation(t0=0.25, eps=16 * grid.dt, replacement=np.array([1.0]))
    u_eps = build_spiked_control(traj.u, spike, grid)
    hats = hatted_coefficients(lin, spike, adj)
    x1 = solve_x1(lin, hats)
    x2 = solve_x2(lin, x1, hats)
    return spike, u_eps, hats, x1, x2


class TestBackwardRelations:
    def test_y1_starts_at_zero(self, base_pipeline, spiked):
        model, grid, traj, adj, lin = base_pipeline
        spike, _, hats, x1, _ = spiked
        y1 = compute_y1z1(adj, x1)
        assert np.all(y1[:, 0] == 0.0)

    def test_y2_equals_yhat_at_zero(self, base_pipeline, spiked):
        model, grid, traj, adj, lin = base_pipeline
        spike, _, hats, x1, x2 = spiked
        y_hat = solve_yhat(lin, hats)
        y2 = compute_y2z2(adj, x1, x2, y_hat)
        assert y2[:, 0] == pytest.approx(y_hat[:, 0], abs=1e-12)

    def test_yhat0_against_direct_weight_sde(self, base_pipeline, spiked):
        model, grid, traj, adj, lin = base_pipeline
        spike, _, hats, _, _ = spiked
        y_hat = solve_yhat(lin, hats)
        direct, se = yhat0_direct_estimate(lin, hats)
        assert abs(float(y_hat[:, 0].mean()) - direct) <= 2.0 * se + 1e-4

    def test_first_variation_weighted_cross_check(self, base_pipeline, spiked):
        # solving the first backward variation as its own linear equation
        # reproduces the value at 0 implied by the adjoint relation (zero)
        model, grid, traj, adj, lin = base_pipeline
        spike, _, hats, x1, _ = spiked
        m, n_steps = traj.n_paths, grid.n_steps
        lam = np.empty((m, n_steps))
        mu = np.empty((m, n_steps, 1))
        phi = np.empty((m, n_steps))
        for k in range(n_steps):
            args = (grid.times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k], traj.u[:, k])
            lam[:, k] = model.f_y(*args)
            mu[:, k] = model.f_z(*args)
            phi[:, k] = np.einsum("mi,mi->m", model.f_x(*args), x1[:, k])
            if hats.k0 <= k < hats.k1:
                phi[:, k] -= np.einsum("md,md->m", model.f_z(*args), hats.delta[:, k - hats.k0])
                phi[:, k] -= np.einsum("mid,mid->m", adj.q[:, k], hats.sigma_hat[:, k - hats.k0])
        xi = np.einsum("mi,mi->m", model.phi_x(traj.x[:, -1]), x1[:, -1])
        data = LinearBsdeData(lam=lam, mu=mu, phi=phi, xi=xi, state=traj.x)
        _, _, rep = solve_linear_bsde_weighted(data, traj.w)
        assert abs(rep.y0) <= 3.0 * rep.y0_std_error + 1e-3

    def test_residual_telescoping_exact(self, base_pipeline, spiked):
        model, grid, traj, adj, lin = base_pipeline
        spike, u_eps, hats, x1, x2 = spiked
        x_eps = simulate_forward_sde(model, 1.0, u_eps, traj.w)
        y_eps, z_eps, _ = solve_bsde_lsmc(model, x_eps, u_eps, traj.w)
        spiked_traj = ControlledTrajectory(w=traj.w, x=x_eps, y=y_eps, z=z_eps, u=u_eps)
        res = expansion_residuals_reference(traj, spiked_traj, x1)
        assert np.array_equal(res.xi2, res.xi1 - x1)

    def test_residuals_reject_another_ensemble_with_the_same_seed(self):
        # same seed and shape, different horizons: the increments differ
        model = benchmark_model()

        def system(horizon):
            w = generate_brownian(20, TimeGrid(horizon, 16), 1, seed=3)
            u = constant_control(0.0, 20, 16)
            x = simulate_forward_sde(model, 1.0, u, w)
            return ControlledTrajectory(w=w, x=x, y=np.zeros((20, 17)), z=np.zeros((20, 16, 1)), u=u)

        base, spiked = system(1.0), system(4.0)
        assert base.w.seed == spiked.w.seed and not np.array_equal(base.w.increments, spiked.w.increments)
        with pytest.raises(ValueError, match="one Brownian ensemble"):
            expansion_residuals(base, spiked, np.zeros_like(base.x))


def _spiked_system(lin, spike, x0):
    """The spiked system on the candidate's ensemble."""
    model, w = lin.model, lin.traj.w
    u_eps = build_spiked_control(lin.traj.u, spike, w.grid)
    x_eps = simulate_forward_sde(model, x0, u_eps, w)
    y_eps, z_eps, _ = solve_bsde_lsmc(model, x_eps, u_eps, w)
    return ControlledTrajectory(w=w, x=x_eps, y=y_eps, z=z_eps, u=u_eps)


def _assert_reducers_match_reference(lin, adj, spike, x0):
    """Every functional of the window, reduced a block of nodes at a time,
    has the bits of the whole-array reference."""
    hats = hatted_coefficients(lin, spike, adj)
    x1 = solve_x1(lin, hats)
    x2 = solve_x2(lin, x1, hats)
    for nodes in (x1, x2, compute_y1z1(adj, x1)):
        assert same_bits(sup_square(nodes), sup_square_reference(nodes))
    base, spiked = lin.traj, _spiked_system(lin, spike, x0)
    gaps = expansion_residuals_reference(base, spiked, x1)
    dt = base.w.grid.dt
    reference = ExpansionResiduals(
        state_gap_sup_sq=sup_square_reference(gaps.xi1),
        state_gap_minus_x1_sup_sq=sup_square_reference(gaps.xi2),
        value_gap_sup_sq_plus_int_z=sup_square_reference(gaps.eta1) + integrated_square_reference(gaps.zeta1, dt),
    )
    res = expansion_residuals(base, spiked, x1)
    assert same_bits(dataclasses.astuple(res), dataclasses.astuple(reference))
    assert same_bits(integrated_square(gaps.zeta1, dt), integrated_square_reference(gaps.zeta1, dt))
    return res


class TestBlockReducers:
    """The gap functionals and sup_square / integrated_square reduce a block
    of nodes at a time; the whole-array reductions are the reference, bit for
    bit, over node and step counts that end in a partial block."""

    @pytest.mark.parametrize("t0,eps", WINDOWS + [(0.25, 0.0)], ids=["start", "interior", "end", "empty"])
    def test_benchmark_candidate(self, base_pipeline, t0, eps):
        model, grid, traj, adj, lin = base_pipeline
        spike = SpikePerturbation(t0=t0, eps=eps, replacement=np.array([1.0]))
        res = _assert_reducers_match_reference(lin, adj, spike, 1.0)
        assert (res.state_gap_sup_sq > 0.0) == (eps > 0.0)

    def test_planar_candidate(self):
        # n = d = 2 on 160 steps: each step adds |zeta1|^2 summed over d to
        # the running sum, the order of the whole-array sum over (N, d)
        model, traj = planar_candidate(400, 160, seed=6)
        lin = linearize(model, traj)
        spike = SpikePerturbation(t0=0.25, eps=0.25, replacement=np.array([0.8, -0.6]))
        res = _assert_reducers_match_reference(lin, solve_adjoints(lin), spike, [0.3, -0.2])
        assert res.value_gap_sup_sq_plus_int_z > 0.0

    @pytest.mark.parametrize("shape", [(8, 1000), (8, 1000, 2)], ids=["scalar", "planar"])
    def test_each_path_adds_its_steps_in_order(self, shape):
        # a mean over many paths hides a last-bit change in one path's sum;
        # with every path but one at zero, and 8 paths, the mean is that
        # path's sum times dt / 8 exactly, so any other order of its adds
        # shows (summing by blocks, or each of the d components in turn)
        rng = np.random.default_rng(2)
        other = step_major(shape, rng.standard_normal(shape))
        for j in range(shape[0]):
            values = np.zeros(shape)
            values[j] = rng.standard_normal(shape[1:]) * np.exp(rng.uniform(-3.0, 3.0, shape[1:]))
            steps = step_major(shape, values + other)
            assert same_bits(integrated_square(steps, 0.01, other), integrated_square_reference(steps - other, 0.01))


def _assert_heads_match_own_windows(lin, adj, widest):
    """Each head of the widest window's hat set has the bits of the hat set
    evaluated for that narrower window on its own."""
    grid = lin.traj.w.grid
    hats = hatted_coefficients(lin, widest, adj)
    k0, n_eps = widest.window(grid)
    for n in sorted({0, 1, n_eps // 2, n_eps - 1, n_eps} & set(range(n_eps + 1))):
        own = hatted_coefficients(lin, dataclasses.replace(widest, eps=n * grid.dt), adj)
        head = hats.head(n)
        assert (head.k0, head.k1) == (own.k0, own.k1) == (k0, k0 + n)
        for f in dataclasses.fields(own)[1:]:
            assert same_bits(getattr(head, f.name), getattr(own, f.name)), (n, f.name)


class TestWidestHatSet:
    """The spike study evaluates one hat set, for its widest window, and
    each window reads its first n_eps cells: the hat set evaluated for each
    window on its own is the reference, bit for bit."""

    @pytest.mark.parametrize("t0,eps", WINDOWS + [(0.25, 0.0)], ids=["start", "interior", "end", "empty"])
    def test_benchmark_candidate(self, base_pipeline, t0, eps):
        model, grid, traj, adj, lin = base_pipeline
        _assert_heads_match_own_windows(lin, adj, SpikePerturbation(t0=t0, eps=eps, replacement=np.array([1.0])))

    def test_planar_candidate(self):
        model, traj = planar_candidate(400, 160, seed=6)
        lin = linearize(model, traj)
        widest = SpikePerturbation(t0=0.25, eps=0.25, replacement=np.array([0.8, -0.6]))
        _assert_heads_match_own_windows(lin, solve_adjoints(lin), widest)


class TestStudyAgainstPerWindowReference:
    """run_spike_study evaluates one hat set and keeps no Q, q or candidate
    b, sigma and f, and P at node 0 alone; the per-window composition that
    held them all (run_spike_study_reference) gives every result, bit for bit."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_every_field_equal(self, seed):
        args = (benchmark_model(), 1.0, TimeGrid(1.0, 64), 400, seed, 0.25, (2, 4, 8, 16), 1.0)
        study, reference = run_spike_study(*args), run_spike_study_reference(*args)
        for f in dataclasses.fields(study):
            assert getattr(study, f.name) == getattr(reference, f.name), f.name
        assert repr(study) == repr(reference)  # a float's repr keeps its bits, -0.0 apart from 0.0


class TestYhatToTheWindowEnd:
    """solve_yhat solves on the first k1 steps and pads with zeros; the solve
    on the whole grid is the reference, bit for bit."""

    # (first step, steps): interior, an empty window at 0, ending at the horizon
    @pytest.mark.parametrize("k0, n_eps", [(32, 16), (0, 0), (112, 16)])
    def test_benchmark_candidate(self, base_pipeline, k0, n_eps):
        model, grid, traj, adj, lin = base_pipeline
        spike = SpikePerturbation(t0=grid.times[k0], eps=n_eps * grid.dt, replacement=np.array([1.0]))
        hats = hatted_coefficients(lin, spike, adj)
        assert np.array_equal(solve_yhat(lin, hats), solve_yhat_full_reference(lin, hats))

    def test_planar_candidate(self):
        # on 20 steps, times[6] / 6 misses dt in the last bit: the solve
        # must step with the grid's own dt
        model, traj = planar_candidate(400, 20, seed=6)
        lin = linearize(model, traj)
        adj = solve_adjoints(lin)
        spike = SpikePerturbation(t0=0.15, eps=0.15, replacement=np.array([0.8, -0.6]))
        hats = hatted_coefficients(lin, spike, adj)
        assert hats.k1 == 6 and TimeGrid(traj.w.grid.times[6], 6).dt != traj.w.grid.dt
        y_hat = solve_yhat(lin, hats)
        assert np.any(y_hat[:, 0] != 0.0)
        assert np.array_equal(y_hat, solve_yhat_full_reference(lin, hats))


class TestValueRemainder:
    """The remainder estimator reads the cost-difference rollout from the two
    LSMC solves' reports; the oracle re-evaluates phi and f along both
    trajectories."""

    @pytest.fixture(scope="class")
    @classmethod
    def candidate(cls):
        model, grid = benchmark_model(), TimeGrid(1.0, 64)
        w = generate_brownian(500, grid, 1, seed=4)
        u_bar = constant_control(0.0, 500, 64)
        x = simulate_forward_sde(model, 1.0, u_bar, w)
        y, z, report = solve_bsde_lsmc(model, x, u_bar, w)
        lin = linearize(model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u_bar))
        return lin, solve_adjoints(lin), exponential_weight(lin.f_y, lin.f_z, w), report

    @pytest.mark.parametrize("n_eps", [4, 8, 16, 32])
    def test_matches_re_evaluated_costs(self, candidate, n_eps):
        lin, adj, gamma_tilde, base_report = candidate
        model, w = lin.model, lin.traj.w
        spike = SpikePerturbation(t0=0.25, eps=n_eps * w.grid.dt, replacement=np.array([1.0]))
        u_eps = build_spiked_control(lin.traj.u, spike, w.grid)
        x_eps = simulate_forward_sde(model, 1.0, u_eps, w)
        y_eps, z_eps, report = solve_bsde_lsmc(model, x_eps, u_eps, w)
        spiked = ControlledTrajectory(w=w, x=x_eps, y=y_eps, z=z_eps, u=u_eps)
        hats = hatted_coefficients(lin, spike, adj)
        x1 = solve_x1(lin, hats)
        estimate = value_remainder_estimate(lin, report.rollout - base_report.rollout, x1, adj, hats, gamma_tilde)
        reference = value_remainder_reference(lin, spiked, x1, adj, hats, gamma_tilde)
        assert_close_rel(estimate[0], reference[0], rel=1e-10)
        assert_close_rel(estimate[1], reference[1], rel=1e-10)


class TestOrderFit:
    def test_exact_powers(self):
        eps = np.array([0.01, 0.02, 0.04, 0.08])
        for power in (0.5, 1.0, 2.0):
            fit = fit_convergence_order(eps, 3.0 * eps**power)
            assert fit.slope == pytest.approx(power, abs=1e-12)
            assert fit.ci_high - fit.ci_low == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("dof", range(1, 41))
    def test_t_quantile_matches_scipy(self, dof):
        for p in (0.975, 0.9, 0.025):
            assert _t_quantile(dof, p) == pytest.approx(float(stdtrit(dof, p)), rel=1e-13)

    def test_interval_uses_the_t_quantile(self):
        eps = np.array([0.01, 0.02, 0.04, 0.08, 0.16])
        errors = eps * np.array([1.0, 1.1, 0.9, 1.05, 0.97])
        fit = fit_convergence_order(eps, errors)
        x, y = np.log(eps), np.log(errors)
        resid = y - np.polyval(np.polyfit(x, y, 1), x)
        se = np.sqrt(resid @ resid / 3 / np.sum((x - x.mean()) ** 2))
        # the 0.975 quantile of Student's t at 3 dof
        assert fit.ci_high - fit.slope == pytest.approx(3.182446305283708 * se, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.2, 0.4], [1.0, 2.0, 4.0])  # too few
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.2, 0.4, 0.8], [1.0, -2.0, 4.0, 8.0])


class TestSpikeStudy:
    @pytest.fixture(scope="class")
    @classmethod
    def study(cls):
        return run_spike_study(
            model=benchmark_model(),
            x0=1.0,
            grid=TimeGrid(1.0, 256),
            n_paths=4000,
            seed=3,
            t0=0.25,
            eps_steps=(4, 8, 16, 32),
            replacement=1.0,
            u_bar_value=0.0,
        )

    def test_slopes_near_theory(self, study):
        assert 0.7 <= study.fits["state_gap_sup_sq"].slope <= 1.3
        assert 0.7 <= study.fits["x1_sup_sq"].slope <= 1.3
        assert 1.6 <= study.fits["state_gap_minus_x1_sup_sq"].slope <= 2.4
        assert 1.6 <= study.fits["x2_sup_sq"].slope <= 2.4
        assert 0.7 <= study.fits["value_gap_sup_sq_plus_int_z"].slope <= 1.3
        assert 0.7 <= study.fits["y1_sup_sq"].slope <= 1.3

    def test_y2_scaling_stable(self, study):
        ratios = np.asarray(study.y2_at_zero) / np.asarray(study.eps_values)
        spread = (ratios.max() - ratios.min()) / np.abs(ratios).max()
        assert spread <= 0.25


class TestStepMajorStorage:
    """Step-major variational states at n = d = k = 2, and the same values
    from path-major inputs."""

    def test_variational_states(self):
        model, traj = planar_candidate(300, 16, seed=5)
        lin = linearize(model, traj)
        adj = solve_adjoints(lin)
        spike = SpikePerturbation(t0=0.25, eps=0.25, replacement=np.array([0.8, -0.6]))
        hats = hatted_coefficients(lin, spike, adj)
        x1 = solve_x1(lin, hats)
        x2 = solve_x2(lin, x1, hats)
        for a in (hats.b_hat, hats.sigma_hat, hats.sigma_x_hat, hats.delta, hats.gap, hats.q_sigma_hat, x1, x2):
            assert steps_contiguous(a)

        lin_pm, adj_pm = path_major(lin), path_major(adj)
        hats_pm = hatted_coefficients(lin_pm, spike, adj_pm)
        for name in ("b_hat", "sigma_hat", "sigma_x_hat", "delta", "gap", "q_sigma_hat"):
            assert_close_rel(getattr(hats_pm, name), getattr(hats, name))
        x1_pm = solve_x1(lin_pm, path_major(hats))
        assert_close_rel(x1_pm, x1)
        assert_close_rel(solve_x2(lin_pm, np.ascontiguousarray(x1), path_major(hats)), x2)
