"""Forward simulation and matrix flows."""

import numpy as np
import pytest
from support import assert_close_rel, euler_flow_pair_reference, path_major, planar_model, steps_contiguous

from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import scalar_model
from quadsmp.sde import (
    SimulationError,
    simulate_forward_sde,
    simulate_matrix_flow,
)
from quadsmp.spike import fit_convergence_order


def _simple_model(b, sigma):
    return scalar_model(
        b=b,
        b_x=lambda t, x, u: np.zeros_like(x),
        sigma=sigma,
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: np.zeros_like(y),
        f_x=lambda t, x, y, z, u: np.zeros_like(x),
        f_y=lambda t, x, y, z, u: np.zeros_like(y),
        f_z=lambda t, x, y, z, u: np.zeros_like(z),
        phi=lambda x: np.zeros_like(x),
        phi_x=lambda x: np.zeros_like(x),
        phi_xx=lambda x: np.zeros_like(x),
        alpha=1.0,
        gamma=0.1,
        l1=1.0,
        l2=1.0,
        l3=0.1,
    )


class TestForwardSde:
    def test_zero_coefficients_hold_state(self):
        model = _simple_model(lambda t, x, u: np.zeros_like(x), lambda t, x, u: np.zeros_like(x))
        w = generate_brownian(8, TimeGrid(1.0, 16), 1, seed=1)
        x = simulate_forward_sde(model, 1.7, constant_control(0.0, 8, 16), w)
        assert np.all(x == 1.7)

    def test_additive_noise_exact(self):
        model = _simple_model(lambda t, x, u: np.zeros_like(x), lambda t, x, u: np.ones_like(x))
        w = generate_brownian(32, TimeGrid(1.0, 16), 1, seed=2)
        x = simulate_forward_sde(model, 0.5, constant_control(0.0, 32, 16), w)
        assert x[:, :, 0] == pytest.approx(0.5 + w.paths()[:, :, 0])

    def test_geometric_mean_oracle(self):
        mu, v = 0.4, 0.3
        model = _simple_model(lambda t, x, u: mu * x, lambda t, x, u: v * x)
        w = generate_brownian(20_000, TimeGrid(1.0, 64), 1, seed=3)
        x = simulate_forward_sde(model, 1.0, constant_control(0.0, 20_000, 64), w)
        terminal = x[:, -1, 0]
        se = terminal.std(ddof=1) / np.sqrt(terminal.shape[0])
        assert abs(terminal.mean() - np.exp(mu)) <= 3.0 * se + 2e-3  # small dt bias slack

    def test_nonfinite_abort_names_cell(self):
        model = _simple_model(lambda t, x, u: np.exp(x**2), lambda t, x, u: np.zeros_like(x))
        w = generate_brownian(4, TimeGrid(1.0, 32), 1, seed=4)
        with pytest.raises(SimulationError, match=r"path \d+, step \d+"):
            simulate_forward_sde(model, 4.0, constant_control(0.0, 4, 32), w)


A2 = np.array([[0.4, 0.15], [-0.25, 0.35]])
BETA2 = 0.02 * np.array([1.0, 0.6])
C2 = 0.016 * np.stack([np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]])])


class TestMatrixFlow:
    def test_zero_coefficients_identity(self):
        w = generate_brownian(8, TimeGrid(1.0, 16), 2, seed=5)
        pair = simulate_matrix_flow(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2, 2)), w)
        assert np.all(pair.flow == np.eye(2))
        assert np.all(pair.inverse == np.eye(2))
        assert pair.inverse_identity_error() == 0.0

    def test_scalar_exponential(self):
        a = 0.8
        w = generate_brownian(4, TimeGrid(1.0, 256), 1, seed=6)
        pair = simulate_matrix_flow(np.array([[a]]), np.zeros(1), np.zeros((1, 1, 1)), w)
        target = np.exp(a * w.grid.times)
        assert np.abs(pair.flow[:, :, 0, 0] - target).max() < 5e-3  # O(dt)

    def test_inverse_identity_halves_with_dt(self):
        errors = []
        for n_steps in (64, 128):
            w = generate_brownian(4000, TimeGrid(1.0, n_steps), 2, seed=17)
            errors.append(simulate_matrix_flow(A2, BETA2, C2, w).inverse_identity_error())
        ratio = errors[1] / errors[0]
        assert 0.3 <= ratio <= 0.7

    def test_inverse_identity_first_order(self):
        dts, errors = [], []
        for n_steps in (32, 64, 128, 256):
            w = generate_brownian(2000, TimeGrid(1.0, n_steps), 2, seed=21)
            dts.append(1.0 / n_steps)
            errors.append(simulate_matrix_flow(A2, BETA2, C2, w).inverse_identity_error())
        fit = fit_convergence_order(dts, errors)
        assert 0.7 <= fit.slope <= 1.3


    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_matches_two_einsum_reference(self, n, d):
        m, n_steps = 300, 40
        w = generate_brownian(m, TimeGrid(1.0, n_steps), d, seed=31)
        rng = np.random.default_rng(n * 10 + d)
        a = 0.5 * rng.standard_normal((m, n_steps, n, n))
        beta = 0.3 * rng.standard_normal((m, n_steps, d))
        c = 0.3 * rng.standard_normal((m, n_steps, d, n, n))
        x_ref, lam_ref = euler_flow_pair_reference(a, beta, c, w)
        pair = simulate_matrix_flow(a, beta, c, w)
        # relative to the largest entry: the regrouped step moves only round-off
        assert np.abs(pair.flow - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert np.abs(pair.inverse - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()

    def test_inverse_is_stepped_once_on_first_read(self):
        w = generate_brownian(16, TimeGrid(1.0, 8), 2, seed=7)
        pair = simulate_matrix_flow(A2, BETA2, C2, w)
        assert "inverse" not in pair.__dict__
        first = pair.inverse
        assert pair.inverse is first

    def test_nonfinite_flow_names_step(self):
        w = generate_brownian(4, TimeGrid(1.0, 32), 1, seed=8)
        with pytest.raises(SimulationError, match=r"matrix flow became non-finite at path \d+, step \d+"):
            simulate_matrix_flow(np.array([[1e200]]), np.zeros(1), np.zeros((1, 1, 1)), w)

    def test_nonfinite_inverse_flow_raises_on_first_read(self):
        # one step: X = 1 + beta dW stays finite, Lambda's beta^2 dt overflows
        w = generate_brownian(4, TimeGrid(1.0, 1), 1, seed=9)
        pair = simulate_matrix_flow(np.zeros((1, 1)), np.array([1e160]), np.zeros((1, 1, 1)), w)
        assert np.isfinite(pair.flow).all()
        with pytest.raises(SimulationError, match=r"inverse flow became non-finite at path \d+, step 1"):
            pair.inverse


class TestStepMajorStorage:
    """Step-major outputs, and the same values from path-major inputs."""

    def test_forward_sde_on_path_major_inputs(self):
        model = planar_model()
        w = generate_brownian(200, TimeGrid(1.0, 24), model.d, seed=5)
        u = constant_control([0.2, -0.4], 200, 24)
        x = simulate_forward_sde(model, [0.3, -0.2], u, w)
        x_pm = simulate_forward_sde(model, [0.3, -0.2], path_major(u), path_major(w))
        assert steps_contiguous(x) and steps_contiguous(x_pm)
        assert_close_rel(x_pm, x)

    def test_matrix_flow_on_path_major_inputs(self):
        m, n_steps, n, d = 200, 24, 2, 2
        w = generate_brownian(m, TimeGrid(1.0, n_steps), d, seed=31)
        rng = np.random.default_rng(4)
        coefficients = (
            0.5 * rng.standard_normal((n_steps, m, n, n)).swapaxes(0, 1),
            0.3 * rng.standard_normal((n_steps, m, d)).swapaxes(0, 1),
            0.3 * rng.standard_normal((n_steps, m, d, n, n)).swapaxes(0, 1),
        )
        pair = simulate_matrix_flow(*coefficients, w)
        pair_pm = simulate_matrix_flow(*(np.ascontiguousarray(a) for a in coefficients), path_major(w))
        for flow in (pair.flow, pair.inverse, pair_pm.flow, pair_pm.inverse):
            assert steps_contiguous(flow)
        assert_close_rel(pair_pm.flow, pair.flow)
        assert_close_rel(pair_pm.inverse, pair.inverse)
