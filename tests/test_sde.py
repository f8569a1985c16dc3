"""Forward simulation and matrix flows."""

import numpy as np
import pytest

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

