"""Time grid, Brownian ensemble and control helpers."""

import numpy as np
import pytest
from support import path_major, steps_contiguous

from quadsmp.grids import TimeGrid, constant_control, cumsum_steps, generate_brownian, step_major


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        assert grid.times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_index_of(self):
        grid = TimeGrid(1.0, 8)
        assert grid.index_of(0.25) == 2
        assert grid.index_of(0.0) == 0
        with pytest.raises(ValueError):
            grid.index_of(0.3)
        with pytest.raises(ValueError):
            grid.index_of(1.5)


class TestBrownianEnsemble:
    def test_same_seed_bit_identical(self):
        grid = TimeGrid(1.0, 16)
        a = generate_brownian(64, grid, 2, seed=9)
        b = generate_brownian(64, grid, 2, seed=9)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seed_differs(self):
        grid = TimeGrid(1.0, 16)
        a = generate_brownian(64, grid, 2, seed=9)
        b = generate_brownian(64, grid, 2, seed=10)
        assert not np.array_equal(a.increments, b.increments)

    def test_increment_variance(self):
        grid = TimeGrid(1.0, 32)
        w = generate_brownian(10_000, grid, 1, seed=3)
        per_step_var = w.increments[:, :, 0].var(axis=0)
        assert np.all(np.abs(per_step_var / grid.dt - 1.0) < 0.10)

    def test_cross_coordinate_independence(self):
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(10_000, grid, 2, seed=3)
        flat = w.increments.reshape(-1, 2)
        corr = np.corrcoef(flat[:, 0], flat[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_mean_sanity(self):
        # per-step sample means stay within 4 standard errors of zero
        grid = TimeGrid(1.0, 16)
        n_paths = 20_000
        w = generate_brownian(n_paths, grid, 1, seed=8)
        bound = 4.0 * np.sqrt(grid.dt) / np.sqrt(n_paths)
        assert np.all(np.abs(w.increments.mean(axis=0)) < bound)

    def test_paths_cumulative(self):
        grid = TimeGrid(1.0, 8)
        w = generate_brownian(16, grid, 1, seed=2)
        paths = w.paths()
        assert np.all(paths[:, 0] == 0.0)
        assert paths[:, -1] == pytest.approx(w.increments.sum(axis=1))

    def test_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            generate_brownian(0, grid, 1, seed=0)
        with pytest.raises(ValueError):
            generate_brownian(4, grid, 0, seed=0)


def test_constant_control_shape():
    u = constant_control(0.5, 7, 4)
    assert u.shape == (7, 4, 1)
    assert np.all(u == 0.5)
    u2 = constant_control([1.0, -1.0], 3, 5)
    assert u2.shape == (3, 5, 2)


class TestStepMajorStorage:
    def test_helper_orders_storage_by_step(self):
        a = step_major((5, 7, 2))
        assert a.shape == (5, 7, 2)
        assert a.swapaxes(0, 1).flags.c_contiguous
        assert steps_contiguous(a)
        assert np.all(step_major((5, 7), 0.5) == 0.5)

    def test_helper_fills_from_any_layout(self):
        v = np.random.default_rng(0).standard_normal((5, 7, 2))
        assert np.array_equal(step_major(v.shape, v), v)
        assert np.array_equal(step_major(v.shape, np.asfortranarray(v)), v)

    def test_increments_equal_the_path_major_draw(self):
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(64, grid, 2, seed=9)
        draw = np.random.default_rng(9).standard_normal((64, 16, 2)) * np.sqrt(grid.dt)
        assert np.array_equal(w.increments, draw)

    def test_step_slices_contiguous(self):
        w = generate_brownian(64, TimeGrid(1.0, 16), 2, seed=9)
        assert steps_contiguous(w.increments)
        assert steps_contiguous(w.paths())
        assert steps_contiguous(constant_control([1.0, -1.0], 64, 16))

    def test_paths_agree_on_path_major_increments(self):
        w = generate_brownian(64, TimeGrid(1.0, 16), 2, seed=9)
        w_pm = path_major(w)
        assert not steps_contiguous(w_pm.increments)
        assert np.array_equal(w_pm.paths(), w.paths())

    @pytest.mark.parametrize("trailing", [(), (3,)])
    def test_cumsum_steps_equals_numpy_cumsum(self, trailing):
        v = np.random.default_rng(1).standard_normal((50, 40) + trailing)
        for a in (step_major(v.shape, v), v, v[:, ::-1]):
            out = step_major(v.shape)
            assert cumsum_steps(a, out=out) is out
            assert np.array_equal(out, np.cumsum(a, axis=1))
        # the reversed view of step-major storage, as the suffix sums use it
        out = step_major(v.shape)
        cumsum_steps(v[:, ::-1], out=out[:, ::-1])
        assert np.array_equal(out, np.cumsum(v[:, ::-1], axis=1)[:, ::-1])
