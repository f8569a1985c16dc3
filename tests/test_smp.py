"""Hamiltonian evaluation, difference identity, necessary and sufficient checks."""

import numpy as np
import pytest

from quadsmp import smp
from quadsmp.adjoint import linearize, solve_adjoints
from quadsmp.bsde import ControlledTrajectory, solve_bsde_lsmc
from quadsmp.example import example_model, g_running
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import ControlDomain, benchmark_model, scalar_model
from quadsmp.sde import simulate_forward_sde


def _random_point_batch(model, size, seed, box=1.0):
    rng = np.random.default_rng(seed)
    n, d, k = model.n, model.d, model.k
    pts = {
        "x": rng.uniform(-box, box, (size, n)),
        "y": rng.uniform(-box, box, size),
        "z": rng.uniform(-box, box, (size, d)),
        "p": rng.uniform(-box, box, (size, n)),
        "q": rng.uniform(-box, box, (size, n, d)),
        "big_p": rng.uniform(-box, box, (size, n, n)),
    }
    if model.control_domain is not None:
        pts["u"] = model.control_domain.sample(rng, size, k)
        pts["u_ref"] = model.control_domain.sample(rng, size, k)
    else:
        pts["u"] = rng.uniform(-box, box, (size, k))
        pts["u_ref"] = rng.uniform(-box, box, (size, k))
    return pts


class TestHamiltonian:
    def test_reference_point_drops_difference_terms(self):
        model = benchmark_model()
        pts = _random_point_batch(model, 64, seed=0)
        h = smp.hamiltonian(
            model, 0.3, pts["x"], pts["y"], pts["z"], pts["u_ref"],
            pts["p"], pts["q"], pts["big_p"], pts["u_ref"],
        )
        plain = smp.auxiliary_hamiltonian(
            model, 0.3, pts["x"], pts["y"], pts["z"], pts["u_ref"], pts["p"], pts["q"]
        )
        np.testing.assert_allclose(h, plain, atol=1e-14)

    def test_example_gap_is_g_plus_square(self):
        # at the solvable problem's candidate the gap at control u is g(u) + u^2
        model = example_model()
        for u in (0.0, 1.0):
            point = dict(
                x=np.zeros((1, 1)), y=np.zeros(1), z=np.zeros((1, 1)),
                p=np.ones((1, 1)), q=np.zeros((1, 1, 1)), big_p=np.zeros((1, 1, 1)),
            )
            h_u = smp.hamiltonian(
                model, 0.5, point["x"], point["y"], point["z"], np.full((1, 1), u),
                point["p"], point["q"], point["big_p"], np.zeros((1, 1)),
            )
            h_0 = smp.hamiltonian(
                model, 0.5, point["x"], point["y"], point["z"], np.zeros((1, 1)),
                point["p"], point["q"], point["big_p"], np.zeros((1, 1)),
            )
            gap = h_u - h_0
            assert gap.shape == (1,)
            assert gap.item() == pytest.approx(float(g_running(u) + u**2), abs=1e-14)
        assert float(g_running(1.0) + 1.0) == 1.5

    def test_constant_sigma_collapses_to_auxiliary(self):
        model = scalar_model(
            b=lambda t, x, u: 0.2 * x + u,
            b_x=lambda t, x, u: np.full_like(x, 0.2),
            sigma=lambda t, x, u: np.full_like(x, 0.3),
            sigma_x=lambda t, x, u: np.zeros_like(x),
            f=lambda t, x, y, z, u: 0.1 * y + z * 0.2,
            f_x=lambda t, x, y, z, u: np.zeros_like(x),
            f_y=lambda t, x, y, z, u: np.full_like(y, 0.1),
            f_z=lambda t, x, y, z, u: np.full_like(z, 0.2),
            phi=np.tanh,
            phi_x=lambda x: 1 - np.tanh(x) ** 2,
            phi_xx=lambda x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2),
            alpha=1.0, gamma=0.1, l1=1.0, l2=1.0, l3=0.2,
        )
        pts = _random_point_batch(model, 64, seed=1)
        h = smp.hamiltonian(
            model, 0.3, pts["x"], pts["y"], pts["z"], pts["u"],
            pts["p"], pts["q"], pts["big_p"], pts["u_ref"],
        )
        aux = smp.auxiliary_hamiltonian(
            model, 0.3, pts["x"], pts["y"], pts["z"], pts["u"], pts["p"], pts["q"]
        )
        np.testing.assert_allclose(h, aux, atol=1e-14)

    def test_example_auxiliary_value(self):
        model = example_model()
        u = np.array([[0.7]])
        val = smp.auxiliary_hamiltonian(
            model, 0.2, np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), u,
            np.ones((1, 1)), np.zeros((1, 1, 1)),
        )
        assert val.shape == (1,)
        assert val.item() == pytest.approx(0.49, abs=1e-14)


class TestDifferenceIdentity:
    @pytest.mark.parametrize("maker", [benchmark_model, example_model])
    def test_identity_at_roundoff(self, maker):
        model = maker()
        pts = _random_point_batch(model, 1000, seed=7)
        err = smp.hamiltonian_difference_identity(
            model, 0.4, pts["x"], pts["y"], pts["z"], pts["u"], pts["u_ref"],
            pts["p"], pts["q"], pts["big_p"],
        )
        assert err <= 1e-12

    def test_same_control_is_zero(self):
        model = benchmark_model()
        pts = _random_point_batch(model, 100, seed=8)
        err = smp.hamiltonian_difference_identity(
            model, 0.4, pts["x"], pts["y"], pts["z"], pts["u_ref"], pts["u_ref"],
            pts["p"], pts["q"], pts["big_p"],
        )
        assert err == 0.0


@pytest.fixture(scope="module")
def example_candidate():
    model = example_model()
    grid = TimeGrid(1.0, 64)
    w = generate_brownian(3000, grid, 1, seed=2)
    u = constant_control(0.0, 3000, 64)
    x = simulate_forward_sde(model, 0.0, u, w)
    y, z, _ = solve_bsde_lsmc(model, x, u, w)
    traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
    adj = solve_adjoints(linearize(model, traj))
    return model, traj, adj


class TestGlobalSmp:
    def test_candidate_control_alone_is_empty(self, example_candidate):
        model, traj, adj = example_candidate
        report = smp.check_global_smp(
            model, traj, adj.p, adj.q, adj.big_p, [[0.0]], tolerance=0.0
        )
        assert report.empty
        assert report.n_violations == 0

    def test_optimal_candidate_clean(self, example_candidate):
        model, traj, adj = example_candidate
        report = smp.check_global_smp(
            model, traj, adj.p, adj.q, adj.big_p, [[0.0], [1.0]], tolerance=0.05
        )
        assert report.empty

    def test_nonoptimal_candidate_flagged(self):
        model = example_model()
        grid = TimeGrid(1.0, 64)
        w = generate_brownian(3000, grid, 1, seed=4)
        u = constant_control(1.0, 3000, 64)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
        adj = solve_adjoints(linearize(model, traj))
        report = smp.check_global_smp(
            model, traj, adj.p, adj.q, adj.big_p, [[0.0], [1.0]], tolerance=0.05
        )
        assert not report.empty
        assert report.worst_gap < -0.5
        assert len(report.entries) <= 1000


class TestLocalSmp:
    def test_gradient_matches_finite_difference(self):
        model = benchmark_model()
        grid = TimeGrid(0.5, 8)
        w = generate_brownian(200, grid, 1, seed=5)
        u = constant_control(0.2, 200, 8)
        x = simulate_forward_sde(model, 1.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
        rng = np.random.default_rng(0)
        p = rng.standard_normal((200, 9, 1))
        q = rng.standard_normal((200, 8, 1, 1))
        grad, _ = smp.local_smp_gradient(model, traj, p, q)

        # directional derivative of the auxiliary Hamiltonian plus the
        # linearized z-shift term, by central differences in the control
        h = 1e-5
        k = 3
        t = grid.times[k]
        args = (t, traj.x[:, k], traj.y[:, k], traj.z[:, k])
        f_z = model.f_z(*args, traj.u[:, k])

        def shifted(du):
            uu = traj.u[:, k] + du
            base = smp.auxiliary_hamiltonian(model, t, traj.x[:, k], traj.y[:, k], traj.z[:, k], uu, p[:, k], q[:, k])
            shift = np.einsum(
                "md,mid,mi->m",
                f_z,
                model.sigma(t, traj.x[:, k], uu) - model.sigma(t, traj.x[:, k], traj.u[:, k]),
                p[:, k],
            )
            return base + shift

        fd = (shifted(h) - shifted(-h)) / (2 * h)
        np.testing.assert_allclose(grad[:, k, 0], fd, rtol=1e-4, atol=1e-7)

    def test_interior_zero_gradient_passes(self):
        # a model with no control dependence has a vanishing gradient
        model = scalar_model(
            b=lambda t, x, u: 0.1 * x,
            b_x=lambda t, x, u: np.full_like(x, 0.1),
            sigma=lambda t, x, u: np.full_like(x, 0.2),
            sigma_x=lambda t, x, u: np.zeros_like(x),
            f=lambda t, x, y, z, u: 0.1 * y,
            f_x=lambda t, x, y, z, u: np.zeros_like(x),
            f_y=lambda t, x, y, z, u: np.full_like(y, 0.1),
            f_z=lambda t, x, y, z, u: np.zeros_like(z),
            phi=np.tanh,
            phi_x=lambda x: 1 - np.tanh(x) ** 2,
            phi_xx=lambda x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2),
            b_u=lambda t, x, u: np.zeros_like(x),
            sigma_u=lambda t, x, u: np.zeros_like(x),
            f_u=lambda t, x, y, z, u: np.zeros_like(u),
            alpha=1.0, gamma=0.1, l1=1.0, l2=1.0, l3=0.1,
            control_domain=ControlDomain("box", (-1.0, 1.0)),
        )
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(100, grid, 1, seed=6)
        u = constant_control(0.0, 100, 16)
        x = simulate_forward_sde(model, 1.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
        grad, report = smp.local_smp_gradient(
            model, traj, np.ones((100, 17, 1)), np.zeros((100, 16, 1, 1)),
            test_controls=[[-1.0], [1.0]], tolerance=1e-10,
        )
        assert report["passed"]
        assert report["worst_pairing"] == 0.0

    def test_missing_control_derivatives_rejected(self, example_candidate):
        model, traj, adj = example_candidate
        from dataclasses import replace

        broken = replace(model, b_u=None)
        with pytest.raises(ValueError, match="control derivatives"):
            smp.local_smp_gradient(broken, traj, adj.p, adj.q)


def _lq_model(quadratic_f=True, concave_terminal=False):
    sign = -1.0 if concave_terminal else 1.0
    f = (
        (lambda t, x, y, z, u: 0.05 * x**2 + 0.1 * y + 0.2 * z + u**2)
        if quadratic_f
        else (lambda t, x, y, z, u: 0.1 * y + 0.2 * z + 0.3 * u)
    )
    f_x = (
        (lambda t, x, y, z, u: 0.1 * x)
        if quadratic_f
        else (lambda t, x, y, z, u: np.zeros_like(x))
    )
    f_u = (
        (lambda t, x, y, z, u: 2.0 * u)
        if quadratic_f
        else (lambda t, x, y, z, u: np.full_like(u, 0.3))
    )
    return scalar_model(
        b=lambda t, x, u: 0.1 * x + 0.2 * u,
        b_x=lambda t, x, u: np.full_like(x, 0.1),
        sigma=lambda t, x, u: 0.15 * x + 0.25 * u,
        sigma_x=lambda t, x, u: np.full_like(x, 0.15),
        f=f,
        f_x=f_x,
        f_y=lambda t, x, y, z, u: np.full_like(y, 0.1),
        f_z=lambda t, x, y, z, u: np.full_like(z, 0.2),
        f_xx=(lambda t, x, y, z, u: np.full_like(x, 0.1)) if quadratic_f else None,
        phi=lambda x: sign * x**2,
        phi_x=lambda x: sign * 2.0 * x,
        phi_xx=lambda x: np.full_like(x, sign * 2.0),
        b_u=lambda t, x, u: np.full_like(x, 0.2),
        sigma_u=lambda t, x, u: np.full_like(x, 0.25),
        f_u=f_u,
        alpha=2.0, gamma=0.1, l1=1.0, l2=2.0, l3=0.2,
        phi_bound=10.0, f_y_bound=0.1,
        control_domain=ControlDomain("box", (-1.0, 1.0)),
    )


@pytest.fixture(scope="module")
def lq_candidate():
    model = _lq_model()
    grid = TimeGrid(1.0, 32)
    w = generate_brownian(1000, grid, 1, seed=12)
    u = constant_control(0.0, 1000, 32)
    x = simulate_forward_sde(model, 0.5, u, w)
    y, z, _ = solve_bsde_lsmc(model, x, u, w)
    traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
    adj = solve_adjoints(linearize(model, traj))
    return model, traj, adj


class TestSufficientConditions:
    def test_convex_linear_sigma_passes(self, lq_candidate):
        model, traj, adj = lq_candidate
        report = smp.check_sufficient_conditions(
            model, traj, adj.p, adj.q, 0.5,
            comparison_controls=[[-0.5], [0.5], [1.0]],
            n_samples=4096, seed=1, tolerance=1e-9,
        )
        assert report["terminal_worst_margin"] >= 0.0
        assert report["convexity_worst_margin"] >= -1e-9
        assert report["passed"]

    def test_affine_auxiliary_is_equality(self):
        model = _lq_model(quadratic_f=False)
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(400, grid, 1, seed=13)
        u = constant_control(0.0, 400, 16)
        x = simulate_forward_sde(model, 0.5, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
        adj = solve_adjoints(linearize(model, traj))
        # affine generator, linear sigma, but a convex terminal: the
        # auxiliary-Hamiltonian inequality binds with equality
        report = smp.check_sufficient_conditions(
            model, traj, adj.p, adj.q, 0.5,
            comparison_controls=[[1.0]], n_samples=2048, seed=2,
        )
        assert abs(report["convexity_worst_margin"]) <= 1e-10

    def test_concave_terminal_fails(self):
        model = _lq_model(concave_terminal=True)
        grid = TimeGrid(1.0, 16)
        w = generate_brownian(400, grid, 1, seed=14)
        u = constant_control(0.0, 400, 16)
        x = simulate_forward_sde(model, 0.5, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        traj = ControlledTrajectory(w=w, x=x, y=y, z=z, u=u)
        adj = solve_adjoints(linearize(model, traj))
        report = smp.check_sufficient_conditions(
            model, traj, adj.p, adj.q, 0.5, comparison_controls=[[1.0]], n_samples=1024, seed=3
        )
        assert report["terminal_worst_margin"] < 0.0
        assert not report["passed"]
