"""Hamiltonian evaluation, the difference identity, and the global and local
necessary checks."""

from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from support import plain_hamiltonian, planar_model

from quadsmp import smp
from quadsmp.adjoint import linearize, solve_adjoints
from quadsmp.bsde import ControlledTrajectory, solve_bsde_lsmc
from quadsmp.example import example_model, g_running
from quadsmp.grids import TimeGrid, constant_control, generate_brownian
from quadsmp.models import ControlDomain, benchmark_model, scalar_model
from quadsmp.sde import simulate_forward_sde
from quadsmp.spike import SpikePerturbation, hatted_coefficients


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
        plain = plain_hamiltonian(
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
        aux = plain_hamiltonian(
            model, 0.3, pts["x"], pts["y"], pts["z"], pts["u"], pts["p"], pts["q"]
        )
        np.testing.assert_allclose(h, aux, atol=1e-14)


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
    lin = linearize(model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u))
    return lin, solve_adjoints(lin)


class TestGlobalSmp:
    def test_candidate_control_alone_is_empty(self, example_candidate):
        lin, adj = example_candidate
        report = smp.check_global_smp(lin, adj, [[0.0]], tolerance=0.0)
        assert report.empty
        assert report.n_violations == 0

    def test_optimal_candidate_clean(self, example_candidate):
        lin, adj = example_candidate
        report = smp.check_global_smp(lin, adj, [[0.0], [1.0]], tolerance=0.05)
        assert report.empty

    def test_nonoptimal_candidate_flagged(self):
        model = example_model()
        grid = TimeGrid(1.0, 64)
        w = generate_brownian(3000, grid, 1, seed=4)
        u = constant_control(1.0, 3000, 64)
        x = simulate_forward_sde(model, 0.0, u, w)
        y, z, _ = solve_bsde_lsmc(model, x, u, w)
        lin = linearize(model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u))
        report = smp.check_global_smp(lin, solve_adjoints(lin), [[0.0], [1.0]], tolerance=0.05)
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
        grad, _ = smp.local_smp_gradient(linearize(model, traj), p, q, test_controls=[[1.0]], tolerance=0.0)

        # directional derivative of the plain Hamiltonian plus the
        # linearized z-shift term, by central differences in the control
        h = 1e-5
        k = 3
        t = grid.times[k]
        args = (t, traj.x[:, k], traj.y[:, k], traj.z[:, k])
        f_z = model.f_z(*args, traj.u[:, k])

        def shifted(du):
            uu = traj.u[:, k] + du
            base = plain_hamiltonian(model, t, traj.x[:, k], traj.y[:, k], traj.z[:, k], uu, p[:, k], q[:, k])
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
            linearize(model, traj), np.ones((100, 17, 1)), np.zeros((100, 16, 1, 1)),
            test_controls=[[-1.0], [1.0]], tolerance=1e-10,
        )
        assert report["passed"]
        assert report["worst_pairing"] == 0.0

    def test_missing_control_derivatives_rejected(self, example_candidate):
        lin, adj = example_candidate
        broken = replace(lin, model=replace(lin.model, b_u=None))
        with pytest.raises(ValueError, match="control derivatives"):
            smp.local_smp_gradient(broken, adj.p, adj.q, test_controls=[[1.0]], tolerance=0.0)


@pytest.fixture(scope="module")
def planar_candidate():
    """A solved n = d = k = 2 candidate (120 paths, 4 steps) with its adjoints."""
    model = planar_model()
    grid = TimeGrid(1.0, 4)
    w = generate_brownian(120, grid, model.d, seed=3)
    u = constant_control([0.2, -0.4], 120, 4)
    x = simulate_forward_sde(model, [0.3, -0.2], u, w)
    y, z, _ = solve_bsde_lsmc(model, x, u, w)
    lin = linearize(model, ControlledTrajectory(w=w, x=x, y=y, z=z, u=u))
    return lin, solve_adjoints(lin)


def _defined_gap(lin, adj, k, u):
    """smp.hamiltonian(u) - smp.hamiltonian(u_bar) at step k."""
    traj = lin.traj
    at = (lin.model, traj.w.grid.times[k], traj.x[:, k], traj.y[:, k], traj.z[:, k])
    rest = (adj.p[:, k], adj.q[:, k], adj.big_p[:, k], traj.u[:, k])
    return smp.hamiltonian(*at, u, *rest) - smp.hamiltonian(*at, traj.u[:, k], *rest)


def _counting(model):
    """Copy of model whose callables count their calls by field name."""
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    callables = {f.name: getattr(model, f.name) for f in fields(model) if callable(getattr(model, f.name))}
    return replace(model, **{name: counted(name, fn) for name, fn in callables.items()}), calls


PLANAR_CONTROLS = [[1.0, -1.0], [-0.5, 0.7]]


@pytest.mark.filterwarnings("ignore::quadsmp.regression.RankDeficientRegression")
class TestGapAtPlanarCandidate:
    """The shared gap kernel against the Hamiltonian's definition at n = d = k = 2,
    where the q-sigma pairing, Delta and the P term have every axis filled."""

    def test_global_check_gaps_equal_definition(self, planar_candidate):
        lin, adj = planar_candidate
        # a tolerance of -inf lists every cell: 120 x 4 x 2 = 960 < MAX_ENTRIES
        report = smp.check_global_smp(lin, adj, PLANAR_CONTROLS, tolerance=-np.inf)
        assert report.n_violations == len(report.entries) == 960
        gaps = np.empty((2, 4, 120))
        for path, k, c, gap in report.entries:
            gaps[PLANAR_CONTROLS.index(c), k, path] = gap
        for j, c in enumerate(PLANAR_CONTROLS):
            for k in range(4):
                expected = _defined_gap(lin, adj, k, np.broadcast_to(c, (120, 2)))
                scale = np.abs(expected).max()
                np.testing.assert_allclose(gaps[j, k], expected, rtol=1e-12, atol=1e-12 * scale)

    def test_spike_gap_equals_definition(self, planar_candidate):
        lin, adj = planar_candidate
        replacement = np.array([-0.6, 0.9])
        hats = hatted_coefficients(lin, SpikePerturbation(t0=0.25, eps=0.5, replacement=replacement), adj)
        assert (hats.k0, hats.k1) == (1, 3)
        for j, k in enumerate(range(hats.k0, hats.k1)):
            expected = _defined_gap(lin, adj, k, np.broadcast_to(replacement, (120, 2)))
            scale = np.abs(expected).max()
            np.testing.assert_allclose(hats.gap[:, j], expected, rtol=1e-12, atol=1e-12 * scale)

    def test_checks_evaluate_only_the_test_controls(self, planar_candidate):
        # the candidate's b, sigma, f and f_z come from the linearization
        lin, adj = planar_candidate
        model, calls = _counting(lin.model)
        lin = replace(lin, model=model)
        smp.check_global_smp(lin, adj, PLANAR_CONTROLS, tolerance=0.0)
        assert calls == {"b": 4 * 2, "sigma": 4 * 2, "f": 4 * 2}
        calls.clear()
        smp.local_smp_gradient(lin, adj.p, adj.q, test_controls=PLANAR_CONTROLS, tolerance=0.0)
        assert calls == {"b_u": 4, "sigma_u": 4, "f_u": 4}
