"""Closed-form BMO quantities and the ensemble inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import estimate_bmo2_norm_reference, john_nirenberg_reference

from quadsmp import bmo
from quadsmp.grids import TimeGrid, generate_brownian


class TestPsi:
    def test_convention_at_infinity(self):
        assert bmo.psi(math.inf) == 0.0

    def test_value_at_two(self):
        # independent evaluation of the closed form, term by term
        expected = math.sqrt(1.0 + 0.25 * math.log(3.0 / 2.0)) - 1.0
        assert bmo.psi(2.0) == pytest.approx(expected, abs=1e-15)
        assert bmo.psi(2.0) == pytest.approx(0.04945999, abs=1e-8)

    def test_decreasing_sample(self):
        assert bmo.psi(2.0) > bmo.psi(3.0)

    @given(
        a=st.floats(min_value=1.0001, max_value=1e3),
        factor=st.floats(min_value=1.5, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, a, factor):
        assert bmo.psi(a) > bmo.psi(1.0 + (a - 1.0) * factor)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bmo.psi(1.0)
        with pytest.raises(ValueError):
            bmo.psi(0.5)


class TestCriticalExponent:
    def test_zero_norm_gives_infinity(self):
        assert bmo.critical_exponent(0.0) == math.inf

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0, 120.0])
    def test_round_trip_from_exponent(self, p):
        assert bmo.critical_exponent(bmo.psi(p)) == pytest.approx(p, rel=1e-10)

    def test_round_trip_log_spaced_norms(self):
        # float64 places the exponent within one ulp of 1 for norms beyond
        # ~2.6, so the 1e-10 round trip is tested below that
        for norm in np.logspace(-6, 0.4, 100):
            assert abs(bmo.psi(bmo.critical_exponent(norm)) - norm) <= 1e-10

    @given(norm=st.floats(min_value=1e-7, max_value=2.5))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, norm):
        assert bmo.psi(bmo.critical_exponent(norm)) == pytest.approx(norm, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bmo.critical_exponent(-0.1)


class TestReverseHolderConstant:
    def test_degenerate_norm_values(self):
        assert bmo.reverse_holder_constant(1.5, 0.0) == pytest.approx(4.0, abs=1e-12)
        # 2 * (1 - 2/3)^-1, evaluated independently
        assert bmo.reverse_holder_constant(2.0, 0.0) == pytest.approx(6.0, abs=1e-12)

    def test_limit_toward_one(self):
        assert bmo.reverse_holder_constant(1.0 + 1e-9, 0.0) == pytest.approx(2.0, rel=1e-6)

    @given(
        p=st.floats(min_value=1.05, max_value=1.2),
        n1=st.floats(min_value=0.0, max_value=0.2),
        gap=st.floats(min_value=1e-3, max_value=0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_increasing_in_norm(self, p, n1, gap):
        try:
            low = bmo.reverse_holder_constant(p, n1)
            high = bmo.reverse_holder_constant(p, n1 + gap)
        except ValueError:
            return  # outside the admissible region; nothing to compare
        assert high > low

    def test_result_exceeds_two(self):
        for p, n in [(1.5, 0.0), (2.0, 0.0), (1.02, 0.3)]:
            assert bmo.reverse_holder_constant(p, n) > 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bmo.reverse_holder_constant(1.0, 0.0)
        with pytest.raises(ValueError):
            bmo.reverse_holder_constant(1.5, 1.0)  # inner term far above 1


@pytest.fixture(scope="module")
def ensemble():
    return generate_brownian(4000, TimeGrid(1.0, 64), 1, seed=42)


def _constant_martingale(w, h):
    return bmo.MartingalePathSet.from_integrand(np.full(w.increments.shape, h), w)


class TestMartingalePathSet:
    def test_invariants_enforced(self, ensemble):
        values = np.ones((10, 65))
        bracket = np.zeros((10, 65))
        with pytest.raises(ValueError):
            bmo.MartingalePathSet(grid=TimeGrid(1.0, 64), values=values, bracket=bracket)
        values[:, 0] = 0.0
        bracket2 = -np.cumsum(np.ones((10, 65)), axis=1)
        bracket2[:, 0] = 0.0
        with pytest.raises(ValueError):
            bmo.MartingalePathSet(grid=TimeGrid(1.0, 64), values=values, bracket=bracket2)

    def test_from_integrand_bracket(self, ensemble):
        mart = _constant_martingale(ensemble, 2.0)
        assert mart.bracket[:, -1] == pytest.approx(4.0 * np.ones(mart.n_paths))


class TestBmoNormEstimate:
    def test_zero_martingale_exact(self, ensemble):
        assert bmo.estimate_bmo2_norm(_constant_martingale(ensemble, 0.0)) == 0.0

    def test_constant_integrand_bound(self, ensemble):
        h = 0.8
        est = bmo.estimate_bmo2_norm(_constant_martingale(ensemble, h))
        # exact conditional remaining bracket is h^2 (T - t), maximal at t = 0
        assert est <= h * 1.0 * 1.02
        assert est >= h * 0.98

    def test_single_cell_grid_collapses_to_mean(self):
        w = generate_brownian(500, TimeGrid(1.0, 1), 1, seed=5)
        h = np.full(w.increments.shape, 1.5)
        m = bmo.MartingalePathSet.from_integrand(h, w)
        est = bmo.estimate_bmo2_norm(m)
        assert est == pytest.approx(np.sqrt(m.bracket[:, -1].mean()), rel=1e-12)

    def test_needs_paths(self):
        w = generate_brownian(1, TimeGrid(1.0, 4), 1, seed=0)
        m = bmo.MartingalePathSet.from_integrand(np.ones(w.increments.shape), w)
        with pytest.raises(ValueError):
            bmo.estimate_bmo2_norm(m)


class TestEnergyInequality:
    def test_zero_martingale(self, ensemble):
        rep = bmo.energy_inequality_report(_constant_martingale(ensemble, 0.0), 2, 0.0)
        assert rep.passed and rep.worst_margin == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bounded_integrand(self, ensemble, n):
        # |H| <= 1 and T = 1: the bracket is deterministic, below every bound
        rep = bmo.energy_inequality_report(_constant_martingale(ensemble, 1.0), n, 1.0)
        assert rep.passed

    def test_moment_order_validated(self, ensemble):
        with pytest.raises(ValueError):
            bmo.energy_inequality_report(_constant_martingale(ensemble, 1.0), 7, 1.0)


class TestJohnNirenberg:
    def test_zero_martingale(self, ensemble):
        rep = bmo.john_nirenberg_report(_constant_martingale(ensemble, 0.0), delta=0.5, bmo2_norm=0.0)
        assert rep.passed
        assert rep.detail["bound"] == 1.0

    def test_constant_integrand_closed_form(self, ensemble):
        # deterministic bracket: at t = 0 the left side is exactly exp(delta h^2 T)
        h, norm = 1.0, 1.0
        delta = 0.5
        rep = bmo.john_nirenberg_report(_constant_martingale(ensemble, h), delta, norm)
        assert rep.passed
        lhs = math.exp(delta * h * h)
        assert lhs <= 1.0 / (1.0 - delta * norm**2)

    def test_small_delta_limit(self, ensemble):
        rep = bmo.john_nirenberg_report(_constant_martingale(ensemble, 1.0), 1e-9, 1.0)
        assert rep.passed
        assert rep.detail["bound"] == pytest.approx(1.0, abs=1e-8)

    def test_delta_domain(self, ensemble):
        with pytest.raises(ValueError):
            bmo.john_nirenberg_report(_constant_martingale(ensemble, 1.0), 1.2, 1.0)


# -- the shared backward node walk against the per-node estimators ------------

BMO_SUITE_INTEGRANDS = {
    "constant": lambda paths: np.ones_like(paths),
    "sine_of_w": np.sin,
    "half_indicator": lambda paths: 0.5 * (paths > 0.0),
    "zero": np.zeros_like,  # every node ties: the earliest is reported
}


@pytest.fixture(scope="module")
def suite_ensemble():
    # 1000 paths x 64 steps: one feature at degree 2 makes two NodeBases blocks
    return generate_brownian(1000, TimeGrid(1.0, 64), 1, seed=17)


@pytest.mark.parametrize("name", sorted(BMO_SUITE_INTEGRANDS))
def test_node_walk_matches_per_node_estimators(suite_ensemble, name):
    w = suite_ensemble
    paths = w.paths()
    h = BMO_SUITE_INTEGRANDS[name](paths[:, :-1, :])
    mart = bmo.MartingalePathSet.from_integrand(h, w)
    for conditioner in (None, paths, paths[:, :, 0]):
        expected = estimate_bmo2_norm_reference(mart, conditioner)
        assert bmo.estimate_bmo2_norm(mart, conditioner) == pytest.approx(expected, rel=1e-12, abs=0.0)
    declared = float(np.abs(h).max())
    delta = 0.5 * declared**-2 if declared > 0.0 else 1.0
    rep = bmo.john_nirenberg_report(mart, delta, declared)
    passed, margin, detail = john_nirenberg_reference(mart, delta, declared)
    assert rep.passed == passed
    assert rep.worst_margin == pytest.approx(margin, rel=1e-12, abs=0.0)
    assert rep.detail["node"] == detail["node"]
    for key in ("estimate", "std_error", "bound"):
        assert rep.detail[key] == pytest.approx(detail[key], rel=1e-12, abs=0.0)
