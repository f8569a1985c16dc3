"""Cross-path conditional expectation estimator."""

import numpy as np
import pytest

from quadsmp.regression import (
    RankDeficientRegression,
    conditional_expectation,
    polynomial_design,
)


def test_design_terms_univariate():
    x = np.array([[1.0], [2.0]])
    design = polynomial_design(x, 2)
    assert design.shape == (2, 3)
    assert design[1] == pytest.approx([1.0, 2.0, 4.0])


def test_design_terms_bivariate():
    x = np.array([[1.0, 2.0]])
    design = polynomial_design(x, 2)
    # 1, x1, x2, x1^2, x1 x2, x2^2
    assert design[0] == pytest.approx([1.0, 1.0, 2.0, 1.0, 2.0, 4.0])


def test_degenerate_features_collapse_to_mean():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(500)
    fitted = conditional_expectation(np.ones((500, 1)), y)
    assert fitted == pytest.approx(np.full(500, y.mean()), abs=1e-12)


def test_exact_recovery_in_span():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2000, 1))
    y = 2.0 + 3.0 * x[:, 0] - 0.5 * x[:, 0] ** 2
    fitted = conditional_expectation(x, y, degree=2, winsor=0.0)
    assert fitted == pytest.approx(y, abs=1e-8)


def test_multicolumn_targets():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1000, 1))
    y = np.column_stack([x[:, 0], 1.0 - x[:, 0]])
    fitted = conditional_expectation(x, y, degree=1, winsor=0.0)
    assert fitted.shape == (1000, 2)
    assert fitted == pytest.approx(y, abs=1e-8)


def test_rank_deficiency_warns_and_recovers():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(400)
    x = np.column_stack([base, 2.0 * base])  # exactly collinear
    y = base + 0.01 * rng.standard_normal(400)
    with pytest.warns(RankDeficientRegression):
        fitted = conditional_expectation(x, y, degree=1, winsor=0.0)
    assert np.corrcoef(fitted, base)[0, 1] > 0.99


def test_target_scaling_is_exact():
    # winsorization and significance pretesting depend on features and
    # t-statistics only, so scaling the target scales the fit exactly
    rng = np.random.default_rng(4)
    x = np.exp(rng.standard_normal((3000, 1)))
    y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(3000)
    one = conditional_expectation(x, y)
    two = conditional_expectation(x, 2.0 * y)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_pretest_flattens_pure_noise():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3000, 1))
    y = 1.0 + 0.5 * rng.standard_normal(3000)  # independent of x
    fitted = conditional_expectation(x, y, degree=2)
    assert np.ptp(fitted) <= np.ptp(
        conditional_expectation(x, y, degree=2, t_min=0.0)
    )


def test_winsorization_caps_tail_leverage():
    rng = np.random.default_rng(6)
    x = np.exp(2.5 * rng.standard_normal((4000, 1)))  # heavy-tailed feature
    y = 1.0 + rng.standard_normal(4000)
    fitted = conditional_expectation(x, y, degree=2, t_min=0.0)
    assert np.abs(fitted - 1.0).max() < 0.5


def test_singular_gram_at_full_rank_falls_back_to_ridge():
    # two features 1e-9 apart: lstsq still sees a full-rank design, but its
    # Gram matrix, whose condition number is the square, is singular
    rng = np.random.default_rng(8)
    base = rng.standard_normal(50)
    x = np.column_stack([base, base + 1e-9 * rng.standard_normal(50)])
    y = base + rng.standard_normal(50)
    with pytest.warns(RankDeficientRegression, match="singular Gram"):
        fitted = conditional_expectation(x, y, degree=1)
    assert np.isfinite(fitted).all()
    assert np.corrcoef(fitted, base)[0, 1] > 0.99
