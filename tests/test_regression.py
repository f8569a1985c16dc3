"""Cross-path conditional expectation estimator."""

import itertools
import warnings

import numpy as np
import pytest
from support import conditional_expectation_reference, node_basis, standardized_design_reference

from quadsmp import regression
from quadsmp.regression import (
    NodeBases,
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
    fitted = conditional_expectation(node_basis(np.ones((500, 1))), y)
    assert fitted == pytest.approx(np.full(500, y.mean()), abs=1e-12)


def test_exact_recovery_in_span(monkeypatch):
    monkeypatch.setattr(regression, "_WINSOR", 0.0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2000, 1))
    y = 2.0 + 3.0 * x[:, 0] - 0.5 * x[:, 0] ** 2
    fitted = conditional_expectation(node_basis(x, 2), y)
    assert fitted == pytest.approx(y, abs=1e-8)


def test_multicolumn_targets(monkeypatch):
    monkeypatch.setattr(regression, "_WINSOR", 0.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1000, 1))
    y = np.column_stack([x[:, 0], 1.0 - x[:, 0]])
    fitted = conditional_expectation(node_basis(x, 1), y)
    assert fitted.shape == (1000, 2)
    assert fitted == pytest.approx(y, abs=1e-8)


def test_rank_deficiency_warns_and_recovers(monkeypatch):
    monkeypatch.setattr(regression, "_WINSOR", 0.0)
    rng = np.random.default_rng(3)
    base = rng.standard_normal(400)
    x = np.column_stack([base, 2.0 * base])  # exactly collinear
    y = base + 0.01 * rng.standard_normal(400)
    with pytest.warns(RankDeficientRegression):
        fitted = conditional_expectation(node_basis(x, 1), y)
    assert np.corrcoef(fitted, base)[0, 1] > 0.99


def test_target_scaling_is_exact():
    # winsorization and significance pretesting depend on features and
    # t-statistics only, so scaling the target scales the fit exactly
    rng = np.random.default_rng(4)
    x = np.exp(rng.standard_normal((3000, 1)))
    y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(3000)
    basis = node_basis(x)
    one = conditional_expectation(basis, y)
    two = conditional_expectation(basis, 2.0 * y)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_pretest_flattens_pure_noise():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3000, 1))
    y = 1.0 + 0.5 * rng.standard_normal(3000)  # independent of x
    basis = node_basis(x, 2)
    fitted = conditional_expectation(basis, y)
    assert np.ptp(fitted) <= np.ptp(conditional_expectation(basis, y, t_min=0.0))


def test_winsorization_caps_tail_leverage():
    rng = np.random.default_rng(6)
    x = np.exp(2.5 * rng.standard_normal((4000, 1)))  # heavy-tailed feature
    y = 1.0 + rng.standard_normal(4000)
    fitted = conditional_expectation(node_basis(x, 2), y, t_min=0.0)
    assert np.abs(fitted - 1.0).max() < 0.5


def test_near_collinear_design_fits_at_reduced_rank():
    # two features 1e-9 apart: lstsq's rule on the design keeps both, but the
    # Gram matrix, whose condition number is the square, has rank 2; its
    # inverse would turn the pretest's standard errors into noise
    rng = np.random.default_rng(8)
    base = rng.standard_normal(50)
    x = np.column_stack([base, base + 1e-9 * rng.standard_normal(50)])
    y = base + rng.standard_normal(50)
    with pytest.warns(RankDeficientRegression, match="2 < 3 columns"):
        fitted = conditional_expectation(node_basis(x, 1), y)
    assert np.isfinite(fitted).all()
    assert np.corrcoef(fitted, base)[0, 1] > 0.99


# -- the shared basis against the component test restated per call ------------

EQUIVALENCE_CASES = list(itertools.product((1, 2), (1, 2, 3, 4), (1, 2, 3, 4), (0.0, 2.0, 4.0)))


def _random_problem(degree, n_features, n_targets, seed):
    """Gaussian features and targets on their monomials plus unit noise. Target
    column j uses every term (j % 3 == 0), a random half of them (1) or none
    (2), so the component test keeps all, some and no components."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((500, n_features))
    design = polynomial_design(x, degree)
    cols = []
    for j in range(n_targets):
        coef = rng.uniform(0.5, 1.5, design.shape[1]) * rng.choice((-1.0, 1.0), design.shape[1])
        if j % 3 == 1:
            coef[1:] *= rng.random(design.shape[1] - 1) < 0.5
        elif j % 3 == 2:
            coef[1:] = 0.0
        cols.append(design @ coef + rng.standard_normal(500))
    return x, np.column_stack(cols)


def _fit_both(x, y, degree, t_min=4.0):
    with warnings.catch_warnings(record=True) as new_warnings:
        warnings.simplefilter("always", RankDeficientRegression)
        fitted = conditional_expectation(node_basis(x, degree), y, t_min=t_min)
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always", RankDeficientRegression)
        reference, kept = conditional_expectation_reference(x, y, degree=degree, t_min=t_min)
    return fitted, reference, kept, len(new_warnings), len(ref_warnings)


@pytest.mark.parametrize("degree,n_features,n_targets,t_min", EQUIVALENCE_CASES)
def test_basis_kernel_matches_reference(degree, n_features, n_targets, t_min):
    # a component decision that flipped would move the fit by U_j alpha_j,
    # with |alpha_j| near t_min standard errors, far above 1e-10 of the fitted
    # values; so agreement at 1e-10 means the same components were kept
    seed = EQUIVALENCE_CASES.index((degree, n_features, n_targets, t_min))
    x, y = _random_problem(degree, n_features, n_targets, seed)
    fitted, reference, _, n_new, n_ref = _fit_both(x, y, degree=degree, t_min=t_min)
    assert n_new == n_ref == 0
    assert np.abs(fitted - reference).max() <= 1e-10 * np.abs(reference).max()


def test_equivalence_cases_reach_every_pretest_outcome():
    outcomes = set()
    for case, (degree, n_features, n_targets, t_min) in enumerate(EQUIVALENCE_CASES):
        x, y = _random_problem(degree, n_features, n_targets, case)
        _, kept = conditional_expectation_reference(x, y, degree=degree, t_min=t_min)
        for mask in kept:
            outcomes.add("all" if mask.all() else "none" if not mask.any() else "some")
    assert outcomes == {"all", "some", "none"}


@pytest.mark.parametrize(
    "make_x,degree,match",
    [
        # exactly collinear features: lstsq's rank falls short
        (lambda base, rng: np.column_stack([base, 2.0 * base]), 1, "columns"),
        (lambda base, rng: np.column_stack([base, 2.0 * base]), 2, "columns"),
        # full rank to lstsq, rank 2 to the Gram matrix
        (lambda base, rng: np.column_stack([base, base + 1e-9 * rng.standard_normal(base.size)]), 1, "2 < 3 columns"),
    ],
)
def test_rank_deficient_design_matches_reference(make_x, degree, match):
    rng = np.random.default_rng(8)  # the draw of test_near_collinear_design_fits_at_reduced_rank
    base = rng.standard_normal(50)
    x = make_x(base, rng)
    y = np.column_stack([base + rng.standard_normal(50), base**2, rng.standard_normal(50)])
    # the oracle at t_min = 0: lstsq cut at the Gram matrix's rank,
    # s <= sqrt(p eps) s[0], on the reference's design
    a = standardized_design_reference(x, degree)
    coef, *_ = np.linalg.lstsq(a, y, rcond=np.sqrt(a.shape[1] * np.finfo(float).eps))
    with pytest.warns(RankDeficientRegression, match=match):
        fitted = conditional_expectation(node_basis(x, degree), y, t_min=0.0)
    assert np.abs(fitted - a @ coef).max() <= 1e-10 * np.abs(a @ coef).max()
    # the default tests the same components as the reference does
    fitted, reference, _, n_new, n_ref = _fit_both(x, y, degree=degree)
    assert n_new == n_ref == 1
    assert np.abs(fitted - reference).max() <= 1e-10 * np.abs(reference).max()


@pytest.mark.parametrize("seed", range(5))
def test_collinear_slope_survives_the_pretest(seed):
    # two features at correlation 0.999 inflate each column's standard error
    # about 22-fold, so a test on the columns drops both slopes; the leading
    # component carries the slope with standard error sigma
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1500)
    twin = 0.999 * x + np.sqrt(1.0 - 0.999**2) * rng.standard_normal(1500)
    y = 0.3 * x + rng.standard_normal(1500)
    fitted = conditional_expectation(node_basis(np.column_stack([x, twin]), 1), y)
    assert np.ptp(fitted) > 0.0
    assert np.corrcoef(fitted, x)[0, 1] > 0.99


def test_shared_basis_equals_independent_calls():
    rng = np.random.default_rng(10)
    x = np.column_stack([rng.standard_normal(800), np.exp(rng.standard_normal(800))])
    y1 = x[:, 0] - 0.5 * x[:, 1] ** 2 + rng.standard_normal(800)
    y2 = rng.standard_normal((800, 3))
    basis = node_basis(x)
    assert np.array_equal(conditional_expectation(basis, y1), conditional_expectation(node_basis(x), y1))
    fresh = conditional_expectation(node_basis(x), y2, t_min=0.0)
    assert np.array_equal(conditional_expectation(basis, y2, t_min=0.0), fresh)


def test_shared_deficient_basis_warns_once_per_fit():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(300)
    basis = node_basis(np.column_stack([base, 2.0 * base]), 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientRegression)
        for _ in range(2):
            conditional_expectation(basis, base + rng.standard_normal(300))
    assert len(caught) == 2


# -- a block of nodes factored at once against the per-node reference --------


def test_block_design_equals_node_designs():
    x = np.random.default_rng(13).standard_normal((5, 300, 3))
    block = polynomial_design(x, 3)
    assert block.shape == (5, 300, 20)
    for b in range(5):
        assert np.array_equal(block[b], polynomial_design(x[b], 3))
        assert all(block[b, :, j].flags.c_contiguous for j in range(20))


def _mixed_block():
    """Features (50, 4, 2) of a block of four nodes, and targets (50, 4, 2):
    a constant node (every slope column dropped), the near-collinear draw of
    test_near_collinear_design_fits_at_reduced_rank ("2 < 3 columns"), and
    two full-rank nodes. Target column 0 carries a slope, column 1 is noise."""
    rng = np.random.default_rng(8)
    base = rng.standard_normal(50)
    near = np.column_stack([base, base + 1e-9 * rng.standard_normal(50)])
    x = np.stack([np.ones((50, 2)), near, *rng.standard_normal((2, 50, 2))], axis=1)
    y = np.stack([x[..., 0] + rng.standard_normal((50, 4)), rng.standard_normal((50, 4))], axis=2)
    return x, y


@pytest.mark.parametrize("t_min", [0.0, 4.0])
def test_block_fits_match_reference(monkeypatch, t_min):
    x, y = _mixed_block()
    designs = []
    design = regression.polynomial_design
    monkeypatch.setattr(regression, "polynomial_design", lambda f, degree: designs.append(f.shape) or design(f, degree))
    bases = NodeBases(x, degree=1)
    for k in range(3, -1, -1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankDeficientRegression)
            fitted = conditional_expectation(bases[k], y[:, k], t_min=t_min)
        # each reduced-rank fit warns once, however many targets it fits
        assert [w.category for w in caught] == [RankDeficientRegression] * (k == 1)
        assert all("(2 < 3 columns)" in str(w.message) for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientRegression)
            reference, _ = conditional_expectation_reference(x[:, k], y[:, k], degree=1, t_min=t_min)
        assert np.abs(fitted - reference).max() <= 1e-10 * np.abs(reference).max()
    assert designs == [(4, 50, 2)]  # one block
