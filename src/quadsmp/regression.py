"""Cross-path least-squares estimation of conditional expectations.

The single regression primitive shared by the backward solvers and the BMO
estimators: fit a polynomial in the supplied state features and return the
fitted values, which play the role of E[target | F_t] on the ensemble. A
RegressionBasis holds one node's design and factorization, so every target
regressed on the same features reuses them.
"""

from __future__ import annotations

import itertools
import warnings
from functools import cached_property

import numpy as np

__all__ = ["polynomial_design", "RegressionBasis", "conditional_expectation", "RankDeficientRegression"]

class RankDeficientRegression(UserWarning):
    """Emitted when the Gram matrix of the design is rank deficient and the
    fit is the truncated-SVD least-squares solution at its rank."""


def polynomial_design(features: np.ndarray, degree: int) -> np.ndarray:
    """Multivariate monomials of the feature columns up to total degree.

    features: (m, p). Returns (m, n_terms) including the intercept column.
    """
    x = np.asarray(features, dtype=float).reshape(len(features), -1)
    m, p = x.shape
    cols = [np.ones(m)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(p), deg):
            term = np.ones(m)
            for j in combo:
                term = term * x[:, j]
            cols.append(term)
    return np.column_stack(cols)


class RegressionBasis:
    """One node's design and its SVD: each is built on the first fit that
    reads it and reused by every later fit on the same (m, p) features."""

    def __init__(self, features: np.ndarray, degree: int = 2, winsor: float = 0.005):
        self.features = np.asarray(features, dtype=float).reshape(len(features), -1)
        self.degree = degree
        self.winsor = winsor

    @cached_property
    def design(self) -> np.ndarray:
        """(m, p) standardized design; column 0 is the intercept."""
        x = self.features
        if self.winsor > 0.0 and x.shape[0] > 20:
            # np.quantile's linear rule between order statistics, without its overhead
            rank = (x.shape[0] - 1) * np.array([self.winsor, 1.0 - self.winsor])
            below = np.floor(rank).astype(int)
            a, b = np.sort(x, axis=0)[np.stack([below, below + 1])]
            g = (rank - below)[:, None]
            x = np.clip(x, *np.where(g < 0.5, a + (b - a) * g, b - (b - a) * (1 - g)))
        design = polynomial_design(x, self.degree)
        # center/scale the non-intercept columns by their std; drop (near-)constant
        # columns so degenerate designs collapse cleanly to the unconditional mean
        mean = design.mean(axis=0)
        mean[0] = 0.0
        design -= mean
        scale = np.sqrt(np.mean(design * design, axis=0))  # 1 on the intercept
        keep = scale > 1e-10 * (1.0 + np.abs(mean))
        return design[:, keep] / scale[keep]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, s, vt) cut at the rank of the Gram matrix A'A, whose inverse the
        pretest reads: s is zero where s^2 <= eps p s[0]^2 (lstsq's rule on A'A)."""
        u, s, vt = np.linalg.svd(self.design, full_matrices=False)
        rank = int(np.count_nonzero(s * s > np.finfo(float).eps * self.design.shape[1] * s[0] ** 2))
        return u[:, :rank], s[:rank], vt[:rank]

    @cached_property
    def gram_inv_diag(self) -> np.ndarray:
        """Diagonal of the Gram inverse at full rank, sum_j (vt[j, i] / s[j])^2."""
        _, s, vt = self.svd
        return np.sum((vt / s[:, None]) ** 2, axis=0)


def conditional_expectation(
    features: np.ndarray | RegressionBasis,
    targets: np.ndarray,
    degree: int = 2,
    winsor: float = 0.005,
    t_min: float = 2.0,
) -> np.ndarray:
    """Fitted values of a polynomial regression of targets on features.

    features: (m, p) state observed at the conditioning time, or its
    RegressionBasis built with the same degree and winsor; constant columns
    are dropped after centering, so fully degenerate features collapse the
    estimate to the unconditional mean. targets: (m,) or (m, q).

    Two conditioning safeguards, both functions of the features and of
    coefficient significance only (so the estimator still scales linearly
    with the targets): feature columns are winsorized at the
    (winsor, 1-winsor) quantiles, removing tail leverage, and slope terms
    whose t-statistic falls below t_min are refit away, so pure-noise
    surfaces collapse to the mean instead of acquiring spurious derivatives.
    On a design whose Gram matrix is rank deficient the fit is cut at that
    rank, with a warning and no pretest.
    """
    basis = features if isinstance(features, RegressionBasis) else RegressionBasis(features, degree, winsor)
    if (basis.degree, basis.winsor) != (degree, winsor):
        raise ValueError(f"basis has degree {basis.degree}, winsor {basis.winsor}; fit asked {degree}, {winsor}")
    targets = np.asarray(targets, dtype=float)
    t = targets.reshape(len(targets), -1)
    a = basis.design
    m, p = a.shape
    u, s, vt = basis.svd
    coef = vt.T @ ((u.T @ t) / s[:, None])
    fitted = a @ coef

    if s.size < p:
        warnings.warn(
            f"rank-deficient regression design ({s.size} < {p} columns); fitted at rank {s.size}",
            RankDeficientRegression,
            stacklevel=2,
        )
    elif t_min > 0.0 and p > 1 and m > p + 2:
        sigma2 = np.sum((t - fitted) ** 2, axis=0) / (m - p)  # per target column, on m - p dof
        for col in range(t.shape[1]):
            se = np.sqrt(np.maximum(sigma2[col] * basis.gram_inv_diag, 1e-300))
            significant = np.abs(coef[:, col]) >= t_min * se
            significant[0] = True
            if not significant[1:].any():
                fitted[:, col] = t[:, col].mean()
            elif not significant.all():
                sub = a[:, significant]
                sub_coef, *_ = np.linalg.lstsq(sub, t[:, col], rcond=None)
                fitted[:, col] = sub @ sub_coef
    return fitted.reshape(targets.shape)
