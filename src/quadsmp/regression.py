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
    """Emitted by each fit on a design whose Gram matrix is rank deficient:
    the fit reads the SVD components up to that rank."""


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
    """One node's design and the SVD of its slope columns: each is built on
    the first fit that reads it and reused by every later fit on the same
    (m, p) features."""

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
    def components(self) -> np.ndarray:
        """(m, rank) orthonormal left singular vectors of the centered slope
        columns, cut at lstsq's rule on the Gram matrix of the p-column design,
        s^2 > eps p s[0]^2 (the intercept's singular value sqrt(m) is <= s[0])."""
        p = self.design.shape[1]
        u, s, _ = np.linalg.svd(self.design[:, 1:], full_matrices=False)
        rank = np.count_nonzero(s * s > np.finfo(float).eps * p * s[:1] ** 2)
        return u[:, :rank]


def conditional_expectation(
    features: np.ndarray | RegressionBasis,
    targets: np.ndarray,
    degree: int = 2,
    winsor: float = 0.005,
    t_min: float = 4.0,
) -> np.ndarray:
    """Fitted values of a polynomial regression of targets on features.

    features: (m, p) state observed at the conditioning time, or its
    RegressionBasis built with the same degree and winsor; constant columns
    are dropped after centering, so fully degenerate features collapse the
    estimate to the unconditional mean. targets: (m,) or (m, q).

    fitted = mean + U (alpha * keep), alpha = U'(y - mean), on the basis's
    components U: the mean plus the whole projection is least squares, and
    the intercept is never tested. Each alpha_j has standard error sigma
    however collinear the columns, so it is kept iff |alpha_j| >= t_min
    sigma-hat, sigma-hat^2 the residual variance on m - rank degrees of
    freedom (t_min = 0 keeps all); pure-noise surfaces collapse to the mean.
    Winsorizing the features at the (winsor, 1-winsor) quantiles caps tail
    leverage. Neither device changes when the targets are scaled, so the fit
    scales with them. A rank-deficient design has fewer components, and warns.
    """
    basis = features if isinstance(features, RegressionBasis) else RegressionBasis(features, degree, winsor)
    if (basis.degree, basis.winsor) != (degree, winsor):
        raise ValueError(f"basis has degree {basis.degree}, winsor {basis.winsor}; fit asked {degree}, {winsor}")
    targets = np.asarray(targets, dtype=float)
    t = targets.reshape(len(targets), -1)
    u = basis.components
    m, rank, p = len(u), u.shape[1] + 1, basis.design.shape[1]
    if rank < p:
        message = f"rank-deficient regression design ({rank} < {p} columns); fitted at rank {rank}"
        warnings.warn(message, RankDeficientRegression, stacklevel=2)
    mean = t.mean(axis=0)
    centered = t - mean
    alpha = u.T @ centered
    rss = np.sum(centered * centered, axis=0) - np.sum(alpha * alpha, axis=0)
    sigma2 = np.maximum(rss, 0.0) / max(m - rank, 1)
    fitted = mean + u @ (alpha * (alpha * alpha >= t_min * t_min * sigma2))
    return fitted.reshape(targets.shape)
