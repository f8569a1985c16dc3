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

RIDGE = 1e-9  # ridge penalty, relative to the mean Gram diagonal, of the rank-deficient fallback


class RankDeficientRegression(UserWarning):
    """Emitted when the design matrix is rank deficient and ridge is used."""


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
    """One node's design and factorizations: each is built on the first fit
    that reads it and reused by every later fit on the same (m, p) features."""

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
        """(u, s, vt) cut at lstsq's rank: s at or below eps max(m, p) s[0] is zero."""
        u, s, vt = np.linalg.svd(self.design, full_matrices=False)
        rank = int(np.count_nonzero(s > np.finfo(float).eps * max(self.design.shape) * s[0]))
        return u[:, :rank], s[:rank], vt[:rank]

    @cached_property
    def gram_inv_diag(self) -> np.ndarray | None:
        """Diagonal of the Gram inverse, None where the Gram matrix is singular:
        it squares the design's condition number, so it can be at full rank."""
        try:
            return np.diag(np.linalg.inv(self.design.T @ self.design))
        except np.linalg.LinAlgError:
            return None


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
    On a rank deficient design the solve falls back to ridge with a warning.
    """
    basis = features if isinstance(features, RegressionBasis) else RegressionBasis(features, degree, winsor)
    if (basis.degree, basis.winsor) != (degree, winsor):
        raise ValueError(f"basis has degree {basis.degree}, winsor {basis.winsor}; fit asked {degree}, {winsor}")
    targets = np.asarray(targets, dtype=float)
    t = targets.reshape(len(targets), -1)
    a = basis.design
    m, p = a.shape
    u, s, vt = basis.svd
    rank = s.size

    pretest = t_min > 0.0 and p > 1 and m > p + 2
    deficiency = f"{rank} < {p} columns" if rank < p else None
    if deficiency is None and pretest and basis.gram_inv_diag is None:
        deficiency = f"singular Gram matrix at rank {rank}"
    if deficiency is not None:
        warnings.warn(
            f"rank-deficient regression design ({deficiency}); falling back to ridge",
            RankDeficientRegression,
            stacklevel=2,
        )
        gram = a.T @ a
        penalty = RIDGE * max(1.0, float(np.trace(gram)) / p) * np.eye(p)
        penalty[0, 0] = 0.0  # never shrink the intercept
        coef = np.linalg.solve(gram + penalty, a.T @ t)
        pretest = False
    else:
        coef = vt.T @ ((u.T @ t) / s[:, None])
    fitted = a @ coef

    if pretest:
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
