"""Cross-path least-squares estimation of conditional expectations.

The single regression primitive shared by the backward solvers and the BMO
estimators: fit a polynomial in the supplied state features and return the
fitted values, which play the role of E[target | F_t] on the ensemble.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

__all__ = ["polynomial_design", "conditional_expectation", "RankDeficientRegression"]

RIDGE = 1e-9  # ridge penalty, relative to the mean Gram diagonal, of the rank-deficient fallback


class RankDeficientRegression(UserWarning):
    """Emitted when the design matrix is rank deficient and ridge is used."""


def polynomial_design(features: np.ndarray, degree: int) -> np.ndarray:
    """Multivariate monomials of the feature columns up to total degree.

    features: (m, p). Returns (m, n_terms) including the intercept column.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    m, p = x.shape
    cols = [np.ones(m)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(p), deg):
            term = np.ones(m)
            for j in combo:
                term = term * x[:, j]
            cols.append(term)
    return np.column_stack(cols)


def conditional_expectation(
    features: np.ndarray,
    targets: np.ndarray,
    degree: int = 2,
    winsor: float = 0.005,
    t_min: float = 2.0,
) -> np.ndarray:
    """Fitted values of a polynomial regression of targets on features.

    features: (m, p) state observed at the conditioning time; constant columns
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
    t = np.asarray(targets, dtype=float)
    squeeze = t.ndim == 1
    if squeeze:
        t = t[:, None]
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if winsor > 0.0 and x.shape[0] > 20:
        lo, hi = np.quantile(x, [winsor, 1.0 - winsor], axis=0)
        x = np.clip(x, lo, hi)
    design = polynomial_design(x, degree)

    # center/scale the non-intercept columns; drop (near-)constant columns so
    # degenerate designs collapse cleanly to the unconditional mean
    mean = design.mean(axis=0)
    mean[0] = 0.0
    scale = design.std(axis=0)
    scale[0] = 1.0
    keep = scale > 1e-10 * (1.0 + np.abs(mean))
    keep[0] = True
    scale[~keep] = 1.0
    a = (design - mean) / scale
    a = a[:, keep]
    m, p = a.shape

    coef, _, rank, _ = np.linalg.lstsq(a, t, rcond=None)
    pretest = t_min > 0.0 and p > 1 and m > p + 2
    deficiency = f"{rank} < {p} columns" if rank < p else None
    if deficiency is None and pretest:
        # lstsq ranks the singular values of a; the Gram matrix squares its
        # condition number and can be singular at full rank
        try:
            gram_inv_diag = np.diag(np.linalg.inv(a.T @ a))
        except np.linalg.LinAlgError:
            deficiency = f"singular Gram matrix at rank {rank}"
    if deficiency is not None:
        warnings.warn(
            f"rank-deficient regression design ({deficiency}); falling back to ridge",
            RankDeficientRegression,
            stacklevel=2,
        )
        gram = a.T @ a
        lam = RIDGE * max(1.0, float(np.trace(gram)) / p)
        penalty = lam * np.eye(p)
        penalty[0, 0] = 0.0  # never shrink the intercept
        coef = np.linalg.solve(gram + penalty, a.T @ t)
        fitted = a @ coef
        return fitted[:, 0] if squeeze else fitted

    if pretest:
        resid = t - a @ coef
        dof = m - p
        sigma2 = np.sum(resid**2, axis=0) / dof  # per target column
        fitted = np.empty_like(t)
        for col in range(t.shape[1]):
            se = np.sqrt(np.maximum(sigma2[col] * gram_inv_diag, 1e-300))
            significant = np.abs(coef[:, col]) >= t_min * se
            significant[0] = True
            if significant.all():
                fitted[:, col] = a @ coef[:, col]
            elif not significant[1:].any():
                fitted[:, col] = t[:, col].mean()
            else:
                sub = a[:, significant]
                sub_coef, *_ = np.linalg.lstsq(sub, t[:, col], rcond=None)
                fitted[:, col] = sub @ sub_coef
        return fitted[:, 0] if squeeze else fitted

    fitted = a @ coef
    return fitted[:, 0] if squeeze else fitted
