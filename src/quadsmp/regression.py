"""Cross-path least-squares estimation of conditional expectations.

The single regression primitive shared by the backward solvers and the BMO
estimators: fit a polynomial in the supplied state features and return the
fitted values, which play the role of E[target | F_t] on the ensemble. A
RegressionBasis holds one node's factorized design, so every target regressed
on the same features reuses it. Every basis comes from NodeBases, which
factors a walk's bases a block of nodes at a time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .sde import SimulationError

__all__ = ["polynomial_design", "RegressionBasis", "NodeBases", "conditional_expectation", "RankDeficientRegression"]

_BLOCK_BYTES = 1 << 20  # design bytes a NodeBases block factors at once
_WINSOR = 0.005  # features are clipped at their (_WINSOR, 1 - _WINSOR) quantiles


class RankDeficientRegression(UserWarning):
    """Emitted by each fit on a design whose Gram matrix is rank deficient:
    the fit reads the SVD components up to that rank."""


def polynomial_design(features: np.ndarray, degree: int) -> np.ndarray:
    """Multivariate monomials of the feature columns up to total degree.

    features: (..., m, p), any leading node axes, or (m,) for one feature.
    Returns (..., m, n_terms) including the intercept column, stored
    term-major: each column [..., :, j] is one contiguous run of m values.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = x.shape[-1]
    combos = [c for deg in range(1, degree + 1) for c in itertools.combinations_with_replacement(range(p), deg)]
    design = np.empty(x.shape[:-2] + (1 + len(combos), x.shape[-2]))
    design[..., 0, :] = 1.0
    for t, combo in enumerate(combos, 1):
        term = design[..., t, :]
        term[...] = x[..., combo[0]]
        for j in combo[1:]:
            term *= x[..., j]
    return design.swapaxes(-1, -2)


class RegressionBasis(NamedTuple):
    """One node's basis: components (m, rank), the orthonormal left singular
    vectors of its standardized slope columns cut at the design's rank;
    and columns, the design's kept-column count with the intercept."""

    components: np.ndarray
    columns: int


@np.errstate(over="ignore", invalid="ignore")  # a design that leaves float64 is caught before its SVD
def _factor_block(features: np.ndarray, degree: int) -> list[RegressionBasis]:
    """Factor the bases of a block of nodes at once.

    features: (B, p, m), each node's features along the contiguous path axis.
    Each node is winsorized at its (_WINSOR, 1-_WINSOR) quantiles, designed,
    and its non-intercept columns centered and scaled by their std; a
    (near-)constant column is zeroed, so degenerate features collapse to the
    unconditional mean and the block keeps one shape. Each node's components
    are cut at lstsq's rule on the Gram matrix of its p kept columns,
    s^2 > eps p s[0]^2 (the intercept's singular value sqrt(m) is <= s[0]).
    A design that is not finite raises SimulationError."""
    x = features
    m = x.shape[-1]
    if _WINSOR > 0.0 and m > 20:
        # np.quantile's linear rule between order statistics, without its overhead
        rank = (m - 1) * np.array([_WINSOR, 1.0 - _WINSOR])
        below = np.floor(rank).astype(int)
        ordered = np.sort(x, axis=-1)
        a, b = ordered[..., below], ordered[..., below + 1]
        g = rank - below
        bounds = np.where(g < 0.5, a + (b - a) * g, b - (b - a) * (1 - g))
        x = np.clip(x, bounds[..., :1], bounds[..., 1:])
    design = polynomial_design(x.swapaxes(-1, -2), degree)
    columns = design.swapaxes(-1, -2)  # (B, P, m), the design's own storage
    mean = columns.mean(axis=-1)
    mean[:, 0] = 0.0
    columns -= mean[..., None]
    scale = np.sqrt(np.mean(columns * columns, axis=-1))  # 1 on the intercept
    keep = scale > 1e-10 * (1.0 + np.abs(mean))
    columns /= np.where(keep, scale, np.inf)[..., None]
    kept = np.count_nonzero(keep, axis=1)
    if not np.isfinite(design).all():
        raise SimulationError(f"regression design leaves float64 at features of magnitude {np.abs(x).max():.3g}")
    u, s, _ = np.linalg.svd(design[..., 1:], full_matrices=False)
    ranks = np.count_nonzero(s * s > np.finfo(float).eps * kept[:, None] * s[:, :1] ** 2, axis=1)
    return [RegressionBasis(u[i, :, :rank], int(p)) for i, (rank, p) in enumerate(zip(ranks, kept))]


class NodeBases:
    """The regression bases of one backward walk.

    features: node processes (m, N+1, p_i) or (m, N+1); node k's features are
    their node-k slices side by side. bases[k] factors the block of nodes that
    ends at k on the first request of k, with one batched SVD, and lets the
    block before it go: a walk keeps one block alive and factors no node
    above the first one it requests. A block holds about 1 MiB of design.
    """

    def __init__(self, *features: np.ndarray, degree: int):
        arrays = (np.asarray(f, dtype=float) for f in features)
        self.features = [a.reshape(*a.shape[:2], -1) for a in arrays]
        self.degree = degree
        self._block = None  # (first node, its bases) of the live block

    def __getitem__(self, k: int) -> RegressionBasis:
        if self._block is None or not self._block[0] <= k < self._block[0] + len(self._block[1]):
            self._block = None  # free the old block before the next is allocated
            m = self.features[0].shape[0]
            n_terms = math.comb(sum(f.shape[2] for f in self.features) + self.degree, self.degree)
            lo = max(0, k + 1 - max(1, _BLOCK_BYTES // (8 * m * n_terms)))
            x = np.concatenate([f[:, lo : k + 1].transpose(1, 2, 0) for f in self.features], axis=1)
            self._block = (lo, _factor_block(x, self.degree))
        lo, bases = self._block
        return bases[k - lo]


def conditional_expectation(basis: RegressionBasis, targets: np.ndarray, t_min: float = 4.0) -> np.ndarray:
    """Fitted values of a polynomial regression of targets on a node's features.

    basis: the node's RegressionBasis from NodeBases, whose constant columns
    are dropped after centering, so fully degenerate features collapse the
    estimate to the unconditional mean. targets: (m,) or (m, q).

    fitted = mean + U (alpha * keep), alpha = U'(y - mean), on the basis's
    components U: the mean plus the whole projection is least squares, and
    the intercept is never tested. Each alpha_j has standard error sigma
    however collinear the columns, so it is kept iff |alpha_j| >= t_min
    sigma-hat, sigma-hat^2 the residual variance on m - rank degrees of
    freedom (t_min = 0 keeps all); pure-noise surfaces collapse to the mean.
    The basis's winsorized features cap tail leverage. Neither device changes
    when the targets are scaled, so the fit scales with them. A
    rank-deficient design has fewer components, and warns.
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.reshape(len(targets), -1)
    u = basis.components
    m, rank, p = len(u), u.shape[1] + 1, basis.columns
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
