"""Closed-form BMO-martingale quantities and ensemble-based inequality checks.

The closed forms: the decreasing function psi linking the BMO2 norm to the
critical reverse-Holder exponent, and the reverse-Holder constant. The
ensemble side estimates BMO2 norms and tests the energy and
exponential-moment inequalities on simulated martingales, with conditional
expectations replaced by cross-path regression at grid times (a lower-biased
surrogate: grid times stand in for stopping times and the per-path maximum of
the regression stands in for the essential supremum). Both regression checks
run one backward node walk on one NodeBases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import BrownianEnsemble, TimeGrid, cumsum_steps, step_major
from .regression import NodeBases, conditional_expectation
from .sde import SimulationError

__all__ = [
    "psi",
    "critical_exponent",
    "reverse_holder_constant",
    "MartingalePathSet",
    "estimate_bmo2_norm",
    "energy_inequality_report",
    "john_nirenberg_report",
    "InequalityReport",
]

# Bisection bracket for critical_exponent; the lower edge is pushed toward 1
# adaptively because float64 cannot represent exponents arbitrarily close to 1.
_BRACKET_LO = 1.0 + 1e-9
_BRACKET_HI = 1e9
_BRACKET_LO_MIN = 1.0 + 1e-15
_BISECTION_ITERS = 200


def psi(x: float) -> float:
    """Decreasing map from the critical exponent to the BMO2 norm.

    psi(x) = sqrt(1 + ln((2x-1)/(2(x-1))) / x^2) - 1 on (1, inf); psi(inf) = 0.
    Evaluated as u / (sqrt(1 + u) + 1) with u = log1p(1/(2(x-1))) / x^2, which
    is the same number without the sqrt(1+u) - 1 cancellation at large x.
    """
    if math.isinf(x):
        return 0.0
    if not x > 1.0:
        raise ValueError(f"psi is defined on (1, inf), got {x}")
    u = math.log1p(1.0 / (2.0 * (x - 1.0))) / (x * x)
    return u / (math.sqrt(1.0 + u) + 1.0)


def critical_exponent(bmo2_norm: float) -> float:
    """Unique p with psi(p) = bmo2_norm, by bisection; inf for norm 0."""
    if bmo2_norm < 0:
        raise ValueError(f"bmo2_norm must be nonnegative, got {bmo2_norm}")
    if bmo2_norm == 0.0:
        return math.inf
    lo, hi = _BRACKET_LO, _BRACKET_HI
    while psi(lo) < bmo2_norm:
        if lo <= _BRACKET_LO_MIN:
            raise ValueError(
                f"bmo2_norm={bmo2_norm} exceeds the float64-representable range "
                f"of psi near 1 (max ~{psi(_BRACKET_LO_MIN):.3f})"
            )
        lo = 1.0 + (lo - 1.0) / 1e3
    while psi(hi) > bmo2_norm:
        hi *= 1e3
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if psi(mid) > bmo2_norm:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reverse_holder_constant(p: float, bmo2_norm: float) -> float:
    """Reverse-Holder constant 2*(1 - (2p-2)/(2p-1)*exp(p^2*(n^2+2n)))^-1."""
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if bmo2_norm < 0:
        raise ValueError(f"bmo2_norm must be nonnegative, got {bmo2_norm}")
    n = bmo2_norm
    inner = (2.0 * p - 2.0) / (2.0 * p - 1.0) * math.exp(p * p * (n * n + 2.0 * n))
    if inner >= 1.0:
        raise ValueError(
            f"p={p} is outside the admissible range for bmo2_norm={n} "
            f"(inner term {inner:.6g} >= 1)"
        )
    return 2.0 / (1.0 - inner)


@dataclass(frozen=True)
class MartingalePathSet:
    """Grid samples of a real martingale M and its quadratic variation.

    values and bracket: (n_paths, n_steps+1); both start at 0 and the bracket
    is nondecreasing along each path.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    bracket: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v, b = self.values, self.bracket
        if v.shape != b.shape or v.ndim != 2 or v.shape[1] != self.grid.n_steps + 1:
            raise ValueError(f"inconsistent shapes {v.shape} / {b.shape}")
        if np.any(v[:, 0] != 0.0) or np.any(b[:, 0] != 0.0):
            raise ValueError("martingale and bracket must start at 0")
        if np.any(np.diff(b, axis=1) < -1e-12):
            raise ValueError("bracket must be nondecreasing")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_integrand(cls, h: np.ndarray, w: BrownianEnsemble) -> "MartingalePathSet":
        """Stochastic integral of h against w: M = sum_i h^i dW^i.

        h: (n_paths, n_steps, d) or broadcastable.
        """
        dw = w.increments
        hh = np.broadcast_to(np.asarray(h, dtype=float), dw.shape)
        n_paths, n_steps = dw.shape[0], dw.shape[1]
        values = step_major((n_paths, n_steps + 1), 0.0)
        bracket = step_major((n_paths, n_steps + 1), 0.0)
        cumsum_steps(np.sum(hh * dw, axis=2), out=values[:, 1:])
        cumsum_steps(np.sum(hh * hh, axis=2) * w.grid.dt, out=bracket[:, 1:])
        return cls(grid=w.grid, values=values, bracket=bracket)


def _regressed_maxima(m: MartingalePathSet, target_at, conditioner=None):
    """(k, target, estimate) for k = N down to 0: estimate is the per-path
    maximum of the regression of target_at(k) on the conditioning state at
    node k (default M_t itself; conditioner (m, N+1) or (m, N+1, p)). The walk
    runs backward because NodeBases factors the block of nodes that ends at
    the requested node; a constant target is its own fit."""
    bases = NodeBases(m.values if conditioner is None else conditioner, degree=2)
    for k in range(m.grid.n_steps, -1, -1):
        target = target_at(k)
        fitted = target[:1] if np.all(target == target[0]) else conditional_expectation(bases[k], target)
        yield k, target, float(fitted.max())


def estimate_bmo2_norm(m: MartingalePathSet, conditioner: np.ndarray | None = None) -> float:
    """Grid-time surrogate of the BMO2 norm of M.

    At each node the remaining bracket <M>_T - <M>_t is regressed on the
    conditioning state (default: M_t itself); the estimate is the square root
    of the largest per-path fitted value over all nodes.
    """
    if m.n_paths < 2:
        raise ValueError("need at least 2 paths")
    total = m.bracket[:, -1]
    maxima = (estimate for _, _, estimate in _regressed_maxima(m, lambda k: total - m.bracket[:, k], conditioner))
    return math.sqrt(max(0.0, *maxima))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of an ensemble inequality check with statistical slack."""

    passed: bool
    worst_margin: float  # bound - empirical value, at the worst node
    detail: dict


def energy_inequality_report(
    m: MartingalePathSet, n: int, bmo2_norm: float
) -> InequalityReport:
    """Check E[<M>_T^n] <= n! * norm^(2n) up to 3 standard errors, or raise SimulationError."""
    if not 1 <= n <= 6:
        raise ValueError(f"moment order n must be in 1..6, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        powered = m.bracket[:, -1] ** n
        mean = float(powered.mean())
        se = float(powered.std(ddof=1) / math.sqrt(m.n_paths)) if m.n_paths > 1 else 0.0
        bound = math.factorial(n) * bmo2_norm ** (2 * n)
    if not all(map(math.isfinite, (mean, se, bound))):
        raise SimulationError(f"energy moment n={n} leaves float64: mean {mean:.3g}, se {se:.3g}, bound {bound:.3g}")
    passed = mean - 3.0 * se <= bound
    return InequalityReport(
        passed=passed,
        worst_margin=bound - mean,
        detail={"n": n, "empirical": mean, "std_error": se, "bound": bound},
    )


def john_nirenberg_report(m: MartingalePathSet, delta: float, bmo2_norm: float) -> InequalityReport:
    """Exponential-moment check of the remaining bracket at every grid time.

    The conditional expectation E[exp(delta*(<M>_T - <M>_t)) | F_t] is
    estimated by regression and its per-path maximum compared against
    (1 - delta*norm^2)^-1 plus 3 standard errors.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if bmo2_norm > 0 and delta >= bmo2_norm**-2:
        raise ValueError(f"delta={delta} must be below bmo2_norm^-2={bmo2_norm**-2}")
    bound = 1.0 / (1.0 - delta * bmo2_norm**2)
    total = m.bracket[:, -1]
    worst_margin, worst, passed = math.inf, None, True
    for k, target, estimate in _regressed_maxima(m, lambda k: np.exp(delta * (total - m.bracket[:, k]))):
        se = float(target.std(ddof=1) / math.sqrt(m.n_paths)) if m.n_paths > 1 else 0.0
        margin = bound + 3.0 * se - estimate
        if margin <= worst_margin:  # the walk runs backward: the earliest of tied nodes is kept
            worst_margin = margin
            worst = {"node": k, "estimate": estimate, "std_error": se, "bound": bound}
        if margin < 0:
            passed = False
    return InequalityReport(passed=passed, worst_margin=worst_margin, detail=worst or {})
