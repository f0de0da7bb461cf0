"""Generators for the extremal entropy-graph sets A_M, their hull
witnesses, and the analytic Hausdorff/diameter bound evaluators.

The sets live over lp^d with one distinguished height axis (index 0):
a simplex parameter t is mapped to M * (horizontal embedding of t) plus
the entropy of t on the height axis.  Two parametrizations are carried:

* ``full``     - n horizontal axes e_1..e_n, ambient dimension n+1; this
                 is the variant whose Euclidean witness distance equals
                 log2(n) exactly at the critical scale
                 M = sqrt((2/ln2) n log2 n), for n >= 4.
* ``anchored`` - n-1 horizontal axes with one simplex vertex placed at
                 the origin, ambient dimension n; the variant used by the
                 general Auerbach-basis argument.

All bound evaluators flag their "n large enough" validity conditions
explicitly instead of assuming them, since desk-scale n may violate
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NormSpec, Vector, simplex_grid_array
from .entropy import entropy_E_array, phi_prime
from .hulls import SampledSet
from .optim import min_smooth_over_simplex

__all__ = [
    "ConstructionSpec",
    "BoundReport",
    "build_entropy_set",
    "witness",
    "critical_scale",
    "euclid_witness_distance",
    "l1_bound",
    "general_bound",
    "lp_distance_to_l1",
    "diam_factor",
    "dyadic_scale_ratio",
    "lowbound3",
    "typep_bound",
]

_LN2 = math.log(2.0)
MAX_SAMPLE_POINTS = 10**7


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one entropy-graph set: the ambient norm, the simplex
    parameter count n, the horizontal scale M, and the sampling grid."""

    space: NormSpec
    n: int
    M: float
    grid: int
    variant: str = "full"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not self.M > 0.0:
            raise ValueError(f"need M > 0, got {self.M}")
        if self.grid < 1:
            raise ValueError(f"need grid >= 1, got {self.grid}")
        if self.variant not in ("full", "anchored"):
            raise ValueError(f"variant must be 'full' or 'anchored', got {self.variant!r}")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated scale and bounds for one construction regime."""

    M_used: float
    hausdorff_lb: float
    diam_ub: float
    validity_condition: bool

    def __post_init__(self):
        if self.hausdorff_lb > self.diam_ub + 1e-12:
            raise ValueError("bound report violates hausdorff_lb <= diam_ub")


def _sample_count(n: int, grid: int) -> int:
    return math.comb(grid + n - 1, n - 1)


def build_entropy_set(spec: ConstructionSpec):
    """Sample of the entropy-graph set over simplex_grid(n, grid).

    Row i holds the height, the entropy of simplex parameter t_i, in
    column 0 and M times t_i's horizontal part in columns 1..n (or
    1..n-1 for the anchored variant).
    """
    count = _sample_count(spec.n, spec.grid)
    if count > MAX_SAMPLE_POINTS:
        raise ValueError(
            f"grid would produce {count} points (cap {MAX_SAMPLE_POINTS})"
        )
    T = simplex_grid_array(spec.n, spec.grid)
    n_horiz = spec.n if spec.variant == "full" else spec.n - 1
    return SampledSet(np.column_stack([entropy_E_array(T), spec.M * T[:, :n_horiz]]))


def witness(spec: ConstructionSpec) -> Vector:
    """The uniform-barycenter hull witness (zero height coordinate)."""
    n_horiz = spec.n if spec.variant == "full" else spec.n - 1
    return Vector({i + 1: spec.M / spec.n for i in range(n_horiz)})


def critical_scale(n: int) -> float:
    """The scale sqrt((2/ln2) n log2 n) at which the Euclidean witness
    distance is exactly log2 n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.sqrt((2.0 / _LN2) * n * math.log2(n))


def _g_objective(n: int, M: float):
    M2 = M * M

    def g(t: np.ndarray) -> float:
        return float(M2 * (t @ t) + entropy_E_array(t) ** 2)

    def grad(t: np.ndarray) -> np.ndarray:
        e = entropy_E_array(t)
        return 2.0 * M2 * t + 2.0 * e * np.array([phi_prime(v) for v in t])

    return g, grad


def euclid_witness_distance(
    n: int,
    M: float,
    mode: str = "auto",
    tol: float = 1e-9,
    starts: int = 8,
    seed: int = 0,
) -> float:
    """Euclidean distance from the barycenter witness to the full
    (un-sampled) entropy-graph set.

    The distance squared is min g - M^2/n with
    g(t) = M^2 sum t_i^2 + (sum phi(t_i))^2 over the simplex.  At the
    critical scale and n >= 4 the minimizer is the uniform point and the
    distance is exactly log2 n ("analytic" mode); otherwise the minimum
    is located numerically by multi-start projected gradient descent,
    giving a certified upper bound on g ("numeric" mode).
    """
    if mode not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    crit = critical_scale(n)
    at_critical = abs(M - crit) <= 1e-9 * crit
    if mode == "auto":
        mode = "analytic" if (at_critical and n >= 4) else "numeric"
    if mode == "analytic":
        if n < 4:
            raise ValueError("analytic mode requires n >= 4")
        if not at_critical:
            raise ValueError(
                f"analytic mode requires the critical scale {crit:.12g}, got M={M}"
            )
        return math.log2(n)
    g, grad = _g_objective(n, M)
    _, gmin = min_smooth_over_simplex(g, grad, n, starts=starts, tol=tol, seed=seed)
    radicand = gmin - M * M / n
    if radicand < -1e-9 * (1.0 + M * M / n):
        raise ArithmeticError(
            f"negative radicand {radicand:.3e}: numeric minimum below M^2/n"
        )
    return math.sqrt(max(radicand, 0.0))


def l1_bound(n: int, eps: float) -> BoundReport:
    """Scale and bounds for the l1 construction.

    M = 4 log2(n)/eps yields hull witnesses at distance >= log2(n) - eps
    while diam <= (8/eps + 1) log2(n); the validity flag records whether
    n is large enough for the lower bound (log2(n+1) - log2(n) <= eps/4).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < eps < 2.0:
        raise ValueError(f"l1_bound needs eps in (0, 2), got {eps}")
    log2n = math.log2(n)
    return BoundReport(
        M_used=4.0 * log2n / eps,
        hausdorff_lb=log2n - eps,
        diam_ub=(8.0 / eps + 1.0) * log2n,
        validity_condition=(math.log2(n + 1) - log2n) <= eps / 4.0,
    )


def general_bound(n: int, eps: float, dist_to_l1: float) -> BoundReport:
    """Bounds for an arbitrary n-dimensional space at Banach-Mazur
    distance `dist_to_l1` from l1^n: the scale is 12 (log2 n)^2 / eps
    (i.e. 4 (log2 n)^2 / alpha with alpha = eps/3) and the diameter is at
    most 25 (log2 n)^2 dist_to_l1 / eps."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < eps < 3.0:
        raise ValueError(f"general_bound needs eps in (0, 3), got {eps}")
    if dist_to_l1 < 1.0:
        raise ValueError(f"Banach-Mazur distance is at least 1, got {dist_to_l1}")
    log2n = math.log2(n)
    return BoundReport(
        M_used=12.0 * log2n * log2n / eps,
        hausdorff_lb=log2n - eps,
        diam_ub=25.0 * log2n * log2n * dist_to_l1 / eps,
        validity_condition=(math.log2(n + 1) - log2n) <= eps / 6.0,
    )


def lp_distance_to_l1(n: int, p: float) -> float:
    """Banach-Mazur distance n^((p-1)/p) from lp^n to l1^n, 1 <= p <= 2."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"the distance formula holds for p in [1, 2], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return float(n) ** ((p - 1.0) / p)


def _ceil_log2(j: int) -> int:
    return (j - 1).bit_length()


def diam_factor(j: int, n: int) -> float:
    """(log2 n - 1 - ceil(log2 j)) sqrt(j) / sqrt(n - j + 1): the per-
    sqrt(n) diameter factor certified by dropping to a j-point subset."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return (math.log2(n) - 1.0 - _ceil_log2(j)) * math.sqrt(j) / math.sqrt(n - j + 1)


def dyadic_scale_ratio(alpha: float) -> float:
    """(log2(alpha) - 1)/sqrt(alpha - 1): the limiting diameter factor
    when n is alpha times a power of two."""
    if alpha <= 1.0:
        raise ValueError(f"need alpha > 1, got {alpha}")
    return (math.log2(alpha) - 1.0) / math.sqrt(alpha - 1.0)


def lowbound3(n: int) -> tuple[int, float]:
    """argmax over j of diam_factor(j, n) and its value.

    The product with sqrt(n) is a certified diameter lower bound for any
    approximately convex set whose hull distance reaches log2(n) - 1.
    Within each dyadic block of j the factor is increasing, so the exact
    argmax is attained at a power of two (or at j = n); only those
    O(log n) candidates are evaluated.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    candidates = [1 << k for k in range(n.bit_length()) if (1 << k) <= n]
    if n not in candidates:
        candidates.append(n)
    best_j, best_f = 1, -math.inf
    for j in sorted(candidates):
        f = diam_factor(j, n)
        if f > best_f:
            best_j, best_f = j, f
    return best_j, best_f


def typep_bound(p: float, Tp: float, d: float) -> float:
    """Diameter lower bound 8^(1/p)/(16 Tp) * (2^d)^((p-1)/p) for a
    type-p space containing an approximately convex set with hull
    distance d; hypothesis d >= 2."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"type exponent must satisfy 1 < p <= 2, got {p}")
    if Tp < 1.0:
        raise ValueError(f"type constant is at least 1, got {Tp}")
    if d < 2.0:
        raise ValueError(
            f"the bound requires hull distance d >= 2 (hypothesis), got {d}"
        )
    return 8.0 ** (1.0 / p) / (16.0 * Tp) * (2.0**d) ** ((p - 1.0) / p)
