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
from typing import NamedTuple

import numpy as np

from .core import NormSpec, Vector, simplex_grid_array
from .entropy import entropy_E_array, phi
from .hulls import SampledSet
from .optim import _best_first

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
# Split budget of min_smooth_over_simplex; n = 128 at the critical
# scale takes about 31k splits.
EUCLID_MAX_SPLITS = 100_000
# Rounding margin of its lower bounds, relative to their scale.
_ROUND = 2.0**-46


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
        if not self.hausdorff_lb <= self.diam_ub + 1e-12:  # NaN fails too
            raise ValueError("bound report violates hausdorff_lb <= diam_ub")


def _sample_count(n: int, grid: int) -> int:
    return math.comb(grid + n - 1, n - 1)


def build_entropy_set(spec: ConstructionSpec):
    """Sample of the entropy-graph set over simplex_grid_array(n, grid).

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


class _FamilyPoint(NamedTuple):
    """g and its parts at the simplex point with j coordinates equal to
    b, k equal to a = (1 - jb)/k and the rest 0; primes are d/db."""

    b: float
    g: float
    Q: float
    dQ: float
    E: float
    dE: float


def _family_point(k: int, j: int, b: float, M2: float) -> _FamilyPoint:
    a = (1.0 - j * b) / k
    Q = k * a * a + j * b * b
    E = k * phi(a) + j * phi(b)
    dE = j * math.log(a / b) / _LN2 if b > 0.0 else math.inf
    return _FamilyPoint(b, M2 * Q + E * E, Q, 2.0 * j * (b - a), E, dE)


def _family_lower(
    lo: _FamilyPoint, mid: _FamilyPoint, hi: _FamilyPoint, M2: float, n: int
) -> float:
    """Lower bound of g over the family segment [lo.b, hi.b], rounded
    down; see :func:`min_smooth_over_simplex`."""
    w = hi.b - lo.b
    bound = M2 * hi.Q + lo.E * lo.E
    slope = 0.0
    if lo.dE < math.inf:
        slope = max(
            -(M2 * lo.dQ + 2.0 * lo.E * hi.dE), M2 * hi.dQ + 2.0 * hi.E * lo.dE, 0.0
        )
        bound = max(bound, mid.g - 0.5 * w * slope)
    return bound - _ROUND * (M2 + hi.E * (hi.E + n + 2) + 0.5 * w * slope)


def min_smooth_over_simplex(n: int, M: float, tol: float) -> tuple[float, float]:
    """Certified bracket ``(lower, upper)`` of the minimum of
    g(t) = M^2 ||t||^2 + E(t)^2 over the simplex, with
    sqrt(upper - M^2/n) - sqrt(lower - M^2/n) <= tol.  ``upper`` is g at
    an explicit simplex point.

    Reduction.  E = 0 only at the vertices.  At a minimizer with E > 0
    every positive coordinate solves 2M^2 t - (2E/ln 2)(ln t + 1) = mu,
    whose left side is strictly convex in t, so the minimizer has at most
    two distinct positive values: k coordinates equal to a and j equal to
    b = (1 - ka)/j <= a, with k, j >= 1 and k + j <= n.  Each family
    (k, j) is the segment b in [0, 1/(k+j)], whose right end is rounded
    up one ulp so that it is covered; its ends b = 0 and b = a are the
    points with one positive value (the vertices included).  On it
    Q = k a^2 + j b^2 decreases (Q' = 2j(b - a)) and the concave E
    increases (E' = (j/ln 2) ln(a/b)).

    Search.  :func:`optim._best_first` over the segments of every
    family, split at midpoints; equal bounds pop by (k, j), then segment.
    A segment of width w is bounded below by the larger of
    M^2 Q(hi) + E(lo)^2 and the centered form g(mid) - (w/2) max(-G'_lo,
    G'_hi, 0), where G' = M^2 Q' + 2 E E' is enclosed by the endpoint
    values of the increasing Q', the decreasing E' and the increasing
    E >= 0.  Near b = 0, where E' is unbounded, only the first applies.

    Rounding.  Each bound combines nonnegative terms, each computed with
    at most twenty operations of relative error at most u = 2^-53
    (``math.log`` is faithful), so rounding costs at most 20u times the
    sum of their magnitudes.  The one cancellation, a = (1 - jb)/k,
    moves a by at most 3u/k, which moves M^2 Q by at most 6u M^2, E by
    at most 3u (log2 n + 2) (|phi'| <= log2 n + 2 on [1/n, 1]), and the
    slope term by at most 3u M^2 + 5u E n.  The one-ulp overshoot of the
    right end moves Q and E only to second order.  So each computed
    bound is within 2^-47 (M^2 + E(hi)(E(hi) + n + 2) + (w/2) slope) of
    its exact value, and twice that is subtracted.

    Raises :class:`ConvergenceError` if the bracket is not within ``tol``
    after ``EUCLID_MAX_SPLITS`` splits.  The name is the module attribute
    that the benchmark's tracer wraps.
    """
    M2 = M * M
    base = M2 / n

    def segment(k, j, lo, hi):
        mid = _family_point(k, j, 0.5 * (lo.b + hi.b), M2)
        return mid.g, (_family_lower(lo, mid, hi, M2, n), k, j, lo, mid, hi)

    def split(node):
        _, k, j, lo, mid, hi = node
        (g_lo, left), (g_hi, right) = segment(k, j, lo, mid), segment(k, j, mid, hi)
        return min(g_lo, g_hi), None, (left, right)

    def done(lower, upper):
        return math.sqrt(max(upper - base, 0.0)) - math.sqrt(max(lower - base, 0.0)) <= tol

    upper, roots = math.inf, []
    for k in range(1, n):
        for j in range(1, n - k + 1):
            lo = _family_point(k, j, 0.0, M2)
            hi = _family_point(k, j, math.nextafter(1.0 / (k + j), 1.0), M2)
            g, root = segment(k, j, lo, hi)
            upper = min(upper, lo.g, g, hi.g)
            roots.append(root)
    lower, upper, _ = _best_first(upper, None, roots, split, done, EUCLID_MAX_SPLITS)
    return lower, upper


def euclid_witness_distance(
    n: int,
    M: float,
    mode: str = "auto",
    tol: float = 1e-9,
    seed: int = 0,
) -> float:
    """Euclidean distance from the barycenter witness to the full
    (un-sampled) entropy-graph set.

    The distance squared is min g - M^2/n with
    g(t) = M^2 sum t_i^2 + (sum phi(t_i))^2 over the simplex.  At the
    critical scale and n >= 4 the minimizer is the uniform point and the
    distance is exactly log2 n ("analytic" mode).  "numeric" mode returns
    sqrt(upper - M^2/n) for the certified bracket of
    :func:`min_smooth_over_simplex`: the distance of an explicit simplex
    point, within ``tol`` of the true distance.  ``seed`` is accepted for
    compatibility and has no effect.
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
    _, upper = min_smooth_over_simplex(n, M, tol)
    radicand = upper - M * M / n
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
    if not dist_to_l1 >= 1.0:
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
    if not alpha > 1.0:
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
    if not Tp >= 1.0:
        raise ValueError(f"type constant is at least 1, got {Tp}")
    if not d >= 2.0:
        raise ValueError(
            f"the bound requires hull distance d >= 2 (hypothesis), got {d}"
        )
    return 8.0 ** (1.0 / p) / (16.0 * Tp) * (2.0**d) ** ((p - 1.0) / p)
