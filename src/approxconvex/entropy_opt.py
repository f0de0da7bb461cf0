"""The constrained variational problem behind the Euclidean extremal
set: minimize I(y) = M^2 int y^2 + (int phi(y))^2 over step functions y
on (0, n) with 0 <= y <= 1 and unit integral.

The minimizer takes at most the values {0, 1, alpha}, and in the regime
5n < M^2 <= (2/ln2) n log2(n) (n >= 4) the value 1 is excluded, so the
search space collapses to a two-parameter family: value 1 on a prefix of
length x, a single level k on a mass-completing interval, zero
elsewhere.  The search below certifies its minimum over exactly that
family (x = 1 included) by the package's best-first branch and bound;
random feasible step functions are the test suite's empirical check
that nothing outside the family does better.  At the critical scale
M^2 = (2/ln2) n log2(n) the minimizer is the uniform step y = 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import phi
from .optim import ConvergenceError, _best_first

__all__ = ["StepFunction", "I_eval", "minimize_I"]

_LN2 = math.log(2.0)
MASS_TOL = 1e-10
# Split budget of minimize_I; at tol 1e-9 the inputs tried take at most
# 54 splits (n = 2..2048, M = 0.05..500).
MAX_SPLITS = 100_000
# Rounding margin of the level bounds, relative to their scale.
_ROUND = 2.0**-46
# Relative half-width of the bracket that certifies a level minimizer.
_BRACKET = 2.0**-20


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative step function on (0, n): pieces of (length, value)
    with total length n, values in [0, 1] and unit total mass."""

    pieces: tuple[tuple[float, float], ...]
    domain: float

    def __post_init__(self):
        pieces = tuple((float(l), float(v)) for l, v in self.pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        if not 0.0 < self.domain < math.inf:
            raise ValueError(f"the domain must be finite and positive, got {self.domain}")
        for l, v in pieces:
            if not l > 0.0:
                raise ValueError(f"piece lengths must be positive, got {l}")
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"values must lie in [0, 1], got {v}")
        # Written so that a NaN fails each check.
        total = sum(l for l, _ in pieces)
        if not abs(total - self.domain) <= 1e-9 * max(1.0, self.domain):
            raise ValueError(f"piece lengths sum to {total}, domain is {self.domain}")
        mass = sum(l * v for l, v in pieces)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(f"total mass {mass!r} is not 1")
        object.__setattr__(self, "pieces", pieces)


def I_eval(y: StepFunction, M: float) -> float:
    """M^2 sum len*val^2 + (sum len*phi(val))^2."""
    if not 0.0 < M < math.inf:
        raise ValueError(f"need M > 0 and finite, got {M}")
    quad = sum(l * v * v for l, v in y.pieces)
    ent = sum(l * phi(min(max(v, 0.0), 1.0)) for l, v in y.pieces)
    return M * M * quad + ent * ent


def _level_min(base: float, A: float, c: float, kappa: float) -> tuple[float, float, float]:
    """``(k, h(k), lower)`` for the convex h(k) = base + A k + c log2(1/k)^2
    on [kappa, 1], A >= 0, c >= 0: k minimizes h, by Newton's method on
    F(s) = A ln(2)^2 e^s + 2cs (convex, increasing and of the sign of h'
    at s = ln k, so from s = 0 Newton descends to its root, or past
    ln kappa, where the minimizer is kappa), and lower <= min h.

    lower is h's tangent at k over a bracket [k-, k+] of the minimizer:
    k(1 -+ 2^-20) where h' = A - B, B = 2c log2(1/k)/(k ln 2), has its
    sign beyond 2^-46 (A + B), else the end of [kappa, 1], with kappa
    shaded down by 2^-50, beyond its rounding.  Rounding (u = 2^-53,
    ``math.log`` faithful): h(k), A and B take at most fourteen
    operations on nonnegative terms, the tangent three more, so the
    computed tangent is within 2^-49 (h(k) + (A + B) run) of the exact
    one, run = max(k - k-, k+ - k), and eight times that is subtracted.
    With both ends certified run is 2^-20 k, so lower trails h(k) by
    about 2^-46 h(k).
    """
    if c == 0.0:  # h is linear and increasing
        value = base + A * kappa
        return kappa, value, value - _ROUND * value
    a, s = A * _LN2 * _LN2, 0.0
    s_lo = math.log(kappa) if kappa > 0.0 else -math.inf
    for _ in range(60):
        e = a * math.exp(s)
        step = (e + 2.0 * c * s) / (e + 2.0 * c)
        s -= step
        if s <= s_lo or step <= 2.0**-52:
            break
    k = max(math.exp(s), kappa)

    def beyond(t, sign):  # h'(t) has the sign of `sign`, beyond rounding
        B = -2.0 * c * math.log(t) / (t * _LN2 * _LN2)
        return sign * (A - B) > _ROUND * (A + B)

    kappa *= 1.0 - 2.0**-50
    lo, hi = max(k * (1.0 - _BRACKET), kappa), min(k * (1.0 + _BRACKET), 1.0)
    lo = lo if lo == kappa or beyond(lo, -1.0) else kappa
    hi = hi if hi == 1.0 or beyond(hi, 1.0) else 1.0
    L = -math.log(k) / _LN2
    value = base + A * k + c * L * L
    B = 2.0 * c * L / (k * _LN2)
    tangent = min((A - B) * (lo - k), (A - B) * (hi - k))
    run = max(k - lo, hi - k)
    return k, value, value + tangent - _ROUND * (value + (A + B) * run)


def _segment_lower(x0: float, x1: float, M2: float, n: int) -> float:
    """Lower bound of I over the members with x in [x0, x1].

    The member (x, k), k in [kappa(x), 1], kappa(x) = (1 - x)/(n - x),
    has I = M^2 (x + (1 - x) k) + (1 - x)^2 log2(1/k)^2.  kappa decreases,
    so every member on the segment has k in [kappa(x1), 1], and its I is
    at least each of
      H(k) = M^2 (x0 + (1 - x0) k) + (1 - x1)^2 log2(1/k)^2, as both
        terms of I are monotone in x;
      min(I(x0, k), I(x1, k)) - (w/2)^2 log2(1/k)^2, w = x1 - x0, as I is
        a quadratic in x with leading coefficient log2(1/k)^2.
    Each is minimized over k by :func:`_level_min`, the second only where
    1 - x1 >= w, so that its coefficients (1 - x)^2 - (w/2)^2 are
    positive; of the dyadic segments the search makes, that leaves out
    the one ending at x = 1.  H covers x = 1, whose member, the indicator
    of [0, 1], is also the member k = 1 at every x.  The second bound is
    second order in w, which matters where I barely depends on x (small
    M).
    """
    w, kappa = x1 - x0, (1.0 - x1) / (n - x1) if x1 < 1.0 else 0.0
    lower = _level_min(M2 * x0, M2 * (1.0 - x0), (1.0 - x1) ** 2, kappa)[2]
    if 1.0 - x1 >= w:
        ends = [
            _level_min(M2 * x, M2 * (1.0 - x), (1.0 - x) ** 2 - 0.25 * w * w, kappa)[2]
            for x in (x0, x1)
        ]
        lower = max(lower, min(ends))
    return lower


def _family_bracket(n: int, M: float, tol: float):
    """``(lower, upper, (x, k))``: a certified bracket of I's minimum over
    the family, at most ``tol`` wide, and the member of value ``upper``,
    by :func:`optim._best_first` over x in [0, 1], split at midpoints,
    with the bounds of :func:`_segment_lower`.
    """
    M2 = M * M

    def done(lower, upper):
        if upper - lower > tol and 0.5 * _ROUND * lower > tol:
            raise ConvergenceError(
                f"bracket [{lower!r}, {upper!r}] cannot narrow to {tol:g}: rounding keeps it above 2^-47 I"
            )
        return upper - lower <= tol

    def member(x):
        k, value, _ = _level_min(M2 * x, M2 * (1.0 - x), (1.0 - x) ** 2, (1.0 - x) / (n - x))
        return value, (x, k)

    def node(x0, x1):
        return _segment_lower(x0, x1, M2, n), x0, x1

    def split(parent):
        _, x0, x1 = parent
        xm = 0.5 * (x0 + x1)
        return (*member(xm), (node(x0, xm), node(xm, x1)))

    return _best_first(*member(0.0), [node(0.0, 1.0)], split, done, MAX_SPLITS)


def _assemble(x: float, k: float, n: float) -> StepFunction:
    pieces = []
    if x > 1e-12:
        pieces.append((x, 1.0))
    level_len = (1.0 - x) / k
    rest = n - x - level_len
    if rest <= 1e-9:
        # The level fills the remaining domain; absorb roundoff exactly.
        level_len = n - x
        k = (1.0 - x) / level_len
        pieces.append((level_len, k))
    else:
        pieces.append((level_len, k))
        pieces.append((rest, 0.0))
    return StepFunction(pieces=tuple(pieces), domain=float(n))


def minimize_I(n: int, M: float, tol: float = 1e-9) -> tuple[StepFunction, float]:
    """Minimize I over the {0, 1, level} family: ``(y, I(y))`` for the
    member y at the upper end of a certified bracket of the family's
    minimum, ``tol`` wide, or :class:`ConvergenceError`.  At the critical
    scale (n >= 4) y is the uniform step.

    No bracket is narrower than 2^-47 I*, I* the minimum: a segment's
    bound is at most (1 - 7 2^-49) times I's minimum on it (the tangent
    of :func:`_level_min`, plus its 2^-49 rounding, less its 2^-46
    margin), and a computed I at least (1 - 2^-49) I*.  So the search raises once
    2^-47 times its lower end exceeds ``tol``: at the default ``tol`` and
    n = 4, from M = 751.  From M = 514, where the bracket stops closing,
    up to there, it raises after ``MAX_SPLITS`` splits.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not M > 0.0:
        raise ValueError(f"need M > 0, got {M}")
    if not M < math.inf:
        raise ValueError(f"need a finite M, got {M}")
    if not tol > 0.0:
        raise ValueError(f"need tol > 0, got {tol}")
    _, _, (x, k) = _family_bracket(n, M, tol)
    y = _assemble(x, k, n)
    return y, I_eval(y, M)
