"""The constrained variational problem behind the Euclidean extremal
set: minimize I(y) = M^2 int y^2 + (int phi(y))^2 over step functions y
on (0, n) with 0 <= y <= 1 and unit integral.

The minimizer takes at most the values {0, 1, alpha}, and in the regime
5n < M^2 <= (2/ln2) n log2(n) (n >= 4) the value 1 is excluded, so the
search space collapses to a two-parameter family: value 1 on a prefix of
length x, a single level k on a mass-completing interval, zero
elsewhere.  The search below covers exactly that family by a dense grid
with golden-section refinement; random feasible step functions are the
test suite's empirical check that nothing outside the family does
better.  At the critical scale M^2 = (2/ln2) n log2(n) the minimizer is
the uniform step y = 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import phi

__all__ = ["StepFunction", "I_eval", "minimize_I"]

_LN2 = math.log(2.0)
MASS_TOL = 1e-10


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
        for l, v in pieces:
            if l <= 0.0:
                raise ValueError(f"piece lengths must be positive, got {l}")
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"values must lie in [0, 1], got {v}")
        total = sum(l for l, _ in pieces)
        if abs(total - self.domain) > 1e-9 * max(1.0, self.domain):
            raise ValueError(f"piece lengths sum to {total}, domain is {self.domain}")
        mass = sum(l * v for l, v in pieces)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass!r} is not 1")
        object.__setattr__(self, "pieces", pieces)


def I_eval(y: StepFunction, M: float) -> float:
    """M^2 sum len*val^2 + (sum len*phi(val))^2."""
    quad = sum(l * v * v for l, v in y.pieces)
    ent = sum(l * phi(min(max(v, 0.0), 1.0)) for l, v in y.pieces)
    return M * M * quad + ent * ent


def _family_value(x, k, M, n):
    """I on the family {1 on [0,x], k on length (1-x)/k, 0 elsewhere}.

    Vectorized over numpy arrays; x = 0 recovers the single-level
    family.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    ent = (1.0 - x) * (-np.log(k) / _LN2)
    return M * M * (x + k * (1.0 - x)) + ent * ent


def _level_slope(x, k, M, n):
    """dI/dk on the family; increasing in k, so its root is the argmin."""
    return M * M * (1.0 - x) - 2.0 * (1.0 - x) ** 2 * (-np.log(k) / _LN2) / (k * _LN2)


def _best_k(x, M, n):
    """Exact k-section minimizer by bisection on the monotone slope,
    vectorized over an array of x values.  Returns (k, value).

    Derivative-based localization avoids the sqrt(eps) argmin blur of
    value-only searches, so a boundary minimizer like k = 1/n is hit to
    machine precision.
    """
    x = np.asarray(x, dtype=float)
    lo = (1.0 - x) / (n - x)  # shortest admissible level: support fills (x, n]
    lo = np.maximum(lo, 1e-15)
    hi = np.ones_like(x)
    k = np.where(_level_slope(x, lo, M, n) >= 0.0, lo, hi)
    interior = (_level_slope(x, lo, M, n) < 0.0) & (_level_slope(x, hi, M, n) > 0.0)
    a = np.array(lo)
    b = np.array(hi)
    for _ in range(90):
        mid = 0.5 * (a + b)
        neg = _level_slope(x, mid, M, n) < 0.0
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
    k = np.where(interior, 0.5 * (a + b), k)
    return k, _family_value(x, k, M, n)


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
    """Search the {0,1,level} family for the minimizer of I.

    The level k is optimized exactly (bisection on the monotone slope);
    the prefix length x runs over a mesh-1e-4 grid with golden-section
    refinement of the envelope to `tol`.  At the critical scale
    M^2 = (2/ln2) n log2 n (n >= 4) the result is the uniform step.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not M > 0.0:
        raise ValueError(f"need M > 0, got {M}")
    if not tol > 0.0:
        raise ValueError(f"need tol > 0, got {tol}")

    def envelope(x: float) -> tuple[float, float]:
        k, v = _best_k(np.array([x]), M, n)
        return float(k[0]), float(v[0])

    best_k, best_val = envelope(0.0)
    best_x = 0.0

    xs = np.linspace(0.0, 1.0 - 1e-9, 10_001)
    kxs, vxs = _best_k(xs, M, n)
    j = int(np.argmin(vxs))
    if vxs[j] < best_val:
        best_x, best_k, best_val = float(xs[j]), float(kxs[j]), float(vxs[j])
        # Golden refinement of the envelope around the best grid x.
        a = float(xs[max(j - 1, 0)])
        b = float(xs[min(j + 1, len(xs) - 1)])
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        while b - a > min(tol, 1e-10):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            if envelope(c)[1] < envelope(d)[1]:
                b = d
            else:
                a = c
        x = 0.5 * (a + b)
        k, v = envelope(x)
        if v < best_val:
            best_x, best_k, best_val = x, k, v

    y = _assemble(best_x, best_k, n)
    return y, I_eval(y, M)
