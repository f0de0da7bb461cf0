"""The scalar function phi(t) = -t log2 t, the entropy function on the
simplex, approximate-affineness defects, and the sharp stability
constants kappa(n).

``entropy_E`` is concave and approximately affine: mixing two simplex
points moves its value by at most phi(t) + phi(1-t) <= 1.  Simplex
points are probability vectors given as 1-d sequences or arrays, which
``entropy_E`` and ``affine_defect`` check; ``entropy_E_array`` takes
rows it trusts.  The constant
kappa(n) is the worst interior value of an approximately convex function
on the standard n-simplex that vanishes at the vertices; the closed
formula implemented here is exact at arguments of the form 2^k - 1 and
is verified against the proved bracket [log2(n+1), ceil(log2(n+1))]
rather than trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_count

__all__ = [
    "phi",
    "entropy_E",
    "affine_defect",
    "KappaReport",
    "kappa",
    "kappa_table",
    "power2_condition",
]

_LN2 = math.log(2.0)


def phi(t: float) -> float:
    """-t*log2(t) on [0, 1], with the removable singularity phi(0) = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"phi is defined on [0, 1], got {t}")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log(t) / _LN2


def _phi_array(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = t > 0.0
    tm = t[mask]
    out[mask] = -tm * np.log(tm) / _LN2
    return out


def _probability_vector(t) -> np.ndarray:
    """t as a float array, checked to be a probability vector: non-empty
    and 1-d, no negative entry, entries summing to one within 1e-12."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError(f"a probability vector needs a non-empty 1-d sequence, got shape {t.shape}")
    if not t.min() >= 0.0:
        raise ValueError(f"negative coordinate in probability vector: {t}")
    if not abs(float(t.sum()) - 1.0) <= 1e-12:
        raise ValueError(f"coordinates sum to {t.sum()!r}, not 1")
    return t


def entropy_E(t) -> float:
    """Entropy of a probability vector (a 1-d sequence or array), in bits.

    Ranges over [0, log2(dim)]: zero exactly at the vertices, maximal at
    the uniform point.  Raises ValueError unless t is a probability
    vector: non-empty and 1-d, no negative entry, sum within 1e-12 of one.
    """
    return float(_phi_array(_probability_vector(t)).sum())


def entropy_E_array(points: np.ndarray) -> np.ndarray:
    """Row-wise entropy of an array of probability vectors (no validation)."""
    return _phi_array(points).sum(axis=-1)


def affine_defect(x, y, t: float) -> float:
    """|E(tx + (1-t)y) - tE(x) - (1-t)E(y)| for probability vectors x, y
    (1-d sequences or arrays, validated as in :func:`entropy_E`).

    Bounded by min(1, phi(t) + phi(1-t)) for simplex points of any
    dimension; equality 1 requires t = 1/2 and disjointly supported
    arguments.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {t}")
    x, y = _probability_vector(x), _probability_vector(y)
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    # A mix of two probability vectors is nonnegative exactly and sums to
    # one within rounding, so it needs no check of its own.
    mix = t * x + (1.0 - t) * y
    return abs(float(entropy_E_array(mix) - t * entropy_E_array(x) - (1.0 - t) * entropy_E_array(y)))


@dataclass(frozen=True)
class KappaReport:
    """Bracket and closed-formula value for one stability constant."""

    n: int
    lower: float
    upper: float
    formula: float

    def __post_init__(self):
        slack = 1e-12 * (1.0 + abs(self.formula))
        if not (self.lower <= self.formula + slack and self.formula <= self.upper + slack):
            raise ValueError(
                f"kappa formula {self.formula} escapes its bracket "
                f"[{self.lower}, {self.upper}] at n={self.n}"
            )


def _floor_log2(m: int) -> int:
    return m.bit_length() - 1


def kappa(n: int) -> KappaReport:
    """Sharp Hyers-Ulam constant data for the n-simplex.

    lower = log2(n+1) and upper = ceil(log2(n+1)) are proved bounds; the
    closed formula floor(log2(n+1)) + 2 - 2^(1+floor(log2(n+1)))/(n+1)
    always lies inside the bracket and is exact when n+1 is a power of 2.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"kappa needs an integer n, got {n!r}")
    if n < 1:
        raise ValueError(f"kappa needs n >= 1, got {n}")
    m = n + 1
    k = _floor_log2(m)
    lower = math.log2(m)
    upper = float(n.bit_length())  # ceil(log2(n+1)) exactly, via integers
    formula = k + 2.0 - (2.0 ** (1 + k)) / m
    return KappaReport(n=n, lower=lower, upper=upper, formula=formula)


def kappa_table(n_max: int) -> np.ndarray:
    """Vectorized (lower, formula, upper) columns for n = 1..n_max."""
    n = np.arange(1, n_max + 1, dtype=np.int64)
    m = n + 1
    # frexp gives m = frac * 2^e with frac in [0.5, 1), so e-1 = floor(log2 m)
    _, e = np.frexp(m.astype(float))
    k = e - 1
    lower = np.log2(m)
    is_pow2 = (m & (m - 1)) == 0
    upper = (k + np.where(is_pow2, 0, 1)).astype(float)
    formula = k + 2.0 - np.exp2(1.0 + k) / m
    return np.column_stack([lower, formula, upper])


def power2_condition(n: int) -> bool:
    """Whether the closed-formula kappa(n-1) = log2(n) dominates
    sqrt(2n)(sqrt(2n)+sqrt(n-1))/(n+1), for n a power of 2.

    This is the raw inequality behind the sharpness of the lower bound
    for Euclidean spaces of power-of-two dimension; the conclusion is
    only asserted downstream for n >= 16 even though the inequality
    itself already holds at n = 8.
    """
    n = check_count(n, "n")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"power2_condition needs n = 2^k with k >= 1, got {n}")
    lhs = float(_floor_log2(n))  # kappa(n-1) by the closed formula
    rhs = math.sqrt(2 * n) * (math.sqrt(2 * n) + math.sqrt(n - 1)) / (n + 1)
    return lhs >= rhs
