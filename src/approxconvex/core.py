"""Sparse vectors over arbitrary finite index sets, simplex grids, the
lp norm spec and the weighted l1 norm of the tree space.

Coordinates are 64-bit floats and all comparisons elsewhere use explicit
tolerances.  Vectors are sparse maps, the representation of the tree
space, whose index set is open-ended; single points of lp^n (queries and
witnesses) are still Vectors over 0..d-1.  Point sets in lp^n, simplex
grids included, are dense arrays, and every lp distance is computed on
them (hulls).  Probability vectors, the kernels' weights and the
arguments of the entropy, are plain (n,) float arrays, checked where they
are made or received (optim, entropy).  Everything here is immutable
after construction and safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping

import numpy as np

from .labels import TreeLabel, label_sort_key

__all__ = [
    "Vector",
    "NormSpec",
    "weighted_l1_norm",
    "simplex_grid_array",
    "index_sort_key",
]


def index_sort_key(index):
    """Total order over mixed index universes (ints before tree labels)."""
    if isinstance(index, TreeLabel):
        lev, name = label_sort_key(index)
        return (1, lev, name)
    return (0, index, "")


class Vector:
    """Finitely supported real vector over an opaque index set.

    Entries that are exactly zero are dropped, so two vectors are equal
    iff their stored entries agree.  Instances are immutable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable[tuple] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = {k: float(v) for k, v in items if float(v) != 0.0}

    @classmethod
    def unit(cls, index) -> "Vector":
        return cls({index: 1.0})

    @classmethod
    def from_array(cls, values) -> "Vector":
        """The vector over 0..len(values)-1 with these coordinates."""
        return cls(enumerate(np.asarray(values, dtype=float)))

    def get(self, index) -> float:
        return self._entries.get(index, 0.0)

    def items(self):
        return self._entries.items()

    def support(self):
        return self._entries.keys()

    def to_array(self, indices) -> np.ndarray:
        return np.array([self._entries.get(i, 0.0) for i in indices])

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other: "Vector") -> "Vector":
        merged = dict(self._entries)
        for k, v in other._entries.items():
            merged[k] = merged.get(k, 0.0) + v
        return Vector(merged)

    def __sub__(self, other: "Vector") -> "Vector":
        merged = dict(self._entries)
        for k, v in other._entries.items():
            merged[k] = merged.get(k, 0.0) - v
        return Vector(merged)

    def __mul__(self, scalar: float) -> "Vector":
        s = float(scalar)
        return Vector({k: v * s for k, v in self._entries.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return self * -1.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k!r}: {v:g}" for k, v in sorted(self._entries.items(), key=lambda kv: index_sort_key(kv[0]))
        )
        return f"Vector({{{inner}}})"


@dataclass(frozen=True)
class NormSpec:
    """The lp norm, p in [1, inf], that a computation runs under.

    Every point set in lp^n is a dense array and every kernel reads only
    ``p``.  The tree space's decomposition norm needs a linear program
    and lives in the treespace module; the weighted l1 norm over tree
    labels is :func:`weighted_l1_norm`.
    """

    p: float

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"lp norm needs p >= 1, got {self.p}")

    @classmethod
    def lp(cls, p: float) -> "NormSpec":
        return cls(p=float(p))


def weighted_l1_norm(x: Vector, M: float) -> float:
    """Weighted l1 norm over tree labels: leaf entries carry weight M."""
    if not M > 0.0:
        raise ValueError(f"weighted_l1_norm needs M > 0, got {M}")
    total = 0.0
    for idx, v in x.items():
        if not isinstance(idx, TreeLabel):
            raise ValueError(f"weighted_l1_norm needs tree-label indices, got {idx!r}")
        total += (M if idx.is_leaf else 1.0) * abs(v)
    return total


def simplex_grid_array(n: int, m: int) -> np.ndarray:
    """All points of the standard simplex with coordinates k_i/m, as the
    rows of a (count, n) float array.

    Enumerates the compositions of m into n nonnegative parts; the count
    is C(m+n-1, n-1).
    """
    if n < 1 or m < 1:
        raise ValueError(f"simplex_grid_array needs n >= 1 and m >= 1, got n={n}, m={m}")
    if n == 1:
        return np.ones((1, 1))
    # Stars and bars: bar positions inside m+n-1 slots determine the counts.
    count = math.comb(m + n - 1, n - 1)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(m + n - 1), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    first = bars[:, 0:1]
    gaps = np.diff(bars, axis=1) - 1
    last = (m + n - 2) - bars[:, -1:]
    counts = np.hstack([first, gaps, last])
    return counts / float(m)
