"""Distances to convex hulls, convexity-defect estimation, and
witness-based Hausdorff lower bounds for finite sampled sets.

The Hausdorff distance from a set to its hull is bounded below here via
explicit witnesses and above by analytic arguments elsewhere; no attempt
is made to solve the inner max-min globally (it is a non-concave
maximization).  Euclidean hull distances go through the minimum-norm-point
quadratic kernel; l1, l-infinity and weighted-l1 distances are exact LP
reformulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NormSpec, Vector, index_sort_key
from .labels import TreeLabel
from .optim import LPInstance, lp_solve, min_distance_over_simplex

__all__ = [
    "SampledSet",
    "DefectReport",
    "dist_to_hull",
    "dist_to_set",
    "convexity_defect",
    "hausdorff_lb",
    "diameter",
]

HULL_MEMBERSHIP_TOL = 1e-7
DIAMETER_BLOCK = 64


@dataclass(frozen=True)
class SampledSet:
    """A finite list of vectors tagged with the generator that made them."""

    points: tuple[Vector, ...]
    provenance: str = ""

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("SampledSet needs at least one point")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def indices(self) -> tuple:
        universe = set()
        for p in self.points:
            universe.update(p.support())
        return tuple(sorted(universe, key=index_sort_key))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (n_points, dim) coordinate matrix over `indices`."""
        idx = {k: i for i, k in enumerate(self.indices)}
        out = np.zeros((len(self.points), len(self.indices)))
        for r, p in enumerate(self.points):
            for k, v in p.items():
                out[r, idx[k]] = v
        return out


def _column_weights(indices, norm: NormSpec) -> np.ndarray:
    """Per-coordinate weights that turn weighted-l1 into plain l1."""
    w = np.empty(len(indices))
    for i, idx in enumerate(indices):
        if not isinstance(idx, TreeLabel):
            raise ValueError("weighted_l1 distances need tree-label indices")
        w[i] = norm.M if idx.is_leaf else 1.0
    return w


def _embed(x: Vector, A: SampledSet) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Coordinates of x and of A's points over their joint index set."""
    known = set(A.indices)
    extra = [k for k in x.sorted_support() if k not in known]
    if extra:
        indices = tuple(sorted(A.indices + tuple(extra), key=index_sort_key))
        idx = {k: i for i, k in enumerate(indices)}
        P = np.zeros((len(A), len(indices)))
        base = A.matrix
        for c, k in enumerate(A.indices):
            P[:, idx[k]] = base[:, c]
    else:
        indices = A.indices
        idx = {k: i for i, k in enumerate(indices)}
        P = A.matrix
    xv = np.zeros(len(indices))
    for k, v in x.items():
        xv[idx[k]] = v
    return xv, P, indices


def _dists_to_points(Z: np.ndarray, X: np.ndarray, norm: NormSpec, weights=None) -> np.ndarray:
    """Pairwise distances (len(Z), len(X)) under an lp or weighted-l1 norm.

    One pass per coordinate accumulates |z_k - x_k| (its maximum, its sum
    or its p-th power) into a single (len(Z), len(X)) buffer, so no
    (len(Z), len(X), d) temporary is built.  l2 takes differences the
    same way, so a point of X is at distance exactly 0 from itself.
    """
    if norm.kind == "weighted_l1":
        Z = Z * weights
        X = X * weights
        p = 1.0
    elif norm.kind == "lp":
        p = norm.p
    else:
        raise ValueError(f"unsupported norm kind for dense distances: {norm.kind}")
    out = np.zeros((len(Z), len(X)))
    diff = np.empty_like(out)
    for z, x in zip(Z.T, X.T):
        np.subtract(z[:, None], x[None, :], out=diff)
        if p == 2.0:
            out += np.multiply(diff, diff, out=diff)
            continue
        np.abs(diff, out=diff)
        if np.isinf(p):
            np.maximum(out, diff, out=out)
        elif p == 1.0:
            out += diff
        else:
            out += np.power(diff, p, out=diff)
    if p == 2.0:
        np.sqrt(out, out=out)
    elif not (p == 1.0 or np.isinf(p)):
        out **= 1.0 / p
    return out


def dist_to_set(x: Vector, A: SampledSet, norm: NormSpec) -> float:
    """Distance from a point to the finite set A (not its hull)."""
    xv, P, indices = _embed(x, A)
    w = _column_weights(indices, norm) if norm.kind == "weighted_l1" else None
    return float(_dists_to_points(xv[None, :], P, norm, w).min())


def dist_to_hull(x: Vector, A: SampledSet, norm: NormSpec, tol: float = 1e-9) -> float:
    """Distance from x to the convex hull of A, within tol.

    Euclidean distances use Wolfe's minimum-norm-point kernel over the
    full weight simplex, certified by its Frank-Wolfe gap; l1,
    l-infinity and weighted-l1 are solved as linear programs.  Other
    norms are rejected.
    """
    xv, P, indices = _embed(x, A)
    N, d = P.shape
    if norm.kind == "lp" and norm.p == 2.0:
        _, dist = min_distance_over_simplex(P.T, xv, tol=tol)
        return dist
    if norm.kind == "lp" and norm.p == 1.0:
        coord_w = np.ones(d)
    elif norm.kind == "weighted_l1":
        coord_w = _column_weights(indices, norm)
    elif norm.kind == "lp" and np.isinf(norm.p):
        coord_w = None
    else:
        raise ValueError(f"dist_to_hull supports l1/l2/linf/weighted_l1, not {norm}")

    if coord_w is not None:
        # Variables (lam, u): minimize sum w_i u_i with u_i >= |x - P.T lam|_i.
        n_vars = N + d
        c = np.concatenate([np.zeros(N), coord_w])
        rows, rel, rhs = [], [], []
        for i in range(d):
            r1 = np.zeros(n_vars)
            r1[:N] = P[:, i]
            r1[N + i] = 1.0
            rows.append(r1), rel.append(">="), rhs.append(xv[i])
            r2 = np.zeros(n_vars)
            r2[:N] = -P[:, i]
            r2[N + i] = 1.0
            rows.append(r2), rel.append(">="), rhs.append(-xv[i])
    else:
        # Variables (lam, u): minimize u with u >= |x - P.T lam|_i for all i.
        n_vars = N + 1
        c = np.zeros(n_vars)
        c[N] = 1.0
        rows, rel, rhs = [], [], []
        for i in range(d):
            r1 = np.zeros(n_vars)
            r1[:N] = P[:, i]
            r1[N] = 1.0
            rows.append(r1), rel.append(">="), rhs.append(xv[i])
            r2 = np.zeros(n_vars)
            r2[:N] = -P[:, i]
            r2[N] = 1.0
            rows.append(r2), rel.append(">="), rhs.append(-xv[i])
    conv = np.zeros(n_vars)
    conv[:N] = 1.0
    rows.append(conv), rel.append("="), rhs.append(1.0)
    sol = lp_solve(
        LPInstance(c=c, A=np.array(rows), rel=tuple(rel), b=np.array(rhs)),
        tol=tol,
    )
    if sol.status != "optimal":
        raise RuntimeError(f"hull-distance LP ended with status {sol.status}")
    return max(float(sol.value), 0.0)


@dataclass(frozen=True)
class DefectReport:
    """Largest observed convexity defect and the witness attaining it."""

    sup_defect: float
    witness: tuple[Vector, Vector, float]


def convexity_defect(A: SampledSet, norm: NormSpec, t_grid: int) -> DefectReport:
    """max over point pairs and grid t of d(tx + (1-t)y, A).

    A lower bound on sup_t H(tA + (1-t)A, A); the grid has `t_grid`
    uniform values including both endpoints.  At t = 0 or 1 the point is
    x or y, a member of A, so the endpoints count as exactly 0 and only
    the interior values are scanned; when no interior value has a
    positive defect (t_grid = 2 included) the result is 0 with witness
    (A[0], A[0], 0.0).  Row i of the scan measures its N - i midpoints
    against all N points in (N - i, N) buffers; no (N - i, N, d) temporary
    is built.
    """
    if len(A) < 2:
        raise ValueError("convexity_defect needs at least two points")
    if t_grid < 2:
        raise ValueError("t_grid must be at least 2")
    X = A.matrix
    w = _column_weights(A.indices, norm) if norm.kind == "weighted_l1" else None
    ts = np.linspace(0.0, 1.0, t_grid)[1:-1]
    best = 0.0
    best_at = (0, 0, 0.0)
    n = len(A)
    for t in ts:
        for i in range(n):
            mids = t * X[i] + (1.0 - t) * X[i:]
            dmin = _dists_to_points(mids, X, norm, w).min(axis=1)
            j_rel = int(np.argmax(dmin))
            if dmin[j_rel] > best:
                best = float(dmin[j_rel])
                best_at = (i, i + j_rel, float(t))
    i, j, t = best_at
    return DefectReport(sup_defect=best, witness=(A.points[i], A.points[j], t))


def hausdorff_lb(
    A: SampledSet,
    witnesses: list[Vector],
    norm: NormSpec,
    hull_tol: float = HULL_MEMBERSHIP_TOL,
) -> float:
    """max over witnesses of d(w, A): a lower bound on H(A, Co(A)).

    Every witness must be certified to lie in the hull first; one that
    is farther than `hull_tol` from Co(A) is rejected.
    """
    if not witnesses:
        raise ValueError("need at least one witness")
    best = 0.0
    for w in witnesses:
        membership = dist_to_hull(w, A, norm, tol=min(hull_tol * 0.5, 1e-9))
        if membership > hull_tol:
            raise ValueError(
                f"witness {w!r} is {membership:.3e} from the hull "
                f"(tolerance {hull_tol:.1e}); not a valid lower-bound witness"
            )
        best = max(best, dist_to_set(w, A, norm))
    return best


def diameter(A: SampledSet, norm: NormSpec) -> float:
    """Exact max pairwise distance (O(n^2) time; sample sizes are capped
    upstream accordingly).

    Rows go in blocks of DIAMETER_BLOCK points against every later point,
    so memory stays O(DIAMETER_BLOCK * n).  Distances are symmetric bit
    for bit, so the pairs a block sees twice do not change the maximum.
    """
    X = A.matrix
    w = _column_weights(A.indices, norm) if norm.kind == "weighted_l1" else None
    best = 0.0
    for i in range(0, len(A), DIAMETER_BLOCK):
        d = _dists_to_points(X[i : i + DIAMETER_BLOCK], X[i:], norm, w)
        best = max(best, float(d.max()))
    return best
