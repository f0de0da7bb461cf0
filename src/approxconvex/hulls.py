"""Distances to convex hulls, convexity-defect estimation, and
witness-based Hausdorff lower bounds for finite sampled sets in lp^d.

A sampled set is a dense (N, d) array: row i is point i and column j is
coordinate j; it has no other representation.  Query points and
witnesses are still Vectors over 0..d-1, converted to arrays on entry.  The
Hausdorff distance from a set to its hull is bounded below here via
explicit witnesses and above by analytic arguments elsewhere; no attempt
is made to solve the inner max-min globally (it is a non-concave
maximization).  Euclidean hull distances go through the minimum-norm-point
quadratic kernel.  l1 and l-infinity distances are exact LPs in
standard form (see `dist_to_hull`), each built as one array in canonical
form around the sample point nearest x, the start `lp_solve` takes;
l-infinity's distance u enters as ||x - P_j||_inf - v, so that start is
read off the LP as written and no row is transformed.  The hull LP is
always feasible and bounded, so a status other than optimal can only be
numerical and raises `ConvergenceError`.

The convexity-defect scan is an exact pruned max-min: each midpoint is
measured first against the DEFECT_HEAD samples nearest its first
endpoint and goes on to the other samples only while its running
minimum is above the best value so far, so the scan's value and
witness, ties included, are those of the full scan, in O(DEFECT_HEAD *
N) memory.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .core import NormSpec, Vector, check_count, check_tol
from .optim import ConvergenceError, LPInstance, lp_solve, min_distance_over_simplex

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
DEFECT_HEAD = 48


class SampledSet:
    """A finite point set in lp^d, held as a read-only (N, d) float array.

    The array is copied at construction; one that is not 2-D, has no
    rows or no columns, or holds a non-finite value is rejected.
    Instances compare by identity.
    """

    def __init__(self, array):
        X = np.array(array, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError(f"SampledSet needs a non-empty (N, d) array, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("SampledSet coordinates must be finite")
        X.setflags(write=False)
        self._X = X

    def __len__(self) -> int:
        return self._X.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (N, d) coordinate array (read-only)."""
        return self._X


def _coords(x: Vector, d: int) -> np.ndarray:
    """Coordinates of x over 0..d-1; any other index, and a NaN or
    infinite coordinate, is rejected."""
    for k in x.support():
        if not (isinstance(k, Integral) and 0 <= k < d):
            raise ValueError(f"query index {k!r} is not a coordinate of a {d}-dimensional set")
    xv = x.to_array(range(d))
    bad = np.flatnonzero(~np.isfinite(xv))
    if bad.size:
        raise ValueError(f"query coordinate {bad[0]} is {xv[bad[0]]}, not finite")
    return xv


def _dist_powers(Z: np.ndarray, X: np.ndarray, p: float) -> np.ndarray:
    """Pairwise sums of |z_k - x_k|^p, (len(Z), len(X)): the lp distances
    before the p-th root (the maximum |z_k - x_k| for l-infinity).

    One pass per coordinate accumulates |z_k - x_k| (its maximum, its sum
    or its p-th power) into a single (len(Z), len(X)) buffer, so no
    (len(Z), len(X), d) temporary is built.  l2 takes differences the
    same way, so a point of X is at distance exactly 0 from itself.
    """
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
    return out


def _dists_to_points(Z: np.ndarray, X: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Pairwise lp distances (len(Z), len(X)), computed by `_dist_powers`."""
    p = norm.p
    out = _dist_powers(Z, X, p)
    if p == 2.0:
        np.sqrt(out, out=out)
    elif not (p == 1.0 or np.isinf(p)):
        out **= 1.0 / p
    return out


def _nearest_dists(Z: np.ndarray, X: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Distance from each row of Z to its nearest row of X, (len(Z),).

    Bit for bit the row minimum of `_dists_to_points`.  l2 takes the root
    after the minimum, which gives the same bits because a correctly
    rounded sqrt is monotone; other p keep root-then-min, since `pow` is
    not guaranteed to be monotone.
    """
    if norm.p == 2.0:
        return np.sqrt(_dist_powers(Z, X, 2.0).min(axis=1))
    return _dists_to_points(Z, X, norm).min(axis=1)


def dist_to_set(x: Vector, A: SampledSet, norm: NormSpec) -> float:
    """Distance from a point to the finite set A (not its hull)."""
    X = A.matrix
    return float(_nearest_dists(_coords(x, X.shape[1])[None, :], X, norm)[0])


def dist_to_hull(x: Vector, A: SampledSet, norm: NormSpec, tol: float = 1e-9) -> float:
    """Distance from x to the convex hull of A, within tol.

    Euclidean distances use Wolfe's minimum-norm-point kernel over the
    full weight simplex, certified by its Frank-Wolfe gap.  l1 and
    l-infinity are linear programs in standard form, all variables
    nonnegative, with sum(lam) = 1 as the last row.  l1 is posed over
    (lam, s+, s-) with rows P.T lam + s+ - s- = x, so s+ - s- is the
    residual r = x - P.T lam, and minimizes sum(s+ + s-).  l-infinity
    minimizes the u with |r_i| <= u, written as u = U - v for a constant
    U and v >= 0: it is posed over (lam, p, q, v) with rows
    P.T lam - v - p = x - U and then P.T lam + v + q = x + U, so
    p = u - r and q = u + r, and minimizes U sum(lam) - v, which is u.
    Either value is the exact distance: at an optimum s+_i * s-_i = 0
    can be taken, p, q >= 0 is |r_i| <= u, and p + q = 2u makes u >= 0.

    Both LPs are posed in canonical form around the sample point P_j
    nearest x in the same norm, the start `lp_solve` takes: subtracting P_j
    times the convexity row from each coordinate row puts Q = (P - P_j).T
    in place of P.T and r = x - P_j in place of x, and Q's column j is
    zero, so lam_j = 1 starts on the unit column of the convexity row.
    Under l1, s+_i or s-_i by the sign of r_i starts on row i.  Under
    l-infinity, U = ||r||_inf, the u of lam_j = 1, so u <= U loses no
    optimum; the start is lam_j, every p on its -e_i column and every q
    on its +e_(d+i) column, with signed right-hand sides U - r_i and
    U + r_i, both >= 0 and zero where |r_i| = U.  Every other lam then
    has reduced cost 0 and v has -1, so the first pivot enters v at
    ratio 0 in such a row.  Other norms, and a NaN, infinite or negative
    ``tol``, are rejected.
    """
    check_tol(tol)
    P = A.matrix
    N, d = P.shape
    xv = _coords(x, d)
    if norm.p == 2.0:
        _, dist = min_distance_over_simplex(P.T, xv, tol=tol)
        return dist
    if not (norm.p == 1.0 or np.isinf(norm.p)):
        raise ValueError(f"dist_to_hull supports l1/l2/linf, not {norm}")
    # The canonical form described above.  G is built on P.T and Q
    # replaces it in place, so no second copy of the sample is made.
    j = int(np.argmin(_dists_to_points(xv[None, :], P, norm)))
    r = xv - P[j]
    I, Z = np.eye(d), np.zeros((d, d))
    if norm.p == 1.0:
        # Columns lam, s+, s-; rows: the coordinates, then convexity.
        G = np.block([[P.T, I, -I], [np.ones((1, N)), np.zeros((1, 2 * d))]])
        G[:d, :N] -= P[j][:, None]
        c = np.concatenate([np.zeros(N), np.ones(2 * d)])
        rhs = np.append(r, 1.0)
        basis = np.append(N + np.arange(d) + d * (r < 0.0), j)
    else:
        # Columns lam, p, q, v with u = U - v; rows: Q lam - v - p = r - U,
        # then Q lam + v + q = r + U, then convexity.
        U = float(np.abs(r).max())
        one = np.ones((d, 1))
        G = np.block([[P.T, -I, Z, -one], [P.T, Z, I, one], [np.ones((1, N)), np.zeros((1, 2 * d + 1))]])
        G[:-1, :N] -= np.tile(P[j], 2)[:, None]
        c = np.concatenate([np.full(N, U), np.zeros(2 * d), [-1.0]])
        rhs = np.concatenate([r - U, r + U, [1.0]])
        basis = np.append(N + np.arange(2 * d), j)
    sol = lp_solve(LPInstance(c=c, A=G, b=rhs), tol=tol, basis=basis)
    if sol.status != "optimal":
        # The LP is feasible (any lam on the simplex) and bounded below
        # by 0, so any other status is a numerical failure.
        raise ConvergenceError(f"hull-distance LP ended with status {sol.status}")
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
    (A[0], A[0], 0.0).

    The scan runs t, then i, then j >= i, and is an exact pruned max-min
    (Taha & Hanbury, IEEE TPAMI 2015).  Row i's midpoints t X_i + (1-t) X_j
    are measured first against the DEFECT_HEAD samples nearest X_i; only
    those whose running minimum is still above the best value so far go
    on to the other N - DEFECT_HEAD samples, DEFECT_HEAD midpoints at a
    time.  A dropped midpoint cannot raise the maximum, and one whose
    minimum equals it cannot replace the witness, which comes earlier in
    scan order.  Minima are exact and every distance is the same
    accumulation as `_dists_to_points`, so the value and the witness are
    bit for bit those of the full scan: the first maximum in scan order
    wins ties.  Memory is O(DEFECT_HEAD * N): heads are picked
    DEFECT_HEAD rows at a time, every distance buffer has at most
    DEFECT_HEAD rows or columns, and no N x N or (N, N, d) array is built.
    """
    if len(A) < 2:
        raise ValueError("convexity_defect needs at least two points")
    t_grid = check_count(t_grid, "t_grid")
    if t_grid < 2:
        raise ValueError("t_grid must be at least 2")
    X = A.matrix
    n = len(A)
    k = min(DEFECT_HEAD, n)
    heads = np.empty((n, k), dtype=np.intp)
    for s in range(0, n, DEFECT_HEAD):
        near = _dists_to_points(X[s : s + DEFECT_HEAD], X, norm)
        heads[s : s + DEFECT_HEAD] = np.argpartition(near, k - 1, axis=1)[:, :k]
    rest = np.empty(n, dtype=bool)
    best = 0.0
    best_at = (0, 0, 0.0)
    for t in np.linspace(0.0, 1.0, t_grid)[1:-1]:
        for i in range(n):
            mids = t * X[i] + (1.0 - t) * X[i:]
            dmin = _nearest_dists(mids, X[heads[i]], norm)
            live = np.flatnonzero(dmin > best)
            if live.size and k < n:
                rest.fill(True)
                rest[heads[i]] = False
                others = X[rest]
                for s in range(0, live.size, DEFECT_HEAD):
                    chunk = live[s : s + DEFECT_HEAD]
                    dmin[chunk] = np.minimum(dmin[chunk], _nearest_dists(mids[chunk], others, norm))
                live = live[dmin[live] > best]
            if live.size:
                j = int(live[np.argmax(dmin[live])])
                best = float(dmin[j])
                best_at = (i, i + j, float(t))
    i, j, t = best_at
    return DefectReport(sup_defect=best, witness=(Vector.from_array(X[i]), Vector.from_array(X[j]), t))


def hausdorff_lb(A: SampledSet, witnesses: Iterable[Vector], norm: NormSpec) -> float:
    """max over witnesses of d(w, A): a lower bound on H(A, Co(A)).

    Every witness must be certified to lie in the hull first, by a
    distance solve to tol 1e-9; one that is farther than
    HULL_MEMBERSHIP_TOL from Co(A) is rejected.  The set distances of all
    witnesses are then taken in one (len(witnesses), N) pass.
    """
    witnesses = list(witnesses)  # read twice: for W and for the membership checks
    if not witnesses:
        raise ValueError("need at least one witness")
    X = A.matrix
    W = np.array([_coords(w, X.shape[1]) for w in witnesses])
    for w in witnesses:
        membership = dist_to_hull(w, A, norm, tol=1e-9)
        if membership > HULL_MEMBERSHIP_TOL:
            raise ValueError(
                f"witness {w!r} is {membership:.3e} from the hull "
                f"(tolerance {HULL_MEMBERSHIP_TOL:.1e}); not a valid lower-bound witness"
            )
    return float(_nearest_dists(W, X, norm).max())


def diameter(A: SampledSet, norm: NormSpec) -> float:
    """Exact max pairwise distance (O(n^2) time; sample sizes are capped
    upstream accordingly).

    Rows go in blocks of DIAMETER_BLOCK points against every later point,
    so memory stays O(DIAMETER_BLOCK * n).  Distances are symmetric bit
    for bit, so the pairs a block sees twice do not change the maximum.
    """
    X = A.matrix
    best = 0.0
    for i in range(0, len(A), DIAMETER_BLOCK):
        d = _dists_to_points(X[i : i + DIAMETER_BLOCK], X[i:], norm)
        best = max(best, float(d.max()))
    return best
