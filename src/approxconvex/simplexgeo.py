"""Near-face search and subset selection for simplices inscribed in the
Euclidean unit sphere.

For an n-simplex with vertices on the unit sphere and the origin in its
interior, some k-face lies within alpha(n, k) = sqrt((n-k)/(n(k+1))) of
the origin, with equality for the regular simplex.  The face is found
constructively: take the nearest facet, recenter at its nearest point,
rescale the facet back onto a unit sphere, and recurse one dimension
down.  Nearest points that a closed form below cannot certify are
computed by the minimum-norm-point quadratic kernel, so that the module
shares the hull distances' code path.  Vertices and points are the rows
of a dense array.

All affine algebra comes from one Cholesky factor of the edge Gram
matrix per simplex: the input's, which validates it and serves the
descent's first level; each lower level's; and a chain's largest face's.
At each level the factor gives every barycentric gradient and, from them,
a certified lower bound on each facet's distance and, in closed form,
the foot of the origin on each facet's affine hull.  Only the facets
whose bound does not rule them out of a tie with the nearest are
evaluated.  A foot inside its facet whose squared norm is within the
kernel's tolerance of the squared bound is the facet's nearest point;
any other facet goes to the kernel.

The faces of a chain are nested, each one vertex more than the last, so
the leading blocks of the largest face's factor give the affine foot of
the origin on every face.  A foot whose weights are nonnegative is the
face's nearest point (Wolfe 1976); it is accepted when its Frank-Wolfe
gap meets the kernel's own stop rule, and any other face goes to the
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_count
from .optim import _distance_stop, min_distance_over_simplex, min_quadratic_over_simplex

__all__ = ["FaceResult", "alpha", "near_face", "face_chain", "best_subset"]

_UNIT_TOL = 1e-9
_INTERIOR_TOL = 1e-10
_SHIFT = 1e-8
_TIE_TOL = 1e-12
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FaceResult:
    """A chosen face (as vertex indices into the input) and its distance
    from the origin, recomputed directly on the chosen vertices."""

    vertex_index_set: tuple[int, ...]
    distance: float


def alpha(n: int, k: int) -> float:
    """Guaranteed distance sqrt((n-k)/(n(k+1))) to some k-face."""
    if n < 1:
        raise ValueError(f"alpha needs n >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"alpha needs 0 <= k <= n-1, got k={k} for n={n}")
    return math.sqrt((n - k) / (n * (k + 1)))


def _edge_factor(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The barycentric gradients g of the simplex with vertex rows P, the
    affine coordinates beta of the origin's foot on its affine hull, and
    L^-1, from one Cholesky factor L L^T = E E^T, E = P[1:] - P[0].

    g[1:] = (E E^T)^-1 E = L^-T (L^-1 E) and g[0] = -sum(g[1:]) (Wolfe's
    affine step for every facet at once).  beta = e_0 - g v_0 sums to one
    up to rounding, and one refinement beta -= g (P^T beta) takes back
    what the Gram matrix's squared condition number costs.  L^-1 is
    taken as inv(L^T)^T: LU does not pivot on the upper-triangular L^T,
    so the inverse is exactly triangular and no rounding above the
    diagonal weighs vertices outside a prefix.  A failed factorization
    gives NaN throughout, which certifies nothing."""
    E = P[1:] - P[0]
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(E @ E.T).T).T
    except np.linalg.LinAlgError:
        Linv = np.full((len(E), len(E)), np.nan)
    grads = np.empty_like(P)
    grads[1:] = Linv.T @ (Linv @ E)
    grads[0] = -grads[1:].sum(axis=0)
    beta = -(grads @ P[0])
    beta[0] += 1.0
    beta -= grads @ (beta @ P)
    return grads, beta, Linv


def _origin_factor(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_edge_factor(V), rejecting an origin more than 1e-7 (|V^T beta|)
    from the affine hull, and a degenerate simplex: a failed factor or a
    least Cholesky height 1/|L^-1_kk| at most 1e-6 max(1, the largest),
    since rounding in E E^T can leave heights near 1e-7 on a flat one."""
    factor = _edge_factor(V)
    heights = 1.0 / np.abs(np.diagonal(factor[2]))
    if not heights.min() > 1e-6 * max(1.0, heights.max()):  # NaN rejects
        raise ValueError("degenerate simplex: vertices are affinely dependent")
    resid = float(np.linalg.norm(V.T @ factor[1]))
    if resid > 1e-7:
        raise ValueError(f"origin is {resid:.3e} from the affine hull of the vertices")
    return factor


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1) for a real X, bit for bit (numpy's own
    formula for it), without its per-call dispatch."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


def _simplex_rows(P: np.ndarray, what: str) -> None:
    """Reject more rows than a simplex in R^d has vertices, d + 1, which
    are affinely dependent however they lie (only the degeneracy test
    would see it, without saying why), and NaN and inf, which pass every
    norm check (NaN compares false)."""
    m, d = P.shape
    if m > d + 1:
        raise ValueError(f"got {m} {what} rows in R^{d}: more than d + 1 = {d + 1} are affinely dependent")
    if not np.isfinite(P).all():
        i, k = np.argwhere(~np.isfinite(P))[0]
        raise ValueError(f"{what} {i} has coordinate {k} = {P[i, k]}, not finite")


def _validated(vertices) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The vertices as an array and their _edge_factor.  An origin with a
    coordinate below 1e-10 is retried on the rows of V - 1e-8 mean(V),
    renormalized, where its coordinates (1 - 1e-8) lambda + 1e-8 / m are
    positive (before the positive row scaling, which keeps them so), each
    vertex moving by at most 2e-8 / (1 - 1e-8)."""
    V = np.array(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2:
        raise ValueError("need at least two vertices")
    _simplex_rows(V, "vertex")
    norms = _row_norms(V)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise ValueError("vertices must lie on the unit sphere")
    factor = _origin_factor(V)
    if factor[1].min() < _INTERIOR_TOL:
        V = V - _SHIFT * V.mean(axis=0)
        V /= _row_norms(V)[:, None]
        factor = _origin_factor(V)
        if factor[1].min() <= 0.0:
            raise ValueError("origin is not strictly inside the hull of the vertices")
    return V, factor


def _facet_bounds(C: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Lower bounds on the distance from the origin to the hull of each
    facet of the simplex with vertex rows C, from its barycentric
    gradients (_edge_factor); entry a is for the facet without vertex a.

    With nu the unit vector along -grad lambda_a, every point y of facet
    a has ||y|| >= <nu, y> >= min over the facet's vertices of <nu, v>
    (Cauchy-Schwarz), however inaccurate the gradients.  The bound
    subtracts twice the worst-case rounding, with u = eps/2 in dimension
    d: d u ||v|| in each product and (d + 3) u |<nu, v>| from the norm of
    nu.  Non-finite or negative bounds become 0.  For an origin inside
    the simplex, the least bound is the distance to the nearest facet's
    hyperplane, whose foot lies in that facet.
    """
    m, d = C.shape
    nu = -grads / _row_norms(grads)[:, None]
    dots = C @ nu.T
    dots.flat[:: m + 1] = np.inf
    lo = dots.min(axis=0)
    bounds = lo - _EPS * (d * _row_norms(C).max() + (d + 3) * np.abs(lo))
    return np.where(np.isfinite(bounds) & (bounds > 0.0), bounds, 0.0)


def _nearest_on_facet(C: np.ndarray, a: int) -> tuple[float, np.ndarray]:
    """Squared distance from the origin to the facet of C without vertex
    a, and the facet's nearest point, by the min-norm-point kernel."""
    Lf = C[[r for r in range(C.shape[0]) if r != a]].T
    t, f = min_quadratic_over_simplex(Lf, np.zeros(Lf.shape[0]), tol=1e-13)
    return f, Lf @ t


def _facet_foot(
    C: np.ndarray, grads: np.ndarray, beta: np.ndarray, a: int, bound: float
) -> tuple[float, np.ndarray]:
    """What _nearest_on_facet(C, a) returns, from the closed-form foot of
    the origin on the facet's affine hull wherever that foot is certified.

    Stepping from the origin's projection onto the simplex's affine hull,
    with barycentric coordinates beta, along -g_a until lambda_a = 0
    reaches the foot, with weights w = beta - (beta_a / G_aa) G[a],
    G = grads grads^T.  When w >= 0 the foot q lies in the facet, so
    f = ||q||^2 >= f*, the squared distance, while bound^2 <= f* (see
    _facet_bounds).  The foot is accepted when f - bound^2 <= 1e-13, the
    tolerance the kernel is given, so f - f* <= 1e-13 as from the kernel.
    Any other facet goes to the kernel.
    """
    g = grads @ grads[a]
    w = beta - (beta[a] / g[a]) * g
    w[a] = 0.0
    if w.min() >= 0.0:
        q = (w / w.sum()) @ C
        f = float(q @ q)
        if f - bound * bound <= 1e-13:
            return f, q
    return _nearest_on_facet(C, a)


def _descend(V: np.ndarray, factor: tuple, stop_dim: int) -> list[tuple[int, ...]]:
    """Nearest-facet descent from V with its _edge_factor ``factor`` (each
    lower level factors its own); returns the vertex index sets of every
    visited simplex, largest first, down to dimension stop_dim.

    At each level the facets are ordered so that the lexicographically
    smallest vertex set (drop the largest index) comes first, and the
    first facet whose squared distance f is within _TIE_TOL of the least
    wins.  The facet of least bound is evaluated first, with value U,
    and then every facet whose squared bound is at most U + _TIE_TOL;
    any other facet has f > U + _TIE_TOL, so it can neither be nearest
    nor tie with the nearest.
    """
    idx = list(range(V.shape[0]))
    coords = V
    chain = [tuple(idx)]
    while len(idx) - 1 > stop_dim:
        order = range(len(idx) - 1, -1, -1)  # idx ascends: largest index first
        if len(chain) > 1:
            factor = _edge_factor(coords)
        grads, beta, _ = factor
        bounds = _facet_bounds(coords, grads).tolist()
        first = bounds.index(min(bounds))
        solved = {first: _facet_foot(coords, grads, beta, first, bounds[first])}
        cutoff = solved[first][0] + _TIE_TOL
        for a in order:
            if a not in solved and bounds[a] ** 2 <= cutoff:
                solved[a] = _facet_foot(coords, grads, beta, a, bounds[a])
        f_min = min(f for f, _ in solved.values())
        best_a = next(a for a in order if a in solved and solved[a][0] <= f_min + _TIE_TOL)
        best_q = solved[best_a][1]
        rows = [r for r in range(len(idx)) if r != best_a]
        coords = coords[rows] - best_q
        norms = _row_norms(coords)
        norms[norms == 0.0] = 1.0
        coords = coords / norms[:, None]
        idx = [idx[r] for r in rows]
        chain.append(tuple(idx))
    return chain


def _prefix_distances(P: np.ndarray) -> list[float | None]:
    """Distance from the origin to the hull of each prefix P[:k + 1] of
    the rows of P, k = 0..m-1, or None where the closed form below does
    not certify it.

    With E = P[1:] - P[0] and E E^T = L L^T (_edge_factor), the foot of
    the origin on the affine hull of P[:k + 1] is P[0] + y_k^T E[:k] with
    y_k = -L_k^-T z_k, z = L^-1 E P[0] and L_k the leading k x k block
    of L, whose inverse is the leading block of L^-1.  So row k - 1 of
    the running sum over the rows of diag(z) L^-1 is -y_k, with zeros
    beyond.  A foot is accepted, as the kernel accepts its exit, when its
    weights lie on the simplex (nonnegative, summing to one within
    1e-12) and its Frank-Wolfe gap g.w - min g, computed from those
    weights on the rows of P, meets min_distance_over_simplex's stop
    rule at tol 1e-11.  A negative weight means that the nearest point
    lies on the prefix's boundary; a failed factor certifies only P[:1].
    """
    m = P.shape[0]
    Linv = _edge_factor(P)[2]
    z = Linv @ ((P[1:] - P[0]) @ P[0])
    W = np.zeros((m, m))
    W[1:, 1:] = -np.cumsum(Linv * z[:, None], axis=0)
    W[:, 0] = 1.0 - W[:, 1:].sum(axis=1)
    Q = W @ P
    f = np.einsum("ij,ij->i", Q, Q)
    G = 2.0 * (Q @ P.T)  # row k: the gradient of prefix k's f at each vertex
    gap = np.einsum("ij,ij->i", G, W) - np.where(np.tri(m, dtype=bool), G, np.inf).min(axis=1)
    on_simplex = (W.min(axis=1) >= 0.0) & (np.abs(W.sum(axis=1) - 1.0) <= 1e-12)
    return [
        math.sqrt(f[k]) if on_simplex[k] and _distance_stop(f[k], gap[k], 1e-11) else None
        for k in range(m)
    ]


def _face(X: np.ndarray, subset) -> FaceResult:
    """The face on the rows ``subset`` of X, in that order, and its
    distance from the origin."""
    _, dist = min_distance_over_simplex(X[list(subset)].T, np.zeros(X.shape[1]), tol=1e-11)
    return FaceResult(vertex_index_set=tuple(sorted(subset)), distance=dist)


def near_face(vertices, k: int) -> FaceResult:
    """A k-face within alpha(n, k) of the origin.

    ``vertices`` are the n+1 simplex vertices, the rows of an (n+1, n)
    array, on the unit sphere with the origin strictly inside; inputs
    on the boundary within 1e-10 are shifted inward by 1e-8 and retried.
    """
    k = check_count(k, "k")
    n = len(vertices) - 1 if np.ndim(vertices) else 0
    if not 0 <= k <= n - 1:
        raise ValueError(f"near_face needs 0 <= k <= n-1, got k={k} for n={n}")
    V, factor = _validated(vertices)
    return _face(V, _descend(V, factor, k)[-1])


def face_chain(vertices) -> list[FaceResult]:
    """FaceResults for every k = 0..n-1 from a single descent.

    Face k is face k - 1 and one more vertex, so with the vertices in the
    order the chain adds them every face is a prefix, and one
    factorization gives every distance (_prefix_distances); a face it
    does not certify goes to the kernel.
    """
    V, factor = _validated(vertices)
    faces = _descend(V, factor, 0)[:0:-1]  # k = 0..n-1
    order = list(faces[0]) + [(set(big) - set(small)).pop() for small, big in zip(faces, faces[1:])]
    return [
        _face(V, face) if dist is None else FaceResult(tuple(sorted(face)), dist)
        for face, dist in zip(faces, _prefix_distances(V[order]))
    ]


def best_subset(points, j: int) -> FaceResult:
    """A j-element subset whose hull passes within sqrt((n+1-j)/(nj)) of
    the origin, given n+1 points of the unit ball whose hull contains 0,
    the rows of an (n+1, n) array.

    Normalizes the points onto the sphere, finds a near (j-1)-face there,
    and reports the distance for the original (un-normalized) subset,
    which can only be smaller.

    One barycentric check, _validated's on the normalized points v_i =
    p_i / r_i, decides hull membership: scaling rows by positive factors
    keeps the origin in (or out of) the hull.  If 0 = sum mu_i v_i + e
    with mu on the simplex, then sum (mu_i / r_i) p_i = -e, and dividing
    by s = sum mu_i / r_i >= 1 / (1 + 1e-9) puts the origin within
    (1 + 1e-9) |e| of the hull of the p_i.  Here |e| is at most the
    affine residual _origin_factor admits (1e-7; rounding for n + 1
    points in R^n) plus, on the boundary retry, the largest move of a
    vertex, |v_i - w_i| <= 2e-8 / (1 - 1e-8) (see _validated).
    """
    j = check_count(j, "j")
    P = np.array(points, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"points must be the rows of a 2-D array, got shape {P.shape}")
    n = P.shape[0] - 1
    if not 1 <= j <= n:
        raise ValueError(f"best_subset needs 1 <= j <= n, got j={j} for n={n}")
    _simplex_rows(P, "point")
    norms = _row_norms(P)
    if np.any(norms < 1e-12):
        raise ValueError("zero vector cannot be normalized onto the sphere")
    if np.any(norms > 1.0 + _UNIT_TOL):
        raise ValueError("points must lie in the unit ball")
    V, factor = _validated(P / norms[:, None])
    return _face(P, sorted(_descend(V, factor, j - 1)[-1]))
