"""Reference implementations of the near-face descent as the library had
it before its per-level numpy calls were trimmed, and of `best_subset`
with its former second hull check (the min-norm-point kernel on all the
points, rejecting a distance above 1e-7).  The barycentric gradients and
the origin's coordinates come from the library's own factor routine,
simplexgeo._edge_factor.  Tests compare the library with these: bounds,
gradients, chains and distances bit for bit, and best_subset's
accept-or-reject decision.  Not collected by pytest.
"""

from __future__ import annotations

import numpy as np

from approxconvex import simplexgeo
from approxconvex.optim import min_distance_over_simplex


def facet_bounds(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = C.shape[1]
    grads, beta, _ = simplexgeo._edge_factor(C)
    nu = -grads / np.linalg.norm(grads, axis=1, keepdims=True)
    dots = C @ nu.T
    np.fill_diagonal(dots, np.inf)
    lo = dots.min(axis=0)
    eps = np.finfo(float).eps
    bounds = lo - eps * (d * np.linalg.norm(C, axis=1).max() + (d + 3) * np.abs(lo))
    return np.where(np.isfinite(bounds) & (bounds > 0.0), bounds, 0.0), grads, beta


def facet_foot(
    C: np.ndarray, grads: np.ndarray, beta: np.ndarray, a: int, bound: float
) -> tuple[float, np.ndarray]:
    g = grads @ grads[a]
    w = beta - (beta[a] / g[a]) * g
    w[a] = 0.0
    if w.min() >= 0.0:
        q = (w / w.sum()) @ C
        f = float(q @ q)
        if f - bound * bound <= 1e-13:
            return f, q
    return simplexgeo._nearest_on_facet(C, a)


def descend(V: np.ndarray, stop_dim: int) -> list[tuple[int, ...]]:
    idx = list(range(V.shape[0]))
    coords = V.copy()
    chain = [tuple(idx)]
    while len(idx) - 1 > stop_dim:
        order = range(len(idx) - 1, -1, -1)
        bounds, grads, beta = facet_bounds(coords)
        first = int(np.argmin(bounds))
        solved = {first: facet_foot(coords, grads, beta, first, bounds[first])}
        cutoff = solved[first][0] + simplexgeo._TIE_TOL
        for a in order:
            if a not in solved and bounds[a] ** 2 <= cutoff:
                solved[a] = facet_foot(coords, grads, beta, a, bounds[a])
        f_min = min(f for f, _ in solved.values())
        best_a = next(
            a for a in order if a in solved and solved[a][0] <= f_min + simplexgeo._TIE_TOL
        )
        best_q = solved[best_a][1]
        rows = [r for r in range(len(idx)) if r != best_a]
        coords = coords[rows] - best_q
        norms = np.linalg.norm(coords, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        coords = coords / norms
        idx = [idx[r] for r in rows]
        chain.append(tuple(idx))
    return chain


def best_subset(points, j: int) -> simplexgeo.FaceResult:
    P = np.array(points, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"points must be the rows of a 2-D array, got shape {P.shape}")
    n = P.shape[0] - 1
    if not 1 <= j <= n:
        raise ValueError(f"best_subset needs 1 <= j <= n, got j={j} for n={n}")
    simplexgeo._simplex_rows(P, "point")
    norms = np.linalg.norm(P, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero vector cannot be normalized onto the sphere")
    if np.any(norms > 1.0 + simplexgeo._UNIT_TOL):
        raise ValueError("points must lie in the unit ball")
    _, hull_dist = min_distance_over_simplex(P.T, np.zeros(P.shape[1]), tol=1e-9)
    if hull_dist > 1e-7:
        raise ValueError(f"origin is {hull_dist:.3e} from the hull of the points")
    V = simplexgeo._validated(P / norms[:, None])[0]
    return simplexgeo._face(P, sorted(descend(V, j - 1)[-1]))
