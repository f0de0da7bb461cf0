"""Independent checks, run once after the timed passes.

They share no code with the library's solvers: LP values come from HiGHS
through ``scipy.optimize.linprog``, small nearest-point problems from
exhaustive enumeration of affine supports, and distances from plain
numpy.  scipy is imported inside the functions that use it, so it is
loaded only once the timed passes are over.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from approxconvex.labels import downward_closure, label_sort_key


def _highs(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def tree_norm_highs(x, M: float) -> float:
    """The tree norm as the value of its dual-ball LP: maximize
    sum x(d) phi(d) over |phi| <= M and midpoint defects at most 1."""
    from scipy import sparse

    D = sorted(downward_closure(x.support()), key=label_sort_key)
    pos = {lab: i for i, lab in enumerate(D)}
    rows, cols, vals = [], [], []
    r = 0
    for lab in D:
        if lab.is_leaf:
            continue
        for sign in (1.0, -1.0):
            for j, v in ((pos[lab], 1.0), (pos[lab.left], -0.5), (pos[lab.right], -0.5)):
                rows.append(r)
                cols.append(j)
                vals.append(sign * v)
            r += 1
    c = -np.array([x.get(lab) for lab in D])
    if r == 0:
        return -_highs(c, bounds=(-M, M))
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r, len(D)))
    return -_highs(c, A_ub=A, b_ub=np.ones(r), bounds=(-M, M))


def hull_distance_highs(X: np.ndarray, x: np.ndarray, p: float) -> float:
    """l1 or linf distance from x to the hull of the rows of X, as an LP
    in (lambda, u) with -u <= x - X.T lambda <= u."""
    N, d = X.shape
    k = d if p == 1.0 else 1
    U = -np.eye(d) if p == 1.0 else -np.ones((d, 1))
    A_ub = np.block([[X.T, U], [-X.T, U]])
    b_ub = np.concatenate([x, -x])
    A_eq = np.concatenate([np.ones(N), np.zeros(k)])[None, :]
    c = np.concatenate([np.zeros(N), np.ones(k)])
    return _highs(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0])


def in_hull(X: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Feasibility of X.T lambda = x, sum lambda = 1, lambda >= 0."""
    from scipy.optimize import linprog

    N = X.shape[0]
    A_eq = np.vstack([X.T, np.ones(N)])
    res = linprog(np.zeros(N), A_eq=A_eq, b_eq=np.append(x, 1.0), bounds=(0, None), method="highs")
    if res.status != 0:
        return False
    return float(np.abs(X.T @ res.x - x).max()) <= tol * (1.0 + float(np.abs(x).max()))


def dist_to_points(X: np.ndarray, x: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(X - x, ord=p, axis=1).min())


def defect_at(X: np.ndarray, x: dict, y: dict, t: float, p: float) -> float:
    """Distance from t x + (1 - t) y to the point set X."""
    d = X.shape[1]
    xv = np.array([x.get(i, 0.0) for i in range(d)])
    yv = np.array([y.get(i, 0.0) for i in range(d)])
    return dist_to_points(X, t * xv + (1.0 - t) * yv, p)


def diameter(X: np.ndarray) -> float:
    from scipy.spatial.distance import pdist

    return float(pdist(X).max())


def origin_barycentric(V: np.ndarray) -> np.ndarray:
    """Affine coordinates of the origin in the rows of V."""
    s = V.shape[0]
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = 2.0 * V @ V.T
    K[:s, s] = 1.0
    K[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    return np.linalg.lstsq(K, rhs, rcond=None)[0][:s]


def exact_origin_distance(P: np.ndarray) -> float:
    """Distance from 0 to the hull of the rows of P: the best nonnegative
    affine minimizer over every support."""
    best = np.inf
    for size in range(1, P.shape[0] + 1):
        for sub in combinations(range(P.shape[0]), size):
            mu = origin_barycentric(P[list(sub)])
            if mu.min() < -1e-10:
                continue
            mu = np.clip(mu, 0.0, None)
            best = min(best, float(np.linalg.norm(P[list(sub)].T @ (mu / mu.sum()))))
    return best


def best_subset_distance(P: np.ndarray, j: int) -> float:
    """Smallest distance from 0 to the hull of any j rows of P."""
    return min(exact_origin_distance(P[list(sub)]) for sub in combinations(range(P.shape[0]), j))
