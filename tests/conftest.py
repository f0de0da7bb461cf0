from unittest import mock

import numpy as np
import pytest

from approxconvex import hulls, treespace
from approxconvex.core import Vector
from approxconvex.labels import downward_closure, label_sort_key, leaf, pair
from approxconvex.optim import LPInstance


def regular_simplex(n: int) -> np.ndarray:
    """n+1 unit vectors with common pairwise angle, centered at 0."""
    E = np.eye(n + 1)
    V = E - E.mean(axis=0)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def origin_barycentric(V: np.ndarray) -> np.ndarray:
    """Weights of the point of V's affine hull nearest the origin, from
    the bordered KKT system, which is nonsingular for affinely
    independent rows."""
    s = V.shape[0]
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = 2.0 * V @ V.T
    K[:s, s] = 1.0
    K[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    return np.linalg.solve(K, rhs)[:s]


def random_interior_simplex(rng, n: int, margin: float = 1e-2) -> np.ndarray:
    """Unit-sphere vertices with the origin comfortably inside.

    n random unit vectors plus the unit vector opposite a random positive
    (Dirichlet) combination of them, so the origin is inside by
    construction; plain rejection sampling of n + 1 unit vectors accepts
    only about 2^-n of its draws."""
    while True:
        V = rng.standard_normal((n + 1, n))
        V[0] = -rng.dirichlet(np.ones(n)) @ V[1:]
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if origin_barycentric(V).min() > margin:
            return V


def exact_simplex_distance(P: np.ndarray) -> float:
    """Independent oracle: distance from 0 to the hull of the rows of P
    by enumerating all affine-support candidates (exact for small P)."""
    from itertools import combinations

    m = P.shape[0]
    best = np.inf
    for size in range(1, m + 1):
        for sub in combinations(range(m), size):
            Q = P[list(sub)]
            k = len(sub)
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * Q @ Q.T
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            mu = sol[:k]
            if mu.min() < -1e-10:
                continue
            mu = np.clip(mu, 0.0, None)
            mu /= mu.sum()
            best = min(best, float(np.linalg.norm(Q.T @ mu)))
    return best


def random_tree_vector(rng, closure: int, max_level: int = 12) -> Vector:
    """A tree vector whose support's downward closure has at least
    `closure` labels, in the shape of acceptance criterion 8's tail."""

    def rand_label(max_lv):
        if max_lv <= 1 or rng.random() < 0.4:
            return leaf(int(rng.integers(1, 600)))
        lv = int(rng.integers(1, max_lv))
        return pair(rand_label(lv), rand_label(max_lv - lv))

    labels = set()
    while len(downward_closure(labels)) < closure:
        labels.add(rand_label(max_level))
    ordered = sorted(labels, key=label_sort_key)
    return Vector({lab: float(rng.uniform(-2.0, 2.0)) for lab in ordered})


def tree_lps(x: Vector, M: float):
    """The (LP, basis) pairs `treespace` passes to `lp_solve` for the tree
    norm of x, captured at its call site: only the decomposition LP,
    started on y = x."""
    captured = []
    solve = treespace.lp_solve

    def record(lp, *args, **kwargs):
        captured.append((lp, kwargs["basis"]))
        return solve(lp, *args, **kwargs)

    with mock.patch.object(treespace, "lp_solve", record):
        treespace.tree_norm(x, M, tol=1e-7)
    return captured


def all_plus_start(lp: LPInstance):
    """The tree-norm LP's start on y+ at every row where x is not
    negative: a valid signed unit start, not the one `treespace` takes."""
    N = lp.n_rows
    return np.arange(N) + N * (lp.b < 0.0)


def hull_lps(x: Vector, A, norm):
    """dist_to_hull(x, A, norm) and the (LP, basis) pairs it passes to
    `lp_solve`, captured at its call site."""
    captured = []
    solve = hulls.lp_solve

    def record(lp, *args, **kwargs):
        captured.append((lp, kwargs["basis"]))
        return solve(lp, *args, **kwargs)

    with mock.patch.object(hulls, "lp_solve", record):
        value = hulls.dist_to_hull(x, A, norm)
    return value, captured


def with_slacks(c, A, rel, b) -> LPInstance:
    """The LP min c.x over A x (rel) b, x >= 0, each relation '<=' or '=',
    in `lp_solve`'s standard form: a zero-cost slack column for each '<='
    row, appended after the variables in row order."""
    A = np.asarray(A, dtype=float)
    ineq = [i for i, r in enumerate(rel) if r == "<="]
    S = np.zeros((len(rel), len(ineq)))
    S[ineq, range(len(ineq))] = 1.0
    return LPInstance(c=np.concatenate([np.asarray(c, dtype=float), np.zeros(len(ineq))]), A=np.hstack([A, S]), b=b)


def canonical_form(lp: LPInstance, basis) -> LPInstance:
    """lp in canonical form for the feasible basis ``basis``, the start
    `lp_solve` takes: the rows B^-1 [A b] for B = lp.A[:, basis], with
    column basis[i] set to e_i exactly, then negated where lp's b_i < 0,
    so starts on -e_i columns are covered too.  The LP has the same
    feasible set and optimum as lp, not the same row duals."""
    basis = list(basis)
    T = np.linalg.solve(lp.A[:, basis], np.column_stack([lp.A, lp.b]))
    T[:, basis] = np.eye(len(basis))
    T *= np.where(lp.b < 0.0, -1.0, 1.0)[:, None]
    return LPInstance(c=lp.c, A=T[:, :-1], b=T[:, -1])


def lp_with_feasible_basis(rng):
    """A random bounded LP and a feasible basis of it, the LP in
    `canonical_form` for that basis.  Before that, its '<=' rows are
    written with slack columns by `with_slacks`, and b is B x_B for basic
    values x_B >= 0, a third of them zero (degenerate starts), so it
    takes either sign; the last row, 1.x <= 1.x_B + 1 with its slack
    basic, bounds the LP whatever the sign of c."""
    while True:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 2 * m + 4))
        A = rng.normal(size=(m, n))
        rel = tuple(rng.choice(["<=", "="]) for _ in range(m))
        ineq = [i for i, r in enumerate(rel) if r == "<="]
        S = np.zeros((m, len(ineq)))
        S[ineq, range(len(ineq))] = 1.0
        full = np.hstack([A, S])
        basis = rng.choice(full.shape[1], size=m, replace=False)
        if np.linalg.cond(full[:, basis]) < 1e6:
            break
    x_B = np.where(rng.random(m) < 1 / 3, 0.0, rng.uniform(0.1, 2.0, size=m))
    x = np.zeros(full.shape[1])
    x[basis] = x_B
    bound = x[:n].sum() + 1.0
    lp = with_slacks(
        c=rng.normal(size=n),
        A=np.vstack([A, np.ones(n)]),
        rel=rel + ("<=",),
        b=np.append(full @ x, bound),
    )
    basis = np.append(basis, n + len(ineq))
    return canonical_form(lp, basis), basis


def assert_dual_certificate(lp, sol, tol: float = 1e-7):
    """For min c.x over A x = b, x >= 0: y = sol.dual has c - A.T y >= 0,
    and b.y equals the value."""
    y = sol.dual
    assert (lp.c - lp.A.T @ y).min() >= -tol * (1.0 + np.abs(lp.c).max())
    assert float(lp.b @ y) == pytest.approx(sol.value, abs=tol * (1.0 + abs(sol.value)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
