"""`lp_solve` against HiGHS (`scipy.optimize.linprog`), an independent
LP solver used only as a test oracle."""

import itertools
import math

import numpy as np
import pytest

from approxconvex import optim, treespace
from approxconvex.core import NormSpec, Vector
from approxconvex.hulls import SampledSet
from approxconvex.labels import downward_closure
from approxconvex.optim import LPInstance, lp_solve
from conftest import (
    assert_dual_certificate,
    hull_lps,
    lp_with_feasible_basis,
    random_tree_vector,
    tree_lps,
    with_slacks,
)

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(lp: LPInstance):
    """(status, value) of the same LP solved by HiGHS."""
    res = linprog(
        lp.c,
        A_eq=lp.A if lp.n_rows else None,
        b_eq=lp.b if lp.n_rows else None,
        bounds=(0.0, None),
        method="highs",
    )
    status = HIGHS_STATUS[res.status]
    if status != "optimal":
        return status, None
    return status, res.fun


def assert_matches_highs(lp: LPInstance, basis, rel: float = 1e-7):
    sol = lp_solve(lp, basis=basis)
    status, value = highs(lp)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.value - value) <= rel * max(1.0, abs(value))
    return sol


def test_random_feasible(rng):
    # Random LPs of either sign of b, from a feasible basis that is often
    # degenerate.
    for _ in range(200):
        lp, basis = lp_with_feasible_basis(rng)
        sol = assert_matches_highs(lp, basis, rel=1e-9)
        assert sol.status == "optimal"
        assert_dual_certificate(lp, sol)


def test_random_unbounded(rng):
    # Two columns a and -a with costs -1 and 0.5: the direction (1, 1)
    # keeps every row and lowers the objective forever.  They go after
    # the slack columns, so the basis keeps its numbering.
    for _ in range(30):
        lp, basis = lp_with_feasible_basis(rng)
        a = rng.normal(size=(lp.n_rows, 1))
        unb = LPInstance(c=np.concatenate([lp.c, [-1.0, 0.5]]), A=np.hstack([lp.A, a, -a]), b=lp.b)
        assert assert_matches_highs(unb, basis).status == "unbounded"


def test_random_degenerate(rng):
    # Most right-hand sides zero: many ties in the ratio test.
    for _ in range(40):
        m = int(rng.integers(3, 25))
        n = int(rng.integers(m, 2 * m + 1))
        b = np.where(rng.random(m) < 0.7, 0.0, rng.normal(size=m))
        lp = LPInstance(
            c=np.concatenate([rng.normal(size=n), np.abs(rng.normal(size=m)) + 0.1]),
            A=np.hstack([rng.normal(size=(m, n)).round(0), np.diag(np.where(b < 0.0, -1.0, 1.0))]),
            b=b,
        )
        sol = assert_matches_highs(lp, n + np.arange(m))
        if sol.status == "optimal":
            assert_dual_certificate(lp, sol)


def test_unit_columns_with_cost_on_negative_rows(rng):
    # Every row has a column equal to +-e_i, signed so that it is +e_i
    # once a negative right-hand side is flipped; such columns carry a
    # nonzero cost, of either sign.  Named as the basis, they are a costed
    # identity start (the tree-norm LP's case).
    for _ in range(60):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 10))
        rel = tuple(rng.choice(["=", "<="]) for _ in range(m))
        b = rng.normal(size=m)
        b[rng.random(m) < 0.5] *= -1.0
        flip = np.where(b < 0.0, -1.0, 1.0)
        # Once flipped, a row is '=', '<=' (b >= 0) or '>=' (b < 0, a
        # surplus); the unit column only stands in for a slack on '=' and
        # '>=' rows.  The '<=' rows' slack columns come after it.
        lp = with_slacks(
            c=np.concatenate([rng.normal(size=n), rng.normal(size=m) + 0.5]),
            A=np.hstack([rng.normal(size=(m, n)), np.diag(flip)]),
            rel=rel,
            b=b,
        )
        sol = assert_matches_highs(lp, n + np.arange(m))
        if sol.status == "optimal":
            assert_dual_certificate(lp, sol)


@pytest.mark.parametrize("closure", [260, 500])
def test_tree_lps(closure):
    rng = np.random.default_rng(closure)
    x = random_tree_vector(rng, closure)
    for M in (1.0, 3.0):
        [(primal, basis)] = tree_lps(x, M)
        assert primal.n_rows >= closure
        sol = assert_matches_highs(primal, basis, rel=1e-9)
        assert_dual_certificate(primal, sol, tol=1e-9)


def four_block_tree_lp(x: Vector, M: float) -> LPInstance:
    """The decomposition LP with a w column for every label of the
    closure D, leaves included: A = [I, -I, S, -S], cost M on y and on a
    leaf's w, 1 on a pair's w."""
    D, S, _ = treespace._halving(x)
    N = len(D)
    wprime = np.array([M if lab.is_leaf else 1.0 for lab in D])
    return LPInstance(
        c=np.concatenate([np.full(2 * N, M), wprime, wprime]),
        A=np.hstack([np.eye(N), -np.eye(N), S, -S]),
        b=x.to_array(D),
    )


@pytest.mark.parametrize("closure", [260, 500])
def test_tree_lp_has_no_leaf_w_columns(closure):
    # A leaf's w columns equal its y columns, cost included, so dropping
    # them leaves the value and, since ties go to the lower column, every
    # pivot.
    rng = np.random.default_rng(closure)
    x = random_tree_vector(rng, closure)
    D = downward_closure(x.support())
    n_pairs = sum(not lab.is_leaf for lab in D)
    for M in (1.0, 3.0):
        [(primal, basis)] = tree_lps(x, M)
        assert primal.n_vars == 2 * len(D) + 2 * n_pairs
        four_block = four_block_tree_lp(x, M)
        assert four_block.n_vars == 4 * len(D)
        sol = lp_solve(primal, basis=basis)
        _, value = highs(four_block)
        assert abs(sol.value - value) <= 1e-9 * max(1.0, abs(value))
        assert lp_solve(four_block, basis=basis).iterations == sol.iterations


def highs_hull_distance(P: np.ndarray, x: np.ndarray, p: float) -> float:
    """min over lam in the simplex of ||x - P.T lam||_p, p = 1 or inf, by
    HiGHS on its own formulation: variables (lam, u) with
    +-(x - P.T lam) <= u coordinatewise (u one per coordinate for l1, a
    single u for l-infinity) and minimize sum(u)."""
    N, d = P.shape
    U = np.eye(d) if p == 1.0 else np.ones((d, 1))
    k = U.shape[1]
    res = linprog(
        np.concatenate([np.zeros(N), np.ones(k)]),
        A_ub=np.block([[-P.T, -U], [P.T, -U]]),
        b_ub=np.concatenate([-x, x]),
        A_eq=np.concatenate([np.ones(N), np.zeros(k)])[None, :],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def hull_queries(rng, P: np.ndarray):
    """Queries of every kind the hull LP meets: far off the hull, a
    member, a point inside, and off-hull points with exactly zero
    coordinates (rows with b = 0)."""
    N, d = P.shape
    off = P.mean(axis=0) + 3.0 * rng.normal(size=d)
    zeroed = 3.0 * rng.normal(size=d)
    zeroed[rng.random(d) < 0.5] = 0.0
    return [
        off,
        P[int(rng.integers(N))],
        rng.dirichlet(np.ones(N)) @ P,
        zeroed,
        np.zeros(d),
    ]


@pytest.mark.parametrize("d", range(1, 9))
def test_hull_lps(d):
    rng = np.random.default_rng(100 + d)
    for N in (1, 2, 5, 17, 60):
        P = rng.normal(size=(N, d))
        P[rng.random((N, d)) < 0.2] = 0.0  # zero coordinates in the columns too
        P = np.vstack([P, P[: max(1, N // 4)]])  # duplicated points
        A = SampledSet(P)
        for xq in hull_queries(rng, P):
            for p, rows in ((1.0, d + 1), (math.inf, 2 * d + 1)):
                value, ((lp, basis),) = hull_lps(Vector.from_array(xq), A, NormSpec.lp(p))
                assert lp.n_rows == rows
                assert len(basis) == rows
                # The closed-form start agrees with HiGHS and certifies
                # its duals.
                sol = assert_matches_highs(lp, basis)
                assert_dual_certificate(lp, sol)
                ref = highs_hull_distance(P, xq, p)
                assert abs(value - ref) <= 1e-7 * max(1.0, ref)


@pytest.mark.parametrize("r", [
    [0.0, 0.0, 0.0],  # x is a sample point
    [0.5, -0.5, 0.25],  # |r| ties with opposite signs, the first r_i* > 0
    [-0.5, 0.5, 0.25],  # the same tie, the first r_i* < 0
    [0.25, -0.75, 0.5],
    [0.25, 0.75, -0.5],
])
def test_linf_start_basis(r):
    # The closed-form l-infinity start from the nearest sample P_j: lam_j
    # = 1, u = ||r||_inf with r = x - P_j, p = u - r and q = u + r,
    # except that u takes the row of the zero one of p_i*, q_i*.  The
    # samples are 4 apart, so P_j is the nearest, and every value is exact.
    P = 4.0 * np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=3)))
    N, d = P.shape
    j, r = 13, np.array(r)
    x = P[j] + r
    value, ((lp, basis),) = hull_lps(Vector.from_array(x), SampledSet(P), NormSpec.lp(math.inf))
    u = np.abs(r).max()
    i = int(np.argmax(np.abs(r)))
    want = np.append(N + np.arange(2 * d), j)
    want[i + d * (r[i] < 0.0)] = N + 2 * d
    assert list(basis) == list(want)
    sign = np.where(lp.b < 0.0, -1.0, 1.0)
    x_B, _ = optim._start_on_basis(sign[:, None] * lp.A, sign * lp.b, basis, 1e-9)
    start = np.concatenate([np.zeros(N), u - r, u + r, [u]])
    start[j] = 1.0
    assert x_B == pytest.approx(start[basis], abs=1e-12)
    sol = assert_matches_highs(lp, basis, rel=1e-9)
    assert_dual_certificate(lp, sol)
    assert abs(value - highs_hull_distance(P, x, math.inf)) <= 1e-9 * max(1.0, value)
