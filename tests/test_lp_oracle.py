"""`lp_solve` against HiGHS (`scipy.optimize.linprog`), an independent
LP solver used only as a test oracle."""

import itertools
import math

import numpy as np
import pytest

from approxconvex import treespace
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


# Residuals r = x - P_j from the nearest sample P_j of `start_case`.
START_RESIDUALS = [
    [0.0, 0.0, 0.0],  # x is a sample point
    [0.5, -0.5, 0.25],  # |r| ties with opposite signs, the first r_i* > 0
    [-0.5, 0.5, 0.25],  # the same tie, the first r_i* < 0
    [0.25, -0.75, 0.5],  # a negative r_i*
    [0.25, 0.75, -0.5],
    [0.5, 0.25, 0.5],  # r_k = r_i* > 0: a zero right-hand side on -e_k
    [-0.5, 0.25, -0.5],  # r_k = r_i* < 0: a zero right-hand side below
]


def start_case(r, p):
    """The hull LP of x = P_j + r, P a grid 4 apart so that P_j is the
    nearest sample and every start value is exact: (P, j, lp, basis, the
    signed right-hand side), the LP and the distance checked against
    HiGHS."""
    P = 4.0 * np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=3)))
    j = 13
    x = P[j] + np.array(r)
    value, ((lp, basis),) = hull_lps(Vector.from_array(x), SampledSet(P), NormSpec.lp(p))
    sol = assert_matches_highs(lp, basis, rel=1e-9)
    assert_dual_certificate(lp, sol)
    assert abs(value - highs_hull_distance(P, x, p)) <= 1e-9 * max(1.0, value)
    sign = np.diagonal(lp.A[:, basis])
    return P, j, lp, basis, sign * lp.b


@pytest.mark.parametrize("r", START_RESIDUALS)
def test_linf_start_basis(r):
    # The l-infinity start from the nearest sample P_j, with U = ||r||_inf:
    # every p on its -e_i column, every q on its +e_(d+i) column, then
    # lam_j = 1, and v = 0 nonbasic.  The signed right-hand side is exactly
    # (U - r, U + r, 1).  r0 starts every p and q at zero; r1, r2, r4 and
    # r5 start a p, a -e_i column, at zero, and r1, r2, r3 and r6 a q.
    P, j, lp, basis, signed_b = start_case(r, math.inf)
    N, d = P.shape
    r = np.array(r)
    U = np.abs(r).max()
    assert list(basis) == list(N + np.arange(2 * d)) + [j]
    assert list(np.diagonal(lp.A[:, basis])) == [-1.0] * d + [1.0] * (d + 1)
    assert list(signed_b) == list(U - r) + list(U + r) + [1.0]


def linf_hull_lp(P: np.ndarray, j: int, r: np.ndarray) -> LPInstance:
    """The l-infinity hull LP around sample j in closed form, written
    block by block: columns (lam, p, q, v), rows Q lam - v - p = r - U,
    Q lam + v + q = r + U and sum(lam) = 1, costs U on every lam and -1 on
    v, with Q = (P - P_j).T and U = ||r||_inf."""
    N, d = P.shape
    U = np.abs(r).max()
    A = np.zeros((2 * d + 1, N + 2 * d + 1))
    A[:d, :N] = A[d : 2 * d, :N] = (P - P[j]).T
    A[range(d), N + np.arange(d)] = -1.0
    A[d + np.arange(d), N + d + np.arange(d)] = 1.0
    A[:d, -1], A[d : 2 * d, -1] = -1.0, 1.0
    A[-1, :N] = 1.0
    c = np.zeros(N + 2 * d + 1)
    c[:N], c[-1] = U, -1.0
    return LPInstance(c=c, A=A, b=np.concatenate([r - U, r + U, [1.0]]))


@pytest.mark.parametrize("seed", range(8))
def test_linf_lp_is_posed_in_closed_form(seed):
    # dist_to_hull hands lp_solve this LP as written, with no row
    # transformed after it is built, and starts on every p, every q and
    # lam_j.  Queries: off the hull, inside it, and at a sample point.
    rng = np.random.default_rng(seed)
    N, d = int(rng.integers(1, 25)), int(rng.integers(1, 7))
    P = rng.normal(size=(N, d))
    x = [3.0 * rng.normal(size=d), rng.dirichlet(np.ones(N)) @ P, P[rng.integers(N)]][seed % 3]
    _, ((lp, basis),) = hull_lps(Vector.from_array(x), SampledSet(P), NormSpec.lp(math.inf))
    j = int(np.argmin(np.abs(P - x).max(axis=1)))
    want = linf_hull_lp(P, j, x - P[j])
    assert np.array_equal(lp.A, want.A)
    assert np.array_equal(lp.b, want.b)
    assert np.array_equal(lp.c, want.c)
    assert list(basis) == list(N + np.arange(2 * d)) + [j]


@pytest.mark.parametrize("r", START_RESIDUALS)
def test_l1_start_basis(r):
    # The l1 start: s+_i = r_i or s-_i = -r_i by the sign of r_i, and
    # lam_j = 1; the signed right-hand side is (|r|, 1).
    P, j, lp, basis, signed_b = start_case(r, 1.0)
    N, d = P.shape
    r = np.array(r)
    assert list(basis) == list(N + np.arange(d) + d * (r < 0.0)) + [j]
    assert list(signed_b) == list(np.abs(r)) + [1.0]
