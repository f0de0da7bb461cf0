"""`lp_solve` against HiGHS (`scipy.optimize.linprog`), an independent
LP solver used only as a test oracle."""

import math

import numpy as np
import pytest

from approxconvex.core import NormSpec, Vector
from approxconvex.hulls import SampledSet
from approxconvex.optim import LPInstance, lp_solve
from conftest import assert_dual_certificate, hull_lps, random_tree_vector, tree_lps

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(lp: LPInstance):
    """(status, value) of the same LP solved by HiGHS."""
    ub = [i for i, r in enumerate(lp.rel) if r == "<="]
    eq = [i for i, r in enumerate(lp.rel) if r == "="]
    res = linprog(
        lp.c,
        A_ub=lp.A[ub] if ub else None,
        b_ub=lp.b[ub] if ub else None,
        A_eq=lp.A[eq] if eq else None,
        b_eq=lp.b[eq] if eq else None,
        bounds=(0.0, None),
        method="highs",
    )
    status = HIGHS_STATUS[res.status]
    if status != "optimal":
        return status, None
    return status, res.fun


def assert_matches_highs(lp: LPInstance, rel: float = 1e-7, basis=None):
    sol = lp_solve(lp, basis=basis)
    status, value = highs(lp)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.value - value) <= rel * max(1.0, abs(value))
    return sol


def feasible_instance(rng, m: int, n: int) -> LPInstance:
    """Random rows through a point inside the box [0, 5]^n, then the box
    rows x <= 5, so the LP is feasible and bounded.  The random '<=' rows
    keep the point strictly inside, and their b takes either sign."""
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 5.0, size=n)
    rel = tuple(rng.choice(["<=", "="]) for _ in range(m))
    slack = np.where(np.array(rel) == "<=", rng.uniform(0.0, 1.0, size=m), 0.0)
    return LPInstance(
        c=rng.normal(size=n),
        A=np.vstack([A, np.eye(n)]),
        rel=rel + ("<=",) * n,
        b=np.concatenate([A @ x0 + slack, np.full(n, 5.0)]),
    )


def test_random_feasible(rng):
    for _ in range(40):
        lp = feasible_instance(rng, int(rng.integers(1, 12)), int(rng.integers(2, 15)))
        sol = assert_matches_highs(lp)
        assert sol.status == "optimal"
        assert_dual_certificate(lp, sol)


def test_random_infeasible(rng):
    # a.x <= t and a.x >= t + 1, the latter written -a.x <= -(t + 1).
    for _ in range(30):
        lp = feasible_instance(rng, int(rng.integers(1, 10)), int(rng.integers(2, 12)))
        a = rng.normal(size=lp.n_vars)
        t = float(rng.normal())
        bad = LPInstance(
            c=lp.c,
            A=np.vstack([lp.A, a, -a]),
            rel=lp.rel + ("<=", "<="),
            b=np.concatenate([lp.b, [t, -(t + 1.0)]]),
        )
        assert assert_matches_highs(bad).status == "infeasible"


def test_random_unbounded(rng):
    # Two columns a and -a with costs -1 and 0.5: the direction (1, 1)
    # keeps every row and lowers the objective forever.
    for _ in range(30):
        lp = feasible_instance(rng, int(rng.integers(1, 10)), int(rng.integers(2, 12)))
        a = rng.normal(size=(lp.n_rows, 1))
        unb = LPInstance(
            c=np.concatenate([lp.c, [-1.0, 0.5]]),
            A=np.hstack([lp.A, a, -a]),
            rel=lp.rel,
            b=lp.b,
        )
        assert assert_matches_highs(unb).status == "unbounded"


def test_random_degenerate(rng):
    # Most right-hand sides zero: many ties in the ratio test.
    for _ in range(40):
        m = int(rng.integers(3, 25))
        n = int(rng.integers(m, 2 * m + 1))
        b = np.where(rng.random(m) < 0.7, 0.0, rng.normal(size=m))
        lp = LPInstance(
            c=np.concatenate([rng.normal(size=n), np.abs(rng.normal(size=m)) + 0.1]),
            A=np.hstack([rng.normal(size=(m, n)).round(0), np.diag(np.where(b < 0.0, -1.0, 1.0))]),
            rel=("=",) * m,
            b=b,
        )
        sol = assert_matches_highs(lp)
        if sol.status == "optimal":
            assert_dual_certificate(lp, sol)


def test_unit_columns_with_cost_on_negative_rows(rng):
    # Every row has a column equal to +-e_i, signed so that it is +e_i
    # once a negative right-hand side is flipped; such columns carry a
    # nonzero cost, of either sign.  Named as the basis, they are a costed
    # identity start (the tree-norm LP's case); the default start must
    # agree.
    for _ in range(60):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 10))
        rel = tuple(rng.choice(["=", "<="]) for _ in range(m))
        b = rng.normal(size=m)
        b[rng.random(m) < 0.5] *= -1.0
        flip = np.where(b < 0.0, -1.0, 1.0)
        # Once flipped, a row is '=', '<=' (b >= 0) or '>=' (b < 0, a
        # surplus); the unit column only stands in for a slack on '=' and
        # '>=' rows.
        lp = LPInstance(
            c=np.concatenate([rng.normal(size=n), rng.normal(size=m) + 0.5]),
            A=np.hstack([rng.normal(size=(m, n)), np.diag(flip)]),
            rel=rel,
            b=b,
        )
        for start in (None, n + np.arange(m)):
            sol = assert_matches_highs(lp, basis=start)
            if sol.status == "optimal":
                assert_dual_certificate(lp, sol)


@pytest.mark.parametrize("closure", [260, 500])
def test_tree_lps(closure):
    rng = np.random.default_rng(closure)
    x = random_tree_vector(rng, closure)
    for M in (1.0, 3.0):
        (primal, basis), (dual, dual_basis) = tree_lps(x, M)
        assert primal.n_rows >= closure
        assert dual_basis is None
        # Each LP from both starts: the decomposition LP on y = x and on
        # the default start (phase 1 over an artificial per row); the
        # dual-ball LP on its default slack start and on the same slacks
        # named as a basis.
        for start in (basis, None):
            sol = assert_matches_highs(primal, rel=1e-9, basis=start)
            assert_dual_certificate(primal, sol, tol=1e-9)
        # The dual-ball LP minimizes -x.u over u = phi + M >= 0, so the
        # norm x.(u - M) is -value + M sum(c).
        for start in (None, dual.n_vars + np.arange(dual.n_rows)):
            dual_sol = assert_matches_highs(dual, rel=1e-9, basis=start)
            assert -dual_sol.value + M * dual.c.sum() == pytest.approx(sol.value, rel=1e-9)


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
                # The closed-form start and the default start both agree
                # with HiGHS and certify their duals.
                for start in (basis, None):
                    sol = assert_matches_highs(lp, basis=start)
                    assert_dual_certificate(lp, sol)
                ref = highs_hull_distance(P, xq, p)
                assert abs(value - ref) <= 1e-7 * max(1.0, ref)
