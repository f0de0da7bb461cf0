import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxconvex import optim
from approxconvex.core import NormSpec, Vector, simplex_grid_array
from approxconvex.hulls import SampledSet
from approxconvex.optim import (
    ConvergenceError,
    LPInstance,
    lp_solve,
    min_distance_over_simplex,
    min_quadratic_over_simplex,
)
from conftest import (
    all_plus_start,
    assert_dual_certificate,
    canonical_form,
    hull_lps,
    lp_with_feasible_basis,
    random_tree_vector,
    tree_lps,
    with_slacks,
)


def vertices(A, b):
    """Vertices of {x >= 0, A x = b}: every choice of n of the rows and
    the x_j = 0 faces, solved as equalities, that is feasible."""
    n = A.shape[1]
    faces = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    out = []
    for sub in combinations(range(len(faces)), n):
        F = faces[list(sub)]
        if abs(np.linalg.det(F)) < 1e-12:
            continue
        x = np.linalg.solve(F, rhs[list(sub)])
        resid = A @ x - b
        if x.min() >= -1e-7 and np.abs(resid).max(initial=0.0) <= 1e-7:
            out.append(x)
    return out


def brute_force_lp(lp: LPInstance):
    """Vertex-enumeration oracle for tiny LPs: (status, optimal value or
    None).  x >= 0 makes a nonempty feasible set have a vertex, and the LP
    is unbounded exactly when c.d < 0 at a vertex of the recession cone's
    slice {d >= 0, A d = 0, 1.d = 1}."""
    points = vertices(lp.A, lp.b)
    if not points:
        return "infeasible", None
    rays = vertices(np.vstack([lp.A, np.ones(lp.n_vars)]), np.append(np.zeros(lp.n_rows), 1.0))
    if any(float(lp.c @ d) < -1e-9 for d in rays):
        return "unbounded", None
    return "optimal", min(float(lp.c @ x) for x in points)


def feasible_basis(lp: LPInstance):
    """The first feasible basis of lp by enumeration: a nonsingular column
    subset B with B^-1 b >= 0.  None if there is none, as when the LP is
    infeasible or its rows are dependent."""
    for sub in combinations(range(lp.n_vars), lp.n_rows):
        B = lp.A[:, list(sub)]
        if abs(np.linalg.det(B)) > 1e-9 and np.linalg.solve(B, lp.b).min(initial=0.0) >= -1e-9:
            return list(sub)
    return None


def assert_agrees_with_brute_force(lp: LPInstance, basis):
    """lp_solve's status from a feasible basis, on lp in canonical form
    for it, is the oracle's, and an optimum has its value and a dual
    certificate."""
    lp = canonical_form(lp, basis)
    status, value = brute_force_lp(lp)
    sol = lp_solve(lp, basis=basis)
    assert sol.status == status
    if status == "optimal":
        assert sol.value == pytest.approx(value, abs=1e-6)
        assert_dual_certificate(lp, sol)


class TestLPSolve:
    def test_simple_max(self):
        # max x over x <= 1, as min -x; column 1 is the slack.
        sol = lp_solve(with_slacks(c=[-1.0], A=[[1.0]], rel=("<=",), b=[1.0]), basis=[1])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-1.0, abs=1e-9)
        assert sol.gap <= 1e-9

    def test_two_var(self):
        # min x+y s.t. x+2y >= 2: oracle by vertex enumeration.
        lp = with_slacks(c=[1.0, 1.0], A=[[-1.0, -2.0]], rel=("<=",), b=[-2.0])
        assert brute_force_lp(lp) == ("optimal", pytest.approx(1.0))
        sol = lp_solve(lp, basis=[0])  # x = 2, y = 0
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)

    def test_unbounded(self):
        sol = lp_solve(LPInstance(c=[-1.0], A=np.zeros((0, 1)), b=[]), basis=[])
        assert sol.status == "unbounded"

    def test_degenerate_cycling_candidate(self):
        # Beale's example: classic cycling instance for naive pivoting.
        lp = with_slacks(
            c=[-0.75, 150.0, -0.02, 6.0],
            A=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            rel=("<=", "<=", "<="),
            b=[0.0, 0.0, 1.0],
        )
        sol = lp_solve(lp, basis=[4, 5, 6])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.05, abs=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LPInstance(c=[1.0, 2.0], A=[[1.0]], b=[1.0])
        for unsupported in ({"bounds": ((0.0, 1.0),)}, {"maximize": True}, {"rel": ("<=",)}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                LPInstance(c=[1.0], A=[[1.0]], b=[1.0], **unsupported)

    @pytest.mark.parametrize("name", ["c", "A", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, name, value):
        data = {"c": np.array([1.0, 2.0]), "A": np.array([[1.0, 1.0]]), "b": np.array([1.0])}
        data[name].flat[-1] = value
        with pytest.raises(ValueError, match=rf"LP data must be finite: {name} holds {value}"):
            LPInstance(**data)

    def test_random_against_brute_force(self, rng):
        checked = 0
        for _ in range(250):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            lp = with_slacks(
                c=rng.normal(size=n).round(1),
                A=rng.normal(size=(m, n)).round(1),
                rel=tuple(rng.choice(["<=", "="]) for _ in range(m)),
                b=rng.normal(size=m).round(1),
            )
            basis = feasible_basis(lp)
            if basis is not None:
                assert_agrees_with_brute_force(lp, basis)
                checked += 1
        assert checked >= 100

    def test_duality_certificate(self, rng):
        # On every reported optimum, b . dual equals the value within tol.
        for _ in range(50):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            lp = with_slacks(
                c=rng.normal(size=n),
                A=rng.normal(size=(m, n)),
                rel=("<=",) * m,
                b=np.abs(rng.normal(size=m)) + 0.5,
            )
            sol = lp_solve(lp, basis=n + np.arange(m))
            if sol.status != "optimal":
                continue
            assert sol.gap <= 1e-9 * (1.0 + abs(sol.value))
            assert float(lp.b @ sol.dual) == pytest.approx(sol.value, abs=1e-7)

    def test_tree_lp_takes_fewer_pivots_than_rows(self):
        # Every row of the decomposition LP starts feasible on its y+ or
        # y- column, so the simplex needs fewer pivots than there are rows.
        [(lp, basis)] = tree_lps(random_tree_vector(np.random.default_rng(8), 260), 2.0)
        assert lp.n_rows >= 260
        sol = lp_solve(lp, basis=basis)
        assert sol.status == "optimal"
        assert sol.iterations < lp.n_rows

    def test_lp_solve_calls_no_linalg(self, monkeypatch):
        # The tree-norm LP and the l1 and l-infinity hull LPs start on
        # signed unit columns, so lp_solve neither inverts nor factors a
        # basis: it calls no np.linalg routine on any of them.
        lps = tree_lps(random_tree_vector(np.random.default_rng(8), 260), 2.0)
        P = np.random.default_rng(9).normal(size=(40, 5))
        for p in (1.0, math.inf):
            lps += hull_lps(Vector.from_array(np.full(5, 2.0)), SampledSet(P), NormSpec.lp(p))[1]
        calls = []
        for name in np.linalg.__all__:
            routine = getattr(np.linalg, name)
            if callable(routine) and not isinstance(routine, type):
                monkeypatch.setattr(
                    np.linalg, name, lambda *a, _name=name, _f=routine, **k: calls.append(_name) or _f(*a, **k)
                )
        for lp, basis in lps:
            assert lp_solve(lp, basis=basis).status == "optimal"
        assert len(lps) == 3
        assert calls == []

    def test_degenerate_unit_column_start_switches_to_bland(self, monkeypatch):
        lp, basis = bland_lp()
        bland = []
        simplex = optim._simplex

        def recording_simplex(*args):
            status, pivots, switched = simplex(*args)
            bland.append(switched)
            return status, pivots, switched

        monkeypatch.setattr(optim, "_simplex", recording_simplex)
        sol = lp_solve(lp, basis=basis)
        assert bland == [True]
        assert sol.status == "optimal"
        # Certified optimum: dual feasible, and b.dual equals the value.
        assert (lp.c - lp.A.T @ sol.dual).min() >= -1e-9
        assert float(lp.b @ sol.dual) == pytest.approx(sol.value, abs=1e-9)
        assert sol.value == pytest.approx(23.12003618261667, abs=1e-9)  # HiGHS


def bland_lp():
    """35 equality rows, 30 with b_i = 0, each with a costed unit column,
    and the basis of those columns: it is feasible but degenerate, and
    Dantzig pricing stalls long enough that Bland's rule must take over."""
    r = np.random.default_rng(36)
    m = int(r.integers(20, 60))
    n = int(r.integers(m, 3 * m))
    A = r.normal(size=(m, n)).round(0)
    b = np.where(r.random(m) < 0.8, 0.0, r.integers(-3, 4, size=m).astype(float))
    c = np.concatenate([r.integers(-3, 4, size=n), r.integers(1, 4, size=m)]).astype(float)
    lp = LPInstance(c=c, A=np.hstack([A, np.diag(np.where(b < 0.0, -1.0, 1.0))]), b=b)
    return lp, n + np.arange(m)


def reference_pivot(T, basis, row, col):
    """The rank-1 pivot as first written, reading the pivot column from T
    after the pivot row is scaled."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    nz = np.flatnonzero(colvals)
    if 4 * len(nz) <= len(colvals):
        T[nz] -= np.outer(colvals[nz], T[row])
    else:
        T -= np.outer(colvals, T[row])
    basis[row] = col


def reference_simplex(T, basis, tol, max_iter):
    """The simplex loop as first written, the reference its pivot rule is
    pinned to: pricing masks the candidates (NaN is never one) and takes
    the least with ``np.where``, and the ratio test runs over every row,
    ineligible ones at +inf.  Returns ``(status, [(row, col), ...],
    bland)``."""
    m = len(basis)
    r = T[m, :-1]
    rc_tol = tol * (1.0 + float(np.abs(r).max(initial=0.0)))
    path, stall, bland = [], 0, False
    while True:
        if len(path) > max_iter:
            raise ConvergenceError(f"simplex exceeded {max_iter} pivots")
        candidates = r < -rc_tol
        if not candidates.any():
            return "optimal", path, bland
        col = int(np.argmax(candidates)) if bland else int(np.argmin(np.where(candidates, r, np.inf)))
        colvals = T[:m, col]
        pos = colvals > 1e-10
        if not pos.any():
            return "unbounded", path, bland
        ratios = np.where(pos, np.maximum(T[:m, -1], 0.0) / np.where(pos, colvals, 1.0), np.inf)
        ties = np.flatnonzero(ratios <= ratios.min() + 1e-12)
        row = int(min(ties, key=basis.__getitem__))
        before = T[m, -1]
        reference_pivot(T, basis, row, col)
        path.append((row, col))
        stall = stall + 1 if T[m, -1] - before <= 1e-13 * (1.0 + abs(before)) else 0
        bland = bland or stall > 100


class TestPivotRule:
    """`_simplex` takes the reference loop's pivots, (row, col) for (row,
    col), and ends on a bit-identical tableau."""

    def pinned(self, monkeypatch):
        """Check every `_simplex` run against the reference loop on a copy
        of its tableau; returns the list of checked runs' ``(status,
        [(row, col), ...], bland)``."""
        simplex, pivot = optim._simplex, optim._pivot
        path, runs = [], []

        def recording_pivot(T, basis, row, col, colvals):
            path.append((row, col))
            pivot(T, basis, row, col, colvals)

        def checked_simplex(T, basis, tol, max_iter):
            T_ref, basis_ref = T.copy(), list(basis)
            status_ref, path_ref, bland_ref = reference_simplex(T_ref, basis_ref, tol, max_iter)
            path.clear()
            status, pivots, bland = simplex(T, basis, tol, max_iter)
            assert (status, path, bland) == (status_ref, path_ref, bland_ref)
            assert pivots == len(path)
            assert basis == basis_ref
            assert T.tobytes() == T_ref.tobytes()
            runs.append((status, list(path), bland))
            return status, pivots, bland

        monkeypatch.setattr(optim, "_pivot", recording_pivot)
        monkeypatch.setattr(optim, "_simplex", checked_simplex)
        return runs

    def test_random_lps(self, monkeypatch, rng):
        runs = self.pinned(monkeypatch)
        degenerate = 0
        for _ in range(200):
            lp, basis = lp_with_feasible_basis(rng)
            degenerate += np.abs(lp.b).min() < 1e-9
            lp_solve(lp, basis=basis)
        lp_solve(*bland_lp())
        assert len(runs) == 201
        assert degenerate >= 200 // 3
        assert runs[-1][2]  # the last LP switched to Bland's rule
        assert sum(len(path) for _, path, _ in runs) >= 400

    @pytest.mark.parametrize("closure", [30, 260])
    def test_tree_lps(self, monkeypatch, closure):
        """Each tree LP from `treespace`'s start, and again from y+ on
        every zero row, a valid signed unit start whose long degenerate
        paths the library's start no longer takes."""
        runs = self.pinned(monkeypatch)
        x = random_tree_vector(np.random.default_rng(closure), closure)
        lps = [lp for M in (1.0, 3.0) for lp, _ in tree_lps(x, M)]
        assert len(runs) == 2
        for lp in lps:
            lp_solve(lp, basis=all_plus_start(lp), tol=1e-9)
        assert len(runs) == 4
        assert all(path for _, path, _ in runs[2:])

    def test_hull_lps(self, monkeypatch, rng):
        runs = self.pinned(monkeypatch)
        P = rng.normal(size=(40, 5))
        A = SampledSet(P)
        for xq in (P.mean(axis=0) + 3.0 * rng.normal(size=5), rng.dirichlet(np.ones(40)) @ P, np.zeros(5)):
            for p in (1.0, math.inf):
                hull_lps(Vector.from_array(xq), A, NormSpec.lp(p))
        assert len(runs) == 6
        assert sum(len(path) for _, path, _ in runs) >= 6

    def test_zero_column_lp_is_optimal_without_pivots(self, monkeypatch):
        runs = self.pinned(monkeypatch)
        sol = lp_solve(LPInstance(c=[], A=np.zeros((0, 0)), b=[]), basis=[])
        assert (sol.status, sol.iterations, sol.value) == ("optimal", 0, 0.0)
        assert runs == [("optimal", [], False)]

    def test_nan_reduced_cost_never_enters(self, monkeypatch):
        # Column 2 holds a NaN in row 0, so the first pivot (column 0 into
        # row 0) turns its reduced cost into NaN while column 1's -0.5 is
        # still a candidate; NaN is the row's first argmin.
        T = np.array([
            [1.0, 0.0, np.nan, 1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
            [-2.0, -0.5, 0.0, 0.0, 0.0, 0.0],
        ])
        runs = self.pinned(monkeypatch)
        basis = [3, 4]
        assert optim._simplex(T, basis, 1e-9, 10) == ("optimal", 2, False)
        assert runs == [("optimal", [(0, 0), (1, 1)], False)]
        assert basis == [0, 1]
        assert np.isnan(T[2, 2])


class TestBasisStart:
    # min x0 + x1 + x2 / 2 over x0 + 2 x2 = 2, -x1 + x2 <= -1: column 0 is
    # e_0, column 1 is -e_1, column 2 is no unit column, and column 3 is the
    # slack of the second row, e_1.
    lp = with_slacks(c=[1.0, 1.0, 0.5], A=[[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]], rel=("=", "<="), b=[2.0, -1.0])

    @pytest.mark.parametrize("basis, message", [
        ([0], r"basis needs one column per row, 2 entries; got shape \(1,\)"),
        ([0, 1, 3], r"basis needs one column per row, 2 entries; got shape \(3,\)"),
        ([0, 4], r"integers in \[0, 4\)"),
        ([0.0, 1.0], r"integers in \[0, 4\)"),
        ([0, 0], r"start column 0 of row 1 is not a signed unit column \+-e_1"),
        ([0, 2], r"start column 2 of row 1 is not a signed unit column \+-e_1"),
        ([0, 3], r"basis is infeasible: its basic variable in row 1 is -1\.000e\+00"),
        ([3, 1], r"start column 3 of row 0 is not a signed unit column \+-e_0"),
    ])
    def test_bad_basis_raises_before_any_pivot(self, monkeypatch, basis, message):
        def no_simplex(*args):
            raise AssertionError("the simplex ran from a rejected basis")

        monkeypatch.setattr(optim, "_simplex", no_simplex)
        with pytest.raises(ValueError, match=message):
            lp_solve(self.lp, basis=basis)

    def test_simplex_runs_once_from_the_named_basis(self, monkeypatch):
        runs = []
        simplex = optim._simplex

        def recording_simplex(T, basis, *args):
            runs.append(list(basis))
            return simplex(T, basis, *args)

        monkeypatch.setattr(optim, "_simplex", recording_simplex)
        sol = lp_solve(self.lp, basis=[0, 1])  # x0 = 2, x1 = 1
        assert runs == [[0, 1]]
        assert sol.value == pytest.approx(2.5, abs=1e-12)  # x = (0, 2, 1, 0); HiGHS 2.5
        assert_dual_certificate(self.lp, sol)

    def test_random_feasible_bases_match_the_default_start(self, rng):
        # The generator's basis is the default start; a few random
        # ratio-test pivots from it reach other feasible bases of the same
        # LP, and every start finds the same optimum.
        walked = 0
        for _ in range(200):
            lp, basis = lp_with_feasible_basis(rng)
            other = pivot_walk(lp, basis, rng)
            walked += sorted(other) != sorted(basis)
            other_lp = canonical_form(lp, other)
            default, started = lp_solve(lp, basis=basis), lp_solve(other_lp, basis=other)
            assert default.status == started.status == "optimal"
            assert started.value == pytest.approx(default.value, abs=1e-9 * (1.0 + abs(default.value)))
            assert_dual_certificate(other_lp, started)
        assert walked >= 150


def pivot_walk(lp: LPInstance, basis, rng, steps: int = 3):
    """A feasible basis a few primal pivots from ``basis``: each step
    brings in a random nonbasic column
    and drops the row of the ratio test, so B^-1 b stays >= 0.  A pivot
    on an entry below 1e-2, or one that leaves B ill-conditioned, is
    not taken.  `canonical_form` poses lp for the basis returned."""
    full, b = lp.A, lp.b
    basis = np.array(basis)
    for _ in range(steps):
        for j in rng.permutation(full.shape[1]):
            if j in basis:
                continue
            B = full[:, basis]
            d, x_B = np.linalg.solve(B, full[:, j]), np.linalg.solve(B, b)
            rows = np.flatnonzero(d > 1e-12)
            if rows.size == 0:
                continue
            r = rows[np.argmin(np.maximum(x_B[rows], 0.0) / d[rows])]
            trial = basis.copy()
            trial[r] = j
            if d[r] > 1e-2 and np.linalg.cond(full[:, trial]) < 1e6:
                basis = trial
                break
    assert np.linalg.solve(full[:, basis], b).min() >= -1e-9 * (1.0 + np.abs(b).sum())
    return basis


small = st.integers(-4, 4).map(float)


@st.composite
def narrowed_lps(draw):
    """min c.x over x >= 0 with '<=' and '=' rows, b of either sign, the
    '<=' rows written with slack columns."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    row = st.lists(small, min_size=n, max_size=n)
    return with_slacks(
        c=draw(row),
        A=np.array(draw(st.lists(row, min_size=m, max_size=m))).reshape(m, n),
        rel=tuple(draw(st.lists(st.sampled_from(["<=", "="]), min_size=m, max_size=m))),
        b=draw(st.lists(small, min_size=m, max_size=m)),
    )


@given(narrowed_lps())
@settings(max_examples=200, deadline=None)
def test_certified_optimum_and_status_match_brute_force(lp):
    basis = feasible_basis(lp)
    assume(basis is not None)
    assert_agrees_with_brute_force(lp, basis)


class TestCertificates:
    """A wrong solution or dual must be caught by the certificate on the
    original data, which names the first violating row or column."""

    def tampered(self, monkeypatch, change):
        """Apply change(T, basis) to the tableau once the simplex has ended."""
        simplex = optim._simplex

        def tampered_simplex(T, basis, *args):
            result = simplex(T, basis, *args)
            change(T, basis)
            return result

        monkeypatch.setattr(optim, "_simplex", tampered_simplex)

    def shifted(self, monkeypatch, delta):
        """Add delta[j] to the recovered x_j of each basic variable j."""

        def change(T, basis):
            for i, j in enumerate(basis):
                if j < len(delta):
                    T[i, -1] += delta[j]

        self.tampered(monkeypatch, change)

    # min -x0 - x1 over x0 <= 1, x1 <= 1, from the slacks (columns 2 and
    # 3): x = (1, 1), both basic, and y = (-1, -1) on the slacks' rows.
    boxed = with_slacks(c=[-1.0, -1.0], A=np.eye(2), rel=("<=", "<="), b=[1.0, 1.0])

    def test_names_first_violated_row(self, monkeypatch):
        # x = (1, 1) is optimal; moving x1 to -4 breaks rows 1 and 2.
        lp = with_slacks(
            c=[1.0, 1.0, 0.0], A=[[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]],
            rel=("<=", "=", "<="), b=[-1.0, 1.0, 0.0],
        )
        self.shifted(monkeypatch, [0.0, -5.0, 0.0])
        with pytest.raises(ConvergenceError, match=r"violates row 1 by -5\.000e\+00"):
            lp_solve(canonical_form(lp, [0, 1, 4]), basis=[0, 1, 4])  # x0 = x1 = 1, row 2's slack 2

    # min -x0/2 - x1/2 - x2 over x2 <= 100, x0 + x2 <= 100, x1 + x2 <= 100,
    # from the slacks (columns 3 to 5): x2 enters at 100, then x0 and x1
    # enter at 0 in degenerate pivots, so x = (0, 0, 100) with x0 and x1
    # basic on rows whose right-hand side is 100.
    degenerate = with_slacks(
        c=[-0.5, -0.5, -1.0], A=[[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], rel=("<=",) * 3, b=[100.0] * 3,
    )

    @pytest.mark.parametrize("delta, message", [
        ([0.0, -1e-8], r"variable 1 violates its lower bound: x = -1\.000e-08"),
        ([-3e-8, -1e-8], r"variable 0 violates its lower bound: x = -3\.000e-08"),
    ])
    def test_names_first_violated_bound(self, monkeypatch, delta, message):
        # x0 and x1 moved below zero by less than their rows' tolerance,
        # tol (1 + 100), but by more than the bound's, tol.
        self.shifted(monkeypatch, delta)
        with pytest.raises(ConvergenceError, match=message):
            lp_solve(self.degenerate, basis=[3, 4, 5])

    def test_names_first_dual_infeasible_column(self, monkeypatch):
        # Lowering the slack of row 0's reduced cost by 2 reads y0 = 1, so
        # column 0's reduced cost c0 - y0 becomes -2.
        def change(T, basis):
            T[len(basis), 2] -= 2.0

        self.tampered(monkeypatch, change)
        with pytest.raises(ConvergenceError, match=r"duals are infeasible: column 0 has reduced cost -2\.000e\+00"):
            lp_solve(self.boxed, basis=[2, 3])


class TestQuadraticKernel:
    def test_target_inside(self):
        t, f = min_quadratic_over_simplex(np.eye(2), np.array([0.3, 0.7]), tol=1e-12)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx([0.3, 0.7], abs=1e-9)

    def test_target_outside_1d_oracle(self):
        # Segment (s, 1-s): f(s) = (s-2)^2 + (1-s)^2, minimized on a grid.
        s = np.linspace(0.0, 1.0, 100_001)
        oracle = ((s - 2.0) ** 2 + (1.0 - s) ** 2).min()
        t, f = min_quadratic_over_simplex(np.eye(2), np.array([2.0, 0.0]), tol=1e-12)
        assert f == pytest.approx(oracle, abs=1e-9)
        assert t == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_symmetric_barycenter(self):
        t, f = min_quadratic_over_simplex(np.eye(3), np.zeros(3), tol=1e-12)
        assert f == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert t == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_against_grid_search(self, rng):
        grids = {N: simplex_grid_array(N, 200) for N in (2, 3, 4)}
        for _ in range(40):
            d = int(rng.integers(2, 5))
            N = int(rng.integers(2, 5))
            L = rng.normal(size=(d, N))
            c = rng.normal(size=d)
            _, f = min_quadratic_over_simplex(L, c, tol=1e-10)
            grid = grids[N]
            f_grid = ((L @ grid.T - c[:, None]) ** 2).sum(axis=0).min()
            assert f <= f_grid + 1e-10
            assert f >= f_grid - 1e-4

    def test_weights_off_the_simplex_raise(self):
        # The gap certifies the value only for weights in the simplex.
        for lam in (np.array([1.5, -0.5]), np.array([0.5, 0.5 + 1e-11])):
            with pytest.raises(ConvergenceError, match="leave the simplex"):
                optim._check_simplex(lam)
        optim._check_simplex(np.array([0.25, 0.75]))

    def test_budget_exhaustion_raises(self, monkeypatch):
        # Large enough to bypass the small-problem fast path; with no
        # iterations allowed, the gap cannot be certified.
        monkeypatch.setattr(optim, "FW_MAX_ITER", 0)
        rng = np.random.default_rng(5)
        L = rng.normal(size=(3, 50))
        with pytest.raises(ConvergenceError, match="budget 0"):
            min_quadratic_over_simplex(L, np.zeros(3), tol=1e-12)

    def test_gap_recomputed_from_returned_weights(self, rng):
        # Hull members: the residual sits at rounding level, so a gap taken
        # from anything but the returned weights can fail the stop bound.
        tol = 1e-9
        for _ in range(200):
            d = int(rng.integers(1, 5))
            N = int(rng.integers(2, 7))
            L = rng.normal(size=(d, N))
            c = L @ rng.dirichlet(np.ones(N))
            t, dist = min_distance_over_simplex(L, c, tol=tol)
            r = L @ t - c
            f = float(r @ r)
            g = 2.0 * (L.T @ r)
            gap = float(g @ t) - float(g.min())
            assert gap <= max(tol * tol, 0.5 * tol * math.sqrt(f), 1e-15 * (1.0 + f))
            assert dist == math.sqrt(f)

    @pytest.mark.parametrize("kernel", [min_quadratic_over_simplex, min_distance_over_simplex])
    @pytest.mark.parametrize("L, c, message", [
        (np.zeros((3, 0)), np.zeros(3), "N >= 1"),
        (np.ones(3), np.zeros(3), "N >= 1"),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), np.zeros(2), "finite"),
        (np.eye(2), np.array([math.nan, 0.0]), "finite"),
        (np.eye(2), np.array([0.0, -math.inf]), "finite"),
        (np.eye(2), np.zeros(3), "shape"),
    ], ids=["no-columns", "1-D", "nan-in-L", "nan-in-c", "inf-in-c", "c-length"])
    def test_bad_input_rejected_before_any_solve(self, monkeypatch, kernel, L, c, message):
        def no_solve(*args):
            raise AssertionError("the kernel ran on rejected input")

        monkeypatch.setattr(optim, "_mnp", no_solve)
        with pytest.raises(ValueError, match=message):
            kernel(L, c)

    def test_distance_mode_scale(self, rng):
        for _ in range(20):
            L = rng.normal(size=(3, 4)) + 5.0
            c = np.zeros(3)
            _, dist = min_distance_over_simplex(L, c, tol=1e-9)
            _, f = min_quadratic_over_simplex(L, c, tol=1e-12)
            assert dist == pytest.approx(math.sqrt(f), abs=1e-8)


class TestBestFirst:
    @staticmethod
    def never_split(node):
        raise AssertionError("a node at or above upper was split")

    @pytest.mark.parametrize("upper, nodes", [
        (1.0, [(1.0, 0), (2.0, 1)]),
        (math.inf, [(math.inf, 0)]),
        (math.nan, [(0.0, 0), (math.nan, 1)]),
    ], ids=["at-or-above", "inf", "nan"])
    def test_no_node_below_upper_raises(self, upper, nodes):
        # A scale whose square overflows makes every bound inf or NaN: no
        # node is kept, and the open bracket used to pop an empty heap.
        with pytest.raises(ConvergenceError, match=r"bracket \[.*\] is open with no node left"):
            optim._best_first(upper, None, nodes, self.never_split, lambda lo, up: False, 10)

    def test_no_node_below_upper_is_done_when_closed(self):
        closed = optim._best_first(1.0, "arg", [(1.0, 0)], self.never_split, lambda lo, up: up - lo <= 0.0, 10)
        assert closed == (1.0, 1.0, "arg")


BAD_TOLS = [math.nan, math.inf, -math.inf, -1.0]


class TestToleranceRule:
    # A tolerance must be finite and not negative, checked before any work.
    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize(
        "solve",
        [
            lambda tol: lp_solve(LPInstance(c=[1.0], A=[[1.0]], b=[1.0]), basis=[0], tol=tol),
            lambda tol: min_quadratic_over_simplex(np.eye(2), [2.0, 0.0], tol=tol),
            lambda tol: min_distance_over_simplex(np.eye(2), [2.0, 0.0], tol=tol),
        ],
        ids=["lp_solve", "min_quadratic", "min_distance"],
    )
    def test_bad_tol_is_a_usage_error(self, solve, tol):
        with pytest.raises(ValueError, match="need tol >= 0 and finite"):
            solve(tol)

    def test_zero_tol_is_legal(self):
        sol = lp_solve(LPInstance(c=[1.0], A=[[1.0]], b=[1.0]), basis=[0], tol=0.0)
        assert (sol.status, sol.value) == ("optimal", 1.0)
