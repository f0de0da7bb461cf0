import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxconvex import optim
from approxconvex.core import simplex_grid_array
from approxconvex.optim import (
    ConvergenceError,
    LPInstance,
    lp_solve,
    min_distance_over_simplex,
    min_quadratic_over_simplex,
)
from approxconvex.treespace import tree_norm, tree_norm_dual_lp
from conftest import assert_dual_certificate, random_tree_vector, tree_lps


def brute_force_lp(lp: LPInstance):
    """Vertex-enumeration oracle for tiny LPs: optimal value or None."""
    n = lp.n_vars
    rows = [(np.asarray(a, float), float(b)) for a, b in zip(lp.A, lp.b)]
    for j, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[j] = 1.0
        if lo is not None:
            rows.append((e.copy(), lo))
        if hi is not None:
            rows.append((e.copy(), hi))
    best = None
    for sub in combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in sub])
        b = np.array([rows[i][1] for i in sub])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        feasible = True
        for a, r, rhs in zip(lp.A, lp.rel, lp.b):
            v = float(a @ x)
            if r == "<=" and v > rhs + 1e-7:
                feasible = False
            if r == ">=" and v < rhs - 1e-7:
                feasible = False
            if r == "=" and abs(v - rhs) > 1e-7:
                feasible = False
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and x[j] < lo - 1e-7:
                feasible = False
            if hi is not None and x[j] > hi + 1e-7:
                feasible = False
        if not feasible:
            continue
        val = float(lp.c @ x)
        if best is None or (val > best if lp.maximize else val < best):
            best = val
    return best


class TestLPSolve:
    def test_simple_max(self):
        sol = lp_solve(LPInstance(c=[1.0], A=[[1.0]], rel=("<=",), b=[1.0], maximize=True))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.gap <= 1e-9

    def test_infeasible(self):
        sol = lp_solve(LPInstance(c=[1.0], A=[[1.0], [1.0]], rel=(">=", "<="), b=[2.0, 1.0]))
        assert sol.status == "infeasible"

    def test_two_var(self):
        # min x+y s.t. x+2y >= 2: oracle by vertex enumeration.
        lp = LPInstance(c=[1.0, 1.0], A=[[1.0, 2.0]], rel=(">=",), b=[2.0])
        assert brute_force_lp(lp) == pytest.approx(1.0)
        sol = lp_solve(lp)
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_unbounded(self):
        sol = lp_solve(LPInstance(c=[1.0], A=np.zeros((0, 1)), rel=(), b=[], maximize=True))
        assert sol.status == "unbounded"

    def test_free_and_bounded_variables(self):
        lp = LPInstance(
            c=[1.0, 1.0],
            A=[[1.0, -1.0]],
            rel=("=",),
            b=[3.0],
            bounds=((None, None), (0.0, None)),
        )
        sol = lp_solve(lp)
        assert sol.value == pytest.approx(3.0, abs=1e-9)
        sol = lp_solve(
            LPInstance(c=[-1.0], A=np.zeros((0, 1)), rel=(), b=[], bounds=((-3.0, 5.0),))
        )
        assert sol.value == pytest.approx(-5.0, abs=1e-9)

    def test_crossed_bounds_infeasible(self):
        sol = lp_solve(
            LPInstance(c=[1.0], A=np.zeros((0, 1)), rel=(), b=[], bounds=((2.0, 1.0),))
        )
        assert sol.status == "infeasible"

    def test_degenerate_cycling_candidate(self):
        # Beale's example: classic cycling instance for naive pivoting.
        lp = LPInstance(
            c=[-0.75, 150.0, -0.02, 6.0],
            A=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            rel=("<=", "<=", "<="),
            b=[0.0, 0.0, 1.0],
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.05, abs=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LPInstance(c=[1.0, 2.0], A=[[1.0]], rel=("<=",), b=[1.0])
        with pytest.raises(ValueError):
            LPInstance(c=[1.0], A=[[1.0]], rel=("<",), b=[1.0])

    def test_random_against_brute_force(self, rng):
        mismatches = 0
        for _ in range(250):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            lp = LPInstance(
                c=rng.normal(size=n).round(1),
                A=rng.normal(size=(m, n)).round(1),
                rel=tuple(rng.choice(["<=", ">=", "="]) for _ in range(m)),
                b=rng.normal(size=m).round(1),
                bounds=tuple(
                    (0.0, None if rng.integers(0, 2) else 3.0) for _ in range(n)
                ),
                maximize=bool(rng.integers(0, 2)),
            )
            oracle = brute_force_lp(lp)
            sol = lp_solve(lp)
            if sol.status == "optimal":
                if oracle is None or abs(oracle - sol.value) > 1e-6:
                    mismatches += 1
            elif sol.status == "infeasible" and oracle is not None:
                mismatches += 1
        assert mismatches == 0

    def test_duality_certificate(self, rng):
        # On every reported optimum, b . dual equals the value within tol.
        for _ in range(50):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            lp = LPInstance(
                c=rng.normal(size=n),
                A=rng.normal(size=(m, n)),
                rel=("<=",) * m,
                b=np.abs(rng.normal(size=m)) + 0.5,
            )
            sol = lp_solve(lp)
            if sol.status != "optimal":
                continue
            assert sol.gap <= 1e-9 * (1.0 + abs(sol.value))
            assert float(lp.b @ sol.dual) == pytest.approx(sol.value, abs=1e-7)

    def test_tree_lp_needs_no_phase_one(self):
        # Every row of the decomposition LP starts on its y+ or y- column,
        # so no pivot is spent driving artificials out of the basis.
        (lp, basis), _ = tree_lps(random_tree_vector(np.random.default_rng(8), 260), 2.0)
        assert lp.n_rows >= 260
        sol = lp_solve(lp, basis=basis)
        assert sol.status == "optimal"
        assert sol.iterations < lp.n_rows

    def test_tree_norm_never_inverts_its_basis(self, monkeypatch):
        # The decomposition LP starts on an identity basis once its
        # negative rows are flipped, and the dual-ball LP on its slacks, so
        # neither B0^-1 nor B0^-1 T is ever formed.
        def no_inverse(*args):
            raise AssertionError("tree_norm inverted a basis")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        x = random_tree_vector(np.random.default_rng(8), 260)
        primal, dual = tree_norm(x, 2.0)
        assert tree_norm_dual_lp(x, 2.0) == pytest.approx(dual, rel=1e-9)

    def test_degenerate_crash_start_switches_to_bland(self, monkeypatch):
        # 35 equality rows, 30 with b_i = 0, each with a costed unit column:
        # the basis of those columns is feasible but degenerate, and Dantzig
        # pricing stalls long enough that Bland's rule must take over.
        r = np.random.default_rng(36)
        m = int(r.integers(20, 60))
        n = int(r.integers(m, 3 * m))
        A = r.normal(size=(m, n)).round(0)
        b = np.where(r.random(m) < 0.8, 0.0, r.integers(-3, 4, size=m).astype(float))
        c = np.concatenate([r.integers(-3, 4, size=n), r.integers(1, 4, size=m)]).astype(float)
        lp = LPInstance(c=c, A=np.hstack([A, np.diag(np.where(b < 0.0, -1.0, 1.0))]), rel=("=",) * m, b=b)
        phases = []
        run = optim._Tableau.run

        def recording_run(tab, phase, *args):
            status = run(tab, phase, *args)
            phases.append((phase, tab.bland))
            return status

        monkeypatch.setattr(optim._Tableau, "run", recording_run)
        sol = lp_solve(lp, basis=n + np.arange(m))
        assert phases == [(2, True)]
        assert sol.status == "optimal"
        # Certified optimum: dual feasible, and b.dual equals the value.
        assert (lp.c - lp.A.T @ sol.dual).min() >= -1e-9
        assert float(lp.b @ sol.dual) == pytest.approx(sol.value, abs=1e-9)
        assert sol.value == pytest.approx(23.12003618261667, abs=1e-9)  # HiGHS


def lp_with_feasible_basis(rng):
    """A random bounded LP in default bounds and a feasible basis of it,
    in `lp_solve`'s numbering (variables, then the slacks of the
    inequality rows).  b is B x_B for basic values x_B >= 0, a third of
    them zero (degenerate starts); the last row, 1.x <= 1.x_B + 1 with its
    slack basic, bounds the LP whatever the sign of c."""
    while True:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 2 * m + 4))
        A = rng.normal(size=(m, n))
        rel = tuple(rng.choice(["<=", ">=", "="]) for _ in range(m))
        ineq = [i for i, r in enumerate(rel) if r != "="]
        S = np.zeros((m, len(ineq)))
        S[ineq, range(len(ineq))] = [1.0 if rel[i] == "<=" else -1.0 for i in ineq]
        full = np.hstack([A, S])
        basis = rng.choice(full.shape[1], size=m, replace=False)
        if np.linalg.cond(full[:, basis]) < 1e6:
            break
    x_B = np.where(rng.random(m) < 1 / 3, 0.0, rng.uniform(0.1, 2.0, size=m))
    x = np.zeros(full.shape[1])
    x[basis] = x_B
    bound = x[:n].sum() + 1.0
    lp = LPInstance(
        c=rng.normal(size=n),
        A=np.vstack([A, np.ones(n)]),
        rel=rel + ("<=",),
        b=np.append(full @ x, bound),
    )
    return lp, np.append(basis, n + len(ineq))


class TestBasisStart:
    # min x0 + x1 + x2 over x0 + x1 + 2 x2 = 2, x0 - x1 + 2 x2 <= 1: column 2
    # is twice column 0, and index 3 is the slack of the '<=' row.
    lp = LPInstance(c=[1.0, 1.0, 1.0], A=[[1.0, 1.0, 2.0], [1.0, -1.0, 2.0]], rel=("=", "<="), b=[2.0, 1.0])

    @pytest.mark.parametrize("basis, message", [
        ([0], r"basis needs one column per row, 2 entries; got shape \(1,\)"),
        ([0, 1, 3], r"basis needs one column per row, 2 entries; got shape \(3,\)"),
        ([0, 4], r"integers in \[0, 4\)"),
        ([0.0, 1.0], r"integers in \[0, 4\)"),
        ([0, 0], "basis is singular"),
        ([0, 2], "basis is singular"),
        ([0, 3], r"basis is infeasible: its basic variable in row 1 is -1\.000e\+00"),
    ])
    def test_bad_basis_raises_before_any_pivot(self, monkeypatch, basis, message):
        def no_tableau(*args):
            raise AssertionError("a tableau was built for a rejected basis")

        monkeypatch.setattr(optim, "_Tableau", no_tableau)
        with pytest.raises(ValueError, match=message):
            lp_solve(self.lp, basis=basis)

    def test_feasible_basis_skips_phase_one(self, monkeypatch):
        phases = []
        run = optim._Tableau.run

        def recording_run(tab, phase, *args):
            phases.append(phase)
            return run(tab, phase, *args)

        monkeypatch.setattr(optim._Tableau, "run", recording_run)
        sol = lp_solve(self.lp, basis=[0, 1])  # x0 = 1.5, x1 = 0.5
        assert phases == [2]
        assert sol.value == pytest.approx(1.25, abs=1e-12)  # x = (0, 0.5, 0.75); HiGHS 1.25
        assert_dual_certificate(self.lp, sol)

    def test_random_feasible_bases_match_the_default_start(self, rng):
        for _ in range(200):
            lp, basis = lp_with_feasible_basis(rng)
            default, started = lp_solve(lp), lp_solve(lp, basis=basis)
            assert default.status == started.status == "optimal"
            assert started.value == pytest.approx(default.value, abs=1e-9 * (1.0 + abs(default.value)))
            assert_dual_certificate(lp, started)

    def test_bounds_map_to_standard_form(self):
        # x0 free, x1 <= 3, x2 in [1, 4]; the basis {x0, x1} puts x2 at its
        # lower bound and the '<=' row tight: x0 = 3, x1 = 1, and the bound
        # row of x2 starts on its own slack.
        lp = LPInstance(
            c=[1.0, 2.0, -1.0],
            A=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
            rel=("=", "<="),
            b=[5.0, 2.0],
            bounds=((None, None), (None, 3.0), (1.0, 4.0)),
        )
        sol = lp_solve(lp, basis=[0, 1])
        assert sol.value == pytest.approx(lp_solve(lp).value, abs=1e-12)
        assert sol.value == pytest.approx(-3.5, abs=1e-12)  # x = (1.5, -0.5, 4); HiGHS -3.5


def loop_standardize(lp: LPInstance):
    """Reference for `optim._standardize`: the same rewrite, one bound
    pair at a time."""
    n = lp.n_vars
    c = -lp.c if lp.maximize else lp.c
    shift = np.zeros(n)
    cols = []  # (orig_index, sign)
    extra_rows = []  # (col_in_std, rhs) for residual upper bounds
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            if hi is not None and hi < lo:
                return None
            shift[j] = lo
            cols.append((j, 1.0))
            if hi is not None:
                extra_rows.append((len(cols) - 1, hi - lo))
        elif hi is not None:
            shift[j] = hi
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    idx = np.array([j for j, _ in cols], dtype=int)
    sign = np.array([s for _, s in cols])
    A_std = np.zeros((lp.n_rows + len(extra_rows), len(cols)))
    A_std[: lp.n_rows] = lp.A[:, idx] * sign
    b_std = np.concatenate([lp.b - lp.A @ shift, [r for _, r in extra_rows]])
    rel_std = list(lp.rel)
    for i, (k, _) in enumerate(extra_rows):
        A_std[lp.n_rows + i, k] = 1.0
        rel_std.append("<=")
    c_std = c[idx] * sign
    return A_std, b_std, rel_std, c_std, idx, sign, shift


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def bound_pair(draw):
    kind = draw(st.sampled_from(["free", "lower", "upper", "boxed", "crossed"]))
    a, b = draw(finite), draw(finite)
    lo, hi = min(a, b), max(a, b)
    if kind == "crossed" and lo == hi:
        hi = lo + 1.0
    return {
        "free": (None, None),
        "lower": (a, None),
        "upper": (None, b),
        "boxed": (lo, hi),
        "crossed": (hi, lo),
    }[kind]


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    vals = st.lists(finite, min_size=n, max_size=n)
    return LPInstance(
        c=draw(vals),
        A=np.array([draw(vals) for _ in range(m)]).reshape(m, n),
        rel=tuple(draw(st.sampled_from(["<=", "=", ">="])) for _ in range(m)),
        b=draw(st.lists(finite, min_size=m, max_size=m)),
        bounds=tuple(draw(bound_pair()) for _ in range(n)),
        maximize=draw(st.booleans()),
    )


class TestStandardize:
    @given(bounded_lps())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop(self, lp):
        got, want = optim._standardize(lp), loop_standardize(lp)
        if want is None:
            assert got is None
            return
        for g, w in zip(got, want):
            if isinstance(w, list):
                assert g == w
            else:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    def test_crossed_bounds_are_infeasible(self):
        lp = LPInstance(c=[1.0, 1.0], A=[[1.0, 1.0]], rel=("<=",), b=[3.0], bounds=((None, 2.0), (1.0, 0.5)))
        assert optim._standardize(lp) is None
        assert lp_solve(lp).status == "infeasible"

    def test_bounds_stay_pairs(self):
        lp = LPInstance(c=[1.0, 2.0], A=[[1.0, 1.0]], rel=("<=",), b=[3.0], bounds=[[None, 2.0], (1, None)])
        assert lp.bounds == ((None, 2.0), (1, None))
        assert np.array_equal(lp.lo, [np.nan, 1.0], equal_nan=True)
        assert np.array_equal(lp.hi, [2.0, np.nan], equal_nan=True)
        default = LPInstance(c=[1.0, 2.0], A=[[1.0, 1.0]], rel=("<=",), b=[3.0])
        assert default.bounds == ((0.0, None), (0.0, None))
        with pytest.raises(ValueError, match="one bound pair per variable"):
            LPInstance(c=[1.0, 2.0], A=[[1.0, 1.0]], rel=("<=",), b=[3.0], bounds=((0.0, None),))


class TestCertificates:
    """A solution mapped back wrongly must be caught by the feasibility
    certificate, which names the first violating row or variable."""

    def shifted(self, monkeypatch, delta):
        std = optim._standardize

        def tampered(lp):
            out = std(lp)
            return out[:-1] + (out[-1] + np.asarray(delta),)

        monkeypatch.setattr(optim, "_standardize", tampered)

    def test_names_first_violated_row(self, monkeypatch):
        # x = (1, 1) is optimal; moving x1 to -4 breaks rows 1 and 2.
        lp = LPInstance(
            c=[1.0, 1.0, 0.0], A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
            rel=(">=", "=", ">="), b=[1.0, 1.0, 0.0],
        )
        self.shifted(monkeypatch, [0.0, -5.0, 0.0])
        with pytest.raises(ConvergenceError, match=r"violates row 1 by -5\.000e\+00"):
            lp_solve(lp)

    @pytest.mark.parametrize("delta, message", [
        ([0.0, -1.0, -1.0], "variable 1 violates its lower bound"),
        ([0.0, 0.0, 9.0], "variable 2 violates its upper bound"),
    ])
    def test_names_first_violated_bound(self, monkeypatch, delta, message):
        # Variables 1 and 2 appear in no row, so only their bounds see the shift.
        lp = LPInstance(
            c=[1.0, 1.0, 1.0], A=[[1.0, 0.0, 0.0]], rel=(">=",), b=[1.0],
            bounds=((0.0, None), (0.0, None), (-1.0, 2.0)),
        )
        self.shifted(monkeypatch, delta)
        with pytest.raises(ConvergenceError, match=message):
            lp_solve(lp)


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
        for _ in range(40):
            d = int(rng.integers(2, 5))
            N = int(rng.integers(2, 5))
            L = rng.normal(size=(d, N))
            c = rng.normal(size=d)
            _, f = min_quadratic_over_simplex(L, c, tol=1e-10)
            grid = simplex_grid_array(N, 200)
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

    def test_distance_mode_scale(self, rng):
        for _ in range(20):
            L = rng.normal(size=(3, 4)) + 5.0
            c = np.zeros(3)
            _, dist = min_distance_over_simplex(L, c, tol=1e-9)
            _, f = min_quadratic_over_simplex(L, c, tol=1e-12)
            assert dist == pytest.approx(math.sqrt(f), abs=1e-8)
