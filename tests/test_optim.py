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


def vertices(A, rel, b):
    """Vertices of {x >= 0, A x (rel) b}: every choice of n of the rows and
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
        if x.min() >= -1e-7 and all(
            v <= 1e-7 if r == "<=" else abs(v) <= 1e-7 for v, r in zip(resid, rel)
        ):
            out.append(x)
    return out


def brute_force_lp(lp: LPInstance):
    """Vertex-enumeration oracle for tiny LPs: (status, optimal value or
    None).  x >= 0 makes a nonempty feasible set have a vertex, and the LP
    is unbounded exactly when c.d < 0 at a vertex of the recession cone's
    slice {d >= 0, A d (rel) 0, 1.d = 1}."""
    points = vertices(lp.A, lp.rel, lp.b)
    if not points:
        return "infeasible", None
    rays = vertices(
        np.vstack([lp.A, np.ones(lp.n_vars)]), lp.rel + ("=",), np.append(np.zeros(lp.n_rows), 1.0)
    )
    if any(float(lp.c @ d) < -1e-9 for d in rays):
        return "unbounded", None
    return "optimal", min(float(lp.c @ x) for x in points)


def assert_agrees_with_brute_force(lp: LPInstance):
    """lp_solve's status is the oracle's, and an optimum has its value and
    a dual certificate."""
    status, value = brute_force_lp(lp)
    sol = lp_solve(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.value == pytest.approx(value, abs=1e-6)
        assert_dual_certificate(lp, sol)


class TestLPSolve:
    def test_simple_max(self):
        # max x over x <= 1, as min -x.
        sol = lp_solve(LPInstance(c=[-1.0], A=[[1.0]], rel=("<=",), b=[1.0]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-1.0, abs=1e-9)
        assert sol.gap <= 1e-9

    def test_infeasible(self):
        # x >= 2, written -x <= -2, and x <= 1.
        sol = lp_solve(LPInstance(c=[1.0], A=[[-1.0], [1.0]], rel=("<=", "<="), b=[-2.0, 1.0]))
        assert sol.status == "infeasible"

    def test_two_var(self):
        # min x+y s.t. x+2y >= 2: oracle by vertex enumeration.
        lp = LPInstance(c=[1.0, 1.0], A=[[-1.0, -2.0]], rel=("<=",), b=[-2.0])
        assert brute_force_lp(lp) == ("optimal", pytest.approx(1.0))
        sol = lp_solve(lp)
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_unbounded(self):
        sol = lp_solve(LPInstance(c=[-1.0], A=np.zeros((0, 1)), rel=(), b=[]))
        assert sol.status == "unbounded"

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
        for rel in (("<",), (">=",)):
            with pytest.raises(ValueError, match="relations must be '<=' or '='"):
                LPInstance(c=[1.0], A=[[1.0]], rel=rel, b=[1.0])
        for unsupported in ({"bounds": ((0.0, 1.0),)}, {"maximize": True}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                LPInstance(c=[1.0], A=[[1.0]], rel=("<=",), b=[1.0], **unsupported)

    def test_random_against_brute_force(self, rng):
        for _ in range(250):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            assert_agrees_with_brute_force(
                LPInstance(
                    c=rng.normal(size=n).round(1),
                    A=rng.normal(size=(m, n)).round(1),
                    rel=tuple(rng.choice(["<=", "="]) for _ in range(m)),
                    b=rng.normal(size=m).round(1),
                )
            )

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
    """A random bounded LP and a feasible basis of it, in `lp_solve`'s
    numbering (variables, then the slacks of the '<=' rows).  b is B x_B
    for basic values x_B >= 0, a third of them zero (degenerate starts),
    so it takes either sign; the last row, 1.x <= 1.x_B + 1 with its
    slack basic, bounds the LP whatever the sign of c."""
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


small = st.integers(-4, 4).map(float)


@st.composite
def narrowed_lps(draw):
    """min c.x over x >= 0 with '<=' and '=' rows, b of either sign."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    row = st.lists(small, min_size=n, max_size=n)
    return LPInstance(
        c=draw(row),
        A=np.array(draw(st.lists(row, min_size=m, max_size=m))).reshape(m, n),
        rel=tuple(draw(st.lists(st.sampled_from(["<=", "="]), min_size=m, max_size=m))),
        b=draw(st.lists(small, min_size=m, max_size=m)),
    )


@given(narrowed_lps())
@settings(max_examples=200, deadline=None)
def test_certified_optimum_and_status_match_brute_force(lp):
    assert_agrees_with_brute_force(lp)


class TestCertificates:
    """A wrong solution or dual must be caught by the certificate on the
    original data, which names the first violating row or column."""

    def tampered(self, monkeypatch, change):
        """Apply change(tab) to the tableau once phase 2 has ended."""
        run = optim._Tableau.run

        def tampered_run(tab, phase, *args):
            status = run(tab, phase, *args)
            if phase == 2:
                change(tab)
            return status

        monkeypatch.setattr(optim._Tableau, "run", tampered_run)

    def shifted(self, monkeypatch, delta):
        """Add delta[j] to the recovered x_j of each basic variable j."""

        def change(tab):
            for i, j in enumerate(tab.basis):
                if j < len(delta):
                    tab.rhs[i] += delta[j]

        self.tampered(monkeypatch, change)

    # min -x0 - x1 over x0 <= 1, x1 <= 1: x = (1, 1), both basic, and
    # y = (-1, -1) on the slacks, columns 2 and 3.
    boxed = LPInstance(c=[-1.0, -1.0], A=np.eye(2), rel=("<=", "<="), b=[1.0, 1.0])

    def test_names_first_violated_row(self, monkeypatch):
        # x = (1, 1) is optimal; moving x1 to -4 breaks rows 1 and 2.
        lp = LPInstance(
            c=[1.0, 1.0, 0.0], A=[[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]],
            rel=("<=", "=", "<="), b=[-1.0, 1.0, 0.0],
        )
        self.shifted(monkeypatch, [0.0, -5.0, 0.0])
        with pytest.raises(ConvergenceError, match=r"violates row 1 by -5\.000e\+00"):
            lp_solve(lp)

    @pytest.mark.parametrize("delta, message", [
        ([0.0, -2.0], r"variable 1 violates its lower bound: x = -1\.000e\+00"),
        ([-3.0, -2.0], r"variable 0 violates its lower bound: x = -2\.000e\+00"),
    ])
    def test_names_first_violated_bound(self, monkeypatch, delta, message):
        # x = (1, 1) moved below zero, which no '<=' row sees.
        self.shifted(monkeypatch, delta)
        with pytest.raises(ConvergenceError, match=message):
            lp_solve(self.boxed)

    def test_names_first_dual_infeasible_column(self, monkeypatch):
        # Lowering the slack of row 0's reduced cost by 2 reads y0 = 1, so
        # column 0's reduced cost c0 - y0 becomes -2.
        def change(tab):
            tab.r2[2] -= 2.0

        self.tampered(monkeypatch, change)
        with pytest.raises(ConvergenceError, match=r"duals are infeasible: column 0 has reduced cost -2\.000e\+00"):
            lp_solve(self.boxed)


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
