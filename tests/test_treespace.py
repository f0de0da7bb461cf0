import concurrent.futures
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treespace_reference as reference
from approxconvex import labels, treespace
from approxconvex.core import Vector
from approxconvex.optim import ConvergenceError, LPSolution, lp_solve
from approxconvex.treespace import (
    DualFunctional,
    apply_S,
    apply_S_inv,
    apply_T,
    build_phi,
    downward_closure,
    extend_phi,
    functional_eval,
    haus_experiment,
    jensen_defect,
    leaf,
    order_classes,
    pair,
    tree_norm,
    tree_norm_dual_lp,
    tree_norm_functional,
)
from approxconvex.labels import label_sort_key
from conftest import random_tree_vector as closure_vector
from conftest import all_plus_start, tree_lps


def random_label(rng, max_level, leaf_hi=40):
    if max_level <= 1 or rng.random() < 0.45:
        return leaf(int(rng.integers(1, leaf_hi)))
    lv = int(rng.integers(1, max_level))
    return random_label(rng, lv, leaf_hi), random_label(rng, max_level - lv, leaf_hi)


def rand_label(rng, max_level, leaf_hi=40):
    out = random_label(rng, max_level, leaf_hi)
    return out if not isinstance(out, tuple) else pair(*map(_join, out))


def _join(x):
    return x if not isinstance(x, tuple) else pair(*map(_join, x))


def random_tree_vector(rng, max_labels=6, max_level=8):
    labs = {_join(random_label(rng, max_level)) for _ in range(int(rng.integers(1, max_labels + 1)))}
    x = Vector({lab: float(rng.uniform(-2.0, 2.0)) for lab in labs})
    return x if x else Vector.unit(leaf(1))


def highs_dual_ball(linprog, x: Vector, M: float) -> float:
    """max x.phi over the dual ball on the closure of supp(x), by HiGHS:
    bounds -M <= phi <= M and rows +-(phi(a) - phi(b)/2 - phi(c)/2) <= 1
    for each pair a = (b, c)."""
    D = list(downward_closure(x.support()))
    pos = {lab: i for i, lab in enumerate(D)}
    pairs = [lab for lab in D if not lab.is_leaf]
    R = np.zeros((len(pairs), len(D)))
    for r, lab in enumerate(pairs):
        R[r, pos[lab]] += 1.0
        R[r, pos[lab.left]] -= 0.5
        R[r, pos[lab.right]] -= 0.5
    xd = np.array([x.get(lab) for lab in D])
    res = linprog(-xd, A_ub=np.vstack([R, -R]), b_ub=np.ones(2 * len(pairs)), bounds=(-M, M), method="highs")
    assert res.status == 0
    return float(-res.fun)


# Labels over leaves 1..6 of level at most 8, and coordinates k/8: every
# sum and halving the operators make of them is exact in float64.
tree_labels = st.recursive(
    st.integers(1, 6).map(leaf),
    lambda kids: st.tuples(kids, kids).map(lambda t: pair(*t)),
    max_leaves=8,
)
eighths = st.integers(-16, 16).map(lambda k: k / 8.0)


@st.composite
def tree_vectors(draw):
    labs = draw(st.lists(tree_labels, min_size=1, max_size=5, unique=True))
    return Vector(dict(zip(labs, draw(st.lists(eighths, min_size=len(labs), max_size=len(labs))))))


@st.composite
def label_functions(draw):
    """(values, scale, tol): a closed label set in a drawn order, or one
    with some labels dropped, so that some pairs lack a child; dyadic
    values within or beyond the scale, a few of them NaN or infinite."""
    closure = sorted(downward_closure(draw(st.lists(tree_labels, min_size=1, max_size=4))), key=label_sort_key)
    labs = draw(st.permutations(closure))
    if draw(st.booleans()):
        labs = [lab for lab in labs if draw(st.integers(0, 5))]
    M = draw(st.sampled_from([1.0, 2.0, 3]))
    value = st.one_of(
        st.integers(-4 * int(M) - 4, 4 * int(M) + 4).map(lambda k: k / 4.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    values = {lab: draw(value) if draw(st.integers(0, 7)) else float(M) for lab in labs}
    scale = draw(st.sampled_from([M, M, M, M, 0.0, math.nan]))
    return values, scale, draw(st.sampled_from([0.0, 1e-9, 0.25]))


def outcome(phi, tol):
    """None if phi validates, else the message it raises."""
    try:
        phi.validate(tol)
    except ValueError as err:
        return str(err)
    return None


class TestLabels:
    def test_interning(self):
        assert leaf(3) is leaf(3)
        assert pair(leaf(1), leaf(2)) is pair(leaf(1), leaf(2))
        assert pair(leaf(1), leaf(2)) is not pair(leaf(2), leaf(1))

    def test_levels(self):
        assert leaf(7).level == 1
        p = pair(pair(leaf(1), leaf(2)), leaf(3))
        assert p.level == 3

    def test_leaf_validation(self):
        with pytest.raises(ValueError):
            leaf(0)
        with pytest.raises(TypeError):
            pair(leaf(1), "nope")

    def test_leaf_rejects_bool(self):
        # True equals and hashes as 1: accepted, it would intern leaf 1
        # under the printed name "True", which label_sort_key orders by.
        with pytest.raises(ValueError, match="leaf index must be a positive integer, got True"):
            leaf(True)
        assert repr(leaf(1)) == "1"
        assert type(leaf(1).index) is int

    def test_concurrent_interning(self):
        def build(i):
            return pair(leaf(i % 7 + 1), leaf((i + 1) % 7 + 1))

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            labels = list(ex.map(build, range(400)))
        for i, lab in enumerate(labels):
            assert lab is build(i)


class TestClosure:
    def test_single_pair(self):
        p = pair(leaf(1), leaf(2))
        assert downward_closure({p}) == {p, leaf(1), leaf(2)}

    def test_leaf(self):
        assert downward_closure({leaf(5)}) == {leaf(5)}

    def test_two_levels(self):
        p = pair(pair(leaf(1), leaf(2)), leaf(3))
        assert downward_closure({p}) == {
            p,
            pair(leaf(1), leaf(2)),
            leaf(3),
            leaf(1),
            leaf(2),
        }


class TestOperators:
    def test_T_on_pair(self):
        p = pair(leaf(1), leaf(2))
        assert apply_T(Vector.unit(p)) == 0.5 * (Vector.unit(leaf(1)) + Vector.unit(leaf(2)))

    def test_T_kills_leaves(self):
        assert not apply_T(Vector.unit(leaf(4)))

    def test_T_nilpotent(self, rng):
        for _ in range(30):
            lab = _join(random_label(rng, 8))
            x = Vector.unit(lab)
            for _ in range(lab.level):
                x = apply_T(x)
            assert not x

    def test_repeated_child(self):
        p = pair(leaf(1), leaf(1))
        assert apply_T(Vector.unit(p)) == Vector.unit(leaf(1))

    def test_S_inv_on_leaf(self):
        assert apply_S_inv(Vector.unit(leaf(2))) == Vector.unit(leaf(2))

    def test_S_inv_on_pair(self):
        p = pair(leaf(1), leaf(2))
        expected = Vector.unit(p) + 0.5 * (Vector.unit(leaf(1)) + Vector.unit(leaf(2)))
        assert apply_S_inv(Vector.unit(p)) == expected

    def test_S_inv_inverts_S(self, rng):
        for _ in range(30):
            x = random_tree_vector(rng)
            roundtrip = apply_S_inv(apply_S(x))
            assert not (roundtrip - x) or max(abs(v) for _, v in (roundtrip - x).items()) < 1e-12

    def test_rejects_non_tree_vector(self):
        with pytest.raises(ValueError):
            apply_T(Vector({0: 1.0}))

    @given(tree_vectors())
    @settings(max_examples=200, deadline=None)
    def test_S_and_S_inv_are_inverse_exactly(self, x):
        assert apply_S_inv(apply_S(x)) == x
        assert apply_S(apply_S_inv(x)) == x


class TestOrderClasses:
    def test_self_order_zero(self):
        p = pair(leaf(1), leaf(2))
        assert order_classes(p)[0] == {p}

    def test_hand_unrolled(self):
        a = pair(pair(leaf(1), leaf(2)), leaf(3))
        oc = order_classes(a)
        assert oc[1] == {pair(leaf(1), leaf(2)), leaf(3)}
        assert oc[2] == {leaf(1), leaf(2)}

    def test_class_cardinality(self, rng):
        for _ in range(40):
            a = _join(random_label(rng, 8))
            for k, cls in order_classes(a).items():
                assert len(cls) <= 2**k


class TestTreeNorm:
    def test_leaf_norm(self):
        pr, du = tree_norm(Vector.unit(leaf(1)), 3.0)
        assert pr == pytest.approx(3.0, abs=1e-9)
        assert du == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("M", [1.0, 2.0, 5.0])
    def test_S_of_pair_has_unit_norm(self, M):
        # (1, 1) has a repeated child: S(e_(a,a)) = e_(a,a) - e_a.
        for b, c in ((leaf(1), leaf(2)), (leaf(1), leaf(1))):
            v = Vector.unit(pair(b, c)) - 0.5 * (Vector.unit(b) + Vector.unit(c))
            pr, du = tree_norm(v, M)
            assert pr == pytest.approx(1.0, abs=1e-9)
            assert du == pytest.approx(1.0, abs=1e-9)

    def test_sandwich(self, rng):
        for _ in range(40):
            x = random_tree_vector(rng)
            M = float(rng.integers(1, 4))
            pr, _ = tree_norm(x, M)
            l1 = sum(abs(v) for _, v in x.items())
            assert 0.5 * l1 - 1e-7 <= pr <= M * l1 + 1e-7

    def test_duality_gap(self, rng):
        for _ in range(40):
            x = random_tree_vector(rng)
            pr, du = tree_norm(x, 2.0)
            assert abs(pr - du) <= 1e-7

    def test_norm_axioms(self, rng):
        # Triangle inequality and absolute homogeneity, like every other
        # norm in the package.
        for _ in range(15):
            x = random_tree_vector(rng, max_labels=3, max_level=5)
            y = random_tree_vector(rng, max_labels=3, max_level=5)
            M = float(rng.integers(1, 4))
            nx, _ = tree_norm(x, M)
            ny, _ = tree_norm(y, M)
            nxy, _ = tree_norm(x + y, M)
            assert nxy <= nx + ny + 1e-7
            a = float(rng.uniform(-3, 3))
            nax, _ = tree_norm(a * x, M)
            assert nax == pytest.approx(abs(a) * nx, abs=1e-7)

    def test_dual_lp_cross_check(self, rng):
        # Both sides against HiGHS on the dual-ball LP itself, an
        # independent formulation and solver.
        linprog = pytest.importorskip("scipy.optimize").linprog
        cases = [(random_tree_vector(rng, max_labels=4, max_level=6), float(rng.integers(1, 4))) for _ in range(20)]
        cases += [(closure_vector(np.random.default_rng(n), n), 2.0) for n in (260, 500)]
        for x, M in cases:
            pr, du = tree_norm(x, M)
            via_lp = highs_dual_ball(linprog, x, M)
            assert pr == pytest.approx(via_lp, rel=1e-9)
            assert du == pytest.approx(via_lp, rel=1e-9)

    def test_one_lp_per_call(self, monkeypatch):
        # Only the decomposition LP is solved, one row per closure label;
        # the dual-ball LP had two more rows per pair.
        rows = []
        solve = treespace.lp_solve

        def spy(lp, *args, **kwargs):
            rows.append(lp.n_rows)
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(treespace, "lp_solve", spy)
        x = Vector({pair(pair(leaf(1), leaf(2)), leaf(3)): 1.0, leaf(4): -0.5})
        tree_norm(x, 2.0)
        tree_norm_dual_lp(x, 2.0)
        assert rows == [6, 6]

    def test_unit_vectors_inside_ball(self, rng):
        for _ in range(25):
            a = _join(random_label(rng, 8))
            M = float(rng.integers(1, 4))
            pr, _ = tree_norm(Vector.unit(a), M)
            assert pr <= M + 1e-9

    def test_zero_vector(self):
        assert tree_norm(Vector(), 2.0) == (0.0, 0.0)

    @pytest.mark.parametrize("M", [0.0, -1.0, float("nan")])
    def test_dual_lp_rejects_non_positive_M(self, M):
        with pytest.raises(ValueError, match="need M > 0"):
            tree_norm_dual_lp(Vector.unit(leaf(1)), M)

    def test_infinite_M_rejected_before_the_lp(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was built for an infinite scale")

        monkeypatch.setattr(treespace, "lp_solve", forbidden)
        x = Vector.unit(pair(leaf(1), leaf(2)))
        for call in (tree_norm, tree_norm_functional, tree_norm_dual_lp):
            with pytest.raises(ValueError, match="need M > 0 and finite"):
                call(x, math.inf)
        with pytest.raises(ValueError, match="need M > 0 and finite"):
            jensen_defect(leaf(1), leaf(2), math.inf)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coordinate_is_a_value_error(self, value):
        # Rejected with the LP data, not reported as a numerical failure.
        x = Vector({leaf(1): 1.0, pair(leaf(1), leaf(2)): value})
        with pytest.raises(ValueError, match=r"LP data must be finite"):
            tree_norm(x, 2.0)
        with pytest.raises(ValueError, match=r"LP data must be finite"):
            tree_norm_dual_lp(x, 2.0)

    def test_non_optimal_lps_are_numerical_failures(self, monkeypatch):
        # The LP is always feasible and bounded, so a non-optimal status
        # can only be numerical.
        x = Vector.unit(pair(leaf(1), leaf(2)))
        monkeypatch.setattr(treespace, "lp_solve", lambda *a, **k: LPSolution(status="unbounded"))
        with pytest.raises(ConvergenceError, match="norm LP ended with status unbounded"):
            tree_norm(x, 2.0)

    def test_duality_gap_is_a_numerical_failure(self, monkeypatch):
        x = Vector.unit(pair(leaf(1), leaf(2)))
        monkeypatch.setattr(treespace, "functional_eval", lambda phi, v: 0.0)
        with pytest.raises(ConvergenceError, match="duality gap"):
            tree_norm(x, 2.0)

    @given(tree_vectors(), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_sandwich_and_duality_property(self, x, M):
        tol = treespace.DUALITY_TOL
        primal, dual = tree_norm(x, M)
        l1 = sum(abs(v) for _, v in x.items())
        assert 0.5 * l1 - tol <= primal <= M * l1 + tol
        assert abs(primal - dual) <= tol

    def test_functional_is_certificate(self, rng):
        for _ in range(10):
            x = random_tree_vector(rng)
            pr, phi = tree_norm_functional(x, 2.0)
            phi.validate(tol=1e-9)
            assert functional_eval(phi, x) == pytest.approx(pr, abs=1e-7)


def start_signs(basis, N):
    """The sign of each row's start column: +1 on y+, -1 on y-."""
    return np.where(np.asarray(basis) < N, 1.0, -1.0)


class TestStartBasis:
    """The decomposition LP starts on y = x, w = 0: by the sign of x on
    supp(x), and on each other label of the closure by its last parent's
    sign, which starts the duals at +-M alike down each support label's
    closure."""

    CASES = [(closure, M) for closure in (30, 260, 500) for M in (1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("closure,M", CASES)
    def test_support_rows_start_by_the_sign_of_x(self, closure, M):
        x = closure_vector(np.random.default_rng(closure), closure)
        [(lp, basis)] = tree_lps(x, M)
        N = lp.n_rows
        assert (np.asarray(basis) % N == np.arange(N)).all()  # y columns only
        support = lp.b != 0.0
        assert support.sum() == len(x)
        assert (start_signs(basis, N)[support] == np.sign(lp.b[support])).all()

    @pytest.mark.parametrize("closure,M", CASES)
    def test_zero_rows_start_by_their_last_parent(self, closure, M):
        x = closure_vector(np.random.default_rng(closure), closure)
        [(lp, basis)] = tree_lps(x, M)
        D = sorted(downward_closure(x.support()), key=label_sort_key)
        last_parent = {}
        for j, lab in enumerate(D):
            if not lab.is_leaf:
                last_parent[lab.left] = last_parent[lab.right] = j
        sign = start_signs(basis, len(D))
        zero = np.flatnonzero(lp.b == 0.0)
        assert len(zero) > len(D) // 2
        for i in zero.tolist():
            assert sign[i] == sign[last_parent[D[i]]]

    @pytest.mark.parametrize("closure,M", CASES)
    def test_both_starts_reach_the_same_certified_value(self, closure, M):
        x = closure_vector(np.random.default_rng(closure), closure)
        [(lp, basis)] = tree_lps(x, M)
        new = lp_solve(lp, basis=basis, tol=1e-9)
        old = lp_solve(lp, basis=all_plus_start(lp), tol=1e-9)
        assert abs(new.value - old.value) <= 1e-9 * (1.0 + abs(new.value) + abs(old.value))
        primal, phi = tree_norm_functional(x, M)
        assert primal == new.value
        phi.validate(tol=1e-9)
        assert abs(functional_eval(phi, x) - old.value) <= 1e-7

    def test_pivot_count_pin(self):
        # Measured: 15 pivots from the library's start, 64 from y+ on
        # every zero row.
        x = closure_vector(np.random.default_rng(8), 260)
        [(lp, basis)] = tree_lps(x, 2.0)
        new = lp_solve(lp, basis=basis, tol=1e-9).iterations
        old = lp_solve(lp, basis=all_plus_start(lp), tol=1e-9).iterations
        assert new <= 20
        assert 3 * new <= old


class TestDualFunctional:
    def test_validate_bounds(self):
        with pytest.raises(ValueError, match="exceeds M"):
            DualFunctional(values={leaf(1): 3.0}, scale=2.0).validate()

    def test_validate_midpoint(self):
        p = pair(leaf(1), leaf(2))
        values = {leaf(1): 0.0, leaf(2): 0.0, p: 1.5}
        with pytest.raises(ValueError, match="midpoint"):
            DualFunctional(values=values, scale=2.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["leaf", "pair", "child", "scale"])
    def test_validate_rejects_non_finite(self, where, value):
        # A NaN fails no '>' test, so each check is written to fail it.
        # "child" lists the pair before its children, so its midpoint is
        # checked before the child's own value.
        p = pair(leaf(1), leaf(2))
        values = {leaf(1): 1.0, leaf(2): 1.0, p: 0.0}
        scale = 2.0
        if where == "scale":
            scale = value
            message = rf"the scale M must be finite and positive, got {value}"
        elif where == "child":
            values = {p: 0.0, leaf(1): value, leaf(2): 1.0}
            message = r"midpoint defect at \(1,2\) is nan" if math.isnan(value) else r"midpoint defect inf at \(1,2\) exceeds 1"
        else:
            lab, name = (leaf(1), "1") if where == "leaf" else (p, r"\(1,2\)")
            values[lab] = value
            message = rf"phi\({name}\) is nan" if math.isnan(value) else rf"\|phi\({name}\)\| = inf exceeds M = 2.0"
        with pytest.raises(ValueError, match=message):
            DualFunctional(values=values, scale=scale).validate()

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_validate_rejects_non_positive_scale(self, scale):
        with pytest.raises(ValueError, match=rf"finite and positive, got {scale}"):
            DualFunctional(values={}, scale=scale).validate()

    @given(label_functions())
    @settings(max_examples=400, deadline=None)
    def test_validate_matches_reference_loop(self, drawn):
        values, scale, tol = drawn
        expected = outcome(reference.RefFunctional(values=values, scale=scale), tol)
        assert outcome(DualFunctional(values=values, scale=scale), tol) == expected

    def test_arrays_follow_the_mapping_order(self):
        p = pair(leaf(1), leaf(2))
        phi = DualFunctional(values={p: 0.5, leaf(1): 1.0, leaf(3): -1.0, leaf(2): 0.0}, scale=2.0)
        assert phi.labels == [p, leaf(1), leaf(3), leaf(2)]
        assert phi.array.tolist() == [0.5, 1.0, -1.0, 0.0]
        assert (phi.pairs.tolist(), phi.left.tolist(), phi.right.tolist()) == ([0], [1], [3])
        assert phi.values == {p: 0.5, leaf(1): 1.0, leaf(3): -1.0, leaf(2): 0.0}
        assert phi[leaf(3)] == -1.0 and p in phi and leaf(4) not in phi
        with pytest.raises(KeyError):
            phi[leaf(4)]

    def test_pair_without_both_children_has_no_defect(self):
        p = pair(leaf(1), leaf(2))
        phi = DualFunctional(values={p: 2.0, leaf(1): -2.0}, scale=2.0)
        assert phi.pairs.size == 0
        assert phi.validate() is phi

    def test_extend_phi_rejects_nan_hypothesis(self):
        p = pair(leaf(1), leaf(2))
        phi0 = DualFunctional(values={leaf(1): math.nan, leaf(2): 1.0, p: 0.0}, scale=2.0)
        # E is a set, so the NaN is met at leaf 1 or at its parent's midpoint.
        with pytest.raises(ValueError, match=r"(phi\(1\)|midpoint defect at \(1,2\)) is nan"):
            extend_phi({leaf(1), leaf(2), p}, phi0, {leaf(3)})


class TestExtendPhi:
    def test_empty_hypothesis(self):
        p = pair(leaf(1), leaf(2))
        phi = extend_phi(set(), DualFunctional(values={}, scale=2.0), {p})
        assert phi[leaf(1)] == -2.0
        assert phi[leaf(2)] == -2.0
        assert phi[p] == -2.0  # midpoint fill

    def test_preserves_given_values(self):
        E = {leaf(1)}
        phi0 = DualFunctional(values={leaf(1): 2.0}, scale=2.0)
        phi = extend_phi(E, phi0, {pair(leaf(1), leaf(2))})
        assert phi[leaf(1)] == 2.0
        assert phi[pair(leaf(1), leaf(2))] == 0.0  # midpoint of 2 and -2

    def test_result_is_valid(self, rng):
        for _ in range(20):
            a = _join(random_label(rng, 6))
            E = downward_closure({a})
            vals = {}
            for lab in sorted(E, key=lambda l: l.level):
                if lab.is_leaf:
                    vals[lab] = float(rng.uniform(-2, 2))
                else:
                    mid = 0.5 * (vals[lab.left] + vals[lab.right])
                    vals[lab] = float(np.clip(mid + rng.uniform(-1, 1), -2, 2))
            universe = {_join(random_label(rng, 5)) for _ in range(3)}
            phi = extend_phi(E, DualFunctional(values=vals, scale=2.0), universe)
            phi.validate()  # raises on violation

    def test_matches_reference(self, rng):
        for _ in range(20):
            a = _join(random_label(rng, 6))
            E = downward_closure({a})
            vals = reference.build_phi(a, 2, E).values
            universe = {_join(random_label(rng, 5)) for _ in range(3)}
            phi0 = DualFunctional(values=vals, scale=2.0)
            ref = reference.extend_phi(E, reference.RefFunctional(values=vals, scale=2.0), universe)
            assert extend_phi(E, phi0, universe).values == ref.values

    def test_rejects_open_E(self):
        p = pair(leaf(1), leaf(2))
        with pytest.raises(ValueError, match="children"):
            extend_phi({p}, DualFunctional(values={p: 0.0}, scale=2.0), set())

    def test_rejects_bad_hypothesis(self):
        p = pair(leaf(1), leaf(2))
        E = {p, leaf(1), leaf(2)}
        bad = DualFunctional(values={p: 1.9, leaf(1): -1.0, leaf(2): -1.0}, scale=2.0)
        with pytest.raises(ValueError):
            extend_phi(E, bad, set())


class TestBuildPhi:
    def test_anchor_value(self, rng):
        for _ in range(15):
            a = _join(random_label(rng, 6))
            phi = build_phi(a, 2, {a})
            assert phi[a] == 2.0

    def test_outside_leaves(self):
        a = pair(leaf(1), leaf(2))
        phi = build_phi(a, 3, {a, leaf(7), leaf(8)})
        assert phi[leaf(7)] == -3.0
        assert phi[leaf(8)] == -3.0

    def test_order_lower_bound(self, rng):
        for _ in range(25):
            a = _join(random_label(rng, 8))
            M = int(rng.integers(1, 4))
            phi = build_phi(a, M, {a})
            for k, cls in order_classes(a).items():
                for d in cls:
                    assert phi[d] >= max(M - k, -M) - 1e-12

    def test_matches_reference(self, rng):
        for _ in range(30):
            a = _join(random_label(rng, 8))
            M = int(rng.integers(1, 5))
            universe = {_join(random_label(rng, 6)) for _ in range(4)}
            phi = build_phi(a, M, universe)
            assert phi.values == reference.build_phi(a, M, universe).values

    def test_rejects_non_integer_scale(self):
        with pytest.raises(ValueError):
            build_phi(leaf(1), 1.5, set())

    def test_functional_bounds_norm(self, rng):
        # |phi(x)| is at most the dual norm value for any valid phi.
        for _ in range(10):
            a = _join(random_label(rng, 5))
            x = random_tree_vector(rng, max_labels=3, max_level=5)
            universe = downward_closure(set(x.support()) | {a})
            phi = build_phi(a, 2, universe)
            _, dual = tree_norm(x, 2.0)
            assert abs(functional_eval(phi, x)) <= dual + 1e-7


class TestFunctionalEval:
    def test_unit_vector(self):
        phi = DualFunctional(values={leaf(1): 1.5}, scale=2.0)
        assert functional_eval(phi, Vector.unit(leaf(1))) == 1.5

    def test_linearity(self, rng):
        labs = [leaf(i) for i in range(1, 5)]
        phi = DualFunctional(
            values={l: float(rng.uniform(-2, 2)) for l in labs}, scale=2.0
        )
        x = Vector({labs[0]: 1.0, labs[1]: -0.5})
        y = Vector({labs[2]: 2.0, labs[3]: 0.25})
        lhs = functional_eval(phi, 2.0 * x + y)
        assert lhs == pytest.approx(
            2.0 * functional_eval(phi, x) + functional_eval(phi, y), abs=1e-12
        )

    def test_missing_label(self):
        phi = DualFunctional(values={leaf(1): 1.0}, scale=2.0)
        with pytest.raises(ValueError, match="undefined"):
            functional_eval(phi, Vector.unit(leaf(2)))


class TestHausExperiment:
    def test_formula_bound(self):
        for N in (32, 64, 128, 256, 512):
            val = haus_experiment(2, N)
            assert val >= 2 * 2 - 2 ** (2 * 2 + 1) * 2 / N - 1e-12
            assert val <= 2 * 2 + 1e-12

    def test_monotone_toward_diameter(self):
        for M in (1, 2):
            vals = [haus_experiment(M, N) for N in (32, 64, 128, 256, 512, 1024)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= 2 * M
            assert 2 * M - vals[-1] <= 2 ** (2 * M + 1) * M / 1024 + 1e-12

    def test_custom_candidates(self):
        val = haus_experiment(1, 64, candidates=[leaf(65)])
        assert val == pytest.approx(2.0, abs=1e-12)  # fresh leaf: exact diameter

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_matches_reference(self, M):
        # The fresh leaves add fresh * M / N in one step, where the
        # reference adds their shares one leaf at a time; the two sums
        # agree exactly when 1/N is a power of two, and otherwise within
        # the reference's accumulated rounding.
        for N in (1, 2, 3, 5, 64, 100, 1000):
            callers = [pair(leaf(N + 1), leaf(1)), leaf(1), pair(pair(leaf(2), leaf(N + 2)), pair(leaf(1), leaf(1)))]
            for candidates in (None, callers):
                value = haus_experiment(M, N, candidates)
                expected = reference.haus_experiment(M, N, candidates)
                if N & (N - 1) == 0:
                    assert value == expected
                else:
                    assert abs(value - expected) <= 4 * N * np.finfo(float).eps * abs(expected)

    def test_million_leaves_in_bounded_memory(self):
        M, N = 3, 10**6
        before = len(labels._LEAVES)
        start = time.perf_counter()
        value = haus_experiment(M, N)
        assert time.perf_counter() - start < 1.0
        assert value >= 2 * M - 2 ** (2 * M + 1) * M / N
        closure = downward_closure({leaf(N + 1), pair(pair(leaf(1), leaf(2)), leaf(3))})
        assert len(labels._LEAVES) - before <= len(closure)

    def test_validation(self):
        with pytest.raises(ValueError):
            haus_experiment(0, 16)
        with pytest.raises(ValueError):
            haus_experiment(2.5, 16)
        with pytest.raises(ValueError):
            haus_experiment(2, 0)
        with pytest.raises(ValueError, match="need at least one candidate"):
            haus_experiment(2, 4, candidates=[])

    @pytest.mark.parametrize("M, N, message", [
        (True, 4, "the scale must be a positive integer, got True"),
        (2, 4.0, "N must be an integer, got 4.0"),
        (2, math.nan, "N must be an integer, got nan"),
        (2, True, "N must be an integer, got True"),
    ])
    def test_rejects_non_integer_counts(self, M, N, message):
        with pytest.raises(ValueError, match=message):
            haus_experiment(M, N)

    def test_build_phi_rejects_bool_scale(self):
        with pytest.raises(ValueError, match="the scale must be a positive integer, got True"):
            build_phi(leaf(1), True, set())


class TestJensenDefect:
    def test_two_leaves(self):
        assert jensen_defect(leaf(1), leaf(2), 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_halved_vector_scales(self):
        v = Vector.unit(pair(leaf(1), leaf(2))) - 0.5 * (
            Vector.unit(leaf(1)) + Vector.unit(leaf(2))
        )
        pr, _ = tree_norm(0.5 * v, 2.0)
        assert pr == pytest.approx(0.5, abs=1e-9)

    def test_deep_pair(self):
        b = pair(leaf(1), leaf(2))
        assert jensen_defect(b, leaf(3), 2.0) <= 1.0 + 1e-9

    def test_random_pairs(self, rng):
        for _ in range(15):
            b = _join(random_label(rng, 6))
            c = _join(random_label(rng, 6))
            assert jensen_defect(b, c, float(rng.integers(1, 4))) <= 1.0 + 1e-9

    def test_requires_scale_at_least_one(self):
        with pytest.raises(ValueError):
            jensen_defect(leaf(1), leaf(2), 0.5)
