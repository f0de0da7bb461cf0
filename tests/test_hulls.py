import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxconvex import hulls
from approxconvex.constructions import ConstructionSpec, build_entropy_set, critical_scale
from approxconvex.core import NormSpec, Vector, simplex_grid_array
from approxconvex.hulls import (
    SampledSet,
    _dists_to_points,
    convexity_defect,
    diameter,
    dist_to_hull,
    dist_to_set,
    hausdorff_lb,
)
from approxconvex.labels import leaf
from approxconvex.optim import ConvergenceError, LPSolution, lp_solve, min_distance_over_simplex
from conftest import assert_dual_certificate, hull_lps

L2 = NormSpec.lp(2)
L1 = NormSpec.lp(1)
LINF = NormSpec.lp(math.inf)


def setof(*arrays):
    return SampledSet(np.array(arrays))


def rows(A):
    """The points of A as query Vectors."""
    return [Vector.from_array(row) for row in A.matrix]


def lambda_grid_distance(x, A, norm, mesh=60):
    """Brute-force oracle: min over a weight grid of ||x - sum w_i a_i||."""
    X = A.matrix
    xv = x.to_array(range(X.shape[1]))
    W = simplex_grid_array(len(A), mesh)
    pts = W @ X
    diff = pts - xv
    if norm.p == 2.0:
        d = np.sqrt((diff**2).sum(axis=1))
    elif norm.p == 1.0:
        d = np.abs(diff).sum(axis=1)
    else:
        d = np.abs(diff).max(axis=1)
    return float(d.min())


class TestSampledSet:
    @pytest.mark.parametrize(
        "array",
        [
            np.array([1.0, 2.0]),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.array([[0.0, 1.0], [np.nan, 0.0]]),
            np.array([[0.0, np.inf]]),
            np.array([[-np.inf, 1.0]]),
        ],
    )
    def test_rejects_bad_arrays(self, array):
        with pytest.raises(ValueError):
            SampledSet(array)

    def test_read_only_copy(self):
        X = np.array([[1, 2], [3, 4]])
        A = SampledSet(X)
        X[0, 0] = 9
        assert A.matrix.dtype == np.float64
        assert A.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not A.matrix.flags.writeable
        assert len(A) == 2

    @pytest.mark.parametrize("norm", [L1, L2, LINF])
    @pytest.mark.parametrize("index", [2, -1, leaf(1), "a"])
    def test_queries_outside_the_coordinates_rejected(self, norm, index):
        A = setof([1.0, 0.0], [0.0, 1.0])
        x = Vector({0: 0.5, index: 1.0})
        with pytest.raises(ValueError, match=re.escape(repr(index))):
            dist_to_hull(x, A, norm)
        with pytest.raises(ValueError, match=re.escape(repr(index))):
            dist_to_set(x, A, norm)

    @pytest.mark.parametrize("norm", [L1, L2, LINF])
    @pytest.mark.parametrize("x", [Vector({0: math.nan}), Vector({1: math.inf}), Vector({2: -math.inf})])
    def test_non_finite_queries_rejected(self, monkeypatch, norm, x):
        # Rejected before any solve, for every witness of hausdorff_lb
        # (the first one here is a sample point).
        def no_solve(*args, **kwargs):
            raise AssertionError("a non-finite query reached a solver")

        monkeypatch.setattr(hulls, "lp_solve", no_solve)
        monkeypatch.setattr(hulls, "min_distance_over_simplex", no_solve)
        A = SampledSet(np.eye(3))
        for query in (
            lambda: dist_to_set(x, A, norm),
            lambda: dist_to_hull(x, A, norm),
            lambda: hausdorff_lb(A, [Vector({0: 1.0}), x], norm),
        ):
            with pytest.raises(ValueError, match=r"query coordinate \d is (nan|inf|-inf), not finite"):
                query()


class TestDistToHull:
    def test_member_is_zero(self):
        A = setof([1.0, 0.0], [0.0, 1.0])
        assert dist_to_hull(rows(A)[0], A, L2) == pytest.approx(0.0, abs=1e-8)

    def test_l2_segment(self):
        A = setof([1.0, 0.0], [0.0, 1.0])
        # Hand oracle: the projection of 0 onto the segment is (1/2, 1/2).
        assert dist_to_hull(Vector(), A, L2) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_l1_segment_vs_grid(self):
        A = setof([1.0, 0.0], [0.0, 1.0])
        oracle = lambda_grid_distance(Vector(), A, L1, mesh=500)
        d = dist_to_hull(Vector(), A, L1)
        assert d == pytest.approx(1.0, abs=1e-9)
        assert d == pytest.approx(oracle, abs=1e-6)

    def test_linf_segment(self):
        A = setof([1.0, 0.0], [0.0, 1.0])
        assert dist_to_hull(Vector(), A, LINF) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("norm", [L1, LINF])
    def test_non_optimal_lp_is_a_numerical_failure(self, monkeypatch, norm):
        # The hull LP is always feasible and bounded, so any other status
        # can only be numerical.
        monkeypatch.setattr(hulls, "lp_solve", lambda *a, **k: LPSolution(status="unbounded"))
        A = setof([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ConvergenceError, match="status unbounded"):
            dist_to_hull(Vector(), A, norm)

    @pytest.mark.parametrize("norm", [L1, LINF])
    @pytest.mark.parametrize("scale", [1e-8, 1e8, 1e10])
    def test_lp_distance_scales_with_the_data(self, rng, norm, scale):
        # The canonical-form start must not depend on the scale of the
        # coordinates: d(s x, s A) = s d(x, A).
        P, x = rng.normal(size=(6, 3)), 3.0 * rng.normal(size=3)
        want = dist_to_hull(Vector.from_array(x), SampledSet(P), norm)
        got = dist_to_hull(Vector.from_array(scale * x), SampledSet(scale * P), norm)
        assert got == pytest.approx(scale * want, rel=1e-9)

    def test_unsupported_norms_rejected(self):
        A = setof([1.0], [0.0])
        with pytest.raises(ValueError):
            dist_to_hull(Vector(), A, NormSpec.lp(3))

    @pytest.mark.parametrize("norm", [L2, L1, LINF])
    def test_zero_iff_member_small_instances(self, rng, norm):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            npts = int(rng.integers(2, 7))
            A = SampledSet(np.array([rng.normal(size=n) for _ in range(npts)]))
            # A hull member: random convex combination.
            w = rng.dirichlet(np.ones(npts))
            inside = Vector(dict(enumerate(w @ A.matrix)))
            assert dist_to_hull(inside, A, norm, tol=1e-9) <= 1e-7
            # A point strictly outside (push far beyond the hull radius).
            far = Vector(dict(enumerate(np.full(n, 100.0))))
            d = dist_to_hull(far, A, norm, tol=1e-9)
            oracle = lambda_grid_distance(far, A, norm, mesh=25)
            assert d > 1e-6
            assert d <= oracle + 1e-6


# Sample coordinates are multiples of 1/8 in [-10, 10], like the grid
# points the library's sets are built from.  Samples that mix magnitudes
# far apart (entries near 1e-7 next to entries near 10) are outside this
# property: there the dense tableau can lose its certificate and raise
# ConvergenceError (see ROADMAP item 9).
coordinates = st.integers(-80, 80).map(lambda k: k / 8.0)
weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))


@st.composite
def hull_members(draw):
    """A sample P (repeated points and zero coordinates allowed) and a
    random convex combination x of its rows.  Zero weights put x on a
    face or at a sample point, where the closed-form LP basis starts
    degenerate (r_i = 0)."""
    N, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    P = np.array(draw(st.lists(st.lists(coordinates, min_size=d, max_size=d), min_size=N, max_size=N)))
    w = np.array(draw(st.lists(weights, min_size=N, max_size=N)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, N - 1))] = 1.0
    return P, (w / w.sum()) @ P


@given(hull_members(), st.sampled_from([L1, LINF]))
@settings(max_examples=300, deadline=None)
def test_convex_combinations_are_in_the_hull(member, norm):
    P, x = member
    dist, ((lp, basis),) = hull_lps(Vector.from_array(x), SampledSet(P), norm)
    assert dist <= 1e-9 * (1.0 + np.abs(x).sum())
    # The duals read from the closed-form start certify the optimum, also
    # where that start is degenerate.
    assert_dual_certificate(lp, lp_solve(lp, basis=basis))


# Off-hull queries against the n=16, grid-3 Euclidean set at
# critical_scale(16), each at distance >= 0.5, whose l2 distances
# away-step Frank-Wolfe could not certify within its iteration budget.
L2_HARD_QUERIES = [
    [1.5792345096406344, 2.207912309460018, -1.8572535415177136, -2.725668939342129,
     -2.459985331784483, 0.9881420613870153, -0.6739689059036689, 0.4279435397110003,
     -2.0506328891514713, 0.4296502364126753, -2.556672292451047, -0.3151015137534051,
     1.5395413993628773, -0.5300029972851874, 0.799274297855257, -0.6196756737552174,
     0.4992769965692947],
    [1.5720564825731878, 1.2084572311247832, 2.4168979888340596, -1.4416972711857254,
     -2.301009210730529, 3.4389840736893285, 0.5705901374800239, -1.3763910626949813,
     3.513857961958281, 0.09957679972372202, -1.0925382339254177, -0.20040005919994047,
     2.0499019923755455, -1.4957877132275827, -0.3817320064431464, -1.1702249687589545,
     -1.7561897400986122],
    [1.582397213212349, -2.2138229924846864, 2.1123271555080327, 2.5669629546768142,
     5.063096486401229, 5.339821580076617, 1.20577567001961, 3.647896762316174,
     -1.4990138845150267, -0.5191744104240676, -1.781858991188075, 0.29938584857015993,
     -0.4024136102921273, 2.1006976217093514, 1.5523689757090653, 0.4553051418334395,
     -0.9669125398016762],
]


@pytest.fixture(scope="module")
def euclid16():
    return build_entropy_set(ConstructionSpec(space=L2, n=16, M=critical_scale(16), grid=3))


@pytest.mark.parametrize("query", L2_HARD_QUERIES)
def test_l2_hard_queries_certified(euclid16, query):
    x = Vector.from_array(np.array(query))
    dist = dist_to_hull(x, euclid16, L2)
    # Weak duality: every unit u gives d >= <x, u> - max_a <a, u>; take
    # u toward x from its nearest hull point.
    X = euclid16.matrix
    xv = x.to_array(range(X.shape[1]))
    t, _ = min_distance_over_simplex(X.T, xv)
    u = xv - X.T @ t
    u /= np.linalg.norm(u)
    lower = float(xv @ u - (X @ u).max())
    assert dist >= 0.5
    assert lower <= dist * (1.0 + 1e-14)
    assert dist - lower <= 1e-12 * dist


class TestDenseDistances:
    @pytest.mark.parametrize("d", [1, 7, 8, 17])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_matches_per_pair_norm(self, rng, p, d):
        Z = rng.normal(size=(5, d))
        X = rng.normal(size=(9, d))
        got = _dists_to_points(Z, X, NormSpec.lp(p))
        ref = np.array([[np.linalg.norm(z - x, ord=p) for x in X] for z in Z])
        assert got.shape == (5, 9)
        if math.isinf(p):
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def random_set(rng, npts, dim, scale=1.0):
    return SampledSet(np.array([scale * rng.normal(size=dim) for _ in range(npts)]))


class TestExactZeros:
    """A point of A is at distance exactly 0 from A, under every norm."""

    @pytest.mark.parametrize("norm", [L1, L2, LINF])
    def test_members_at_distance_zero(self, rng, norm):
        for _ in range(5):
            A = random_set(rng, 40, int(rng.integers(2, 18)), scale=float(rng.uniform(0.5, 20.0)))
            assert all(dist_to_set(x, A, norm) == 0.0 for x in rows(A))

    @pytest.mark.parametrize("norm", [L1, L2, LINF])
    def test_endpoint_grid_defect_is_zero(self, rng, norm):
        for _ in range(5):
            A = random_set(rng, 40, int(rng.integers(2, 18)), scale=float(rng.uniform(0.5, 20.0)))
            rep = convexity_defect(A, norm, t_grid=2)
            assert rep.sup_defect == 0.0
            assert rep.witness[2] == 0.0

    def test_euclid16_members(self, euclid16):
        assert all(dist_to_set(x, euclid16, L2) == 0.0 for x in rows(euclid16))


def brute_force_defect(X, p, t_grid):
    """max over ordered pairs and grid t of min_c ||t a + (1-t) b - c||_p."""
    best = 0.0
    for t in np.linspace(0.0, 1.0, t_grid):
        for a in X:
            for b in X:
                mid = t * a + (1.0 - t) * b
                best = max(best, min(float(np.linalg.norm(mid - c, ord=p)) for c in X))
    return best


def reference_defect_scan(X, norm, t_grid):
    """The full max-min scan, every midpoint against every sample:
    (sup_defect, i, j, t) with the first maximum in scan order t, i, j."""
    best = 0.0
    best_at = (0, 0, 0.0)
    for t in np.linspace(0.0, 1.0, t_grid)[1:-1]:
        for i in range(len(X)):
            mids = t * X[i] + (1.0 - t) * X[i:]
            dmin = _dists_to_points(mids, X, norm).min(axis=1)
            j_rel = int(np.argmax(dmin))
            if dmin[j_rel] > best:
                best = float(dmin[j_rel])
                best_at = (i, i + j_rel, float(t))
    return (best, *best_at)


def assert_same_as_reference(A, norm, t_grid):
    X = A.matrix
    rep = convexity_defect(A, norm, t_grid=t_grid)
    best, i, j, t = reference_defect_scan(X, norm, t_grid)
    assert rep.sup_defect == best
    assert rep.witness == (Vector.from_array(X[i]), Vector.from_array(X[j]), t)


def entropy_set(norm, n=6, grid=5):
    return build_entropy_set(ConstructionSpec(space=norm, n=n, M=4.0 * math.log2(n), grid=grid))


class TestConvexityDefect:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_pruned_scan_is_bit_identical(self, rng, p):
        # Lattice sets put many midpoints at exactly the best value, so
        # they exercise the tie rule; sizes straddle DEFECT_HEAD.
        norm = NormSpec.lp(p)
        for npts in (2, 5, 17, hulls.DEFECT_HEAD - 1, hulls.DEFECT_HEAD, hulls.DEFECT_HEAD + 1, 89):
            dim = int(rng.integers(1, 5))
            lattice = rng.integers(0, 4, size=(npts, dim)).astype(float)
            gauss = rng.normal(size=(npts, dim))
            for X in (lattice, gauss):
                assert_same_as_reference(SampledSet(X), norm, int(rng.integers(2, 8)))

    @pytest.mark.parametrize("norm", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_entropy_set_is_bit_identical(self, norm):
        assert_same_as_reference(entropy_set(norm), norm, 5)

    @pytest.mark.parametrize("norm", [L1, L2, LINF], ids=["l1", "l2", "linf"])
    def test_scan_prunes_most_cells(self, monkeypatch, norm):
        # Every distance cell goes through _dist_powers, the pruned scan's
        # and the reference's alike.
        cells = [0]
        powers = hulls._dist_powers

        def counting(Z, X, p):
            cells[0] += len(Z) * len(X)
            return powers(Z, X, p)

        monkeypatch.setattr(hulls, "_dist_powers", counting)
        A = entropy_set(norm)
        rep = convexity_defect(A, norm, t_grid=3)
        pruned, cells[0] = cells[0], 0
        best, *_ = reference_defect_scan(A.matrix, norm, 3)
        assert rep.sup_defect == best
        assert pruned < 0.4 * cells[0]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_matches_brute_force(self, rng, p):
        norm = NormSpec.lp(p)
        for _ in range(6):
            A = random_set(rng, int(rng.integers(2, 13)), int(rng.integers(1, 5)))
            t_grid = int(rng.integers(2, 7))
            rep = convexity_defect(A, norm, t_grid=t_grid)
            ref = brute_force_defect(A.matrix, p, t_grid)
            assert rep.sup_defect == pytest.approx(ref, rel=1e-12, abs=1e-12)
            x, y, t = rep.witness
            mid = t * x + (1.0 - t) * y
            assert dist_to_set(mid, A, norm) == pytest.approx(rep.sup_defect, rel=1e-12, abs=1e-12)

    def test_dense_convex_sample_has_small_defect(self):
        # A fine sample of a segment: the defect is at most the mesh.
        pts = [[x] for x in np.linspace(0.0, 1.0, 101)]
        rep = convexity_defect(setof(*pts), L2, t_grid=7)
        assert rep.sup_defect <= 0.005 + 1e-12

    def test_two_point_gap(self):
        A = setof([0.0], [4.0])
        rep = convexity_defect(A, L2, t_grid=3)
        assert rep.sup_defect == pytest.approx(2.0, abs=1e-12)
        assert rep.witness[2] == pytest.approx(0.5)

    def test_scaling_homogeneity(self, rng):
        pts = [rng.normal(size=3) for _ in range(6)]
        A = setof(*pts)
        eps = 0.25
        B = setof(*[eps * p for p in pts])
        ra = convexity_defect(A, L2, t_grid=5)
        rb = convexity_defect(B, L2, t_grid=5)
        assert rb.sup_defect == pytest.approx(eps * ra.sup_defect, abs=1e-10)

    def test_witness_reproduces_defect(self, rng):
        pts = [rng.normal(size=3) for _ in range(7)]
        A = setof(*pts)
        rep = convexity_defect(A, L1, t_grid=4)
        x, y, t = rep.witness
        mid = t * x + (1.0 - t) * y
        assert dist_to_set(mid, A, L1) == pytest.approx(rep.sup_defect, abs=1e-9)

    def test_permutation_invariance(self, rng):
        pts = [rng.normal(size=4) for _ in range(6)]
        perm = rng.permutation(4)
        A = setof(*pts)
        B = setof(*[p[perm] for p in pts])
        for norm in (L1, L2, LINF):
            ra = convexity_defect(A, norm, t_grid=4)
            rb = convexity_defect(B, norm, t_grid=4)
            assert ra.sup_defect == pytest.approx(rb.sup_defect, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            convexity_defect(setof([1.0]), L2, t_grid=3)
        with pytest.raises(ValueError):
            convexity_defect(setof([1.0], [2.0]), L2, t_grid=1)


class TestHausdorffLb:
    def test_witness_in_set(self):
        A = setof([0.0], [4.0])
        assert hausdorff_lb(A, rows(A)[:1], L2) == pytest.approx(0.0)

    def test_midpoint_witness(self):
        A = setof([0.0], [4.0])
        assert hausdorff_lb(A, [Vector({0: 2.0})], L2) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_outside_witness(self):
        A = setof([0.0], [4.0])
        with pytest.raises(ValueError, match="from the hull"):
            hausdorff_lb(A, [Vector({0: 9.0})], L2)

    def test_several_witnesses_match_set_distances(self, rng):
        A = random_set(rng, 30, 4)
        W = rng.dirichlet(np.ones(30), size=7) @ A.matrix
        witnesses = [Vector.from_array(w) for w in W]
        for norm in (L1, L2, LINF):
            expected = max(dist_to_set(w, A, norm) for w in witnesses)
            assert hausdorff_lb(A, witnesses, norm) == expected

    def test_generator_witnesses_are_checked(self):
        # A one-shot iterable must reach the membership certificate too.
        A = SampledSet(np.eye(3))
        with pytest.raises(ValueError, match="from the hull"):
            hausdorff_lb(A, (w for w in [Vector({0: 10.0})]), L1)
        with pytest.raises(ValueError, match="need at least one witness"):
            hausdorff_lb(A, (w for w in []), L1)
        assert hausdorff_lb(A, (w for w in rows(A)[:1]), L1) == 0.0

    def test_rejects_first_outside_witness(self):
        A = setof([0.0], [4.0])
        with pytest.raises(ValueError, match="witness Vector\\(\\{0: 9\\}\\)"):
            hausdorff_lb(A, [Vector({0: 2.0}), Vector({0: 9.0}), Vector({0: -5.0})], L2)

    def test_never_exceeds_diameter(self, rng):
        for _ in range(20):
            pts = [rng.normal(size=3) for _ in range(5)]
            A = setof(*pts)
            w = rng.dirichlet(np.ones(5))
            witness = Vector(dict(enumerate(w @ A.matrix)))
            lb = hausdorff_lb(A, [witness], L2)
            everything = SampledSet(np.vstack([A.matrix, w @ A.matrix]))
            assert lb <= diameter(everything, L2) + 1e-9


class TestDiameter:
    def test_two_points(self):
        assert diameter(setof([0.0], [4.0]), L2) == 4.0

    def test_matches_bruteforce(self, rng):
        pts = [rng.normal(size=3) for _ in range(8)]
        A = setof(*pts)
        X = A.matrix
        for norm, p in ((L2, 2), (L1, 1), (LINF, math.inf)):
            brute = 0.0
            for i in range(len(pts)):
                for j in range(len(pts)):
                    d = np.linalg.norm(X[i] - X[j], ord=p)
                    brute = max(brute, float(d))
            assert diameter(A, norm) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_several_row_blocks(self, rng, p):
        # 150 points span three blocks of rows.
        X = rng.normal(size=(150, 5))
        A = SampledSet(X)
        brute = max(float(np.linalg.norm(a - b, ord=p)) for a in X for b in X)
        assert diameter(A, NormSpec.lp(p)) == pytest.approx(brute, rel=1e-14)
