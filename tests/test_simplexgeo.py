import math
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    exact_simplex_distance,
    origin_barycentric,
    random_interior_simplex,
    regular_simplex,
)

import simplexgeo_reference as reference

from approxconvex import simplexgeo
from approxconvex.core import NormSpec, Vector
from approxconvex.hulls import SampledSet, dist_to_hull
from approxconvex.optim import min_distance_over_simplex, min_quadratic_over_simplex
from approxconvex.simplexgeo import alpha, best_subset, face_chain, near_face


class TestAlpha:
    def test_facet_case(self):
        for n in range(1, 8):
            assert alpha(n, n - 1) == pytest.approx(1.0 / n, abs=1e-15)

    def test_vertex_case(self):
        for n in range(1, 8):
            assert alpha(n, 0) == pytest.approx(1.0, abs=1e-15)

    def test_n3_k1(self):
        assert alpha(3, 1) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_strictly_decreasing_in_k(self):
        for n in range(2, 9):
            vals = [alpha(n, k) for k in range(n)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            alpha(3, 3)
        with pytest.raises(ValueError):
            alpha(3, -1)
        with pytest.raises(ValueError):
            alpha(0, 0)


class TestNearFace:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_regular_equality(self, n):
        V = regular_simplex(n)
        for k in range(n):
            res = near_face(V, k)
            assert res.distance == pytest.approx(alpha(n, k), abs=1e-9)
            assert len(res.vertex_index_set) == k + 1

    def test_random_bound_and_invariant(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            V = random_interior_simplex(rng, n)
            chain = face_chain(V)
            for k, res in enumerate(chain):
                assert res.distance <= alpha(n, k) + 1e-9
                # FaceResult invariant: distance is reproduced by the
                # generic hull-distance machinery on the chosen vertices.
                A = SampledSet(V[list(res.vertex_index_set)])
                check = dist_to_hull(Vector(), A, NormSpec.lp(2), tol=1e-11)
                assert check == pytest.approx(res.distance, abs=1e-9)

    def test_recursion_consistency(self, rng):
        # d(0, F_k)^2 <= d^2 + (1 - d^2) alpha(n-1, k)^2 with d the
        # nearest-facet distance.
        for _ in range(40):
            n = int(rng.integers(3, 7))
            V = random_interior_simplex(rng, n)
            chain = face_chain(V)
            d = chain[n - 1].distance
            for k in range(n - 1):
                assert chain[k].distance ** 2 <= d * d + (1 - d * d) * alpha(
                    n - 1, k
                ) ** 2 + 1e-9

    def test_facet_vs_enumeration_oracle(self, rng):
        # k = n-1: the nearest facet is within 1/n, checked against an
        # exhaustive facet enumeration with an independent solver.
        for _ in range(25):
            n = int(rng.integers(2, 6))
            V = random_interior_simplex(rng, n)
            res = near_face(V, n - 1)
            oracle = min(
                exact_simplex_distance(V[list(sub)])
                for sub in combinations(range(n + 1), n)
            )
            assert res.distance == pytest.approx(oracle, abs=1e-9)
            assert res.distance <= 1.0 / n + 1e-9

    def test_two_point_case(self):
        res = near_face(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0)
        assert res.distance == pytest.approx(1.0, abs=1e-12)
        assert len(res.vertex_index_set) == 1

    def test_rejects_origin_outside(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        with pytest.raises(ValueError):
            near_face(V, 1)

    def test_rejects_off_sphere(self):
        V = np.array([[2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="unit sphere"):
            near_face(V, 0)

    def test_rejects_degenerate(self):
        V = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            near_face(V, 1)

    @pytest.mark.parametrize("call", [
        lambda V: near_face(V, 1),
        face_chain,
        lambda V: best_subset(0.9 * V, 2),
    ], ids=["near_face", "face_chain", "best_subset"])
    def test_rejects_more_vertices_than_a_simplex_has(self, monkeypatch, call):
        # Five points of the unit circle are affinely dependent; the row
        # count says why before any factorization or solver runs.
        def no_solve(*args, **kwargs):
            raise AssertionError("too many vertices reached a solver")

        for name in ("min_distance_over_simplex", "min_quadratic_over_simplex"):
            monkeypatch.setattr(simplexgeo, name, no_solve)
        ang = 2.0 * np.pi * np.arange(5) / 5
        V = np.column_stack([np.cos(ang), np.sin(ang)])
        with pytest.raises(ValueError, match=r"got 5 (vertex|point) rows in R\^2: more than d \+ 1 = 3"):
            call(V)

    @staticmethod
    def _factored_simplices(rng):
        simplices = [random_interior_simplex(rng, n) for n in range(1, 9)]
        simplices.append(np.column_stack([regular_simplex(2), np.zeros(3)]))  # a triangle in R^3
        return simplices

    def test_origin_coordinates_from_the_edge_factor(self, rng):
        for V in self._factored_simplices(rng):
            lam = simplexgeo._edge_factor(V)[1]
            assert np.abs(lam - origin_barycentric(V)).max() <= 1e-12
            assert np.linalg.norm(lam @ V) <= 1e-14
            assert abs(lam.sum() - 1.0) <= len(V) * np.finfo(float).eps

    def test_gradients_agree_with_a_gram_solve(self, rng):
        # The rows of (E E^T)^-1 E from the Cholesky factor, against
        # LAPACK's LU solve of the same system: both are backward stable,
        # so they differ by at most a few eps cond(E E^T) relative to the
        # largest entry (at most 0.65 over 1,600 draws, n = 1..8).
        for V in self._factored_simplices(rng):
            E = V[1:] - V[0]
            solved = np.linalg.solve(E @ E.T, E)
            grads = simplexgeo._edge_factor(V)[0]
            bound = 4.0 * np.finfo(float).eps * np.linalg.cond(E @ E.T)
            assert np.abs(grads[1:] - solved).max() <= bound * np.abs(solved).max()

    def test_flattened_simplices(self):
        # A regular n-simplex with its last coordinate scaled by 10^-e,
        # rows renormalized.  Rounding in the edge Gram matrix can leave a
        # computed height near 1e-7 on a degenerate simplex, so heights up
        # to 1e-6 count as degenerate; the former SVD test resolved them
        # down to 1e-12.  Decisions for e = 2..13:
        #   n = 3, former SVD:   ok ok ok ok ok ok  ok  ok  ok  ok  deg deg
        #   n = 3, edge factor:  ok ok ok ok ok deg deg deg deg deg deg deg
        #   n = 8, former SVD:   ok ok ok ok ok ok  ok  ok  ok  ok  deg deg
        #   n = 8, edge factor:  ok ok ok ok ok ok  deg deg deg deg deg deg
        now = {3: "ok ok ok ok ok deg deg deg deg deg deg deg",
               8: "ok ok ok ok ok ok deg deg deg deg deg deg"}
        for n in (3, 8):
            R = regular_simplex(n)
            R = R @ np.linalg.svd(R)[2][:n].T
            decisions = []
            for e in range(2, 14):
                V = R * np.append(np.ones(n - 1), 10.0 ** -e)
                V /= np.linalg.norm(V, axis=1, keepdims=True)
                try:
                    simplexgeo._validated(V)
                    decisions.append("ok")
                except ValueError as exc:
                    assert str(exc) == "degenerate simplex: vertices are affinely dependent"
                    decisions.append("deg")
            assert " ".join(decisions) == now[n]

    def test_k_range(self, monkeypatch):
        # A bad k is rejected before _validated's factor, the first real work.
        def no_factor(*args, **kwargs):
            raise AssertionError("a bad k reached the factorization")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        V = regular_simplex(3)
        for k in (-1, 3):
            with pytest.raises(ValueError, match=rf"near_face needs 0 <= k <= n-1, got k={k} for n=3"):
                near_face(V, k)

    def test_boundary_jitter_path(self):
        # Origin exactly on a facet of the square's inscribed triangle:
        # the inward shift must keep the call usable.
        V = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        res = near_face(V, 0)
        assert res.distance <= 1.0 + 1e-9

    def test_tie_break_is_lexicographic(self):
        # On the regular simplex all facets tie, so the descent must pick
        # the lexicographically smallest vertex set at every level.
        for n in (3, 5):
            chain = face_chain(regular_simplex(n))
            for k, res in enumerate(chain):
                assert res.vertex_index_set == tuple(range(k + 1))


class TestBestSubset:
    def test_single_point_within_ball(self, rng):
        V = random_interior_simplex(rng, 3)
        res = best_subset(V, 1)
        assert res.distance <= 1.0 + 1e-9

    def test_regular_full_subset(self):
        n = 4
        res = best_subset(regular_simplex(n), n)
        assert res.distance <= 1.0 / n + 1e-9

    def test_random_bound_and_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            P = random_interior_simplex(rng, n) * rng.uniform(0.4, 1.0, size=(n + 1, 1))
            for j in range(1, n + 1):
                res = best_subset(P, j)
                bound = math.sqrt((n + 1 - j) / (n * j))
                assert res.distance <= bound + 1e-9
                # Exhaustive enumeration oracle: optimal subset distance.
                best = min(
                    exact_simplex_distance(P[list(sub)])
                    for sub in combinations(range(n + 1), j)
                )
                assert res.distance >= best - 1e-9

    def test_rejects_zero_vector(self):
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="zero vector"):
            best_subset(P, 1)

    def test_rejects_points_outside_ball(self):
        P = np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="unit ball"):
            best_subset(P, 1)

    def test_rejects_origin_outside_hull(self):
        P = np.array([[1.0, 0.0], [0.8, 0.1], [0.9, -0.1]])
        with pytest.raises(ValueError, match="hull"):
            best_subset(P, 1)

    @pytest.mark.parametrize("points", [[1.0, 0.5, 0.2], [math.nan, 0.5, 0.2]])
    def test_rejects_non_2d_points(self, points):
        with pytest.raises(ValueError, match=r"rows of a 2-D array, got shape \(3,\)"):
            best_subset(points, 1)

    def test_j_range(self, rng):
        V = random_interior_simplex(rng, 3)
        with pytest.raises(ValueError):
            best_subset(V, 0)
        with pytest.raises(ValueError):
            best_subset(V, 4)


def _missing_by(delta, d, Q):
    """d + 1 unit vectors of R^d, rotated by Q, whose hull misses the
    origin by delta: a regular facet on the hyperplane <e_0, x> = delta,
    centred on the origin's foot delta e_0, and the apex e_0 beyond it."""
    R = regular_simplex(d - 1)
    base = R @ np.linalg.svd(R)[2][: d - 1].T
    F = np.column_stack([np.full(d, delta), math.sqrt(1.0 - delta * delta) * base])
    return np.vstack([np.eye(d)[0], F]) @ Q.T


def _decision(call, P, j):
    """The FaceResult, or the message of the ValueError, of call(P, j)."""
    try:
        return call(P, j)
    except ValueError as exc:
        return str(exc)


BAND = (1e-9, 1e-8, 1e-7, 1e-6, 1e-3)


def _band_inputs(deltas=BAND):
    """(delta, points) for each delta, d = 2..6 and 8 rotations."""
    rng = np.random.default_rng(27)
    for d in range(2, 7):
        for _ in range(8):
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            for delta in deltas:
                yield delta, _missing_by(delta, d, Q)


class TestSingleHullCheck:
    """best_subset decides hull membership by _validated's barycentric
    check alone; the reference keeps the former kernel check before it."""

    def test_band_edges_decide_as_the_former_check(self):
        rejected = {delta: 0 for delta in BAND}
        for delta, P in _band_inputs():
            new, old = _decision(best_subset, P, 1), _decision(reference.best_subset, P, 1)
            if isinstance(new, str):
                assert isinstance(old, str) and "hull" in new
                rejected[delta] += 1
            else:
                assert new == old
        # The inward shift moves each vertex by at most
        # 2e-8 |mean| / (1 - 1e-8 |mean|) with |mean| <= 1, so from 1e-7 on
        # it cannot bring the origin in.
        assert rejected[1e-7] == rejected[1e-6] == rejected[1e-3] == 40
        assert rejected[1e-9] < 40

    def test_positive_rescaling_keeps_the_decision(self):
        rng = np.random.default_rng(28)
        inputs = [P for _, P in _band_inputs()]
        inputs += [_missing_by(0.0, d, np.linalg.qr(rng.standard_normal((d, d)))[0]) for d in range(2, 7)]
        inputs += [_interior_simplex(rng, 2 + i % 5) for i in range(20)]
        for P in inputs:
            accepted = not isinstance(_decision(best_subset, P, 1), str)
            for _ in range(3):
                scaled = P * rng.uniform(0.4, 1.0, size=(P.shape[0], 1))
                assert (not isinstance(_decision(best_subset, scaled, 1), str)) == accepted

    def test_origin_on_a_facet_takes_the_jitter_path(self, monkeypatch):
        V = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        P = V * np.array([[0.5], [0.9], [0.7]])
        calls = _count_calls(monkeypatch, "_origin_factor")
        for j in (1, 2):
            calls.clear()
            res = best_subset(P, j)
            assert len(calls) == 2
            assert res.vertex_index_set == near_face(V, j - 1).vertex_index_set
            assert res == reference.best_subset(P, j)

    def test_origin_on_a_facet_is_accepted(self):
        # The origin at a facet's centroid, d = 2..6 and 8 rotations: the
        # inward shift brings every input inside, and each face of the
        # chain is within the shift's largest vertex move, 2e-8 / (1 -
        # 1e-8), of the enumerated distance on the input's own vertices.
        for _, P in _band_inputs((0.0,)):
            n = P.shape[0] - 1
            chain = face_chain(P)
            for k, res in enumerate(chain):
                assert res.distance <= alpha(n, k) + 1e-9
                exact = exact_simplex_distance(P[list(res.vertex_index_set)])
                assert abs(res.distance - exact) <= 2.1e-8
            nearest = min(exact_simplex_distance(P[list(sub)]) for sub in combinations(range(n + 1), n))
            assert chain[n - 1].distance <= nearest + 2.1e-8


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call, what", [
    (lambda V: near_face(V, 1), "vertex"),
    (face_chain, "vertex"),
    (lambda V: best_subset(V, 2), "point"),
], ids=["near_face", "face_chain", "best_subset"])
def test_non_finite_input_rejected_before_any_solve(monkeypatch, call, what, value):
    # NaN passes the sphere and ball checks, so only an explicit check
    # keeps it from LAPACK.
    def no_solve(*args, **kwargs):
        raise AssertionError("a non-finite vertex reached a solver")

    for name in ("min_distance_over_simplex", "min_quadratic_over_simplex"):
        monkeypatch.setattr(simplexgeo, name, no_solve)
    for name in ("cholesky", "inv", "solve", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, no_solve)
    V = regular_simplex(3)
    V[2, 1] = value
    with pytest.raises(ValueError, match=rf"{what} 2 has coordinate 1 = {value}, not finite"):
        call(V)


def _reference_descend(V, stop_dim, on_level=None):
    """The sequential all-facet descent: every facet goes through the
    kernel in order (drop the largest index first), and a facet replaces
    the best so far only when it is nearer by more than _TIE_TOL.
    ``on_level(coords, values)`` sees each level's vertices and the
    squared distance of every facet."""
    idx = list(range(V.shape[0]))
    coords = V.copy()
    chain = [tuple(idx)]
    while len(idx) - 1 > stop_dim:
        order = sorted(range(len(idx)), key=lambda a: -idx[a])
        values = {}
        best_d2, best_a, best_q = np.inf, None, None
        for a in order:
            rows = [r for r in range(len(idx)) if r != a]
            Lf = coords[rows].T
            t, f = min_quadratic_over_simplex(Lf, np.zeros(Lf.shape[0]), tol=1e-13)
            values[a] = f
            if f < best_d2 - simplexgeo._TIE_TOL:
                best_d2, best_a, best_q = f, a, Lf @ t
        if on_level is not None:
            on_level(coords, values)
        rows = [r for r in range(len(idx)) if r != best_a]
        coords = coords[rows] - best_q
        norms = np.linalg.norm(coords, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        coords = coords / norms
        idx = [idx[r] for r in rows]
        chain.append(tuple(idx))
    return chain


def _interior_simplex(rng, n, margin=1e-2):
    """Unit vertices with the origin inside: n random unit vectors and the
    one opposite a random positive combination of them."""
    while True:
        V = rng.standard_normal((n + 1, n))
        V[0] = -rng.dirichlet(np.ones(n)) @ V[1:]
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if origin_barycentric(V).min() > margin:
            return V


def _count_calls(monkeypatch, name):
    """Wrap simplexgeo's `name` so that every call appends to the list
    returned."""
    calls = []
    wrapped = getattr(simplexgeo, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(simplexgeo, name, counted)
    return calls


class TestPrunedDescent:
    def _assert_matches_reference(self, V, k):
        W = simplexgeo._validated(V)[0]
        chain = _reference_descend(W, 0)
        expected = [tuple(sorted(sub)) for sub in reversed(chain[1:])]
        assert [res.vertex_index_set for res in face_chain(V)] == expected
        assert near_face(V, k).vertex_index_set == expected[k]

    def test_same_chains_as_sequential_reference(self):
        rng = np.random.default_rng(20)
        for i in range(304):
            n = 2 + i % 8
            self._assert_matches_reference(_interior_simplex(rng, n), int(rng.integers(0, n)))

    def test_same_chains_on_regular_and_jittered_input(self):
        for n in range(2, 10):
            for k in range(n):
                self._assert_matches_reference(regular_simplex(n), k)
        jittered = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        for k in range(2):
            self._assert_matches_reference(jittered, k)

    def test_bounds_below_every_facet_and_tight_at_the_least(self):
        rng = np.random.default_rng(21)
        levels = []

        def check(coords, values):
            bounds = simplexgeo._facet_bounds(coords, simplexgeo._edge_factor(coords)[0])
            for a, f in values.items():
                assert bounds[a] <= math.sqrt(f)
            # The least bound is the nearest facet's exact distance, to
            # 1e-12 of the unit circumradius (deep levels reach distances
            # near 1e-5, where the allowance of a few ulps of 1 is no
            # longer small relative to the distance itself).
            a = int(np.argmin(bounds))
            assert abs(bounds[a] - math.sqrt(values[a])) <= 1e-12
            levels.append(len(values))

        for i in range(120):
            _reference_descend(_interior_simplex(rng, 2 + i % 8), 0, check)
        assert len(levels) == sum(2 + i % 8 for i in range(120))

    def _count_solves(self, monkeypatch, V):
        """(facets evaluated, by foot or by kernel; kernel calls) in one
        face_chain."""
        feet = _count_calls(monkeypatch, "_facet_foot")
        calls = _count_calls(monkeypatch, "min_quadratic_over_simplex")
        face_chain(V)
        return len(feet), len(calls)

    def test_prunes_most_solves_off_the_regular_simplex(self, monkeypatch):
        # The full descent of an 8-simplex has sum(m) = 44 facets.
        V = _interior_simplex(np.random.default_rng(22), 8)
        evaluated, _ = self._count_solves(monkeypatch, V)
        assert evaluated <= 22

    def test_regular_simplex_solves_every_facet(self, monkeypatch):
        # Every facet ties at every level, so none can be skipped, and
        # every foot is its facet's circumcenter, so none needs the kernel.
        assert self._count_solves(monkeypatch, regular_simplex(8)) == (44, 0)


class TestFacetFeet:
    def test_foot_outside_its_facet_goes_to_the_kernel(self, monkeypatch):
        # Facet 0 is an obtuse triangle on the circle z = -0.6 of the unit
        # sphere, so the origin's foot on its plane, (0, 0, -0.6), lies
        # outside it; vertex 0 is opposite its centroid, so the origin is
        # inside the simplex.
        ang = np.radians([0.0, 20.0, 40.0])
        base = np.column_stack([0.8 * np.cos(ang), 0.8 * np.sin(ang), np.full(3, -0.6)])
        assert np.linalg.solve(base.T, [0.0, 0.0, -0.6]).min() < 0.0
        top = -base.mean(axis=0)
        C = np.vstack([top / np.linalg.norm(top), base])
        grads, beta, _ = simplexgeo._edge_factor(C)
        bounds = simplexgeo._facet_bounds(C, grads)
        nearest = simplexgeo._nearest_on_facet
        calls = _count_calls(monkeypatch, "_nearest_on_facet")
        f, q = simplexgeo._facet_foot(C, grads, beta, 0, bounds[0])
        assert len(calls) == 1
        f_kernel, q_kernel = nearest(C, 0)
        assert f == f_kernel
        assert np.array_equal(q, q_kernel)

    def test_singular_gram_solve_sends_every_facet_to_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(23)
        simplices = [_interior_simplex(rng, 2 + i % 8) for i in range(24)]
        simplices += [regular_simplex(n) for n in range(2, 10)]
        validated = [simplexgeo._validated(V)[0] for V in simplices]

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        grads, beta, Linv = simplexgeo._edge_factor(simplices[0])
        assert np.isnan(grads).all() and np.isnan(beta).all() and np.isnan(Linv).all()
        assert np.array_equal(simplexgeo._facet_bounds(simplices[0], grads), np.zeros(3))
        for W in validated:
            assert simplexgeo._descend(W, simplexgeo._edge_factor(W), 0) == _reference_descend(W, 0)

    def test_accepted_feet_are_certified(self, monkeypatch):
        rng = np.random.default_rng(24)
        fallbacks = _count_calls(monkeypatch, "_nearest_on_facet")
        least_accepted = []

        def check(coords, values):
            grads, beta, _ = simplexgeo._edge_factor(coords)
            bounds = simplexgeo._facet_bounds(coords, grads)
            for a, f_kernel in values.items():
                before = len(fallbacks)
                f, _ = simplexgeo._facet_foot(coords, grads, beta, a, bounds[a])
                if len(fallbacks) == before:
                    lower2 = bounds[a] ** 2
                    assert lower2 <= f <= lower2 + 1e-13
                    assert abs(f - f_kernel) <= 1e-13
                if a == int(np.argmin(bounds)):
                    least_accepted.append(len(fallbacks) == before)

        for i in range(160):
            _reference_descend(_interior_simplex(rng, 2 + i % 8), 0, check)
        # The least-bound facet's foot lies in it (see _facet_bounds), and
        # on these draws the closed form certifies it at every level.
        assert len(least_accepted) == sum(2 + i % 8 for i in range(160))
        assert all(least_accepted)


class TestChainDistances:
    def test_every_distance_agrees_with_the_kernel(self):
        rng = np.random.default_rng(25)
        simplices = [_interior_simplex(rng, 2 + i % 8) for i in range(96)]
        simplices += [regular_simplex(n) for n in range(2, 10)]
        for V in simplices:
            for res in face_chain(V):
                P = simplexgeo._validated(V)[0][list(res.vertex_index_set)]
                _, dist = min_distance_over_simplex(P.T, np.zeros(P.shape[1]), tol=1e-11)
                assert abs(res.distance - dist) <= 1e-11

    def test_regular_simplex_needs_no_kernel(self, monkeypatch):
        # Every face's foot is its circumcenter, inside it with equal weights.
        calls = _count_calls(monkeypatch, "min_distance_over_simplex")
        chain = face_chain(regular_simplex(8))
        assert len(calls) == 0
        for k, res in enumerate(chain):
            assert res.distance == pytest.approx(alpha(8, k), abs=1e-12)

    def test_prefix_feet_carry_no_weight_beyond_their_prefix(self, monkeypatch):
        # L^-1 is kept exactly lower triangular, so a prefix's foot puts no
        # rounding-level weight, of either sign, on a later vertex, which
        # would send its face to the kernel: no face of these chains goes.
        rng = np.random.default_rng(27)
        simplices = [_interior_simplex(rng, 2 + i % 8) for i in range(200)]
        for V in simplices:
            Linv = simplexgeo._edge_factor(V)[2]
            assert not np.triu(Linv, 1).any()
        calls = _count_calls(monkeypatch, "min_distance_over_simplex")
        assert sum(len(face_chain(V)) for V in simplices) == 1100
        assert len(calls) == 0

    def test_face_whose_foot_is_outside_goes_to_the_kernel(self, monkeypatch):
        # Vertices 1-3 are an obtuse triangle on the circle z = -0.6 of
        # the unit sphere, so the origin's foot on its plane, (0, 0, -0.6),
        # lies outside it, while the foot on the chord 1-3 is its
        # midpoint.  A chain through that chord to the triangle sends the
        # triangle, and only the triangle, to the kernel.
        ang = np.radians([0.0, 20.0, 40.0])
        base = np.column_stack([0.8 * np.cos(ang), 0.8 * np.sin(ang), np.full(3, -0.6)])
        top = -base.mean(axis=0)
        V = np.vstack([top / np.linalg.norm(top), base])
        chain = [(0, 1, 2, 3), (1, 2, 3), (1, 3), (1,)]
        monkeypatch.setattr(simplexgeo, "_descend", lambda W, factor, stop_dim: chain)
        faces = []
        kernel = simplexgeo.min_distance_over_simplex

        def recorded(L, c, tol):
            faces.append(L.T.copy())
            return kernel(L, c, tol=tol)

        monkeypatch.setattr(simplexgeo, "min_distance_over_simplex", recorded)
        results = face_chain(V)
        assert [res.vertex_index_set for res in results] == [(1,), (1, 3), (1, 2, 3)]
        assert len(faces) == 1 and np.array_equal(faces[0], V[[1, 2, 3]])
        assert results[0].distance == pytest.approx(1.0, abs=1e-15)
        assert results[1].distance == pytest.approx(np.linalg.norm(V[1] + V[3]) / 2, abs=1e-15)
        assert results[2].distance == kernel(V[[1, 2, 3]].T, np.zeros(3), tol=1e-11)[1]

    def test_singular_gram_matrix_sends_every_face_to_the_kernel(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        V = _interior_simplex(np.random.default_rng(26), 5)
        expected = face_chain(V)
        validated = simplexgeo._validated(V)
        monkeypatch.setattr(simplexgeo, "_validated", lambda vertices: validated)
        calls = _count_calls(monkeypatch, "min_distance_over_simplex")
        monkeypatch.setattr(np.linalg, "cholesky", singular)
        results = face_chain(V)
        # A failed factor (NaN) certifies no face of two or more vertices;
        # the lone vertex's weights need no factor.
        assert len(calls) == 4
        assert [res.vertex_index_set for res in results] == [res.vertex_index_set for res in expected]
        for res, ref in zip(results, expected):
            assert abs(res.distance - ref.distance) <= 1e-11


class TestSameAsReference:
    """The descent computes what it computed before its per-level numpy
    calls were trimmed (tests/simplexgeo_reference.py), bit for bit."""

    def _assert_same_descent(self, V):
        coords = V
        while True:
            grads, beta, _ = simplexgeo._edge_factor(coords)
            bounds = simplexgeo._facet_bounds(coords, grads)
            ref_bounds, ref_grads, ref_beta = reference.facet_bounds(coords)
            assert np.array_equal(bounds, ref_bounds)
            assert np.array_equal(grads, ref_grads, equal_nan=True)
            for a, bound in enumerate(bounds.tolist()):
                f, q = simplexgeo._facet_foot(coords, grads, beta, a, bound)
                ref_f, ref_q = reference.facet_foot(coords, ref_grads, ref_beta, a, ref_bounds[a])
                assert f == ref_f and np.array_equal(q, ref_q)
            if coords.shape[0] == 2:
                break
            coords = coords[:-1] - q  # the facet without the last vertex, recentred
            coords = coords / np.linalg.norm(coords, axis=1, keepdims=True)
        assert simplexgeo._descend(V, simplexgeo._edge_factor(V), 0) == reference.descend(V, 0)

    def test_random_interior_simplices(self):
        rng = np.random.default_rng(29)
        for i in range(160):
            self._assert_same_descent(_interior_simplex(rng, 2 + i % 8))

    def test_regular_simplices(self):
        for n in range(2, 10):
            self._assert_same_descent(regular_simplex(n))

    def test_jittered_inputs(self):
        rng = np.random.default_rng(30)
        inputs = [np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])]
        inputs += [_missing_by(0.0, d, np.linalg.qr(rng.standard_normal((d, d)))[0]) for d in range(2, 7)]
        jittered = 0
        for P in inputs:
            try:
                V = simplexgeo._validated(P)[0]
            except ValueError:
                continue
            jittered += not np.array_equal(V, P)
            self._assert_same_descent(V)
            for k in range(V.shape[0] - 1):
                assert near_face(P, k) == simplexgeo._face(V, reference.descend(V, k)[-1])
        assert jittered >= 2

    def test_scaled_best_subset_inputs(self):
        rng = np.random.default_rng(31)
        for i in range(60):
            n = 2 + i % 5
            P = _interior_simplex(rng, n) * rng.uniform(0.4, 1.0, size=(n + 1, 1))
            for j in range(1, n + 1):
                assert best_subset(P, j) == reference.best_subset(P, j)


def test_one_factorization_per_factored_simplex(monkeypatch):
    # Counting spies on numpy's solvers, outside the min-norm-point
    # kernels (which solve with lstsq on their own): face_chain factors
    # the input, each descent level below it and the chain's prefix
    # order; best_subset(P, j) factors the input and its n - j lower
    # levels.  No other solver runs.
    counts = {}
    in_kernel = []
    for name in ("cholesky", "inv", "svd", "solve", "lstsq"):
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            if not in_kernel:
                counts[_name] = counts.get(_name, 0) + 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for name in ("min_distance_over_simplex", "min_quadratic_over_simplex"):
        def kernel(*args, _kernel=getattr(simplexgeo, name), **kwargs):
            in_kernel.append(1)
            try:
                return _kernel(*args, **kwargs)
            finally:
                in_kernel.pop()

        monkeypatch.setattr(simplexgeo, name, kernel)
    rng = np.random.default_rng(32)
    for n in range(2, 10):
        for V in (_interior_simplex(rng, n), regular_simplex(n)):
            calls = [(face_chain, n + 1)]
            calls += [(lambda V, j=j: best_subset(0.9 * V, j), n + 1 - j) for j in range(1, n + 1)]
            for call, factored in calls:
                counts.clear()
                call(V)
                assert counts == {"cholesky": factored, "inv": factored}


class TestCountTypes:
    V = np.vstack([np.eye(2), -np.ones((1, 2)) / math.sqrt(2.0)])

    @pytest.mark.parametrize("k", [0.5, 1.0, True, "0"])
    def test_near_face_needs_an_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            near_face(self.V, k)

    @pytest.mark.parametrize("j", [True, 1.0, 1.5])
    def test_best_subset_needs_an_integer_j(self, j):
        with pytest.raises(ValueError, match="j must be an integer"):
            best_subset(self.V, j)

    def test_numpy_integers_are_counts(self):
        assert near_face(self.V, np.int64(1)) == near_face(self.V, 1)
        assert best_subset(self.V, np.int64(2)) == best_subset(self.V, 2)
