import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxconvex.core import (
    NormSpec,
    Vector,
    simplex_grid_array,
    weighted_l1_norm,
)
from approxconvex.hulls import SampledSet, dist_to_set
from approxconvex.labels import leaf, pair


def vec(*vals):
    return Vector(dict(enumerate(vals)))


ORIGIN = SampledSet(np.zeros((1, 6)))


def dense_norm(x, p):
    """||x||_p of a vector over 0..5 by the dense distance kernel: its
    distance from the origin."""
    return dist_to_set(x, ORIGIN, NormSpec.lp(p))


class TestWeightedL1:
    def test_leaf(self):
        assert weighted_l1_norm(Vector.unit(leaf(1)), 3.0) == pytest.approx(3.0)

    def test_leaf_plus_pair(self):
        x = Vector.unit(leaf(1)) + 2.0 * Vector.unit(pair(leaf(1), leaf(2)))
        assert weighted_l1_norm(x, 3.0) == pytest.approx(5.0)

    def test_zero(self):
        assert weighted_l1_norm(Vector(), 3.0) == 0.0

    def test_rejects_non_tree_index(self):
        with pytest.raises(ValueError):
            weighted_l1_norm(vec(1.0), 3.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            weighted_l1_norm(Vector.unit(leaf(1)), 0.0)


class TestSimplexGrid:
    def test_n2_m2(self):
        pts = {tuple(p) for p in simplex_grid_array(2, 2).tolist()}
        assert pts == {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}

    def test_vertices(self):
        pts = {tuple(p) for p in simplex_grid_array(3, 1).tolist()}
        assert pts == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_count_n3_m4(self):
        # Enumeration oracle: integer triples summing to 4.
        oracle = {
            (a / 4, b / 4, (4 - a - b) / 4)
            for a in range(5)
            for b in range(5 - a)
        }
        pts = {tuple(p) for p in simplex_grid_array(3, 4).tolist()}
        assert len(oracle) == 15
        assert pts == oracle

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 11))
    def test_cardinality_and_validity(self, n, m):
        pts = simplex_grid_array(n, m)
        assert pts.shape == (math.comb(m + n - 1, n - 1), n)
        # The invariants of a probability vector.
        assert (pts >= 0.0).all()
        assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simplex_grid_array(0, 3)
        with pytest.raises(ValueError):
            simplex_grid_array(3, 0)


sparse_vectors = st.dictionaries(
    st.integers(0, 5),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    max_size=6,
).map(Vector)


class TestNormAxioms:
    @given(sparse_vectors, sparse_vectors, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality_lp(self, x, y, p):
        assert dense_norm(x + y, p) <= dense_norm(x, p) + dense_norm(y, p) + 1e-10

    @given(sparse_vectors, st.floats(-5, 5, allow_nan=False), st.sampled_from([1.0, 2.0, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_homogeneity_lp(self, x, a, p):
        assert dense_norm(a * x, p) == pytest.approx(abs(a) * dense_norm(x, p), abs=1e-10)

    @given(sparse_vectors)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_p(self, x):
        ps = [1.0, 1.5, 2.0, 3.0, 7.0, math.inf]
        norms = [dense_norm(x, p) for p in ps]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    def test_weighted_l1_axioms(self, rng):
        labels = [leaf(i) for i in range(1, 4)] + [pair(leaf(1), leaf(2))]
        for _ in range(200):
            x = Vector({l: rng.uniform(-2, 2) for l in labels})
            y = Vector({l: rng.uniform(-2, 2) for l in labels})
            M = rng.uniform(0.5, 4.0)
            lhs = weighted_l1_norm(x + y, M)
            assert lhs <= weighted_l1_norm(x, M) + weighted_l1_norm(y, M) + 1e-10
            a = rng.uniform(-3, 3)
            assert weighted_l1_norm(a * x, M) == pytest.approx(
                abs(a) * weighted_l1_norm(x, M), abs=1e-10
            )


class TestTypes:
    def test_vector_drops_zeros(self):
        assert len(Vector({0: 0.0, 1: 1.0})) == 1

    def test_vector_arithmetic_cancels(self):
        x = vec(1.0, 2.0)
        assert not (x - x)

    def test_normspec_validation(self):
        with pytest.raises(ValueError):
            NormSpec.lp(0.5)


class TestGridCounts:
    @pytest.mark.parametrize("n, m", [(3, 2.5), (2.0, 2), (True, 2), (3, False)])
    def test_non_integer_counts_are_rejected(self, n, m):
        with pytest.raises(ValueError, match="must be an integer"):
            simplex_grid_array(n, m)

    def test_numpy_integers_are_counts(self):
        got = simplex_grid_array(np.int64(3), np.int32(2))
        np.testing.assert_array_equal(got, simplex_grid_array(3, 2))
