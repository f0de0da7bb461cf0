import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxconvex.entropy import (
    affine_defect,
    entropy_E,
    entropy_E_array,
    kappa,
    kappa_table,
    phi,
    power2_condition,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestPhi:
    def test_half(self):
        assert phi(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == 0.0

    def test_quarter(self):
        assert phi(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi(-0.01)
        with pytest.raises(ValueError):
            phi(1.01)

    @given(unit, unit, unit)
    @settings(max_examples=500, deadline=None)
    def test_concavity_and_modulus(self, t, x, y):
        # 0 <= phi(tx+(1-t)y) - t phi(x) - (1-t) phi(y) <= phi(t)x + phi(1-t)y
        gap = phi(t * x + (1 - t) * y) - t * phi(x) - (1 - t) * phi(y)
        assert gap >= -1e-12
        assert gap <= phi(t) * x + phi(1 - t) * y + 1e-12


class TestEntropy:
    def test_two_point_half(self):
        assert entropy_E(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_vertex(self):
        assert entropy_E(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_barycenter_of_four(self):
        assert entropy_E(np.array([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            entropy_E(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            entropy_E(np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="sum"):
            entropy_E(np.array([0.5, 0.5 + 2e-12]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError, match="1-d"):
            entropy_E(np.array([]))
        with pytest.raises(ValueError, match="1-d"):
            entropy_E(np.array([[0.5, 0.5]]))

    def test_accepts_plain_lists(self):
        assert entropy_E([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
        assert affine_defect([1.0, 0.0], [0.0, 1.0], 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_range(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            t = rng.dirichlet(np.ones(n))
            e = entropy_E_array(t)
            assert -1e-12 <= e <= math.log2(n) + 1e-12

    def test_concave(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 8))
            x = rng.dirichlet(np.ones(n))
            y = rng.dirichlet(np.ones(n))
            t = rng.uniform()
            lhs = entropy_E_array(t * x + (1 - t) * y)
            assert lhs >= t * entropy_E_array(x) + (1 - t) * entropy_E_array(y) - 1e-12


class TestAffineDefect:
    def test_disjoint_vertices_at_half(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert affine_defect(x, y, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_t_zero(self):
        x = np.array([0.3, 0.7])
        y = np.array([0.6, 0.4])
        assert affine_defect(x, y, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_equal_points(self):
        x = np.array([0.3, 0.7])
        assert affine_defect(x, x, 0.37) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_defect(np.array([1.0]), np.array([0.5, 0.5]), 0.5)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            affine_defect(np.array([1.0]), np.array([1.0]), 1.5)

    def test_random_defect_bound(self, rng):
        # Vectorized version of the proposition chain over 10^4 samples.
        for n in range(1, 6):
            size = 2000
            X = rng.dirichlet(np.ones(n + 1), size=size)
            Y = rng.dirichlet(np.ones(n + 1), size=size)
            ts = rng.uniform(size=size)
            mix = ts[:, None] * X + (1 - ts[:, None]) * Y
            defect = np.abs(
                entropy_E_array(mix)
                - ts * entropy_E_array(X)
                - (1 - ts) * entropy_E_array(Y)
            )
            cap = np.minimum(1.0, [phi(t) + phi(1 - t) for t in ts])
            assert np.all(defect <= cap + 1e-12)


class TestKappa:
    def test_n1(self):
        rep = kappa(1)
        assert (rep.lower, rep.upper, rep.formula) == (1.0, 1.0, 1.0)

    def test_n2(self):
        rep = kappa(2)
        assert rep.formula == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert rep.lower == pytest.approx(math.log2(3), abs=1e-15)
        assert rep.upper == 2.0

    def test_n3_power_of_two(self):
        rep = kappa(3)
        assert (rep.lower, rep.upper, rep.formula) == (2.0, 2.0, 2.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kappa(0)

    @pytest.mark.parametrize("n", [3.0, math.nan, True])
    def test_rejects_non_integer(self, n):
        with pytest.raises(ValueError, match="kappa needs an integer n"):
            kappa(n)

    def test_exact_at_powers(self):
        for k in range(1, 21):
            assert kappa(2**k - 1).formula == float(k)

    def test_bracket_sample(self):
        for n in (1, 2, 5, 100, 12345, 2**20):
            rep = kappa(n)
            assert rep.lower <= rep.formula <= rep.upper

    def test_table_matches_scalar(self, rng):
        tab = kappa_table(3000)
        for n in rng.integers(1, 3001, size=50):
            rep = kappa(int(n))
            row = tab[n - 1]
            assert row[0] == rep.lower
            assert row[1] == rep.formula
            assert row[2] == rep.upper


class TestPower2Condition:
    @staticmethod
    def rhs(n):
        return math.sqrt(2 * n) * (math.sqrt(2 * n) + math.sqrt(n - 1)) / (n + 1)

    def test_n16_true(self):
        assert power2_condition(16) is True

    def test_n4_false_by_direct_evaluation(self):
        assert self.rhs(4) > 2.0  # oracle: the displayed quantity exceeds kappa(3)
        assert power2_condition(4) is False

    def test_n8_raw_inequality_holds(self):
        # The inequality itself holds at n=8 even though the sharpness
        # conclusion is only asserted from n=16 on.
        assert self.rhs(8) <= 3.0
        assert power2_condition(8) is True

    def test_n256_true(self):
        assert self.rhs(256) <= 8.0
        assert power2_condition(256) is True

    def test_rejects_non_powers(self):
        for bad in (3, 6, 1, 0):
            with pytest.raises(ValueError):
                power2_condition(bad)

    def test_matches_direct_evaluation(self):
        for k in range(1, 15):
            n = 2**k
            assert power2_condition(n) == (k >= self.rhs(n))
