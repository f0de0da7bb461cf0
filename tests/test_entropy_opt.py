import math

import numpy as np
import pytest

from approxconvex.constructions import critical_scale
from approxconvex.entropy_opt import I_eval, StepFunction, minimize_I

LN2 = math.log(2.0)


def uniform_step(n):
    return StepFunction(pieces=((float(n), 1.0 / n),), domain=float(n))


def random_feasible_step(rng, n, max_pieces=8, tries=200):
    """Random step function with the right mass; rejection on values > 1."""
    for _ in range(tries):
        m = int(rng.integers(1, max_pieces + 1))
        lengths = rng.dirichlet(np.ones(m)) * n
        masses = rng.dirichlet(np.ones(m))
        values = masses / lengths
        if values.max() <= 1.0:
            return StepFunction(pieces=tuple(zip(lengths, values)), domain=float(n))
    raise AssertionError("could not sample a feasible step function")


class TestStepFunction:
    def test_mass_invariant(self):
        with pytest.raises(ValueError, match="mass"):
            StepFunction(pieces=((2.0, 0.3),), domain=2.0)

    def test_length_invariant(self):
        with pytest.raises(ValueError, match="domain"):
            StepFunction(pieces=((1.0, 1.0),), domain=2.0)

    def test_value_range(self):
        with pytest.raises(ValueError, match="values"):
            StepFunction(pieces=((0.5, 2.0), (1.5, 0.0)), domain=2.0)

    def test_positive_lengths(self):
        with pytest.raises(ValueError, match="positive"):
            StepFunction(pieces=((0.0, 1.0), (2.0, 0.5)), domain=2.0)


class TestIEval:
    def test_uniform(self):
        for n in (4, 9, 16):
            M = 3.0
            val = I_eval(uniform_step(n), M)
            assert val == pytest.approx(M * M / n + math.log2(n) ** 2, abs=1e-12)

    def test_indicator_prefix(self):
        y = StepFunction(pieces=((1.0, 1.0), (3.0, 0.0)), domain=4.0)
        assert I_eval(y, 5.0) == pytest.approx(25.0, abs=1e-12)

    def test_half_level(self):
        y = StepFunction(pieces=((2.0, 0.5),), domain=2.0)
        assert I_eval(y, 3.0) == pytest.approx(9.0 / 2.0 + 1.0, abs=1e-12)


class TestMinimizeI:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_uniform_at_critical_scale(self, n):
        M = critical_scale(n)
        y, val = minimize_I(n, M)
        assert len(y.pieces) == 1
        length, level = y.pieces[0]
        assert length == pytest.approx(float(n), abs=1e-9)
        assert level == pytest.approx(1.0 / n, abs=1e-9)
        assert val == pytest.approx(M * M / n + math.log2(n) ** 2, abs=1e-9)

    def test_small_scale_grid_oracle(self):
        # Against a dense single-level oracle at mesh 1e-4.
        n, M = 4, 0.1
        y, val = minimize_I(n, M)
        ks = np.linspace(1.0 / n, 1.0, 10_001)
        oracle = (M * M * ks + (np.log2(1.0 / ks)) ** 2).min()
        assert val <= oracle + 1e-9

    def test_value_never_beats_family_members(self, rng):
        for n in (4, 8):
            M = critical_scale(n)
            _, val = minimize_I(n, M)
            for _ in range(200):
                y = random_feasible_step(rng, n)
                assert I_eval(y, M) >= val - 1e-9

    def test_first_order_condition_at_critical_scale(self):
        # dI/dk = M^2 - 2 log2(1/k)/(ln2 k) vanishes exactly at k = 1/n.
        for n in (4, 8, 16, 100):
            M2 = (2.0 / LN2) * n * math.log2(n)
            k = 1.0 / n
            slope = M2 - 2.0 * math.log2(1.0 / k) / (LN2 * k)
            assert abs(slope) <= 1e-9 * M2
            # ...and is nonnegative for k above 1/n (minimizer at the edge).
            for k in (1.5 / n, 2.0 / n, 0.5):
                assert M2 - 2.0 * math.log2(1.0 / k) / (LN2 * k) >= -1e-9 * M2

    def test_exclusion_regime_has_no_unit_level(self):
        # 5n < M^2 <= (2/ln2) n log2 n: the minimizer carries no mass at 1.
        for n in (4, 8, 16):
            lo = 5.0 * n
            hi = (2.0 / LN2) * n * math.log2(n)
            for M2 in np.linspace(lo * 1.01, hi, 4):
                y, _ = minimize_I(n, math.sqrt(M2))
                assert all(v < 1.0 - 1e-9 for _, v in y.pieces)

    def test_validation(self):
        with pytest.raises(ValueError):
            minimize_I(0, 1.0)
        with pytest.raises(ValueError):
            minimize_I(4, 0.0)
        with pytest.raises(ValueError, match="need tol > 0"):
            minimize_I(4, 1.0, tol=0.0)
