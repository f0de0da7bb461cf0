import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxconvex import entropy_opt
from approxconvex.cli import main
from approxconvex.constructions import critical_scale
from approxconvex.entropy_opt import I_eval, StepFunction, _family_bracket, minimize_I
from approxconvex.optim import ConvergenceError

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

    @pytest.mark.parametrize("pieces, domain, message", [
        (((math.nan, 1.0),), 1.0, "lengths must be positive"),
        (((1.0, 1.0),), math.nan, "domain must be finite"),
        (((1.0, 1.0),), math.inf, "domain must be finite"),
        (((1.0, 1.0), (math.nan, 0.0)), 1.0, "lengths must be positive"),
    ])
    def test_nan_rejected(self, pieces, domain, message):
        with pytest.raises(ValueError, match=message):
            StepFunction(pieces=pieces, domain=domain)


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


def family_I(x, k, M):
    """I on the family {1 on [0, x], k on length (1 - x)/k, 0 elsewhere}."""
    return M * M * (x + k * (1.0 - x)) + ((1.0 - x) * np.log2(1.0 / k)) ** 2


def exact_level(x, M, n):
    """The level minimizing I at each prefix x < 1: bisection of the
    increasing slope dI/dk over [(1 - x)/(n - x), 1]."""

    def slope(k):
        return M * M * (1.0 - x) - 2.0 * (1.0 - x) ** 2 * np.log2(1.0 / k) / (k * LN2)

    lo = (1.0 - x) / (n - x)
    a, b = lo, np.ones_like(x)
    for _ in range(100):
        mid = 0.5 * (a + b)
        neg = slope(mid) < 0.0
        a, b = np.where(neg, mid, a), np.where(neg, b, mid)
    return np.where(slope(lo) >= 0.0, lo, 0.5 * (a + b))


class TestCertificate:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 64),
        M=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lower_end_never_beaten(self, n, M, seed):
        tol = 1e-9
        lower, upper, _ = _family_bracket(n, M, tol)
        assert upper - lower <= tol
        rng = np.random.default_rng(seed)
        # Random members, with prefixes up to and at x = 1 (where I = M^2).
        xs = np.concatenate(
            ([0.0, 1.0], rng.uniform(0.0, 1.0, 500), 1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 500))
        )
        ks = rng.uniform((1.0 - xs) / (n - xs), 1.0)
        assert family_I(xs, ks, M).min() >= lower
        grid = np.linspace(0.0, 1.0, 4001)[:-1]
        assert family_I(grid, exact_level(grid, M, n), M).min() >= lower

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        M=st.floats(0.05, 50.0),
        ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segment_bound(self, n, M, ends, seed):
        x0, x1 = sorted(ends)
        lower = entropy_opt._segment_lower(x0, x1, M * M, n)
        rng = np.random.default_rng(seed)
        xs = np.concatenate(([x0, x1], rng.uniform(x0, x1, 200)))
        kappa = np.where(xs < 1.0, (1.0 - xs) / (n - xs), 0.5)  # any k at x = 1
        ks = np.concatenate((kappa, rng.uniform(kappa, 1.0)))
        assert family_I(np.tile(xs, 2), ks, M).min() >= lower

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(0.0, 1e4),
        A=st.floats(0.0, 1e5),
        c=st.floats(1e-6, 1.0),
        kappa=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Newton stops about 1e-26 short of a minimizer near 1e-203, so only
    # the uncertified bracket end keeps the bound.
    @example(base=0.0, A=1e5, c=1e-200, kappa=0.0, seed=0)
    def test_level_bound(self, base, A, c, kappa, seed):
        k, value, lower = entropy_opt._level_min(base, A, c, kappa)
        rng = np.random.default_rng(seed)
        ks = np.concatenate(
            (
                [kappa, 1.0],
                rng.uniform(kappa, 1.0, 250),
                kappa + (1.0 - kappa) * 10.0 ** rng.uniform(-300.0, 0.0, 250),
            )
        )
        ks = ks[ks > 0.0]
        h = base + A * ks + c * np.log2(ks) ** 2
        assert kappa <= k <= 1.0
        assert lower <= value
        assert h.min() >= lower
        assert value <= h.min() * (1.0 + 1e-12) + 1e-12

    @pytest.mark.parametrize("n,M", [(2048, critical_scale(2048)), (4, 300.0)])
    def test_large_I_still_certified(self, n, M):
        # Uniform step at both: the critical scale, and a large M at n = 4.
        y, value = minimize_I(n, M)
        assert len(y.pieces) == 1
        assert y.pieces[0][1] == pytest.approx(1.0 / n, abs=1e-9)

    @pytest.mark.parametrize("n,M", [(1, 0.7), (4, 0.1), (7, 2.0), (16, critical_scale(16))])
    def test_value_is_I_of_the_returned_step(self, n, M):
        y, value = minimize_I(n, M)
        assert value == I_eval(y, M)
        lower, upper, _ = _family_bracket(n, M, 1e-9)
        assert lower <= value <= upper + 1e-15 * upper

    def test_unreachable_tol_raises_at_once(self):
        # I* = 250004, so no bracket gets narrower than 2^-47 I* > 1e-9:
        # the search says so within a few splits, not after MAX_SPLITS.
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="cannot narrow to 1e-09"):
            minimize_I(4, 1000.0)
        assert time.perf_counter() - t0 < 0.1

    def test_split_budget(self, monkeypatch):
        monkeypatch.setattr(entropy_opt, "MAX_SPLITS", 3)
        with pytest.raises(ConvergenceError, match="3 splits"):
            minimize_I(4, critical_scale(4))

    def test_budget_exhaustion_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(entropy_opt, "MAX_SPLITS", 3)
        code = main(["opt-entropy", "--n", "4"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err.startswith("numerical failure: bracket [")
