import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxconvex import constructions
from approxconvex.constructions import (
    BoundReport,
    ConstructionSpec,
    build_entropy_set,
    critical_scale,
    diam_factor,
    dyadic_scale_ratio,
    euclid_witness_distance,
    general_bound,
    l1_bound,
    lowbound3,
    lp_distance_to_l1,
    typep_bound,
    witness,
)
from approxconvex.core import NormSpec, simplex_grid_array
from approxconvex.entropy import entropy_E, entropy_E_array, phi
from approxconvex.hulls import convexity_defect, diameter, dist_to_hull, hausdorff_lb
from approxconvex.optim import ConvergenceError

L2 = NormSpec.lp(2)
LN2 = math.log(2.0)


def spec_l2(n, M, grid, variant="full"):
    return ConstructionSpec(space=L2, n=n, M=M, grid=grid, variant=variant)


class TestBuildEntropySet:
    def test_vertex_sample(self):
        A = build_entropy_set(spec_l2(3, 5.0, 1))
        pts = {tuple(row) for row in A.matrix.tolist()}
        # Vertices of the parameter simplex map to M e_i with zero height.
        assert pts == {(0.0, 5.0, 0.0, 0.0), (0.0, 0.0, 5.0, 0.0), (0.0, 0.0, 0.0, 5.0)}

    def test_midpoint_height(self):
        A = build_entropy_set(spec_l2(2, 2.0, 2))
        assert len(A) == 3
        heights = sorted(A.matrix[:, 0])
        assert heights == pytest.approx([0.0, 0.0, 1.0])

    def test_anchored_variant_has_origin_vertex(self):
        A = build_entropy_set(spec_l2(3, 2.0, 1, variant="anchored"))
        assert any(not row.any() for row in A.matrix)  # the t = e_n vertex is 0
        assert A.matrix.shape[1] <= 3  # height axis + 2 horizontal axes

    @pytest.mark.parametrize("variant", ["full", "anchored"])
    @pytest.mark.parametrize("n, grid", [(3, 1), (4, 3), (6, 5)])
    def test_matrix_matches_reference(self, variant, n, grid):
        M = 2.7
        A = build_entropy_set(spec_l2(n, M, grid, variant))
        n_horiz = n if variant == "full" else n - 1
        T = simplex_grid_array(n, grid)
        heights = [entropy_E(t) for t in T]
        horiz = [[M * t[i] for i in range(n_horiz)] for t in T]
        ref = np.column_stack([heights, horiz])
        assert A.matrix.shape == ref.shape == (len(T), n_horiz + 1)
        assert A.matrix.tobytes() == ref.tobytes()
        if grid == 1:
            # Only vertices: the height column is kept, all zeros.
            assert A.matrix[:, 0].tobytes() == np.zeros(len(T)).tobytes()

    def test_grid_overflow_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            build_entropy_set(spec_l2(12, 1.0, 64))

    def test_sampled_defect_with_mesh_allowance(self):
        # Approximate convexity survives sampling up to a mesh term:
        # M * |t-s|_p + entropy modulus, with |t-s| <= 1/grid per axis.
        n, grid, M = 3, 12, 3.0
        A = build_entropy_set(spec_l2(n, M, grid))
        rep = convexity_defect(A, L2, t_grid=5)
        delta = 1.0 / grid
        mesh = M * delta * n ** 0.5 + n * (phi(delta) + delta / LN2)
        assert rep.sup_defect <= 1.0 + mesh

    def test_anchored_defect_in_linf(self):
        # The anchored construction is approximately convex under any
        # norm with a unit height axis; check it in l-infinity.
        n, grid, M = 3, 10, 2.0
        A = build_entropy_set(
            ConstructionSpec(space=NormSpec.lp(math.inf), n=n, M=M, grid=grid, variant="anchored")
        )
        rep = convexity_defect(A, NormSpec.lp(math.inf), t_grid=5)
        delta = 1.0 / grid
        mesh = M * delta + n * (phi(delta) + delta / LN2)
        assert rep.sup_defect <= 1.0 + mesh

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec_l2(1, 1.0, 2)
        with pytest.raises(ValueError, match="need a finite M, got inf"):
            spec_l2(3, math.inf, 2)
        with pytest.raises(ValueError):
            spec_l2(3, 0.0, 2)
        with pytest.raises(ValueError):
            spec_l2(3, 1.0, 0)
        with pytest.raises(ValueError):
            ConstructionSpec(space=L2, n=3, M=1.0, grid=2, variant="weird")

    @pytest.mark.parametrize("field, value", [
        ("n", math.nan), ("n", 2.5), ("n", 4.0),
        ("grid", math.nan), ("grid", 2.5), ("grid", 3.0), ("grid", True),
    ])
    def test_spec_rejects_non_integer_counts(self, field, value):
        # build_entropy_set would fail later, in math.comb.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ConstructionSpec(space=L2, **{"n": 3, "M": 1.0, "grid": 2, field: value})


class TestWitness:
    def test_two_axes(self):
        w = witness(spec_l2(2, 2.0, 2))
        assert dict(w.items()) == {1: 1.0, 2: 1.0}

    def test_l2_norm(self):
        for n in (2, 5, 9):
            M = 3.0
            w = witness(spec_l2(n, M, 2))
            assert np.linalg.norm(w.to_array(range(n + 1))) == pytest.approx(M / math.sqrt(n), abs=1e-12)

    def test_membership(self):
        sp = spec_l2(4, 2.5, 4)
        A = build_entropy_set(sp)
        assert dist_to_hull(witness(sp), A, L2) <= 1e-6

    def test_anchored(self):
        w = witness(spec_l2(3, 3.0, 2, variant="anchored"))
        assert dict(w.items()) == {1: 1.0, 2: 1.0}

    def test_anchored_membership(self):
        sp = spec_l2(4, 2.0, 4, variant="anchored")
        A = build_entropy_set(sp)
        assert dist_to_hull(witness(sp), A, L2) <= 1e-6


class TestEuclidWitnessDistance:
    def test_critical_scale_value(self):
        assert critical_scale(16) == pytest.approx(math.sqrt(128.0 / LN2), abs=1e-12)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_critical_scale_rejects_non_finite(self, n):
        with pytest.raises(ValueError, match="need a finite n"):
            critical_scale(n)

    @pytest.mark.parametrize("n,expected", [(16, 4.0), (4, 2.0)])
    def test_analytic(self, n, expected):
        assert euclid_witness_distance(n, critical_scale(n)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_analytic_requires_critical_scale(self):
        with pytest.raises(ValueError, match="critical"):
            euclid_witness_distance(16, 1.0, mode="analytic")
        with pytest.raises(ValueError, match="n >= 4"):
            euclid_witness_distance(3, critical_scale(3), mode="analytic")

    def test_numeric_matches_grid_oracle(self):
        # Oracle: exhaustive parameter grid at mesh 1/100.
        T = simplex_grid_array(4, 100)
        g = (T * T).sum(axis=1) + entropy_E_array(T) ** 2
        oracle = math.sqrt(g.min() - 0.25)
        numeric = euclid_witness_distance(4, 1.0, mode="numeric")
        assert numeric <= oracle + 1e-9  # grid is only an upper bound
        assert numeric == pytest.approx(oracle, abs=1e-3)

    def test_numeric_agrees_with_analytic(self):
        for n in (4, 8, 16, 32):
            M = critical_scale(n)
            assert euclid_witness_distance(n, M, mode="numeric") == pytest.approx(
                math.log2(n), abs=1e-8
            )

    def test_numeric_below_explicit_point(self):
        # The minimizer lies near the vertex (1, 0, 0), off every grid
        # the test could afford; this point pins the value from above.
        n, M = 3, 0.5
        t = np.array([0.99697, 0.00303, 0.0])
        explicit = math.sqrt(g_values(t, M) - M * M / n)
        assert explicit <= 0.40747914
        numeric = euclid_witness_distance(n, M, mode="numeric", tol=1e-9)
        assert numeric <= 0.40747914
        assert numeric <= explicit + 1e-9

    def test_negative_radicand_reported(self, monkeypatch):
        import approxconvex.constructions as cons

        monkeypatch.setattr(
            cons,
            "min_smooth_over_simplex",
            lambda *a, **k: (None, 0.0),
        )
        with pytest.raises(ArithmeticError, match="radicand"):
            cons.euclid_witness_distance(4, 1.0, mode="numeric")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            euclid_witness_distance(4, 1.0, mode="nonsense")

    @pytest.mark.parametrize("M", [math.inf, -math.inf, math.nan])
    def test_non_finite_scale_rejected_before_the_search(self, monkeypatch, M):
        def forbidden(*args, **kwargs):
            raise AssertionError("the search ran on a non-finite scale")

        monkeypatch.setattr(constructions, "min_smooth_over_simplex", forbidden)
        with pytest.raises(ValueError, match="need a finite M"):
            euclid_witness_distance(4, M, mode="numeric")


def g_values(T, M):
    """g(t) = M^2 ||t||^2 + E(t)^2, row-wise."""
    return M * M * (T * T).sum(axis=-1) + entropy_E_array(T) ** 2


class TestWitnessBracket:
    @pytest.mark.parametrize(
        "n,M", [(2, 1.0), (2, 0.05), (3, 0.5), (3, 4.0), (4, 1.0), (4, critical_scale(4))]
    )
    def test_against_grid(self, n, M):
        tol = 1e-9
        lower, upper = constructions.min_smooth_over_simplex(n, M, tol)
        grid_min = float(g_values(simplex_grid_array(n, 100), M).min())
        assert lower <= grid_min
        assert upper <= grid_min + tol
        base = M * M / n
        assert math.sqrt(upper - base) - math.sqrt(max(lower - base, 0.0)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        M=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lower_end_never_beaten(self, n, M, seed):
        rng = np.random.default_rng(seed)
        lower, upper = constructions.min_smooth_over_simplex(n, M, 1e-9)
        assert lower <= upper
        spread = rng.dirichlet(np.full(n, 0.3), size=2000)
        # Near-vertex points: a vertex moved by 10^-12 .. 10^-1 toward
        # a Dirichlet point.
        s = 10.0 ** rng.uniform(-12.0, -1.0, size=(2000, 1))
        vertices = np.eye(n)[rng.integers(n, size=2000)]
        near = (1.0 - s) * vertices + s * rng.dirichlet(np.ones(n), size=2000)
        assert g_values(np.vstack([spread, near]), M).min() >= lower

    @pytest.mark.parametrize(
        "n,M,bracket",
        [
            (16, critical_scale(16), (27.541560319778835, 27.541560327111707)),
            (32, critical_scale(32), (39.42695039906163, 39.42695040888963)),
            (8, 2.0, (2.999999997205819, 3.0)),
            (3, 0.5, (0.24937257866971319, 0.24937257943525826)),
        ],
    )
    def test_bracket_is_pinned(self, n, M, bracket):
        # Bit for bit: the split order, ties included, decides both ends.
        assert constructions.min_smooth_over_simplex(n, M, 1e-9) == bracket

    def test_split_budget(self, monkeypatch):
        monkeypatch.setattr(constructions, "EUCLID_MAX_SPLITS", 3)
        with pytest.raises(ConvergenceError, match="3 splits"):
            constructions.min_smooth_over_simplex(8, 2.0, 1e-9)


class TestBounds:
    def test_l1_exact_values(self):
        rep = l1_bound(1024, 1.0)
        assert rep.M_used == 40.0
        assert rep.hausdorff_lb == 9.0
        assert rep.diam_ub == 90.0
        assert rep.validity_condition is True

    def test_l1_vacuous_regime(self):
        rep = l1_bound(2, 1.0)
        assert rep.hausdorff_lb == 0.0
        assert rep.validity_condition is False

    def test_l1_eps_range(self):
        with pytest.raises(ValueError):
            l1_bound(16, 0.0)
        with pytest.raises(ValueError):
            l1_bound(16, 2.0)

    def test_general_example(self):
        rep = general_bound(256, 1.0, lp_distance_to_l1(256, 2.0))
        assert rep.diam_ub == pytest.approx(25.0 * 64.0 * 16.0, abs=1e-9)
        assert rep.hausdorff_lb == pytest.approx(7.0, abs=1e-12)

    def test_general_reduces_to_l1_regime(self):
        n, eps = 64, 1.5
        rep = general_bound(n, eps, 1.0)
        assert rep.diam_ub == pytest.approx(25.0 * math.log2(n) ** 2 / eps, abs=1e-9)

    def test_general_validation(self):
        with pytest.raises(ValueError):
            general_bound(16, 3.0, 2.0)
        with pytest.raises(ValueError):
            general_bound(16, 1.0, 0.5)

    def test_lb_below_ub_sweep(self):
        for n in (2, 7, 64, 4096):
            for eps in (0.5, 1.0, 1.9):
                rep = l1_bound(n, eps)
                assert rep.hausdorff_lb <= rep.diam_ub
            for eps in (0.5, 1.0, 2.0):
                rep = general_bound(n, eps, 4.0)
                assert rep.hausdorff_lb <= rep.diam_ub

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(M_used=1.0, hausdorff_lb=5.0, diam_ub=1.0, validity_condition=True)
        for lb, ub in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="hausdorff_lb <= diam_ub"):
                BoundReport(M_used=1.0, hausdorff_lb=lb, diam_ub=ub, validity_condition=True)

    @pytest.mark.parametrize("args", [(8, math.nan, 1.0), (8, 1.0, math.nan)])
    def test_general_rejects_nan(self, args):
        with pytest.raises(ValueError, match="got nan"):
            general_bound(*args)

    def test_lp_distance_validation(self):
        with pytest.raises(ValueError):
            lp_distance_to_l1(16, 3.0)
        assert lp_distance_to_l1(256, 2.0) == pytest.approx(16.0)


class TestLowbound3:
    def test_j1_recovers_log_term(self):
        for n in (10, 100, 1000):
            assert diam_factor(1, n) * math.sqrt(n) == pytest.approx(
                math.log2(n) - 1.0, abs=1e-12
            )

    def test_dyadic_ratio_constant(self):
        # 9.109883742 equalizes the ratio at the two ends of a dyadic
        # bracket; the common value is 0.7681169955..., comfortably above
        # the 0.768 threshold actually used downstream.
        v = dyadic_scale_ratio(9.109883742)
        assert v == pytest.approx(0.768116995527643, abs=1e-12)
        assert v >= 0.768
        assert dyadic_scale_ratio(2 * 9.109883742) >= 0.768

    def test_matches_bruteforce(self):
        for n in (20, 37, 100, 513, 999, 2048):
            best_j, best_f = lowbound3(n)
            brute_f = max(diam_factor(j, n) for j in range(1, n + 1))
            assert best_f == pytest.approx(brute_f, abs=1e-14)
            assert diam_factor(best_j, n) == best_f

    def test_threshold_spot_checks(self):
        assert all(lowbound3(n)[1] >= 0.7525 for n in (20, 50, 777, 10_000))
        assert lowbound3(10**6)[1] >= 0.768

    def test_validation(self):
        with pytest.raises(ValueError):
            lowbound3(1)
        with pytest.raises(ValueError):
            diam_factor(0, 5)
        with pytest.raises(ValueError):
            dyadic_scale_ratio(1.0)
        with pytest.raises(ValueError, match="got nan"):
            dyadic_scale_ratio(math.nan)

    @pytest.mark.parametrize("n", [20.0, math.nan, True])
    def test_rejects_non_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            lowbound3(n)


class TestTypePBound:
    def test_example(self):
        assert typep_bound(2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(8.0) / 16.0 * 2.0, abs=1e-12
        )

    def test_monotone_in_d(self):
        vals = [typep_bound(1.5, 2.0, d) for d in (2.0, 3.0, 5.0, 9.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_d_naming_hypothesis(self):
        with pytest.raises(ValueError, match="d >= 2"):
            typep_bound(2.0, 1.0, 1.5)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            typep_bound(1.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            typep_bound(2.5, 1.0, 3.0)
        with pytest.raises(ValueError):
            typep_bound(2.0, 0.5, 3.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 3.0), (2.0, math.nan, 3.0), (2.0, 1.0, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError, match="got nan"):
            typep_bound(*args)

    def test_sqrt_n_scaling(self):
        # With d = log2(n) - 1 the bound scales like sqrt(n) for p = 2.
        for n in (2**6, 2**10):
            val = typep_bound(2.0, 1.0, math.log2(n) - 1.0)
            assert val == pytest.approx(
                math.sqrt(8.0) / 16.0 * math.sqrt(n / 2.0), rel=1e-12
            )


class TestSampledSetConsistency:
    def test_witness_lb_reaches_entropy_height(self):
        # Distance to a subset can only exceed the full-set distance,
        # which is exactly log2(n) at the critical scale.
        for n, grid in ((4, 64), (8, 12), (16, 3)):
            sp = spec_l2(n, critical_scale(n), grid)
            A = build_entropy_set(sp)
            lb = hausdorff_lb(A, [witness(sp)], L2)
            assert lb >= math.log2(n) - 0.1

    def test_hull_height_gap_bounded(self, rng):
        # Every hull point is within log2(n) of the parametrized point
        # with the same horizontal part.
        n, grid, M = 4, 8, critical_scale(4)
        sp = spec_l2(n, M, grid)
        A = build_entropy_set(sp)
        X = A.matrix
        h_col = 0  # the height axis
        for _ in range(100):
            w = rng.dirichlet(np.ones(len(A)))
            z = w @ X
            tbar = np.delete(z, h_col) / M  # n horizontal weights, sum 1
            gap = abs(z[h_col] - entropy_E_array(tbar))
            assert gap <= math.log2(n) + 1e-9

    def test_diameter_bounds(self):
        for n, grid in ((4, 8), (16, 2), (20, 2)):
            M = critical_scale(n)
            A = build_entropy_set(spec_l2(n, M, grid))
            diam = diameter(A, L2)
            upper = 2.0 / math.sqrt(LN2) * math.sqrt(n * math.log2(n)) + math.log2(n)
            assert diam <= upper + 1e-9
            if n >= 20:
                assert diam >= 0.7525 * math.sqrt(n)
            assert diam >= typep_bound(2.0, 1.0, math.log2(n))


class TestArgumentTypes:
    # A bracket search cannot end at width 0, so 0 is rejected with NaN,
    # infinite and negative widths, before any split.
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    @pytest.mark.parametrize(
        "search",
        [
            lambda tol: euclid_witness_distance(6, 3.0, mode="numeric", tol=tol),
            lambda tol: constructions.min_smooth_over_simplex(6, 3.0, tol),
        ],
        ids=["euclid_witness_distance", "min_smooth_over_simplex"],
    )
    def test_bad_tol_is_rejected_at_once(self, search, tol, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(constructions, "_best_first", no_search)
        with pytest.raises(ValueError, match="need tol > 0 and finite"):
            search(tol)

    @pytest.mark.parametrize("n", [2.5, 4.0, True])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            euclid_witness_distance(n, 1.0)
