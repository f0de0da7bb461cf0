"""Acceptance suite: one test per numbered criterion, each enforcing its
stated tolerances and runtime budget and printing a [PASS]/[FAIL] line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criterion 6 checks the equalized dyadic ratio against 0.768116995, the
9-digit truncation of its true value 0.7681169955...; the displayed
constant 0.76811996 drops a digit and exceeds the limit it bounds.
"""

import math
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import exact_simplex_distance, random_interior_simplex, regular_simplex

from approxconvex.constructions import (
    ConstructionSpec,
    build_entropy_set,
    critical_scale,
    dyadic_scale_ratio,
    euclid_witness_distance,
    general_bound,
    l1_bound,
    lowbound3,
    typep_bound,
)
from approxconvex.core import NormSpec, Vector
from approxconvex.entropy import affine_defect, entropy_E_array, kappa, kappa_table
from approxconvex.entropy_opt import I_eval, StepFunction, minimize_I
from approxconvex.hulls import diameter
from approxconvex.simplexgeo import alpha, best_subset, face_chain
from approxconvex.treespace import (
    build_phi,
    downward_closure,
    functional_eval,
    haus_experiment,
    jensen_defect,
    leaf,
    pair,
    tree_norm,
)

L2 = NormSpec.lp(2)
LN2 = math.log(2.0)


@contextmanager
def criterion(num: int, desc: str = "", budget: float = 0.0):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"[FAIL] criterion {num}: {desc} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_kappa_table():
    with criterion(1, desc="kappa table over n <= 2^20", budget=1.0):
        tab = kappa_table(2**20)
        lower, formula, upper = tab[:, 0], tab[:, 1], tab[:, 2]
        assert np.all(lower <= formula)
        assert np.all(formula <= upper)
        assert kappa(1).formula == 1.0
        assert abs(kappa(2).formula - 5.0 / 3.0) <= 1e-12
        for k in range(1, 21):
            assert kappa(2**k - 1).formula == float(k)


def test_criterion_2_approximate_affineness():
    with criterion(2, desc="10^5 random affineness defects", budget=5.0):
        rng = np.random.default_rng(2024)
        for n in range(1, 11):
            size = 10_000
            X = rng.dirichlet(np.ones(n + 1), size=size)
            Y = rng.dirichlet(np.ones(n + 1), size=size)
            ts = rng.uniform(size=size)
            mix = ts[:, None] * X + (1.0 - ts[:, None]) * Y
            defect = np.abs(
                entropy_E_array(mix)
                - ts * entropy_E_array(X)
                - (1.0 - ts) * entropy_E_array(Y)
            )
            assert defect.max() <= 1.0 + 1e-12
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert abs(affine_defect(e1, e2, 0.5) - 1.0) <= 1e-12


def test_criterion_3_euclidean_extremal_set():
    with criterion(3, desc="Euclidean extremal sets n in {4,8,16}", budget=30.0):
        grids = {4: 8, 8: 4, 16: 3}
        for n in (4, 8, 16):
            M = critical_scale(n)
            analytic = euclid_witness_distance(n, M, mode="analytic")
            assert abs(analytic - math.log2(n)) <= 1e-6
            numeric = euclid_witness_distance(n, M, mode="numeric")
            assert abs(numeric - analytic) <= 1e-3
            sample = build_entropy_set(
                ConstructionSpec(space=L2, n=n, M=M, grid=grids[n])
            )
            diam = diameter(sample, L2)
            bound = 2.0 / math.sqrt(LN2) * math.sqrt(n * math.log2(n)) + math.log2(n)
            assert diam <= bound + 1e-9


def test_criterion_4_variational_problem():
    with criterion(4, desc="variational minimizer is the uniform step", budget=10.0):
        rng = np.random.default_rng(99)
        for n in (4, 8, 16):
            M = critical_scale(n)
            y, value = minimize_I(n, M)
            assert len(y.pieces) == 1
            length, level = y.pieces[0]
            assert abs(length - n) <= 1e-6
            assert abs(level - 1.0 / n) <= 1e-6
            # Directly evaluated optimum (not the displayed lemma constant).
            assert abs(value - (M * M / n + math.log2(n) ** 2)) <= 1e-9
            for _ in range(334):
                yr = _random_step(rng, n)
                assert I_eval(yr, M) >= value - 1e-9


def _random_step(rng, n, max_pieces=8):
    while True:
        m = int(rng.integers(1, max_pieces + 1))
        lengths = rng.dirichlet(np.ones(m)) * n
        masses = rng.dirichlet(np.ones(m))
        values = masses / lengths
        if values.max() <= 1.0:
            return StepFunction(pieces=tuple(zip(lengths, values)), domain=float(n))


def test_criterion_5_simplex_geometry():
    with criterion(5, desc="near faces and subset selection", budget=60.0):
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            for _ in range(500):
                V = random_interior_simplex(rng, n)
                for k, res in enumerate(face_chain(V)):
                    assert res.distance <= alpha(n, k) + 1e-9
            Vreg = regular_simplex(n)
            for k, res in enumerate(face_chain(Vreg)):
                assert abs(res.distance - alpha(n, k)) <= 1e-9
        # Subset selection against exhaustive enumeration, n <= 5.
        from itertools import combinations

        for n in range(2, 6):
            for _ in range(8):
                P = random_interior_simplex(rng, n)
                P = P * rng.uniform(0.4, 1.0, size=(n + 1, 1))
                for j in range(1, n + 1):
                    res = best_subset(P, j)
                    bound = math.sqrt((n + 1 - j) / (n * j))
                    assert res.distance <= bound + 1e-9
                    optimal = min(
                        exact_simplex_distance(P[list(sub)])
                        for sub in combinations(range(n + 1), j)
                    )
                    assert optimal <= res.distance + 1e-9


def test_criterion_6_diameter_lower_bound():
    with criterion(6, desc="diameter lower-bound factors", budget=5.0):
        for n in range(20, 10_001):
            assert lowbound3(n)[1] >= 0.7525
        for n in (10**6, 3_162_278, 10**7, 10**8):
            assert lowbound3(n)[1] >= 0.768
        # a = 9.109883742 rounds the root 9.10988374174 of F(a) = F(2a),
        # F(a) = (log2 a - 1)/sqrt(a - 1), where F = 0.76811699552548; the
        # displayed 0.76811996 is 0.768116996 with a digit dropped.
        a = 9.109883742
        ratio = dyadic_scale_ratio(a)
        assert ratio >= 0.768116995
        with localcontext() as ctx:
            ctx.prec = 40
            d = Decimal(a)
            exact = (d.ln() / Decimal(2).ln() - 1) / (d - 1).sqrt()
        assert abs(ratio - float(exact)) <= 1e-15
        assert abs(ratio - dyadic_scale_ratio(2 * a)) <= 1e-11


def test_criterion_7_l1_and_general_bounds():
    with criterion(7, desc="l1/general bound reports", budget=1.0):
        rep = l1_bound(1024, 1.0)
        assert (rep.M_used, rep.hausdorff_lb, rep.diam_ub) == (40.0, 9.0, 90.0)
        ns = list(range(2, 8193)) + list(range(8193, 65537, 8))
        for n in ns:
            for eps in (0.5, 1.0):
                r = l1_bound(n, eps)
                assert r.hausdorff_lb <= r.diam_ub
            # eps = 2 lies outside the l1 precondition (open interval);
            # the general evaluator covers it.
            for eps in (0.5, 1.0, 2.0):
                r = general_bound(n, eps, 1.0)
                assert r.hausdorff_lb <= r.diam_ub


def _tree_vector_population(rng):
    """200 vectors: mostly small closures, a tail reaching toward 500."""

    def rand_label(max_lv, hi=600):
        if max_lv <= 1 or rng.random() < 0.4:
            return leaf(int(rng.integers(1, hi)))
        lv = int(rng.integers(1, max_lv))
        return pair(rand_label(lv, hi), rand_label(max_lv - lv, hi))

    out = []
    for _ in range(150):
        labs = {rand_label(6) for _ in range(int(rng.integers(1, 6)))}
        out.append(Vector({l: float(rng.uniform(-2, 2)) for l in labs}))
    for _ in range(40):
        labs = {rand_label(10) for _ in range(int(rng.integers(4, 16)))}
        out.append(Vector({l: float(rng.uniform(-2, 2)) for l in labs}))
    for _ in range(10):
        labs = set()
        while len(downward_closure(labs)) < 260:
            labs.add(rand_label(12))
        out.append(Vector({l: float(rng.uniform(-2, 2)) for l in labs}))
    return [x if x else Vector.unit(leaf(1)) for x in out]


def test_criterion_8_tree_space_duality():
    with criterion(8, desc="tree norm duality on 200 random vectors", budget=120.0):
        rng = np.random.default_rng(8)
        vectors = _tree_vector_population(rng)
        assert len(vectors) == 200
        for i, x in enumerate(vectors):
            closure = downward_closure(x.support())
            assert len(closure) <= 500
            M = float(i % 3 + 1)
            primal, dual = tree_norm(x, M, tol=1e-7)
            assert abs(primal - dual) <= 1e-7
            l1n = sum(abs(v) for _, v in x.items())
            assert 0.5 * l1n - 1e-7 <= primal <= M * l1n + 1e-7


def test_criterion_9_worst_possible_set():
    with criterion(9, desc="worst-possible set experiments", budget=120.0):
        rng = np.random.default_rng(9)

        def rand_label(max_lv):
            if max_lv <= 1 or rng.random() < 0.45:
                return leaf(int(rng.integers(1, 50)))
            lv = int(rng.integers(1, max_lv))
            return pair(rand_label(lv), rand_label(max_lv - lv))

        for _ in range(50):
            b, c = rand_label(6), rand_label(6)
            assert jensen_defect(b, c, 2.0) <= 1.0 + 1e-9

        M = 2
        previous = -np.inf
        for N in (32, 64, 128, 256, 512):
            value = haus_experiment(M, N)
            assert value >= 2 * M - 2 ** (2 * M + 1) * M / N
            assert value <= 2 * M + 1e-12
            assert value >= previous - 1e-12  # increases toward 2M
            previous = value
            # Re-derive the certificate explicitly: each candidate value
            # comes from a validated dual-feasible functional.
            leaves = [leaf(i) for i in range(1, N + 1)]
            avg = Vector({l: 1.0 / N for l in leaves})
            a = pair(leaves[0], leaves[1])
            phi = build_phi(a, M, downward_closure(set(leaves) | {a}))
            phi.validate(tol=0.0)
            assert functional_eval(phi, Vector.unit(a) - avg) >= value - 1e-12
        assert 2 * M - previous <= 2 ** (2 * M + 1) * M / 512 + 1e-12


def test_criterion_10_type_p_evaluator():
    with criterion(10, desc="type-p diameter bound evaluator", budget=1.0):
        assert abs(typep_bound(2.0, 1.0, 2.0) - 0.35355339059327373) <= 1e-9
        with pytest.raises(ValueError):
            typep_bound(2.0, 1.0, 1.99)
        n = 16
        sample = build_entropy_set(
            ConstructionSpec(space=L2, n=n, M=critical_scale(n), grid=2)
        )
        measured = diameter(sample, L2)
        assert measured >= typep_bound(2.0, 1.0, 4.0)
