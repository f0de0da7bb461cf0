"""Seeded inputs and task lists for the three benchmark workloads.

A task is one certified public call of the library (or a short fixed
group of them) plus its inline check: the call's certificate, or the
paper bound it must meet.  Each task
also carries an oracle, an independent check that runs once after the
timed passes.  Inputs come only from the seed; their shape (counts,
closure-size targets, point counts) is fixed, so timings from different
seeds stay comparable.

Library functions are always called through their module
(``treespace.tree_norm``, not ``approxconvex.tree_norm``) so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from approxconvex import constructions, entropy, hulls, simplexgeo, treespace
from approxconvex.core import NormSpec, Vector
from approxconvex.labels import downward_closure, label_sort_key, leaf, pair

import oracle

INF = float("inf")
NAMES = ("tree-lp", "hull-scan", "face-descent")


class CheckFailed(Exception):
    """A result was returned but its certificate or paper bound is wrong."""


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Task:
    """``run(ctx)`` does the timed work and returns the result values;
    ``ctx`` is a dict shared by the tasks of one pass.  ``oracle(result,
    results)`` returns None or a disagreement message; ``results`` holds
    every task's result from the same pass."""

    kind: str
    run: Callable[[dict], tuple]
    oracle: Callable[[tuple, list], str | None] | None = None


@dataclass
class Workload:
    tasks: list[Task]
    warm_up: Callable[[], None]
    inputs: list = field(repr=False)
    shape: dict = field(default_factory=dict)


def digest(values) -> str:
    """Bit-exact fingerprint: float reprs round-trip exactly."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def build(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = np.random.default_rng(seed)
    return {"tree-lp": _tree_lp, "hull-scan": _hull_scan, "face-descent": _face_descent}[name](rng)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# tree-lp: tree norms (equality-row LP), the dual LP cross-check
# (inequality rows with box bounds) and one large haus_experiment.
# ---------------------------------------------------------------------------

# (closure-size target, max label level) for each vector, in the shape of
# acceptance criterion 8: 150 small closures, 80 medium ones, and a tail of
# closures from 260 to 500 where nearly all the LP time goes.  p95 falls
# among the largest medium closures; 80 of them keep it steady across seeds.
TREE_TARGETS = (
    [(int(round(t)), 6) for t in np.linspace(3, 30, 150)]
    + [(int(round(t)), 10) for t in np.linspace(30, 160, 80)]
    + [(int(round(t)), 12) for t in np.linspace(260, 500, 5)]
)
TREE_TOL = 1e-7
DUAL_SUBSET = 30
HAUS_M, HAUS_N = 3, 16384
ORACLE_REL = 1e-7  # agreement with HiGHS, relative to max(1, |value|)


def _tree_vector(rng, target: int, max_level: int) -> Vector:
    def rand_label(max_lv):
        if max_lv <= 1 or rng.random() < 0.4:
            return leaf(int(rng.integers(1, 600)))
        lv = int(rng.integers(1, max_lv))
        return pair(rand_label(lv), rand_label(max_lv - lv))

    labels: set = set()
    while len(downward_closure(labels)) < target:
        labels.add(rand_label(max_level))
    # Sorted, so that values do not depend on set iteration order.
    ordered = sorted(labels, key=label_sort_key)
    return Vector({lab: float(rng.uniform(-2.0, 2.0)) for lab in ordered})


def _tree_lp(rng) -> Workload:
    vectors = [_tree_vector(rng, t, lv) for t, lv in TREE_TARGETS]
    closures = [len(downward_closure(x.support())) for x in vectors]
    scales = [float(i % 3 + 1) for i in range(len(vectors))]
    body = len(vectors) - sum(1 for t, _ in TREE_TARGETS if t >= 260)
    dual_idx = sorted(int(i) for i in rng.choice(body, DUAL_SUBSET, replace=False))

    def norm_task(x, M):
        def run(ctx):
            primal, dual = treespace.tree_norm(x, M, tol=TREE_TOL)
            l1n = sum(abs(v) for _, v in x.items())
            check(abs(primal - dual) <= TREE_TOL, f"duality gap {primal - dual:.3e}")
            check(0.5 * l1n - TREE_TOL <= primal <= M * l1n + TREE_TOL, "l1 sandwich violated")
            return (primal, dual)

        def verify(result, _results):
            ref = oracle.tree_norm_highs(x, M)
            if not _close(result[0], ref, ORACLE_REL):
                return f"tree norm {result[0]!r} vs HiGHS {ref!r}"
            return None

        return Task("tree_norm", run, verify)

    def dual_task(x, M):
        def run(ctx):
            value = treespace.tree_norm_dual_lp(x, M)
            l1n = sum(abs(v) for _, v in x.items())
            check(0.5 * l1n - TREE_TOL <= value <= M * l1n + TREE_TOL, "l1 sandwich violated")
            return (value,)

        def verify(result, _results):
            ref = oracle.tree_norm_highs(x, M)
            if not _close(result[0], ref, ORACLE_REL):
                return f"dual LP {result[0]!r} vs HiGHS {ref!r}"
            return None

        return Task("dual_lp", run, verify)

    def haus(ctx):
        value = treespace.haus_experiment(HAUS_M, HAUS_N)
        floor = 2 * HAUS_M - 2.0 ** (2 * HAUS_M + 1) * HAUS_M / HAUS_N
        check(floor - 1e-12 <= value <= 2 * HAUS_M + 1e-12, f"haus value {value} outside bounds")
        return (value,)

    tasks = [norm_task(x, M) for x, M in zip(vectors, scales)]
    tasks += [dual_task(vectors[i], scales[i]) for i in dual_idx]
    tasks.append(Task("haus", haus))

    def warm_up():
        x = Vector({pair(leaf(1), leaf(2)): 1.0, leaf(3): -0.5})
        treespace.tree_norm(x, 2.0, tol=TREE_TOL)
        treespace.tree_norm_dual_lp(x, 2.0)
        treespace.haus_experiment(1, 8)

    inputs = [sorted((lab._name, v) for lab, v in x.items()) for x in vectors]
    inputs += [scales, dual_idx]
    shape = {
        "vectors": len(vectors),
        "closure_sizes": closures,
        "tail_closures": closures[body:],
        "dual_subset": len(dual_idx),
        "haus": [HAUS_M, HAUS_N],
    }
    return Workload(tasks, warm_up, inputs, shape)


# ---------------------------------------------------------------------------
# hull-scan: convexity-defect scans, Hausdorff witnesses, the n=16
# Euclidean set with off-hull distance queries, and one ~1e5-point set
# (build, dense matrix and l1 witness LP timed as one task).
# ---------------------------------------------------------------------------

DEFECT_NORMS = (INF, 1.0, 2.0)
# t_grid 3 (t = 0, 1/2, 1) keeps a pass short enough for several passes a run.
DEFECT_N, DEFECT_GRID, DEFECT_T_GRID = 6, 5, 3
EUCLID_N, EUCLID_GRID = 16, 3
# Off-hull queries on the 816-point set under l1 and linf: dense hull
# LPs, one query per task.  They are not asked under l2: there the
# away-step Frank-Wolfe kernel fails to certify a few queries in a
# thousand (KNOWN_L2_FAILURES), and a benchmark workload must not fail.
QUERIES = 150
# (seed, query index) of off-hull queries whose l2 dist_to_hull raises
# ConvergenceError at the default tol; test_perfbench.py reproduces them.
KNOWN_L2_FAILURES = ((10, 5), (21, 100), (960388346, 60))
BIG_N, BIG_GRID = 8, 14


def euclid_spec() -> constructions.ConstructionSpec:
    """The n=16 Euclidean extremal set (816 points) the queries run against."""
    return constructions.ConstructionSpec(
        space=NormSpec.lp(2), n=EUCLID_N, M=constructions.critical_scale(EUCLID_N), grid=EUCLID_GRID
    )


def _allowance(spec: constructions.ConstructionSpec) -> float:
    """The defect a grid sample may show: 1 plus the mesh error (the
    bound the lp-set experiment checks)."""
    n, p, delta = spec.n, spec.space.p, 1.0 / spec.grid
    return 1.0 + spec.M * delta * n ** (1.0 / p) + n * (entropy.phi(delta) + delta / math.log(2.0))


def _hull_scan(rng) -> Workload:
    base_M = 4.0 * math.log2(DEFECT_N)
    defect_specs = [
        constructions.ConstructionSpec(
            space=NormSpec.lp(p), n=DEFECT_N, M=base_M * float(rng.uniform(0.9, 1.1)), grid=DEFECT_GRID
        )
        for p in DEFECT_NORMS
    ]
    euclid = euclid_spec()
    pg_seed = int(rng.integers(2**31))
    # Off-hull queries: a random point c of the hull of 1-4 sample points,
    # pushed along a random unit direction u until it is r = 0.5-3 beyond
    # the sample's support hyperplane max_i <X_i, u>, so its Euclidean
    # distance to the hull is at least r.
    X = constructions.build_entropy_set(euclid).matrix
    queries = []
    for _ in range(QUERIES):
        rows = rng.choice(len(X), int(rng.integers(1, 5)), replace=False)
        c = rng.dirichlet(np.ones(len(rows))) @ X[rows]
        u = rng.standard_normal(X.shape[1])
        u /= np.linalg.norm(u)
        queries.append(c + (float((X @ u).max() - c @ u) + rng.uniform(0.5, 3.0)) * u)
    big = constructions.ConstructionSpec(
        space=NormSpec.lp(1), n=BIG_N, M=4.0 * math.log2(BIG_N) * float(rng.uniform(0.9, 1.1)), grid=BIG_GRID
    )

    tasks: list[Task] = []
    for spec in defect_specs:
        tasks.append(_defect_task(spec))
    for spec in defect_specs:
        tasks.append(_witness_task(spec, f"set{spec.space.p}"))

    def euclid_build(ctx):
        ctx["euclid"] = constructions.build_entropy_set(euclid)
        check(len(ctx["euclid"]) == math.comb(EUCLID_GRID + EUCLID_N - 1, EUCLID_N - 1), "point count")
        return (len(ctx["euclid"]),)

    def euclid_diameter(ctx):
        value = hulls.diameter(ctx["euclid"], NormSpec.lp(2))
        n = EUCLID_N
        bound = 2.0 / math.sqrt(math.log(2.0)) * math.sqrt(n * math.log2(n)) + math.log2(n)
        check(value <= bound + 1e-9, f"diameter {value} above {bound}")
        return (value,)

    def diameter_oracle(result, _results):
        ref = oracle.diameter(X)
        return None if _close(result[0], ref, 1e-9) else f"diameter {result[0]!r} vs {ref!r}"

    def euclid_witness(ctx):
        value = constructions.euclid_witness_distance(EUCLID_N, euclid.M, mode="numeric", seed=pg_seed)
        check(abs(value - math.log2(EUCLID_N)) <= 1e-3, f"witness distance {value} is not log2 n")
        return (value,)

    tasks += [
        Task("euclid_build", euclid_build),
        Task("diameter", euclid_diameter, diameter_oracle),
        Task("euclid_witness", euclid_witness),
    ]
    for xq in queries:
        tasks += [_lp_query_task(xq, 1.0, X), _lp_query_task(xq, INF, X)]

    big_witness = constructions.witness(big)

    def big_set(ctx):
        A = constructions.build_entropy_set(big)
        check(len(A) == math.comb(BIG_GRID + BIG_N - 1, BIG_N - 1), "point count")
        check(A.matrix.shape == (len(A), BIG_N + 1), f"matrix shape {A.matrix.shape}")
        value = hulls.hausdorff_lb(A, [big_witness], big.space)
        check(value >= 0.0, f"negative Hausdorff bound {value}")
        return (len(A), value)

    tasks.append(Task("big_set", big_set, lambda result, _r: _witness_oracle(big, big_witness, result[1])))

    def warm_up():
        spec = constructions.ConstructionSpec(space=NormSpec.lp(1), n=3, M=2.0, grid=2)
        A = constructions.build_entropy_set(spec)
        w = constructions.witness(spec)
        for p in DEFECT_NORMS:
            hulls.convexity_defect(A, NormSpec.lp(p), t_grid=2)
            hulls.hausdorff_lb(A, [w], NormSpec.lp(p))
        hulls.diameter(A, NormSpec.lp(2))

    inputs = [[s.M for s in defect_specs], pg_seed, [q.tolist() for q in queries], big.M]
    shape = {
        "defect_points": math.comb(DEFECT_GRID + DEFECT_N - 1, DEFECT_N - 1),
        "euclid_points": math.comb(EUCLID_GRID + EUCLID_N - 1, EUCLID_N - 1),
        "queries": {"l1": QUERIES, "linf": QUERIES},
        "big_points": math.comb(BIG_GRID + BIG_N - 1, BIG_N - 1),
    }
    return Workload(tasks, warm_up, inputs, shape)


def _defect_task(spec) -> Task:
    key = f"set{spec.space.p}"
    norm = spec.space

    def run(ctx):
        ctx[key] = A = constructions.build_entropy_set(spec)
        rep = hulls.convexity_defect(A, norm, t_grid=DEFECT_T_GRID)
        allowance = _allowance(spec)
        check(rep.sup_defect <= allowance, f"defect {rep.sup_defect} above allowance {allowance}")
        x, y, t = rep.witness
        return (rep.sup_defect, tuple(sorted(x.items())), tuple(sorted(y.items())), t)

    def verify(result, _results):
        sup, x, y, t = result
        X = constructions.build_entropy_set(spec).matrix
        ref = oracle.defect_at(X, dict(x), dict(y), t, norm.p)
        return None if _close(sup, ref, 1e-9) else f"defect {sup!r} vs recomputed {ref!r}"

    return Task("defect", run, verify)


def _witness_task(spec, key: str) -> Task:
    w = constructions.witness(spec)

    def run(ctx):
        value = hulls.hausdorff_lb(ctx[key], [w], spec.space)
        check(value >= 0.0, f"negative Hausdorff bound {value}")
        return (value,)

    return Task("hausdorff_lb", run, lambda result, _r: _witness_oracle(spec, w, result[0]))


def _witness_oracle(spec, w: Vector, value: float) -> str | None:
    X = constructions.build_entropy_set(spec).matrix
    wv = w.to_array(range(X.shape[1]))
    if not oracle.in_hull(X, wv):
        return "HiGHS finds the witness outside the hull"
    ref = oracle.dist_to_points(X, wv, spec.space.p)
    return None if _close(value, ref, 1e-9) else f"witness distance {value!r} vs {ref!r}"


def _hull_and_set_distance(x: Vector, A, norm: NormSpec) -> tuple[float, float]:
    d = hulls.dist_to_hull(x, A, norm)
    s = hulls.dist_to_set(x, A, norm)
    check(0.0 <= d <= s + 1e-9 * (1.0 + s), f"hull distance {d} above set distance {s}")
    return (d, s)


def _lp_query_task(xq: np.ndarray, p: float, X: np.ndarray) -> Task:
    """l1 or linf dist_to_hull of one off-hull point; ``X`` holds the
    sample's coordinates for the HiGHS oracle."""
    x = Vector.from_array(xq)
    norm = NormSpec.lp(p)

    def verify(result, _results):
        ref = oracle.hull_distance_highs(X, xq, p)
        return None if _close(result[0], ref, ORACLE_REL) else f"l{p:g} hull distance {result[0]!r} vs HiGHS {ref!r}"

    return Task(f"dist_to_hull[l{p:g}]", lambda ctx: _hull_and_set_distance(x, ctx["euclid"], norm), verify)


# ---------------------------------------------------------------------------
# face-descent: near faces of random and regular inscribed simplices, and
# subset selection; no LP and no pairwise distances.
# ---------------------------------------------------------------------------

FACE_DIMS = range(3, 9)
FACE_PER_DIM = 40
SUBSET_DIMS = range(2, 7)
SUBSET_PER_DIM = 20
SUBSET_ORACLE_MAX_N = 5
FACE_ORACLE_MAX_VERTICES = 6
FACE_TOL = 1e-9


def _interior_simplex(rng, n: int, margin: float = 1e-2) -> np.ndarray:
    """Unit-sphere vertices with the origin comfortably inside.

    n random unit vectors plus the unit vector opposite a random positive
    combination of them, so the origin is inside by construction (plain
    rejection sampling accepts only 2^-n of draws)."""
    while True:
        V = rng.standard_normal((n + 1, n))
        V[0] = -rng.dirichlet(np.ones(n)) @ V[1:]
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if oracle.origin_barycentric(V).min() > margin:
            return V


def _regular_simplex(n: int) -> np.ndarray:
    E = np.eye(n + 1)
    V = E - E.mean(axis=0)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _face_descent(rng) -> Workload:
    simplices = [(n, _interior_simplex(rng, n)) for n in FACE_DIMS for _ in range(FACE_PER_DIM)]
    scaled = []
    for n in SUBSET_DIMS:
        for _ in range(SUBSET_PER_DIM):
            scaled.append((n, _interior_simplex(rng, n) * rng.uniform(0.4, 1.0, size=(n + 1, 1))))

    tasks = [_face_task(n, V, regular=False) for n, V in simplices]
    tasks += [_face_task(n, _regular_simplex(n), regular=True) for n in FACE_DIMS]
    tasks += [_subset_task(n, P, j) for n, P in scaled for j in range(1, n + 1)]

    def warm_up():
        simplexgeo.face_chain(_regular_simplex(3))
        simplexgeo.best_subset(0.5 * _regular_simplex(2), 1)

    inputs = [V.tolist() for _, V in simplices] + [P.tolist() for _, P in scaled]
    shape = {
        "face_chain": {n: FACE_PER_DIM for n in FACE_DIMS},
        "regular": list(FACE_DIMS),
        "best_subset": {n: SUBSET_PER_DIM * n for n in SUBSET_DIMS},
    }
    return Workload(tasks, warm_up, inputs, shape)


def _face_task(n: int, V: np.ndarray, regular: bool) -> Task:
    def run(ctx):
        chain = simplexgeo.face_chain(V)
        out = []
        for k, res in enumerate(chain):
            a = simplexgeo.alpha(n, k)
            if regular:
                check(abs(res.distance - a) <= FACE_TOL, f"regular k={k}: {res.distance} != {a}")
            else:
                check(res.distance <= a * (1.0 + FACE_TOL), f"k={k}: {res.distance} above {a}")
            out.append((res.vertex_index_set, res.distance))
        return tuple(out)

    def verify(result, _results):
        for subset, dist in result:
            if len(subset) <= FACE_ORACLE_MAX_VERTICES:
                ref = oracle.exact_origin_distance(V[list(subset)])
                if abs(dist - ref) > 1e-8:
                    return f"face {subset}: {dist!r} vs enumeration {ref!r}"
        return None

    return Task("face_chain_regular" if regular else "face_chain", run, verify)


def _subset_task(n: int, P: np.ndarray, j: int) -> Task:
    bound = math.sqrt((n + 1 - j) / (n * j))

    def run(ctx):
        res = simplexgeo.best_subset(P, j)
        check(len(res.vertex_index_set) == j, "wrong subset size")
        check(res.distance <= bound + FACE_TOL, f"distance {res.distance} above {bound}")
        return (res.vertex_index_set, res.distance)

    def verify(result, _results):
        if n > SUBSET_ORACLE_MAX_N:
            return None
        subset, dist = result
        ref = oracle.exact_origin_distance(P[list(subset)])
        if abs(dist - ref) > 1e-8:
            return f"subset {subset}: {dist!r} vs enumeration {ref!r}"
        best = oracle.best_subset_distance(P, j)
        if best > bound + FACE_TOL:
            return f"exhaustive best {best!r} above the bound {bound!r}"
        return None

    return Task("best_subset", run, verify)
