"""Per-layer spans recorded from outside the library.

``Tracer.install()`` replaces library functions at the names their
callers look them up under (``treespace.lp_solve``, ``hulls.lp_solve``,
``np.linalg.lstsq``, ...) with wrappers that record a span and call the
original unchanged, so results are bit-identical with and without
tracing.  Spans stay in memory; the caller writes them out once.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``count`` a per-call work count
computed from the call's arguments or result.  A span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from approxconvex import constructions, hulls, simplexgeo, treespace

# Per-layer metrics: name -> unit.  Times are per pass, in seconds at
# reference speed (see timing.py).
PER_LAYER = {
    "optim.lp.calls": "count",
    "optim.lp.self_s": "s",
    "optim.lp.pivots": "count",
    "optim.lp.tableau_cells": "count",
    "optim.fw.calls": "count",
    "optim.fw.self_s": "s",
    "optim.fw.cols": "count",
    "optim.kkt_solves": "count",
    "optim.pg.calls": "count",
    "optim.pg.self_s": "s",
    "hulls.defect.self_s": "s",
    "hulls.defect.dist_evals": "count",
    "hulls.diameter.self_s": "s",
    "hulls.dist_to_hull.self_s": "s",
    "hulls.dist_to_set.self_s": "s",
    "constructions.build.self_s": "s",
    "constructions.build.points": "count",
    "hulls.matrix.self_s": "s",
    "core.grid.self_s": "s",
    "simplexgeo.face_chain.self_s": "s",
    "simplexgeo.best_subset.self_s": "s",
    "treespace.tree_norm.self_s": "s",
    "treespace.haus.self_s": "s",
    "labels.closure.self_s": "s",
    "treespace.closure_size_p95": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

TASK_PREFIX = "task."


def _lp_work(args, kwargs, sol):
    """(pivots, cells of the initial dense tableau), the latter computed
    from the instance the way ``lp_solve`` lays out its standard form."""
    lp = args[0]
    split = sum(1 for lo, hi in lp.bounds if lo is None and hi is None)
    boxed = sum(1 for lo, hi in lp.bounds if lo is not None and hi is not None)
    shift = np.array([lo if lo is not None else (hi if hi is not None else 0.0) for lo, hi in lp.bounds])
    b = lp.b - lp.A @ shift if lp.n_rows else lp.b
    rel = [r if bi >= 0.0 else {"<=": ">=", ">=": "<=", "=": "="}[r] for r, bi in zip(lp.rel, b)]
    rows = lp.n_rows + boxed
    slack = sum(1 for r in rel if r != "=") + boxed
    artificial = sum(1 for r in rel if r != "<=")
    cols = lp.n_vars + split + slack + artificial
    return (sol.iterations, rows * cols)


def _fw_cols(args, kwargs, out):
    return np.shape(args[0])[1]


def _defect_evals(args, kwargs, out):
    n = len(args[0])
    t_grid = kwargs["t_grid"] if "t_grid" in kwargs else args[2]
    return t_grid * n * (n + 1) // 2 * n


def _points(args, kwargs, out):
    return len(out)


# (module, attribute, span name, work count)
SITES = (
    (treespace, "lp_solve", "optim.lp", _lp_work),
    (hulls, "lp_solve", "optim.lp", _lp_work),
    (hulls, "min_distance_over_simplex", "optim.fw", _fw_cols),
    (simplexgeo, "min_distance_over_simplex", "optim.fw", _fw_cols),
    (simplexgeo, "min_quadratic_over_simplex", "optim.fw", _fw_cols),
    (constructions, "min_smooth_over_simplex", "optim.pg", None),
    (np.linalg, "lstsq", "optim.lstsq", None),
    (hulls, "convexity_defect", "hulls.defect", _defect_evals),
    (hulls, "diameter", "hulls.diameter", None),
    (hulls, "dist_to_hull", "hulls.dist_to_hull", None),
    (hulls, "dist_to_set", "hulls.dist_to_set", None),
    (hulls, "hausdorff_lb", "hulls.hausdorff_lb", None),
    (constructions, "build_entropy_set", "constructions.build", _points),
    (constructions, "simplex_grid_array", "core.grid", None),
    (constructions, "euclid_witness_distance", "constructions.witness", None),
    (simplexgeo, "face_chain", "simplexgeo.face_chain", None),
    (simplexgeo, "best_subset", "simplexgeo.best_subset", None),
    (treespace, "tree_norm", "treespace.tree_norm", None),
    (treespace, "tree_norm_dual_lp", "treespace.dual_lp", None),
    (treespace, "haus_experiment", "treespace.haus", None),
    (treespace, "downward_closure", "labels.closure", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every site (and ``SampledSet.matrix``) for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in SITES]
        matrix = hulls.SampledSet.__dict__["matrix"]
        try:
            for mod, attr, name, count in SITES:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
            traced_matrix = functools.cached_property(self.wrap("hulls.matrix", matrix.func))
            traced_matrix.__set_name__(hulls.SampledSet, "matrix")
            hulls.SampledSet.matrix = traced_matrix
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            hulls.SampledSet.matrix = matrix


def layer_metrics(spans: list[list], scale: float) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metrics (all but
    ``trace.wall_s``, ``trace.overhead_s`` and
    ``treespace.closure_size_p95``, which need data from outside the
    pass).  Times are multiplied by ``scale``."""
    self_s = [s[2] - s[1] for s in spans]
    under_solver = [False] * len(spans)
    tasks_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            tasks_s += end - start
            continue
        self_s[parent] -= end - start
        pname = spans[parent][0]
        under_solver[i] = under_solver[parent] or (
            pname != "optim.lstsq" and pname.startswith(("optim.", "simplexgeo."))
        )
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    work: dict[str, int] = {}
    library_self = 0.0
    cells = 0
    for (name, _, _, _, count), s in zip(spans, self_s):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s
        if name == "optim.lp":
            work[name] = work.get(name, 0) + count[0]
            cells += count[1]
        else:
            work[name] = work.get(name, 0) + count
        if not name.startswith(TASK_PREFIX):
            library_self += s
    out = {
        "optim.lp.calls": calls.get("optim.lp", 0),
        "optim.lp.pivots": work.get("optim.lp", 0),
        "optim.lp.tableau_cells": cells,
        "optim.fw.calls": calls.get("optim.fw", 0),
        "optim.fw.cols": work.get("optim.fw", 0),
        "optim.kkt_solves": sum(
            1 for s, u in zip(spans, under_solver) if s[0] == "optim.lstsq" and u
        ),
        "optim.pg.calls": calls.get("optim.pg", 0),
        "hulls.defect.dist_evals": work.get("hulls.defect", 0),
        "constructions.build.points": work.get("constructions.build", 0),
        "trace.unattributed_s": (tasks_s - library_self) * scale,
    }
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            out[metric] = own.get(metric[: -len(".self_s")], 0.0) * scale
    return out
