"""The library names that the benchmark's tracer patches still exist,
and its work counters still read real library calls.

``perfbench/tracing.py`` wraps library functions by module attribute and
re-wraps ``SampledSet.matrix``'s ``.func``, and its work counters read
the calls' arguments and results (``_lp_work`` reads ``LPInstance``
attributes); a rename in the library would break
``perfbench/run.py --trace 1`` without failing any other library test.
The tracer module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from approxconvex.constructions import ConstructionSpec, build_entropy_set
from approxconvex.core import NormSpec, Vector
from approxconvex.hulls import SampledSet, convexity_defect
from approxconvex.optim import lp_solve, min_distance_over_simplex
from conftest import hull_lps, random_tree_vector, tree_lps

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module,attr",
    [(mod, attr) for mod, attr, _, _ in tracing.SITES],
    ids=[f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracing.SITES],
)
def test_site_resolves(module, attr):
    assert callable(getattr(module, attr))


def test_matrix_keeps_func():
    assert callable(SampledSet.__dict__["matrix"].func)


def test_lp_work_reads_real_lps():
    # The tree-norm LP and an l1 hull LP, as their call sites pass them.
    x = random_tree_vector(np.random.default_rng(3), 30)
    P = np.random.default_rng(4).normal(size=(7, 3))
    _, hull = hull_lps(Vector.from_array(np.full(3, 2.0)), SampledSet(P), NormSpec.lp(1.0))
    for lp, basis in tree_lps(x, 2.0) + hull:
        sol = lp_solve(lp, basis=basis)
        pivots, cells = tracing._lp_work((lp,), {"basis": basis}, sol)
        assert pivots == sol.iterations
        assert cells >= lp.n_rows * lp.n_vars > 0


def test_other_work_counters_read_real_calls():
    norm = NormSpec.lp(2.0)
    spec = ConstructionSpec(space=norm, n=3, M=2.0, grid=3)
    A = build_entropy_set(spec)
    assert tracing._points((spec,), {}, A) == len(A.matrix) > 0
    report = convexity_defect(A, norm, t_grid=3)
    assert tracing._defect_evals((A, norm), {"t_grid": 3}, report) > 0
    assert tracing._defect_evals((A, norm, 3), {}, report) > 0
    L, c = A.matrix.T, A.matrix.mean(axis=0) + 1.0
    assert tracing._fw_cols((L, c), {}, min_distance_over_simplex(L, c)) == len(A)
