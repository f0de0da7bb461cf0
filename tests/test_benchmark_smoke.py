"""A few tasks of each benchmark workload run through their checks.

``perfbench/run.py`` counts a task as failed when its inline check
raises, when its oracle disagrees, or when a later pass returns a
different result.  These tests run a short selection of each workload at
seed 1 the same way, so a library change that breaks a benchmark task
fails here too.  ``perfbench/workloads.py`` and ``perfbench/oracle.py``
are loaded from their files and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, filename):
    """Run a perfbench file as module `name`.  The module sits in
    sys.modules only while it runs, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


oracle = _load("oracle", "oracle.py")
sys.modules["oracle"] = oracle  # workloads.py imports it by name
try:
    workloads = _load("perfbench_workloads", "workloads.py")
finally:
    del sys.modules["oracle"]


def _hull_scan_prefix(tasks):
    """The 816-point build, its diameter and the first 10 off-hull queries
    under each of l1 and l-infinity."""
    picked = [t for t in tasks if t.kind in ("euclid_build", "diameter")]
    for kind in ("dist_to_hull[l1]", "dist_to_hull[linf]"):
        picked += [t for t in tasks if t.kind == kind][:10]
    return picked


def _face_descent_selection(tasks):
    """The first 60 tasks (non-regular chains, n = 3 and 4), every
    regular-simplex chain, where all facets tie, and every 8th
    best_subset task."""
    regular = [t for t in tasks if t.kind == "face_chain_regular"]
    return tasks[:60] + regular + [t for t in tasks if t.kind == "best_subset"][::8]


def _tree_lp_selection(tasks):
    """The first 40 tasks (closures 3-10) and the five tail tree norms
    (closures 260-500), where the LP takes the longest pivot paths."""
    return tasks[:40] + [t for t in tasks if t.kind == "tree_norm"][-5:]


SELECTIONS = {
    "face-descent": (_face_descent_selection, False),
    "tree-lp": (_tree_lp_selection, True),
    "hull-scan": (_hull_scan_prefix, True),
}


def _run(tasks):
    ctx = {}
    return [task.run(ctx) for task in tasks]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tasks_pass_their_checks(name):
    select, needs_scipy = SELECTIONS[name]
    if needs_scipy:
        pytest.importorskip("scipy")
    tasks = select(workloads.build(name, 1).tasks)
    results = _run(tasks)
    for task, result in zip(tasks, results):
        if task.oracle is not None:
            message = task.oracle(result, results)
            assert message is None, f"{task.kind}: {message}"
    assert _run(tasks) == results
