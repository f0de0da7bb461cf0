"""The library names that the benchmark's tracer patches still exist.

``perfbench/tracing.py`` wraps library functions by module attribute and
re-wraps ``SampledSet.matrix``'s ``.func``; a rename in the library
would break ``perfbench/run.py --trace 1`` without failing any other
library test.  The tracer module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from approxconvex.hulls import SampledSet

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
