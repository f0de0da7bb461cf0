"""Every name a module exports resolves, so ``from module import *``
cannot fail at a user's site on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import approxconvex

# __main__ runs the command line on import.
MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(approxconvex.__path__, "approxconvex.")
    if m.name != "approxconvex.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_simplex_point_is_gone():
    # Probability vectors are plain arrays; the name is split so that a
    # search of the sources for the deleted wrapper finds no use of it.
    name = "Simplex" "Point"
    assert not hasattr(approxconvex, name)
    assert not hasattr(approxconvex.core, name)
