"""Timing against a reference kernel, for a machine shared with others.

On a shared host the same work can take 40% longer for minutes at a
time, and the slowdown hits a reference kernel and the workload much
alike.  The benchmark therefore runs ``reference()`` between tasks and
reports every timing in *seconds at reference speed*: the raw time
multiplied by ``REF_SECONDS / r``, with ``r`` the median reference time
measured in the second or so around it.  A change to the library moves
these figures; a busier host mostly does not.  Raw seconds are printed
alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The speed every reported timing is scaled to: close to the reference
# kernel's time on a lightly loaded 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4).  Only ratios between runs matter.
REF_SECONDS = 0.0035

_RNG = np.random.default_rng(0)
_SIMPLEX = _RNG.standard_normal((9, 8))
_SAMPLES = _RNG.standard_normal(2_000)
_MATRIX = np.full((48, 48), 1.0 / 48.0)
_SYSTEM = np.eye(7) + 0.1
_RHS = np.ones(7)
# Bound now, so the traced run's wrapper around np.linalg.lstsq does not
# slow the reference kernel down.
_lstsq = np.linalg.lstsq


def reference() -> float:
    """Seconds taken by a fixed mix like the library's own: tiny
    least-squares and SVD calls, small matrix products, array streaming,
    and dict, set and sort work in the interpreter."""
    start = time.perf_counter()
    for _ in range(40):
        _lstsq(_SYSTEM, _RHS, rcond=None)
    b = _MATRIX
    for _ in range(16):
        b = b @ _MATRIX
    for k in range(3, 9):
        W = _SIMPLEX[: k + 1, :k]
        _lstsq(W @ W.T + np.eye(k + 1), np.ones(k + 1), rcond=None)
        np.linalg.svd(W, compute_uv=False)
        np.argsort(np.linalg.norm(W, axis=1))
        np.flatnonzero(np.clip(W, 0.0, None).sum(axis=1) > 0.5)
    table = {(i, i % 7): float(i) for i in range(800)}
    sorted(table.items(), key=lambda kv: -kv[1])
    _ = set(range(0, 2000, 3)) & set(range(0, 2000, 5))
    # Arrays stay far below glibc's 128 KiB mmap threshold: larger ones
    # would make this kernel's speed depend on what the tasks before it
    # allocated, because glibc raises the threshold after freeing big
    # blocks.
    for _ in range(10):
        a = np.sort(_SAMPLES)
        for _ in range(4):
            a = np.sqrt(a * a + 1.0)
    for _ in range(10):
        np.abs(_SAMPLES[:200, None] - _SAMPLES[None, :40]).max(axis=1)
    return time.perf_counter() - start


def speed_scale(samples: int = 9) -> float:
    """Factor that turns raw seconds measured now into seconds at
    reference speed, from the median of a few reference runs."""
    return REF_SECONDS / statistics.median(reference() for _ in range(samples))
