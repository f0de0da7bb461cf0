"""Self-contained optimization kernels.

Two solvers used by every distance computation in the package:

* a dense one-phase simplex LP solver for the standard form min c.x
  over A x = b, x >= 0 (Dantzig pricing with a permanent switch to
  Bland's rule once degeneracy is detected, which guarantees
  termination).  A pivot prices the reduced-cost row in one pass and
  runs the ratio test on the rows whose pivot-column entry is positive
  only.  An inequality is written as a row with its own slack column.
  Every LP starts on a feasible basis B0 its caller names, in
  canonical form: row i's start column is +-e_i, so B0 is the identity
  once each row takes that sign, and no basis is ever inverted; the
  tree-norm LP and the l1 and l-infinity hull LPs are posed so in closed
  form.  The start is checked before any pivot; there is no phase 1 and
  no artificial column.  Its whole state is one array, the constraint
  rows over the reduced-cost row, with the basic values and the negated
  objective in the last column, so a pivot is one rank-1 update.  Row
  duals are read off the start columns, and every optimum is certified
  on the original data (primal and dual feasibility, duality gap), with
  no Python loop over variables,
* minimization of ``f(t) = ||c - L t||^2`` over the probability simplex
  by Wolfe's minimum-norm-point algorithm, exact in finitely many steps.
  Its affine steps are least-squares solves on edge vectors against the
  current residual, and it stops on the Frank-Wolfe gap computed from the
  weights it returns.  Those weights are returned as the plain ``(N,)``
  array the gap was computed from; weights off the simplex void the gap
  and raise :class:`ConvergenceError`.

Instances are immutable and solver state is confined to one invocation,
so concurrent solves of different instances are safe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "LPInstance",
    "LPSolution",
    "lp_solve",
    "min_quadratic_over_simplex",
    "min_distance_over_simplex",
]

FW_MAX_ITER = 10_000


class ConvergenceError(RuntimeError):
    """A solver failed to reach its certificate within budget."""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPInstance:
    """A dense LP in standard form: minimize c.x over A x = b, x >= 0,
    with b of either sign and all data finite.  An inequality row takes
    a slack column of its own, with zero cost."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, len(c))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.ndim != 2 or A.shape[1] != len(c) or A.shape[0] != len(b):
            raise ValueError(
                f"inconsistent LP dimensions: c has {len(c)} entries, "
                f"A is {A.shape}, b has {len(b)} entries"
            )
        for name, data in (("c", c), ("A", A), ("b", b)):
            if not np.isfinite(data).all():
                raise ValueError(f"LP data must be finite: {name} holds {data[~np.isfinite(data)][0]}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)

    @property
    def bounds(self) -> tuple[tuple[float, None], ...]:
        # x >= 0 as (lo, hi) pairs, read only by perfbench/tracing.py's
        # _lp_work; it goes once the benchmark stops reading it (ROADMAP
        # item 1).
        return ((0.0, None),) * self.n_vars

    @property
    def rel(self) -> tuple[str, ...]:
        # Every row is '=', read only by perfbench/tracing.py's _lp_work;
        # it goes with ``bounds`` (ROADMAP item 1).
        return ("=",) * self.n_rows


@dataclass(frozen=True)
class LPSolution:
    """Solver outcome. When status is ``optimal``, ``x`` and the row
    duals ``dual`` are primal and dual feasible within tolerance and
    ``gap`` is the certified |c.x - b.dual|."""

    status: str  # optimal | unbounded
    value: float | None = None
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    gap: float | None = None
    iterations: int = 0


def _pivot(T, basis, row, col, colvals):
    """Pivot T on (row, col), col entering the basis in row: one rank-1
    update of every row, basic values and reduced costs included.
    ``colvals`` is a copy of ``T[:, col]``, which this overwrites.  Only
    the rows where the pivot column is nonzero are updated when at most a
    quarter of them are; a denser column updates all of T, which avoids
    gathering a copy of a wide tableau."""
    T[row] /= colvals[row]
    colvals[row] = 0.0
    nz = np.flatnonzero(colvals)
    if 4 * len(nz) <= len(colvals):
        T[nz] -= np.outer(colvals[nz], T[row])
    else:
        T -= np.outer(colvals, T[row])
    basis[row] = col


def _simplex(T, basis, tol, max_iter):
    """Pivot T in place until optimal or unbounded; returns ``(status,
    pivots, bland)``, ``bland`` telling whether degeneracy switched
    pricing to Bland's rule.  T's last row holds the reduced costs and
    the others the constraints in ``basis`` (a list, kept up to date); its
    last column holds the basic values and, in the corner, the negated
    objective.  More than ``max_iter`` pivots raise
    :class:`ConvergenceError`.

    Dantzig pricing is one ``argmin`` over the reduced costs: the first
    least entry enters unless it is not below ``-rc_tol``, which is
    optimality.  The ratio test runs on the rows whose pivot-column entry
    exceeds 1e-10 only, and breaks a tie (within 1e-12) by the lowest
    basic column."""
    m = len(basis)
    r = T[m, :-1]  # a view, which every pivot updates
    if not r.size:
        return "optimal", 0, False
    rc_tol = tol * (1.0 + float(np.abs(r).max(initial=0.0)))
    pivots, stall, bland = 0, 0, False
    while True:
        if pivots > max_iter:
            raise ConvergenceError(f"simplex exceeded {max_iter} pivots")
        col = int(np.argmax(r < -rc_tol)) if bland else int(np.argmin(r))
        if r[col] != r[col]:
            # argmin stops at the first NaN, which is never a candidate.
            col = int(np.argmin(np.where(r < -rc_tol, r, np.inf)))
        if not r[col] < -rc_tol:
            return "optimal", pivots, bland
        colvals = T[:, col].copy()
        rows = np.flatnonzero(colvals[:m] > 1e-10)
        if not len(rows):
            return "unbounded", pivots, bland
        # A basic value below zero is rounding: it takes a zero step,
        # never a negative one that would push the entering column below
        # its bound.
        ratios = np.maximum(T[rows, -1], 0.0) / colvals[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        row = int(min(ties, key=basis.__getitem__))
        before = T[m, -1]
        _pivot(T, basis, row, col, colvals)
        pivots += 1
        # The corner is the negated objective, so progress means it grows.
        stall = stall + 1 if T[m, -1] - before <= 1e-13 * (1.0 + abs(before)) else 0
        bland = bland or stall > 100


def _basis_columns(lp: LPInstance, basis) -> np.ndarray:
    """A caller's basis as column indices, one entry per row of ``lp``.
    A basis of the wrong length, or with an entry that names no column,
    raises ``ValueError``.
    """
    basis = np.asarray(basis)
    if basis.shape != (lp.n_rows,):
        raise ValueError(f"basis needs one column per row, {lp.n_rows} entries; got shape {basis.shape}")
    if basis.size and (
        not np.issubdtype(basis.dtype, np.integer) or basis.min() < 0 or basis.max() >= lp.n_vars
    ):
        raise ValueError(f"basis entries must be integers in [0, {lp.n_vars}), the columns of the LP")
    return basis.astype(np.intp)


def _start_signs(A, start, b, feas_tol) -> np.ndarray:
    """The sign of each start column, which must be +-e_i for row i: the
    LP in canonical form for its start (Chvatal, *Linear Programming*,
    1983, ch. 2-3).  Raises ``ValueError`` before any pivot if a start
    column is anything else, or if a signed right-hand side is below
    ``-feas_tol``."""
    B = A[:, start]
    sign = np.diagonal(B).copy()
    if not (np.count_nonzero(B) == len(start) and (np.abs(sign) == 1.0).all()):
        i = int(np.argmax((np.abs(sign) != 1.0) | (np.count_nonzero(B, axis=0) != 1)))
        raise ValueError(f"start column {start[i]} of row {i} is not a signed unit column +-e_{i}")
    low = np.flatnonzero(sign * b < -feas_tol)
    if len(low):
        i = int(low[0])
        raise ValueError(
            f"basis is infeasible: its basic variable in row {i} is {sign[i] * b[i]:.3e} "
            f"(tolerance {-feas_tol:.3e})"
        )
    return sign


def lp_solve(lp: LPInstance, basis, tol: float = 1e-9) -> LPSolution:
    """One-phase dense simplex from a caller's feasible basis, with a
    certified optimum.

    ``basis`` names a feasible start, one column of ``lp`` per row, and
    row i's start column must be +-e_i (see `_start_signs`).  Row i is
    multiplied by that sign, so the start is the identity and its basic
    values are the signed right-hand sides.  It is checked before any
    pivot: a basis of the wrong length, a start column that is not a
    signed unit column, or a signed right-hand side below
    ``-tol (1 + ||b||_1)`` raises ``ValueError``; one between that bound
    and zero starts at zero.  The simplex runs on one (rows + 1) x
    (columns + 1) array, from which x is read off the last column and the
    row duals as y = (c_B0 - r_B0) sign off the reduced-cost row.  A solve
    that needs more than 20,000 + 40 (rows + columns) pivots raises
    :class:`ConvergenceError`.

    An ``optimal`` result is certified on the original data before it is
    returned: x >= 0 and every row hold within ``tol`` (scaled by
    1 + |b_i|), y is dual feasible (c - A^T y >= -e with
    e = tol (1 + ||c||_inf + max|A_ij| ||y||_1)), and
    |c.x - b.y| <= tol (1 + |c.x| + |b.y|).
    A failed check is a numerical failure: it raises
    :class:`ConvergenceError` naming the first bad row or column instead
    of returning a wrong ``optimal``.
    """
    m, n = lp.A.shape
    max_iter = 20_000 + 40 * (m + n)
    start = _basis_columns(lp, basis)
    feas_tol = tol * (1.0 + float(np.abs(lp.b).sum()))
    row_sign = _start_signs(lp.A, start, lp.b, feas_tol)

    # The simplex state (see _simplex): the signed rows over reduced
    # costs priced out against the start, with the start values and
    # -c.x in the last column.
    T = np.zeros((m + 1, n + 1))
    np.multiply(lp.A, row_sign[:, None], out=T[:m, :n])
    b = lp.b * row_sign
    T[:m, -1] = np.where(b < 0.0, 0.0, b)
    cost = np.zeros(n + 1)
    cost[:n] = lp.c
    T[m] = cost - cost[start] @ T[:m]
    basis = start.tolist()  # updated in place by every pivot
    status, pivots, _ = _simplex(T, basis, tol, max_iter)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=pivots)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    x += 0.0  # turns a basic -0.0 into 0.0
    # Row duals from the start columns: r_j = c_j - y.T0[:, j] with
    # T0[:, start] = I on the signed rows, then unsigned.
    y = (cost[start] - T[m, start]) * row_sign

    # Certify on the original data before reporting; a NaN fails every
    # comparison, so it counts as a violation.
    resid = lp.A @ x - lp.b
    bad = ~(np.abs(resid) <= tol * (1.0 + np.abs(lp.b)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(f"optimal basis violates row {i} by {resid[i]:.3e}")
    bad = ~(x >= -tol)
    if bad.any():
        j = int(np.argmax(bad))
        raise ConvergenceError(f"variable {j} violates its lower bound: x = {x[j]:.3e}")
    # Dual feasibility on every column, a slack's reduced cost included;
    # the scale covers the rounding of A^T y.
    reduced = lp.c - lp.A.T @ y
    a_max = max(lp.A.max(initial=0.0), -lp.A.min(initial=0.0))
    rc_tol = tol * (1.0 + float(np.abs(lp.c).max(initial=0.0)) + a_max * float(np.abs(y).sum()))
    bad = ~(reduced >= -rc_tol)
    if bad.any():
        j = int(np.argmax(bad))
        raise ConvergenceError(
            f"duals are infeasible: column {j} has reduced cost {reduced[j]:.3e} "
            f"(tolerance {-rc_tol:.3e})"
        )
    value = float(np.dot(lp.c, x))
    dual_value = float(np.dot(lp.b, y))
    gap = abs(value - dual_value)
    gap_tol = tol * (1.0 + abs(value) + abs(dual_value))
    if not gap <= gap_tol:
        raise ConvergenceError(f"duality gap {gap:.3e} exceeds tolerance {gap_tol:.3e}")

    return LPSolution(
        status="optimal",
        value=value,
        x=x,
        dual=y,
        gap=gap,
        iterations=pivots,
    )


# ---------------------------------------------------------------------------
# Quadratics over the simplex: Wolfe's minimum-norm-point algorithm
# ---------------------------------------------------------------------------


def _affine_solve(L, c, lam):
    """Affine weights (summing to one) of the point of the affine hull of
    L's columns (at least two) nearest ``c``.

    Solved as least squares on the edge vectors ``L[:, 1:] - L[:, :1]``
    against the residual ``L @ lam - c`` of a start ``lam`` summing to one,
    so the result refines ``lam``.  Affinely dependent columns get the
    minimum-norm correction.
    """
    r = L @ lam - c
    delta = np.linalg.lstsq(L[:, 1:] - L[:, :1], -r, rcond=None)[0]
    return lam + np.concatenate(([-delta.sum()], delta))


def _certificate(L, c, lam):
    """Residual, value, gradient and Frank-Wolfe gap of the weights lam."""
    r = L @ lam - c
    g = 2.0 * (L.T @ r)
    return r, float(r @ r), g, float(g @ lam) - float(g.min())


def _ulp_polish(L, c, lam, stop):
    """Greedy one-ulp moves of single weights, for weights at which
    Wolfe's iteration stopped lowering f.  There the residual sits at
    rounding level and the gap computed from the weights depends on how
    ``L @ lam`` rounds; each move keeps the smallest gap.  Returns
    ``(lam, f, gap)`` once ``stop`` holds, else None."""
    gap = _certificate(L, c, lam)[3]
    while True:
        best = None
        for j in np.flatnonzero(lam):
            for to in (np.inf, -np.inf):
                mu = lam.copy()
                mu[j] = np.nextafter(mu[j], to)
                _, f_mu, _, gap_mu = _certificate(L, c, mu)
                if best is None or gap_mu < best[0]:
                    best = (gap_mu, f_mu, mu)
        if best[0] >= gap:
            return None
        gap, f, lam = best
        if stop(f, gap):
            return lam, f, gap


def _check_simplex(lam):
    """Raise :class:`ConvergenceError` unless every weight is nonnegative
    and the weights sum to one within 1e-12.  The gap g.lam - min g bounds
    f - f_min only for lam in the simplex, so this check is part of the
    certificate of every weight vector :func:`_mnp` returns, on each of
    its exits."""
    total = float(lam.sum())
    if not (lam.min() >= 0.0 and abs(total - 1.0) <= 1e-12):
        raise ConvergenceError(
            f"weights leave the simplex: min {lam.min():.3e}, sum - 1 = {total - 1.0:.3e}"
        )


def _mnp(L, c, stop):
    """Wolfe's minimum-norm-point algorithm for f(lam) = ||c - L lam||^2.

    The corral ``S`` is the current vertex set.  Each major iteration
    takes one exact line-search step toward the vertex of least gradient
    (which enters the corral), then moves to the corral's affine
    minimizer, dropping vertices whose weight would turn negative.
    ``stop(f, gap)`` decides termination from the value and the
    Frank-Wolfe gap (a valid bound on f - f_min for this convex f), both
    computed from the weights returned.  More than FW_MAX_ITER major
    iterations raise :class:`ConvergenceError`.  Returns (lam, f, gap,
    iterations); the callers check lam with :func:`_check_simplex`.
    """
    d, N = L.shape
    lam = np.zeros(N)
    if N <= d + 1:
        S = list(range(N))
        lam[:] = 1.0 / N
    else:
        S = [int(np.argmin(((L - c[:, None]) ** 2).sum(axis=0)))]
        lam[S] = 1.0
    it = 0
    f_before = np.inf
    while True:
        # Minor cycle: the corral's affine minimizer, or the furthest point
        # toward it that keeps every weight nonnegative.
        while len(S) > 1:
            w = lam[S]
            mu = _affine_solve(L[:, S], c, w)
            if mu.min() > 0.0:
                lam[S] = mu
                break
            neg = np.flatnonzero(mu <= 0.0)
            ratios = w[neg] / (w[neg] - mu[neg])
            w = w + ratios.min() * (mu - w)
            w[neg[np.argmin(ratios)]] = 0.0
            lam[S] = np.clip(w, 0.0, None)
            S = [j for j in S if lam[j] > 0.0]
        r, f, g, gap = _certificate(L, c, lam)
        if stop(f, gap):
            return lam, f, gap, it
        if f >= f_before:
            # Each exact iteration lowers f, so the residual has reached
            # rounding level and later iterations would only jitter.
            polished = _ulp_polish(L, c, lam, stop)
            if polished is not None:
                return (*polished, it)
            raise ConvergenceError(
                f"Frank-Wolfe gap {gap:.3e} stalled at the rounding floor "
                f"after {it} iterations"
            )
        if it >= FW_MAX_ITER:
            raise ConvergenceError(
                f"Frank-Wolfe gap {gap:.3e} after {it} iterations (budget {FW_MAX_ITER})"
            )
        it += 1
        f_before = f
        # Exact line search toward the vertex of least gradient, s;
        # r @ u = -gap / 2 < 0.
        s = int(np.argmin(g))
        u = L[:, s] - (r + c)
        gamma = min(0.5 * gap / float(u @ u), 1.0)
        lam *= 1.0 - gamma
        lam[s] += gamma
        if s not in S:
            S.append(s)


def _kernel_data(L, c) -> tuple[np.ndarray, np.ndarray]:
    """L and c as float arrays, rejected with ``ValueError`` before any
    solve unless L is (d, N) with N >= 1, c is (d,), and both are
    finite."""
    L, c = np.asarray(L, dtype=float), np.asarray(c, dtype=float)
    if L.ndim != 2 or L.shape[1] == 0 or c.shape != L.shape[:1]:
        raise ValueError(f"need L of shape (d, N), N >= 1, and c of shape (d,); got {L.shape} and {c.shape}")
    if not (np.isfinite(L).all() and np.isfinite(c).all()):
        raise ValueError("L and c must be finite")
    return L, c


def min_quadratic_over_simplex(
    L: np.ndarray, c: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Minimize ``||c - L t||^2`` over the probability simplex.

    Returns ``(t, value)``: ``t`` is the ``(N,)`` weight array the
    certificate was computed from, and ``value - min <= tol``, certified
    by the Frank-Wolfe duality gap of ``t`` itself.  Raises
    :class:`ConvergenceError` if the gap cannot be certified within the
    iteration budget, once iterations stop lowering the value first, or
    if ``t`` leaves the simplex (a negative entry, or a sum more than
    1e-12 from one).  An L that is not (d, N) with N >= 1, a c that is
    not (d,), or a non-finite entry in either raises ``ValueError``
    before any solve.
    """
    L, c = _kernel_data(L, c)
    lam, f, _, _ = _mnp(L, c, lambda f_, g_: g_ <= tol)
    _check_simplex(lam)
    return lam, f


def _distance_stop(f, gap, tol):
    """The stop rule of :func:`min_distance_over_simplex` for the value f
    and Frank-Wolfe gap of weights on the simplex: the distance sqrt(f)
    is then within ``tol`` of the minimum.  Shared with callers that
    certify weights of their own by the rule the kernel exits on."""
    # The 1e-15 floor is the float64 limit: |sqrt(f)-sqrt(f*)| <=
    # sqrt(gap), so it still pins the distance to ~3e-8 absolute.
    return gap <= max(tol * tol, 0.5 * tol * np.sqrt(max(f, 0.0)), 1e-15 * (1.0 + abs(f)))


def min_distance_over_simplex(
    L: np.ndarray, c: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Minimize ``||c - L t||`` (the distance itself) to accuracy ``tol``.

    Same kernel, weights and errors as :func:`min_quadratic_over_simplex`
    but with the gap threshold adapted to the distance scale, so the
    returned ``(t, distance)`` has the distance within ``tol`` of the true
    minimum even when the optimum is far from zero.
    """
    L, c = _kernel_data(L, c)
    lam, f, _, _ = _mnp(L, c, lambda f_, g_: _distance_stop(f_, g_, tol))
    _check_simplex(lam)
    return lam, float(np.sqrt(max(f, 0.0)))


# ---------------------------------------------------------------------------
# Best-first branch and bound over intervals
# ---------------------------------------------------------------------------


def _best_first(upper, best, nodes, split, done, max_splits: int):
    """Best-first branch and bound (Piyavskii 1972; Shubert 1972): the
    package's one certified 1-D global search.

    ``upper`` is the objective's least known value, at ``best``, and a
    node is a heap entry ``(bound, *tie_keys)`` of an interval on which
    ``bound`` bounds it below.  ``split(node)`` returns ``(value, arg,
    children)``: a new value of the objective, at ``arg``, and the nodes
    of the halves.  Nodes not below ``upper`` are dropped, and ``lower``
    is the least bound left, capped at ``upper``.  Returns ``(lower,
    upper, best)`` once ``done(lower, upper)``, or raises
    :class:`ConvergenceError` after ``max_splits`` splits, or once no
    node is left while ``done`` fails, as it does on a bracket whose
    ends are not finite.
    """
    heap = [node for node in nodes if node[0] < upper]
    heapq.heapify(heap)
    for _ in range(max_splits):
        lower = min(heap[0][0], upper) if heap else upper
        if done(lower, upper):
            return lower, upper, best
        if not heap:
            raise ConvergenceError(f"bracket [{lower!r}, {upper!r}] is open with no node left to split")
        value, arg, children = split(heapq.heappop(heap))
        if value < upper:
            upper, best = value, arg
        for node in children:
            if node[0] < upper:
                heapq.heappush(heap, node)
    raise ConvergenceError(f"bracket [{lower!r}, {upper!r}] still open after {max_splits} splits")
