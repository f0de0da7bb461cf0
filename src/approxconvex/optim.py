"""Self-contained optimization kernels.

Two solvers used by every distance computation in the package:

* a dense two-phase simplex LP solver for min c.x over x >= 0 with '='
  and '<=' rows (Dantzig pricing with a permanent switch to Bland's rule
  once degeneracy is detected, which guarantees termination).  Every LP
  starts on a basis B0: the caller's, when it knows a feasible one (the
  tree-norm decomposition LP and the l1 and l-infinity hull-distance
  LPs build one in closed form), and otherwise the slack of each '<='
  row with b >= 0 and an artificial on every other row.  A caller's
  basis adds no artificial column: it is checked before any pivot, the
  tableau becomes B0^-1 T (formed in column blocks) unless B0 is the
  identity, and phase 2 starts at once.  Row duals are read the same
  way on every start, and every optimum is certified on the original
  data (primal and dual feasibility, duality gap).  The bookkeeping
  around the tableau (row flips, start, certificates) is done on whole
  arrays, with no Python loop over variables.  A pivot
  updates only the rows where the pivot column is nonzero when at most
  a quarter of them are, and the whole tableau otherwise,
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

_RELATIONS = ("<=", "=")


@dataclass(frozen=True)
class LPInstance:
    """A dense LP: minimize c.x over x >= 0 subject to rows A x (rel) b,
    each relation '<=' or '=', with b of either sign."""

    c: np.ndarray
    A: np.ndarray
    rel: tuple[str, ...]
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
        rel = tuple(self.rel)
        if len(rel) != A.shape[0] or any(r not in _RELATIONS for r in rel):
            raise ValueError(f"relations must be '<=' or '=', one per row; got {rel}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rel", rel)
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


@dataclass(frozen=True)
class LPSolution:
    """Solver outcome. When status is ``optimal``, ``x`` and the row
    duals ``dual`` are primal and dual feasible within tolerance and
    ``gap`` is the certified |c.x - b.dual|."""

    status: str  # optimal | infeasible | unbounded
    value: float | None = None
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    gap: float | None = None
    iterations: int = 0


class _Tableau:
    """Dense simplex tableau with two cost rows (phase 1 and phase 2).

    The initial basis is any set of columns that are the identity in T:
    slack and artificial columns, or the columns of a caller's basis once
    T holds B0^-1 T.  Phase-2 costs are priced out against it, so a start
    may carry nonzero cost.
    A pivot updates only the rows where the pivot column is nonzero when
    at most a quarter of them are; a denser column gets one full
    rank-1 update, which avoids gathering a copy of a wide tableau.
    """

    def __init__(self, T, b, cost2, n_real, basis, tol):
        self.T = T  # owned: pivots update it in place
        self.rhs = np.array(b, dtype=float)
        self.n_real = n_real  # columns that belong to the real LP
        self.basis = list(basis)
        self.tol = tol
        self.iterations = 0
        self.bland = False
        self._stall = 0
        # Phase-2 reduced costs (artificials cost 0), priced out against
        # the initial basis; v2 is the negated objective.
        self.cost = np.concatenate([cost2, np.zeros(self.T.shape[1] - n_real)])
        c_B = self.cost[self.basis]
        self.r2 = self.cost - c_B @ self.T
        self.v2 = -float(c_B @ self.rhs)
        # Phase-1 reduced costs: cost 1 on artificials, priced out.
        art_rows = [i for i, j in enumerate(self.basis) if j >= n_real]
        self.r1 = -self.T[art_rows].sum(axis=0)
        self.r1[n_real:] += 1.0
        self.v1 = -float(self.rhs[art_rows].sum()) if art_rows else 0.0

    def _pivot(self, row, col):
        T, rhs = self.T, self.rhs
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        nz = np.flatnonzero(colvals)
        if 4 * len(nz) <= len(colvals):
            T[nz] -= np.outer(colvals[nz], T[row])
            rhs[nz] -= colvals[nz] * rhs[row]
        else:
            T -= np.outer(colvals, T[row])
            rhs -= colvals * rhs[row]
        if self.r1[col] != 0.0:
            self.v1 -= self.r1[col] * rhs[row]
            self.r1 = self.r1 - self.r1[col] * T[row]
        if self.r2[col] != 0.0:
            self.v2 -= self.r2[col] * rhs[row]
            self.r2 = self.r2 - self.r2[col] * T[row]
        self.basis[row] = col
        self.iterations += 1

    def run(self, phase: int, allowed: np.ndarray, max_iter: int) -> str:
        """Pivot until optimal/unbounded for the given phase objective."""
        r = self.r1 if phase == 1 else self.r2
        rc_tol = self.tol * (1.0 + float(np.abs(r).max(initial=0.0)))
        piv_tol = 1e-10
        while True:
            if self.iterations > max_iter:
                raise ConvergenceError(
                    f"simplex exceeded {max_iter} pivots in phase {phase}"
                )
            r = self.r1 if phase == 1 else self.r2
            candidates = allowed & (r < -rc_tol)
            if not candidates.any():
                return "optimal"
            if self.bland:
                col = int(np.flatnonzero(candidates)[0])
            else:
                masked = np.where(candidates, r, np.inf)
                col = int(np.argmin(masked))
            colvals = self.T[:, col]
            pos = colvals > piv_tol
            if not pos.any():
                return "unbounded"
            # A basic value below zero is rounding: it takes a zero step,
            # never a negative one that would push the entering column
            # below its bound.
            ratios = np.where(pos, np.maximum(self.rhs, 0.0) / np.where(pos, colvals, 1.0), np.inf)
            best = ratios.min()
            ties = np.flatnonzero(ratios <= best + 1e-12)
            row = int(min(ties, key=lambda i: self.basis[i]))
            before = self.v1 if phase == 1 else self.v2
            self._pivot(row, col)
            after = self.v1 if phase == 1 else self.v2
            # v tracks the negated objective, so progress means v grows.
            if after - before <= 1e-13 * (1.0 + abs(before)):
                self._stall += 1
                if self._stall > 100:
                    self.bland = True
            else:
                self._stall = 0


def _basis_columns(lp: LPInstance, basis, n_slack: int) -> np.ndarray:
    """A caller's basis as tableau columns, one entry per row of ``lp``:
    entry ``j < lp.n_vars`` is variable j, ``lp.n_vars + k`` the slack of
    the k-th '<=' row.  A basis of the wrong length, or with an entry that
    names no column, raises ``ValueError``.
    """
    basis = np.asarray(basis)
    n_cols = lp.n_vars + n_slack
    if basis.shape != (lp.n_rows,):
        raise ValueError(f"basis needs one column per row, {lp.n_rows} entries; got shape {basis.shape}")
    if basis.size and (
        not np.issubdtype(basis.dtype, np.integer) or basis.min() < 0 or basis.max() >= n_cols
    ):
        raise ValueError(
            f"basis entries must be integers in [0, {n_cols}): the {lp.n_vars} variables, "
            f"then the slacks of the {n_slack} '<=' rows"
        )
    return basis.astype(np.intp)


_BLOCK_CELLS = 1 << 14  # cells of B^-1 T formed at a time


def _start_on_basis(T, rhs, start, feas_tol):
    """``(B0^-1 rhs, B0^-1)`` for B0 = T[:, start], or ``(rhs, None)`` when
    B0 is the identity.  Otherwise T becomes B0^-1 T in place, formed in
    column blocks of about ``_BLOCK_CELLS`` cells, so no second copy of a
    wide tableau is built.

    Raises ``ValueError`` before any pivot if B0 is numerically singular
    or if a basic value is below ``-feas_tol``; values above that but
    below zero are rounding and start at zero.  Singular means a 1-norm
    condition number of at least 1 / (m eps) once the rows and then the
    columns of B0 are scaled to unit max-norm, so the test judges the
    basis and not the scale of the data.
    """
    m = len(start)
    B = T[:, start]
    if np.count_nonzero(B) == m and (np.diagonal(B) == 1.0).all():
        return rhs, None  # rhs >= 0 once lp_solve has flipped its rows
    tiny = np.finfo(float).tiny
    row = np.maximum(np.abs(B).max(axis=1, initial=0.0), tiny)
    col = np.maximum(np.abs(B / row[:, None]).max(axis=0, initial=0.0), tiny)
    B_scaled = B / row[:, None] / col
    try:
        inv_scaled = np.linalg.inv(B_scaled)
        cond = np.abs(B_scaled).sum(axis=0).max(initial=0.0) * np.abs(inv_scaled).sum(axis=0).max(initial=0.0)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond * m * np.finfo(float).eps < 1.0:  # NaN counts as singular
        raise ValueError(f"basis is singular: its scaled 1-norm condition number is {cond:.3e}")
    B_inv = inv_scaled / col[:, None] / row
    x_B = B_inv @ rhs
    low = np.flatnonzero(x_B < -feas_tol)
    if len(low):
        i = int(low[0])
        raise ValueError(
            f"basis is infeasible: its basic variable in row {i} is {x_B[i]:.3e} "
            f"(tolerance {-feas_tol:.3e})"
        )
    step = max(1, _BLOCK_CELLS // max(m, 1))
    for k in range(0, T.shape[1], step):
        T[:, k : k + step] = B_inv @ T[:, k : k + step]
    T[:, start] = np.eye(m)
    return np.maximum(x_B, 0.0), B_inv


def lp_solve(lp: LPInstance, tol: float = 1e-9, basis=None) -> LPSolution:
    """Two-phase dense simplex with a certified optimum.

    ``basis`` names a feasible basis, one column per row of ``lp``: entry
    ``j < lp.n_vars`` is variable j, entry ``lp.n_vars + k`` the slack of
    the k-th '<=' row (a surplus once a row with b < 0 is flipped).  It
    is checked before any pivot: a basis of the wrong length, a
    numerically singular one, or one whose basic values B0^-1 b fall
    below ``-tol (1 + ||b||_1)`` raises ``ValueError``.  Without it,
    '<=' rows with b >= 0 start on their slacks and the others on
    artificials for phase 1.  Either start gives the row duals
    y = (c_B0 - r_B0) B0^-1, whatever their cost.  A solve that needs
    more than 20,000 + 40 (rows + columns) pivots raises
    :class:`ConvergenceError`.

    An ``optimal`` result is certified on the original data before it is
    returned: x >= 0 and every row hold within ``tol`` (scaled by
    1 + |b_i|), y is dual feasible (c - A^T y >= -e and y <= e on '<='
    rows, e = tol (1 + ||c||_inf + max|A_ij| ||y||_1)), and
    |c.x - b.y| <= tol (1 + |c.x| + |b.y|).
    A failed check is a numerical failure: it raises
    :class:`ConvergenceError` naming the first bad row or column instead
    of returning a wrong ``optimal``.
    """
    m, n = lp.A.shape
    max_iter = 20_000 + 40 * (m + n)

    # Flip rows to make the rhs nonnegative, remembering the sign for duals.
    row_sign = np.where(lp.b < 0.0, -1.0, 1.0)
    b = lp.b * row_sign
    le = np.asarray(lp.rel, dtype=str) == "<="

    # Slack columns, one per '<=' row in row order; a flipped row's is a
    # surplus.
    slack_rows = np.flatnonzero(le)
    slack_cols = n + np.arange(len(slack_rows))
    slack_le = row_sign[slack_rows] > 0.0  # still '<=' once flipped
    n_real = n + len(slack_rows)
    cost2 = np.concatenate([lp.c, np.zeros(len(slack_rows))])

    if basis is None:
        start = np.full(m, -1)
        start[slack_rows[slack_le]] = slack_cols[slack_le]
    else:
        start = _basis_columns(lp, basis, len(slack_rows))
    art_rows = np.flatnonzero(start < 0)  # rows of the default start without a slack
    start[art_rows] = n_real + np.arange(len(art_rows))

    T = np.zeros((m, n_real + len(art_rows)))
    np.multiply(lp.A, row_sign[:, None], out=T[:, :n])
    T[slack_rows, slack_cols] = np.where(slack_le, 1.0, -1.0)
    T[art_rows, start[art_rows]] = 1.0
    feas_tol = tol * (1.0 + float(np.abs(b).sum()))
    x_B, B_inv = _start_on_basis(T, b, start, feas_tol)
    tab = _Tableau(T, x_B, cost2, n_real, start.tolist(), tol)
    allowed = np.ones(T.shape[1], dtype=bool)

    if len(art_rows):
        status = tab.run(1, allowed, max_iter)
        if status == "unbounded":  # phase-1 objective is bounded below by 0
            raise ConvergenceError("phase 1 reported unbounded: numerical failure")
        if -tab.v1 > feas_tol:  # v1 tracks the negated phase-1 objective
            return LPSolution(status="infeasible", iterations=tab.iterations)
        # Pivot leftover artificials out of the basis where possible; a row
        # with no usable entry is redundant and its artificial stays at zero.
        for i in range(m):
            if tab.basis[i] >= n_real:
                row = tab.T[i, :n_real]
                cand = np.flatnonzero(np.abs(row) > 1e-7)
                if len(cand):
                    tab._pivot(i, int(cand[0]))
    allowed[n_real:] = False

    status = tab.run(2, allowed, max_iter)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=tab.iterations)

    x_std = np.zeros(T.shape[1])
    x_std[tab.basis] = tab.rhs
    x = x_std[:n] + 0.0  # + 0.0 turns a basic -0.0 into 0.0
    # Row duals from the start columns: r_j = c_j - y.T0[:, j] with
    # T0[:, start] = B0, then unflipped to the original rows.
    y = tab.cost[start] - tab.r2[start]
    if B_inv is not None:
        y = y @ B_inv
    y *= row_sign

    # Certify on the original data before reporting; a NaN fails every
    # comparison, so it counts as a violation.
    resid = lp.A @ x - lp.b
    scale = tol * (1.0 + np.abs(lp.b))
    bad = ~np.where(le, resid <= scale, np.abs(resid) <= scale)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(f"optimal basis violates row {i} by {resid[i]:.3e}")
    bad = ~(x >= -tol)
    if bad.any():
        j = int(np.argmax(bad))
        raise ConvergenceError(f"variable {j} violates its lower bound: x = {x[j]:.3e}")
    # Dual feasibility on the columns of A and the slacks of the '<='
    # rows (reduced cost -y_i); the scale covers the rounding of A^T y.
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
    bad = le & ~(y <= rc_tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"duals are infeasible: '<=' row {i} has dual {y[i]:.3e} (tolerance {rc_tol:.3e})"
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
        iterations=tab.iterations,
    )


# ---------------------------------------------------------------------------
# Quadratics over the simplex: Wolfe's minimum-norm-point algorithm
# ---------------------------------------------------------------------------


def _affine_solve(L, c, lam=None):
    """Affine weights (summing to one) of the point of the affine hull of
    L's columns (at least two) nearest ``c``.

    Solved as least squares on the edge vectors ``L[:, 1:] - L[:, :1]``
    against the residual ``L @ lam - c`` of a start ``lam`` summing to one
    (default: the barycenter), so the result refines ``lam``.  Affinely
    dependent columns get the minimum-norm correction.
    """
    if lam is None:
        lam = np.full(L.shape[1], 1.0 / L.shape[1])
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
    L = np.asarray(L, dtype=float)
    c = np.asarray(c, dtype=float)
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
    1e-12 from one).
    """
    lam, f, _, _ = _mnp(L, c, lambda f_, g_: g_ <= tol)
    _check_simplex(lam)
    return lam, f


def min_distance_over_simplex(
    L: np.ndarray, c: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Minimize ``||c - L t||`` (the distance itself) to accuracy ``tol``.

    Same kernel, weights and errors as :func:`min_quadratic_over_simplex`
    but with the gap threshold adapted to the distance scale, so the
    returned ``(t, distance)`` has the distance within ``tol`` of the true
    minimum even when the optimum is far from zero.
    """

    def stop(f, gap):
        # The 1e-15 floor is the float64 limit: |sqrt(f)-sqrt(f*)| <=
        # sqrt(gap), so it still pins the distance to ~3e-8 absolute.
        return gap <= max(tol * tol, 0.5 * tol * np.sqrt(max(f, 0.0)), 1e-15 * (1.0 + abs(f)))

    lam, f, _, _ = _mnp(L, c, stop)
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
    :class:`ConvergenceError` after ``max_splits`` splits.
    """
    heap = [node for node in nodes if node[0] < upper]
    heapq.heapify(heap)
    for _ in range(max_splits):
        lower = min(heap[0][0], upper) if heap else upper
        if done(lower, upper):
            return lower, upper, best
        value, arg, children = split(heapq.heappop(heap))
        if value < upper:
            upper, best = value, arg
        for node in children:
            if node[0] < upper:
                heapq.heappush(heap, node)
    raise ConvergenceError(f"bracket [{lower!r}, {upper!r}] still open after {max_splits} splits")
