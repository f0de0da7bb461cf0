"""The combinatorial tree-like Banach space whose unit-vector set is a
worst-possible approximately Jensen-convex set.

Basis vectors are indexed by interned tree labels.  The halving operator
T sends a pair label to the average of its children and kills leaves;
S = I - T is invertible on finitely supported vectors because T is
nilpotent there.  The norm is

    ||x|| = inf { M ||y||_1 + ||S^-1(z)||_1' : x = y + z },

with ||.||_1' the weighted l1 norm putting weight M on leaves.  Its dual
unit ball is exactly the set of label functions phi with |phi| <= M and
midpoint defect |phi(a) - (phi(b)+phi(c))/2| <= 1 on pairs: both sides
are computed as linear programs over the downward closure of the
support, and every reported norm carries an explicitly validated dual
functional as certificate.

The label interner is the only state shared between calls; everything
else is confined to one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Vector
from .labels import TreeLabel, downward_closure, label_sort_key, leaf, pair
from .optim import ConvergenceError, LPInstance, lp_solve

__all__ = [
    "TreeLabel",
    "TreeVector",
    "leaf",
    "pair",
    "downward_closure",
    "DualFunctional",
    "apply_T",
    "apply_S",
    "apply_S_inv",
    "order_classes",
    "tree_norm",
    "tree_norm_functional",
    "tree_norm_dual_lp",
    "extend_phi",
    "build_phi",
    "functional_eval",
    "haus_experiment",
    "jensen_defect",
]

TreeVector = Vector  # a Vector whose indices are TreeLabels

DUALITY_TOL = 1e-7


def _check_tree_indices(x: Vector):
    for idx in x.support():
        if not isinstance(idx, TreeLabel):
            raise ValueError(f"tree-space vectors need TreeLabel indices, got {idx!r}")


def apply_T(x: TreeVector) -> TreeVector:
    """Halving operator: e_(b,c) -> (e_b + e_c)/2, leaves -> 0."""
    _check_tree_indices(x)
    out: dict[TreeLabel, float] = {}
    for lab, v in x.items():
        if not lab.is_leaf:
            half = 0.5 * v
            out[lab.left] = out.get(lab.left, 0.0) + half
            out[lab.right] = out.get(lab.right, 0.0) + half
    return Vector(out)


def apply_S(x: TreeVector) -> TreeVector:
    """S = I - T."""
    return x - apply_T(x)


def apply_S_inv(x: TreeVector) -> TreeVector:
    """S^-1 = sum of T^k; a finite sum since T lowers the maximum level."""
    _check_tree_indices(x)
    total = x
    cur = x
    while cur:
        cur = apply_T(cur)
        total = total + cur
    return total


def order_classes(a: TreeLabel) -> dict[int, set[TreeLabel]]:
    """Partition of the downward closure of `a` by first hitting time
    under T (breadth-first from `a`); class k has at most 2^k labels."""
    classes: dict[int, set[TreeLabel]] = {0: {a}}
    seen = {a}
    frontier = [a]
    k = 0
    while True:
        nxt = []
        for lab in frontier:
            if lab.is_leaf:
                continue
            for child in (lab.left, lab.right):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            return classes
        k += 1
        classes[k] = set(nxt)
        frontier = nxt


def _orders(a: TreeLabel) -> dict[TreeLabel, int]:
    return {lab: k for k, cls in order_classes(a).items() for lab in cls}


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """A label function phi with |phi| <= M and midpoint defect <= 1 on
    every stored pair whose children are stored: exactly a point of the
    dual unit ball, restricted to a finite label set."""

    values: dict[TreeLabel, float]
    scale: float

    def validate(self, tol: float = 1e-9) -> "DualFunctional":
        """Return self if the scale is finite and positive and every
        constraint holds within ``tol``; else raise ``ValueError`` naming
        the first violation.  A NaN value or defect fails its check."""
        M = self.scale
        if not 0.0 < M < np.inf:
            raise ValueError(f"the scale M must be finite and positive, got {M}")
        for lab, v in self.values.items():
            if not abs(v) <= M + tol:
                if v != v:
                    raise ValueError(f"phi({lab!r}) is nan")
                raise ValueError(f"|phi({lab!r})| = {abs(v)} exceeds M = {M}")
            if not lab.is_leaf and lab.left in self.values and lab.right in self.values:
                defect = abs(v - 0.5 * (self.values[lab.left] + self.values[lab.right]))
                if not defect <= 1.0 + tol:
                    if defect != defect:
                        raise ValueError(f"midpoint defect at {lab!r} is nan")
                    raise ValueError(f"midpoint defect {defect} at {lab!r} exceeds 1")
        return self

    def __contains__(self, lab: TreeLabel) -> bool:
        return lab in self.values

    def __getitem__(self, lab: TreeLabel) -> float:
        return self.values[lab]


def functional_eval(phi: DualFunctional, x: TreeVector) -> float:
    """sum x(d) phi(d); every support label must be in phi's domain."""
    total = 0.0
    for lab, v in x.items():
        if lab not in phi.values:
            raise ValueError(f"functional is undefined at {lab!r}")
        total += v * phi.values[lab]
    return total


def _halving(x: TreeVector):
    """(D, S, pairs): the downward closure D of supp(x) in label order,
    S = I - T on it as an (N, N) array whose column j is S(e_D[j]), and
    the positions in D of its pairs.

    Each child gets its -1/2 from its own statement, so a pair (a, a)
    puts -1 on a."""
    D = sorted(downward_closure(x.support()), key=label_sort_key)
    pos = {lab: i for i, lab in enumerate(D)}
    pairs = [j for j, lab in enumerate(D) if not lab.is_leaf]
    S = np.eye(len(D))
    S[[pos[D[j].left] for j in pairs], pairs] -= 0.5
    S[[pos[D[j].right] for j in pairs], pairs] -= 0.5
    return D, S, pairs


def _primal_lp(x: TreeVector, M: float, tol: float):
    """Decomposition LP over the downward closure D of supp(x).

    Variables y+, y- over D and w+, w- over D's pairs, with y + S(w) = x;
    the objective M||y||_1 + ||w||_1' is exact after sign splitting.  A
    leaf d needs no w column: S e_d = e_d and its weight is M, so w+-_d
    would equal y+-_d, cost included, and the simplex, which breaks ties
    by the lower column, would never bring it in.  The row duals of this
    LP are precisely a maximizing dual functional.  It starts on y = x,
    w = 0 (y+ or y- by the sign of x), an identity basis once the
    negative rows are flipped, so it is never inverted.
    """
    D, S, pairs = _halving(x)
    N = len(D)
    W = S[:, pairs]
    A = np.hstack([np.eye(N), -np.eye(N), W, -W])
    b = x.to_array(D)
    c = np.concatenate([np.full(2 * N, M), np.ones(2 * len(pairs))])
    sol = lp_solve(
        LPInstance(c=c, A=A, b=b),
        tol=min(tol, 1e-9),
        basis=np.arange(N) + N * (b < 0.0),
    )
    if sol.status != "optimal":  # y = x, w = 0 is feasible; values are >= 0
        raise ConvergenceError(f"norm LP ended with status {sol.status}")
    return D, sol


def tree_norm_functional(x: TreeVector, M: float, tol: float = DUALITY_TOL):
    """Norm of x together with its certifying dual functional.

    Returns (primal, phi) where primal is the decomposition-LP value and
    phi is the dual functional read off the LP row multipliers, clamped
    into [-M, M] and validated.
    """
    _check_tree_indices(x)
    if not M > 0.0:
        raise ValueError(f"need M > 0, got {M}")
    if not x:
        return 0.0, DualFunctional(values={}, scale=M)
    D, sol = _primal_lp(x, M, tol)
    phi_vals = dict(zip(D, np.clip(sol.dual, -M, M).tolist()))
    phi = DualFunctional(values=phi_vals, scale=M).validate(tol=tol)
    return float(sol.value), phi


def tree_norm(x: TreeVector, M: float, tol: float = DUALITY_TOL) -> tuple[float, float]:
    """(primal, dual) values of the tree norm of x.

    primal: best decomposition restricted to the downward closure of the
    support; dual: value of the validated maximizing functional.  The
    two are an exact LP dual pair, so a gap beyond `tol` is reported as
    an inconsistency rather than returned.
    """
    primal, phi = tree_norm_functional(x, M, tol)
    dual = functional_eval(phi, x) if phi.values else 0.0
    gap = primal - dual
    if gap < -tol or gap > tol:
        raise ConvergenceError(
            f"tree-norm duality gap {gap:.3e} exceeds tolerance {tol:.1e}"
        )
    return primal, dual


def tree_norm_dual_lp(x: TreeVector, M: float, tol: float = 1e-9) -> float:
    """The dual value computed by its own LP (maximize sum x(d) phi(d)
    over the dual-ball constraints on the closure); used to cross-check
    the multiplier route.

    ``lp_solve`` takes x >= 0 only, so the LP is posed in u = phi + M:
    minimize -x.u subject to the midpoint-defect rows and the box rows
    u <= 2M, each an equality with its own slack column after the u
    columns, and the value is x.(u - M).  Its b is 1 on the defect rows
    and 2M on the box rows, so it starts on its slacks (u = 0, phi = -M),
    an identity basis that is never inverted."""
    _check_tree_indices(x)
    if not M > 0.0:
        raise ValueError(f"need M > 0, got {M}")
    if not x:
        return 0.0
    D, S, pairs = _halving(x)
    N = len(D)
    # Rows +-(S e_d) . phi <= 1 for each pair d: its midpoint defect.
    A = np.empty((2 * len(pairs), N))
    A[0::2] = S[:, pairs].T
    A[1::2] = -A[0::2]
    xd = x.to_array(D)
    rows = len(A) + N
    sol = lp_solve(
        LPInstance(
            c=np.concatenate([-xd, np.zeros(rows)]),
            A=np.hstack([np.vstack([A, np.eye(N)]), np.eye(rows)]),
            b=np.concatenate([1.0 - A @ np.full(N, -M), np.full(N, 2.0 * M)]),
        ),
        tol=tol,
        basis=N + np.arange(rows),
    )
    if sol.status != "optimal":  # phi = 0 is feasible; the box rows bound it
        raise ConvergenceError(f"dual norm LP ended with status {sol.status}")
    return float(np.dot(xd, sol.x[:N] - M))


def extend_phi(
    E: set[TreeLabel], phi0: DualFunctional, universe: set[TreeLabel]
) -> DualFunctional:
    """Extend a partial dual functional to a full one over `universe`.

    E must be closed under children and phi0 must satisfy the dual-ball
    constraints on it.  New leaves default to -M; new pairs take the
    exact midpoint of their children (defect zero), processed upward by
    level.  Only the extension is validated: the new values can break no
    constraint, and E's labels come first, so a violation on E raises
    the same error it would on phi0 alone.
    """
    M = phi0.scale
    E = set(E)
    for lab in E:
        if not lab.is_leaf and not (lab.left in E and lab.right in E):
            raise ValueError(f"{lab!r} is in E but its children are not")
        if lab not in phi0.values:
            raise ValueError(f"phi0 is undefined on {lab!r} in E")
    values = {l: phi0.values[l] for l in E}
    # E is closed under children, so the closure of universe | E is E
    # together with the closure of the rest.
    domain = downward_closure(set(universe) - E) | E
    for lab in sorted(domain - E, key=label_sort_key):
        if lab.is_leaf:
            values[lab] = -M
        else:
            values[lab] = 0.5 * (values[lab.left] + values[lab.right])
    return DualFunctional(values=values, scale=M).validate()


def build_phi(a: TreeLabel, M: int, universe: set[TreeLabel]) -> DualFunctional:
    """The norming functional that witnesses e_a being far from averages
    of many fresh leaves.

    phi(a) = M; leaves outside the closure of a get -M; a label d in the
    closure at hitting order k gets at least max(M - k, -M), leaves
    exactly that, pairs the recursive value min(M, midpoint + 1).
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"the scale must be a positive integer, got {M!r}")
    return _norming_functional(a, M, downward_closure(set(universe) | {a}))


def _norming_functional(a: TreeLabel, M: int, domain: set[TreeLabel]) -> DualFunctional:
    """build_phi on a domain already closed under children and holding a."""
    E_a = downward_closure({a})
    orders = _orders(a)
    phi0: dict[TreeLabel, float] = {}
    for lab in sorted(E_a, key=label_sort_key):
        if lab.is_leaf:
            phi0[lab] = float(max(M - orders[lab], -M))
        else:
            phi0[lab] = min(
                float(M), 0.5 * (phi0[lab.left] + phi0[lab.right]) + 1.0
            )
    E = set(E_a)
    for lab in domain:
        if lab.is_leaf and lab not in E:
            phi0[lab] = float(-M)
            E.add(lab)
    return extend_phi(E, DualFunctional(values=phi0, scale=float(M)), domain)


def haus_experiment(
    M: int, N: int, candidates: list[TreeLabel] | None = None
) -> float:
    """Certified lower bound on the distance from the average of N fresh
    leaves to the unit-vector set.

    For each candidate label a, builds the norming functional of `a` and
    evaluates it at e_a - (1/N) sum e_k; each value is a lower bound on
    the corresponding norm, and every one is at least
    2M - 2^(2M+1) M / N.  Returns the minimum over candidates.
    """
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"the scale must be a positive integer, got {M!r}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if candidates is not None and not candidates:
        raise ValueError("need at least one candidate")
    leaves = [leaf(i) for i in range(1, N + 1)]
    if candidates is None:
        candidates = [leaf(N + 1)]
        if N >= 2:
            candidates.append(pair(leaves[0], leaves[1]))
        if N >= 3:
            candidates.append(pair(pair(leaves[0], leaves[1]), leaves[2]))
    avg = Vector({lab: 1.0 / N for lab in leaves})
    universe = downward_closure(set(leaves) | set(candidates))
    best = None
    for a in candidates:
        phi = _norming_functional(a, M, universe)
        value = functional_eval(phi, Vector.unit(a) - avg)
        best = value if best is None else min(best, value)
    return float(best)


def jensen_defect(b: TreeLabel, c: TreeLabel, M: float, tol: float = DUALITY_TOL) -> float:
    """Distance from the midpoint of e_b, e_c to the pair vector
    e_(b,c): always at most 1, whatever the scale M >= 1."""
    if not M >= 1.0:
        raise ValueError(f"need M >= 1, got {M}")
    v = Vector.unit(pair(b, c)) - 0.5 * (Vector.unit(b) + Vector.unit(c))
    primal, _ = tree_norm(v, M, tol)
    return primal
