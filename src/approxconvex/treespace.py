"""The combinatorial tree-like Banach space whose unit-vector set is a
worst-possible approximately Jensen-convex set.

Basis vectors are indexed by interned tree labels.  The halving operator
T sends a pair label to the average of its children and kills leaves;
S = I - T is invertible on finitely supported vectors because T is
nilpotent there.  The norm is

    ||x|| = inf { M ||y||_1 + ||S^-1(z)||_1' : x = y + z },

with ||.||_1' the weighted l1 norm putting weight M on leaves.  Its dual
unit ball is exactly the set of label functions phi with |phi| <= M and
midpoint defect |phi(a) - (phi(b)+phi(c))/2| <= 1 on pairs.  One linear
program, the decomposition over the downward closure of the support,
gives both sides: its row duals are a maximizing functional, so every
reported norm carries an explicitly validated dual functional as
certificate.  A functional is held as arrays over a fixed label order:
its values, and the positions of each pair and of the pair's children,
so validating it is two array comparisons.  ``haus_experiment`` stores
one only on the closure of its candidates; the fresh leaves it averages
are one block at -M, which needs no check, added in one step.

The label interner is the only state shared between calls; everything
else is confined to one call.
"""

from __future__ import annotations

from typing import Mapping

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


def _layout(labels: list[TreeLabel]):
    """(pos, pairs, left, right) for labels in a fixed order: each label's
    position, and as int arrays the positions of the pairs whose two
    children are among the labels, in order, and of those children."""
    pos = {lab: i for i, lab in enumerate(labels)}
    pairs = [j for j, lab in enumerate(labels) if not lab.is_leaf and lab.left in pos and lab.right in pos]
    left = [pos[labels[j].left] for j in pairs]
    right = [pos[labels[j].right] for j in pairs]
    return pos, np.array(pairs, dtype=np.intp), np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)


class DualFunctional:
    """A label function phi with |phi| <= M and midpoint defect <= 1 on
    every stored pair whose children are stored: exactly a point of the
    dual unit ball, restricted to a finite label set.

    It is held as arrays over ``labels``, a list in a fixed order:
    ``array[i]`` is phi(labels[i]); ``pairs`` holds the positions of the
    stored pairs whose children are stored, and ``left`` and ``right``
    the positions of their children.  ``DualFunctional(values, scale)``
    takes a mapping, in whose order the labels are kept; ``values``
    reads the functional back as a dict.
    """

    __slots__ = ("labels", "array", "scale", "pairs", "left", "right", "_pos")

    def __init__(self, values: Mapping[TreeLabel, float], scale: float):
        labels = list(values)
        self._set(labels, np.array(list(values.values()), dtype=float), scale, _layout(labels))

    @classmethod
    def _of(cls, labels, array, scale, layout) -> "DualFunctional":
        phi = cls.__new__(cls)
        phi._set(labels, array, scale, layout)
        return phi

    def _set(self, labels, array, scale, layout):
        self.labels, self.array, self.scale = labels, array, scale
        self._pos, self.pairs, self.left, self.right = layout

    @property
    def values(self) -> dict[TreeLabel, float]:
        return dict(zip(self.labels, self.array.tolist()))

    def __repr__(self) -> str:
        return f"DualFunctional(values={self.values!r}, scale={self.scale!r})"

    def validate(self, tol: float = 1e-9) -> "DualFunctional":
        """Return self if the scale is finite and positive and every
        constraint holds within ``tol``; else raise ``ValueError`` naming
        the first violation in label order, a label's bound before its
        midpoint defect.  A NaN value or defect fails its check."""
        M = self.scale
        if not 0.0 < M < np.inf:
            raise ValueError(f"the scale M must be finite and positive, got {M}")
        bound_ok = np.abs(self.array) <= M + tol
        # count_nonzero costs a third of .all() on the tiny arrays of most norms.
        if np.count_nonzero(bound_ok) == bound_ok.size:  # so every defect is finite
            defect_ok = self._defects() <= 1.0 + tol
            if np.count_nonzero(defect_ok) == defect_ok.size:
                return self
        else:
            with np.errstate(all="ignore"):  # inf - inf is a NaN defect
                defect_ok = self._defects() <= 1.0 + tol
        bad = ~bound_ok
        bad[self.pairs[~defect_ok]] = True
        lab = self.labels[int(np.argmax(bad))]
        x = self[lab]
        if not abs(x) <= M + tol:
            raise ValueError(f"phi({lab!r}) is nan" if x != x else f"|phi({lab!r})| = {abs(x)} exceeds M = {M}")
        defect = abs(x - 0.5 * (self[lab.left] + self[lab.right]))
        if defect != defect:
            raise ValueError(f"midpoint defect at {lab!r} is nan")
        raise ValueError(f"midpoint defect {defect} at {lab!r} exceeds 1")

    def _defects(self) -> np.ndarray:
        """|phi(a) - (phi(b) + phi(c))/2| at each stored pair a = (b, c)."""
        v = self.array
        return np.abs(v[self.pairs] - 0.5 * (v[self.left] + v[self.right]))

    def __contains__(self, lab: TreeLabel) -> bool:
        return lab in self._pos

    def __getitem__(self, lab: TreeLabel) -> float:
        return float(self.array[self._pos[lab]])


def functional_eval(phi: DualFunctional, x: TreeVector) -> float:
    """sum x(d) phi(d), added left to right in x's order; every support
    label must be in phi's domain."""
    pos, values = phi._pos, phi.array.tolist()
    total = 0.0
    for lab, v in x.items():
        if lab not in pos:
            raise ValueError(f"functional is undefined at {lab!r}")
        total += v * values[pos[lab]]
    return total


def _primal_lp(x: TreeVector, M: float, tol: float):
    """Decomposition LP over the downward closure D of supp(x).

    Variables y+, y- over D and w+, w- over D's pairs, with y + S(w) = x;
    the objective M||y||_1 + ||w||_1' is exact after sign splitting.  A
    leaf d needs no w column: S e_d = e_d and its weight is M, so w+-_d
    would equal y+-_d, cost included, and the simplex, which breaks ties
    by the lower column, would never bring it in.  The row duals of this
    LP are precisely a maximizing dual functional.  It starts on y = x,
    w = 0, whose columns are +-e_i: the signed unit start `lp_solve`
    takes.  A support row starts on y+ or y- by the sign of x.  A zero
    row, a label of D outside supp(x), has basic value 0 on either
    column, so it takes the column of its last parent in label order.
    The start duals are M sign, so such a label starts at its parent's
    value and adds no midpoint defect there; y+ on every zero row put +M
    under each negative support label, a defect of 2M that took about
    ten degenerate pivots per LP to repair.  Returns D in label order,
    its layout and the solution.

    A = [I, -I, W, -W] is written once from the layout: W's column k is
    S(e_a) for the k-th pair a, each child taking its -1/2 in its own
    statement so that a pair (b, b) puts -1 on b, and the minus blocks
    are negated copies of the plus blocks.
    """
    D = sorted(downward_closure(x.support()), key=label_sort_key)
    layout = _layout(D)
    _, pairs, left, right = layout
    N, P = len(D), len(pairs)
    A = np.zeros((N, 2 * (N + P)))
    rows, cols = np.arange(N), 2 * N + np.arange(P)
    A[rows, rows] = 1.0
    A[pairs, cols] = 1.0
    A[left, cols] -= 0.5
    A[right, cols] -= 0.5
    A[:, N : 2 * N] = -A[:, :N]
    A[:, 2 * N + P :] = -A[:, 2 * N : 2 * N + P]
    b = x.to_array(D)
    c = np.concatenate([np.full(2 * N, M), np.ones(2 * P)])
    # Parents sort after their children, so walking the pairs backwards
    # signs each pair before its children; every label of D descends
    # from a support label, so every row ends up signed.
    sign = np.sign(b).tolist()
    for a, kid1, kid2 in zip(pairs[::-1].tolist(), left[::-1].tolist(), right[::-1].tolist()):
        if not sign[kid1]:
            sign[kid1] = sign[a]
        if not sign[kid2]:
            sign[kid2] = sign[a]
    sol = lp_solve(
        LPInstance(c=c, A=A, b=b),
        tol=min(tol, 1e-9),
        basis=np.arange(N) + N * (np.array(sign) < 0.0),
    )
    if sol.status != "optimal":  # the start is feasible and every cost > 0
        raise ConvergenceError(f"norm LP ended with status {sol.status}")
    return D, layout, sol


def tree_norm_functional(x: TreeVector, M: float, tol: float = DUALITY_TOL):
    """Norm of x together with its certifying dual functional.

    Returns (primal, phi) where primal is the decomposition-LP value and
    phi is the dual functional read off the LP row multipliers, clamped
    into [-M, M] and validated, over the closure in label order.
    """
    _check_tree_indices(x)
    if not 0.0 < M < np.inf:
        raise ValueError(f"need M > 0 and finite, got {M}")
    if not x:
        return 0.0, DualFunctional(values={}, scale=M)
    D, layout, sol = _primal_lp(x, M, tol)
    phi = DualFunctional._of(D, np.clip(sol.dual, -M, M), M, layout).validate(tol=tol)
    return float(sol.value), phi


def tree_norm(x: TreeVector, M: float, tol: float = DUALITY_TOL) -> tuple[float, float]:
    """(primal, dual) values of the tree norm of x.

    primal: best decomposition restricted to the downward closure of the
    support; dual: value of the validated maximizing functional.  The
    two are an exact LP dual pair, so a gap beyond `tol` is reported as
    an inconsistency rather than returned.
    """
    primal, phi = tree_norm_functional(x, M, tol)
    dual = functional_eval(phi, x)
    gap = primal - dual
    if gap < -tol or gap > tol:
        raise ConvergenceError(
            f"tree-norm duality gap {gap:.3e} exceeds tolerance {tol:.1e}"
        )
    return primal, dual


def tree_norm_dual_lp(x: TreeVector, M: float) -> float:
    """The dual value of the tree norm of x, ``tree_norm(x, M)[1]``.

    It solves no LP of its own: the validated functional read off the
    decomposition LP's row duals is already a maximizer over the dual
    ball.  It stays only while the benchmark's ``dual_task`` and its
    ``treespace.dual_lp`` trace site call it."""
    return tree_norm(x, M)[1]


def extend_phi(
    E: set[TreeLabel], phi0: DualFunctional, universe: set[TreeLabel]
) -> DualFunctional:
    """Extend a partial dual functional to a full one over `universe`.

    E must be closed under children and phi0 must satisfy the dual-ball
    constraints on it.  New leaves default to -M; new pairs take the
    exact midpoint of their children (defect zero), filled one level at
    a time: children have lower levels, so a level reads only values
    already set.  The result lists E's labels first, in phi0's order,
    then the new ones in label order, and is validated: the new values
    can break no constraint, so a violation on E raises the same error
    it would on phi0 restricted to E.
    """
    M = phi0.scale
    E = set(E)
    for lab in E:
        if not lab.is_leaf and not (lab.left in E and lab.right in E):
            raise ValueError(f"{lab!r} is in E but its children are not")
        if lab not in phi0:
            raise ValueError(f"phi0 is undefined on {lab!r} in E")
    head = [lab for lab in phi0.labels if lab in E]
    # E is closed under children, so the closure of universe | E is E
    # together with the closure of the rest.
    new = sorted(downward_closure(set(universe) - E) - E, key=label_sort_key)
    labels = head + new
    layout = _layout(labels)
    _, pairs, left, right = layout
    v = np.full(len(labels), -float(M))
    v[: len(head)] = phi0.array[[phi0._pos[lab] for lab in head]]
    k = int(np.searchsorted(pairs, len(head)))  # pairs[k:] are the new pairs
    levels = [labels[j].level for j in pairs.tolist()]
    cuts = [i for i in range(k + 1, len(pairs)) if levels[i] != levels[i - 1]]
    for lo, hi in zip([k, *cuts], [*cuts, len(pairs)]):
        v[pairs[lo:hi]] = 0.5 * (v[left[lo:hi]] + v[right[lo:hi]])
    return DualFunctional._of(labels, v, M, layout).validate()


def build_phi(a: TreeLabel, M: int, universe: set[TreeLabel]) -> DualFunctional:
    """The norming functional that witnesses e_a being far from averages
    of many fresh leaves.

    phi(a) = M; leaves outside the closure of a get -M; a label d in the
    closure at hitting order k gets at least max(M - k, -M), leaves
    exactly that, pairs the recursive value min(M, midpoint + 1).  The
    closure of a, a handful of labels, is filled first; ``extend_phi``
    fills the rest of the closure of universe | {a}.
    """
    if isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise ValueError(f"the scale must be a positive integer, got {M!r}")
    orders = {lab: k for k, cls in order_classes(a).items() for lab in cls}
    phi0: dict[TreeLabel, float] = {}
    for lab in sorted(orders, key=label_sort_key):
        if lab.is_leaf:
            phi0[lab] = float(max(M - orders[lab], -M))
        else:
            phi0[lab] = min(float(M), 0.5 * (phi0[lab.left] + phi0[lab.right]) + 1.0)
    return extend_phi(phi0.keys(), DualFunctional(values=phi0, scale=float(M)), universe)


def haus_experiment(
    M: int, N: int, candidates: list[TreeLabel] | None = None
) -> float:
    """Certified lower bound on the distance from the average of N fresh
    leaves to the unit-vector set.

    For each candidate label a, builds the norming functional of `a` and
    evaluates it at e_a - (1/N) sum e_k; each value is a lower bound on
    the corresponding norm, and every one is at least
    2M - 2^(2M+1) M / N.  Returns the minimum over candidates.

    Only the closure C of the candidates is stored and validated.  The
    fresh leaves, those of 1..N outside C, are never made: the norming
    functional is -M on each of them, a value that needs no check since
    |-M| <= M and no pair of C has a fresh leaf as a child.  Together
    they add their exact share, fresh * M / N, to every value.
    """
    if isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise ValueError(f"the scale must be a positive integer, got {M!r}")
    if isinstance(N, bool) or not isinstance(N, int):
        raise ValueError(f"N must be an integer, got {N!r}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if candidates is not None and not candidates:
        raise ValueError("need at least one candidate")
    if candidates is None:
        candidates = [leaf(N + 1)]
        if N >= 2:
            candidates.append(pair(leaf(1), leaf(2)))
        if N >= 3:
            candidates.append(pair(pair(leaf(1), leaf(2)), leaf(3)))
    closure = downward_closure(candidates)
    averaged = sorted((lab for lab in closure if lab.is_leaf and lab.index <= N), key=lambda lab: lab.index)
    avg = Vector({lab: 1.0 / N for lab in averaged})
    block = (N - len(averaged)) * M / N
    best = None
    for a in candidates:
        phi = build_phi(a, M, closure)
        value = functional_eval(phi, Vector.unit(a) - avg) + block
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
