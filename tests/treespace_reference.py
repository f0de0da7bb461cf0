"""Reference implementations of the tree-space dual functionals as
label-keyed dicts, one Python loop per check, the way the library held
them before they became arrays.  Tests compare the array versions in
`approxconvex.treespace` with these: values bit for bit (up to the
summation order of the fresh-leaf block) and error messages word for
word.  Not part of the library."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from approxconvex.core import Vector
from approxconvex.labels import TreeLabel, downward_closure, label_sort_key, leaf, pair
from approxconvex.treespace import order_classes


@dataclass(frozen=True, eq=False)
class RefFunctional:
    """A label function phi held as a dict, checked in the dict's order."""

    values: dict[TreeLabel, float]
    scale: float

    def validate(self, tol: float = 1e-9) -> "RefFunctional":
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


def functional_eval(phi: RefFunctional, x: Vector) -> float:
    total = 0.0
    for lab, v in x.items():
        if lab not in phi.values:
            raise ValueError(f"functional is undefined at {lab!r}")
        total += v * phi.values[lab]
    return total


def extend_phi(E, phi0: RefFunctional, universe) -> RefFunctional:
    M = phi0.scale
    E = set(E)
    for lab in E:
        if not lab.is_leaf and not (lab.left in E and lab.right in E):
            raise ValueError(f"{lab!r} is in E but its children are not")
        if lab not in phi0.values:
            raise ValueError(f"phi0 is undefined on {lab!r} in E")
    values = {l: phi0.values[l] for l in E}
    domain = downward_closure(set(universe) - E) | E
    for lab in sorted(domain - E, key=label_sort_key):
        if lab.is_leaf:
            values[lab] = -M
        else:
            values[lab] = 0.5 * (values[lab.left] + values[lab.right])
    return RefFunctional(values=values, scale=M).validate()


def build_phi(a: TreeLabel, M: int, universe) -> RefFunctional:
    return _norming_functional(a, M, downward_closure(set(universe) | {a}))


def _norming_functional(a: TreeLabel, M: int, domain) -> RefFunctional:
    E_a = downward_closure({a})
    orders = {lab: k for k, cls in order_classes(a).items() for lab in cls}
    phi0: dict[TreeLabel, float] = {}
    for lab in sorted(E_a, key=label_sort_key):
        if lab.is_leaf:
            phi0[lab] = float(max(M - orders[lab], -M))
        else:
            phi0[lab] = min(float(M), 0.5 * (phi0[lab.left] + phi0[lab.right]) + 1.0)
    E = set(E_a)
    for lab in domain:
        if lab.is_leaf and lab not in E:
            phi0[lab] = float(-M)
            E.add(lab)
    return extend_phi(E, RefFunctional(values=phi0, scale=float(M)), domain)


def haus_experiment(M: int, N: int, candidates=None) -> float:
    """Makes all N leaves and stores the functional on every one."""
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
