"""Hash-consed tree labels.

Labels are either leaves (positive integers) or ordered pairs of labels.
The level of a leaf is 1 and the level of a pair is the sum of its
children's levels.  Labels are structurally interned: building the same
label twice returns the same object, so equality and hashing are O(1)
and label sets behave like value sets.

The full label universe is infinite and is never materialised; callers
only ever construct the labels they touch plus their downward closures.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["TreeLabel", "leaf", "pair", "downward_closure", "label_sort_key"]


class TreeLabel:
    """An interned label: a leaf index or an ordered pair of labels.

    Do not instantiate directly; use :func:`leaf` and :func:`pair` so
    that structurally equal labels are the same object.
    """

    __slots__ = ("index", "left", "right", "level", "_name")

    def __init__(self, index, left, right, level, name):
        self.index = index        # int for leaves, None for pairs
        self.left = left          # TreeLabel or None
        self.right = right        # TreeLabel or None
        self.level = level
        self._name = name

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    def __repr__(self) -> str:
        return self._name

    # Interned: identity semantics are correct, object.__eq__/__hash__ apply.


_LEAVES: dict[int, TreeLabel] = {}
_PAIRS: dict[tuple[TreeLabel, TreeLabel], TreeLabel] = {}


def leaf(index: int) -> TreeLabel:
    """The level-1 label with the given positive integer index.

    A ``bool`` is rejected: ``True`` equals and hashes as 1, so it would
    intern leaf 1 under the printed name ``True``, which
    :func:`label_sort_key` orders by."""
    if isinstance(index, bool) or not isinstance(index, int) or index < 1:
        raise ValueError(f"leaf index must be a positive integer, got {index!r}")
    lab = _LEAVES.get(index)
    if lab is None:
        lab = _LEAVES[index] = TreeLabel(index, None, None, 1, str(index))
    return lab


def pair(left: TreeLabel, right: TreeLabel) -> TreeLabel:
    """The ordered pair (left, right); its level is the sum of the parts."""
    if not isinstance(left, TreeLabel) or not isinstance(right, TreeLabel):
        raise TypeError("pair() expects two TreeLabels")
    key = (left, right)
    lab = _PAIRS.get(key)
    if lab is None:
        name = f"({left!r},{right!r})"
        lab = _PAIRS[key] = TreeLabel(None, left, right, left.level + right.level, name)
    return lab


def label_sort_key(lab: TreeLabel) -> tuple[int, str]:
    """Deterministic ordering: by level, then by printed form.

    Children always sort strictly before their parents, which the
    recursive constructions rely on.
    """
    return (lab.level, lab._name)


def downward_closure(labels: Iterable[TreeLabel]) -> set[TreeLabel]:
    """Smallest superset of `labels` closed under taking children."""
    closure: set[TreeLabel] = set()
    stack = list(labels)
    while stack:
        lab = stack.pop()
        if lab in closure:
            continue
        closure.add(lab)
        if not lab.is_leaf:
            stack.append(lab.left)
            stack.append(lab.right)
    return closure
