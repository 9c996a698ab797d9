"""Green's equivalences R, L, D and H on a finite semigroup.

a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
the composition R;L, which in the finite case is already the join of R
and L (and equals L;R).
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .semigroups import FiniteSemigroup

Partition = tuple[frozenset[int], ...]


class GreenStructure(NamedTuple):
    r_classes: Partition
    l_classes: Partition
    d_classes: Partition
    h_classes: Partition


def _group_by(keys: list) -> Partition:
    classes: dict = {}
    for a, key in enumerate(keys):
        classes.setdefault(key, []).append(a)
    parts = sorted(classes.values(), key=min)
    return tuple(frozenset(part) for part in parts)


def _right_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    return frozenset(s.table[a]) | {a}


def _left_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    return frozenset(s.table[x][a] for x in s.elements()) | {a}


@cache
def green_structure(s: FiniteSemigroup) -> GreenStructure:
    """Compute all four partitions.  Cached per semigroup: the structure
    is reused heavily when many norms are checked against one table."""
    right = [_right_ideal(s, a) for a in s.elements()]
    left = [_left_ideal(s, a) for a in s.elements()]
    r_classes = _group_by(right)
    l_classes = _group_by(left)
    h_classes = _group_by(list(zip(right, left)))

    # D as the composition: a D b iff some c has a R c and c L b.
    r_index = {a: i for i, part in enumerate(r_classes) for a in part}
    assigned = [False] * s.order
    d_parts = []
    for a in s.elements():
        if assigned[a]:
            continue
        reachable_left = {left[c] for c in r_classes[r_index[a]]}
        block = sorted(b for b in s.elements() if left[b] in reachable_left)
        for b in block:
            assigned[b] = True
        d_parts.append(frozenset(block))
    d_classes = tuple(sorted(d_parts, key=min))
    return GreenStructure(r_classes, l_classes, d_classes, h_classes)

