"""The natural partial order on an arbitrary semigroup.

a <= b iff there are x, y in S^1 with a = x*b = b*y and x*a = a.  On any
semigroup this relation is reflexive, antisymmetric and transitive, and
on a group it collapses to equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .semigroups import FiniteSemigroup, _check_element, adjoin_identity


@dataclass(frozen=True)
class OrderRelation:
    order: int
    pairs: frozenset[tuple[int, int]]

    def leq(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs


def natural_leq(s: FiniteSemigroup, a: int, b: int) -> bool:
    """Brute force over S^1 x S^1; the adjoined identity covers the
    degenerate witnesses x = 1 (forcing a = b) and y = 1."""
    _check_element(s, a)
    _check_element(s, b)
    t = adjoin_identity(s).table
    n1 = len(t)
    if not any(t[x][b] == a and t[x][a] == a for x in range(n1)):
        return False
    return any(t[b][y] == a for y in range(n1))


@cache
def natural_order(s: FiniteSemigroup) -> OrderRelation:
    """All pairs (a, b) with a <= b, reflexive pairs included.

    Quadratic, without adjoining an identity.  Fix b.  A left witness
    x = 1 forces a = b, and a left witness x in S gives a = x*b with
    x*a = a, that is x*(x*b) = x*b; so the first half of the definition
    holds exactly on L(b) = {b} | {x*b : x in S, x*(x*b) = x*b}.  The
    right witness y ranges over S^1, so the second half holds exactly on
    b*S^1 = row(b) | {b}.  The lower set of b is their intersection.
    Both sets cost O(n) per b, O(n^2) in all; ``natural_leq`` keeps the
    brute force over S^1 x S^1 as the oracle.
    """
    t = s.table
    pairs = []
    for b in s.elements():
        right = set(t[b])
        right.add(b)
        below = {b}
        for x, row_x in enumerate(t):
            xb = row_x[b]
            if row_x[xb] == xb and xb in right:
                below.add(xb)
        pairs.extend((a, b) for a in below)
    return OrderRelation(s.order, frozenset(pairs))
