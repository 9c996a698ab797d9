"""The natural partial order on an arbitrary semigroup.

a <= b iff there are x, y in S^1 with a = x*b = b*y and x*a = a.  On any
semigroup this relation is reflexive, antisymmetric and transitive, and
on a group it collapses to equality.
"""

from __future__ import annotations

from typing import NamedTuple

from .semigroups import FiniteSemigroup, derived, idempotents


class OrderRelation(NamedTuple):
    order: int
    pairs: frozenset[tuple[int, int]]


@derived
def natural_order(s: FiniteSemigroup) -> OrderRelation:
    """All pairs (a, b) with a <= b, reflexive pairs included.

    Without adjoining an identity, in |E| * n lookups for the idempotents
    E and n^2 for the right ideals.  Fix b.  A left witness x = 1 forces
    a = b.  A left witness x in S gives a = x*b with x*a = a, so
    x**m * b = x**(m-1) * a = a for every m >= 1; the power x**m that is
    idempotent (every element of a finite semigroup has one) is an e in E
    with a = e*b.  Conversely e*(e*b) = e*b for e in E.  So the first
    half of the definition holds exactly on L(b) = {b} | {e*b : e in E}.
    The right witness y ranges over S^1, so the second half holds exactly
    on b*S^1 = row(b) | {b}.  The lower set of b is their intersection.
    The tests keep the brute force over all witness pairs as the oracle.
    """
    t = s.table
    idempotent_rows = [t[e] for e in idempotents(s)]
    pairs = []
    for b in s.elements():
        right = set(t[b])
        right.add(b)
        below = {row[b] for row in idempotent_rows}
        below &= right
        below.add(b)
        pairs.extend((a, b) for a in below)
    return OrderRelation(s.order, frozenset(pairs))
