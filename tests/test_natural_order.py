"""The natural partial order: frozen relations plus the order axioms.

The t2 relation was worked out by hand from the frozen table: both
constants sit below both units (witnessed by x = y = the constant
itself), the two constants are incomparable, and the units are
incomparable with each other.
"""

import pytest

from semnorms import builtin_semigroup, idempotents, natural_order

from references import natural_leq

T2_PAIRS = {
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2),
    (3, 1), (3, 2),
}

SUITE = ("z2", "c4", "s3", "t2", "t3", "leftzero3", "null4")


def test_t2_frozen_relation():
    assert natural_order(builtin_semigroup("t2")).pairs == frozenset(T2_PAIRS)


def test_null4_has_bottom_element():
    # Element 0 is the two-sided zero: 0 = 0*b = b*0 and 0*0 = 0.
    pairs = natural_order(builtin_semigroup("null4")).pairs
    diagonal = {(a, a) for a in range(4)}
    assert pairs == diagonal | {(0, 1), (0, 2), (0, 3)}


def test_left_zero_order_is_equality():
    pairs = natural_order(builtin_semigroup("leftzero3")).pairs
    assert pairs == {(a, a) for a in range(3)}


def test_groups_collapse_to_equality():
    for name in ("z2", "c4", "s3"):
        s = builtin_semigroup(name)
        pairs = natural_order(s).pairs
        assert pairs == {(a, a) for a in s.elements()}


def test_reflexive():
    for name in SUITE:
        s = builtin_semigroup(name)
        relation = natural_order(s)
        for a in s.elements():
            assert (a, a) in relation.pairs


def test_antisymmetric():
    for name in SUITE:
        pairs = natural_order(builtin_semigroup(name)).pairs
        for a, b in pairs:
            if a != b:
                assert (b, a) not in pairs


def test_transitive():
    for name in SUITE:
        pairs = natural_order(builtin_semigroup(name)).pairs
        below = {}
        for a, b in pairs:
            below.setdefault(b, set()).add(a)
        for a, b in pairs:
            for c in below.get(a, ()):
                assert (c, b) in pairs


def test_leq_agrees_with_bulk_relation():
    for name in ("t2", "null4", "leftzero3"):
        s = builtin_semigroup(name)
        relation = natural_order(s)
        for a in s.elements():
            for b in s.elements():
                assert natural_leq(s, a, b) == ((a, b) in relation.pairs)


def test_idempotent_order_characterization():
    # On idempotents the natural order has a product-only description:
    # e <= f iff e = e*f = f*e.  An independent cross-check of both sides.
    for name in ("t2", "t3"):
        s = builtin_semigroup(name)
        relation = natural_order(s)
        for e in sorted(idempotents(s)):
            for f in sorted(idempotents(s)):
                expected = s.table[e][f] == e and s.table[f][e] == e
                assert ((e, f) in relation.pairs) == expected


def test_bad_indices_rejected():
    s = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="out of range"):
        natural_leq(s, 0, 2)
    with pytest.raises(ValueError, match="out of range"):
        natural_leq(s, -1, 0)


def test_relation_is_cached():
    assert natural_order(builtin_semigroup("t3")) is natural_order(
        builtin_semigroup("t3")
    )
