"""The small world, exhaustively: every semigroup of order at most 4, up
to isomorphism, and every norm over a small value pool on those of order
at most 3.

The semigroups come from a backtracking enumerator written here from the
definition of associativity; it shares no code with ``semigroups.py``.
Two tables are isomorphic when one is the other relabelled by a
permutation, so the least table over the n! relabellings (read row by
row) is one canonical representative per class.  Orders 1 to 4 give 1, 8,
113 and 3492 labelled tables (OEIS A023814) and 1, 5, 24 and 188 classes
(OEIS A027851).

What it measures: on the 30 classes of order 1 to 3, each of the 4^n
norms over {0, 1/2, 1, 2} (1620 norms) goes through the gate and its
witness, P2-P8, the 14 axiom entries in both notations and the envelope,
against the references in ``references``.  On the 188 classes of order
4, Green's relations and the natural order are checked against their
definitions.  Its tests take 2 to 2.5 s on one core of a 2-core Xeon,
1.2 to 1.5 s of it the enumeration.
"""

import itertools
from fractions import Fraction
from functools import cache

import pytest

from semnorms import (
    INAPPLICABLE,
    FiniteSemigroup,
    check_submultiplicative,
    classify_literature_axioms,
    green_structure,
    natural_order,
    run_suite,
    submultiplicative_envelope,
)
from references import (
    brute_natural_pairs,
    fraction_submultiplicative,
    principal_ideal_green,
    reference_axioms,
    reference_suite,
)

POOL = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def associative_tables(n):
    """Every associative table on 0..n-1, filled cell by cell in row-major
    order.  A triple (x, y, z) is decided once its four products x*y, y*z,
    (x*y)*z and x*(y*z) are filled, so each new cell is checked against
    the triples that read it, and a clash prunes the branch."""
    table = [[None] * n for _ in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n)]
    elements = range(n)
    found = []

    def clash(x, y, z):
        xy, yz = table[x][y], table[y][z]
        if xy is None or yz is None:
            return False
        left, right = table[xy][z], table[x][yz]
        return left is not None and right is not None and left != right

    def triples_reading(a, b):
        yield from ((a, b, z) for z in elements)
        yield from ((x, a, b) for x in elements)
        yield from ((x, y, b) for x in elements for y in elements if table[x][y] == a)
        yield from ((a, y, z) for y in elements for z in elements if table[y][z] == b)

    def fill(k):
        if k == len(cells):
            found.append(tuple(map(tuple, table)))
            return
        a, b = cells[k]
        for value in elements:
            table[a][b] = value
            if not any(clash(*t) for t in triples_reading(a, b)):
                fill(k + 1)
        table[a][b] = None

    fill(0)
    return found


def canonical_form(table):
    """The least relabelling of the table, read row by row.  Relabelling
    by a permutation p takes a*b = c to p(a)*p(b) = p(c); q is p's
    inverse, the old element at each new position."""
    n = len(table)
    best = None
    for q in itertools.permutations(range(n)):
        p = [0] * n
        for new, old in enumerate(q):
            p[old] = new
        form = tuple(p[table[q[x]][q[y]]] for x in range(n) for y in range(n))
        if best is None or form < best:
            best = form
    return best


@cache
def labelled(n):
    return associative_tables(n)


@cache
def classes(n):
    """One canonical table (a list of rows) per isomorphism class."""
    forms = sorted({canonical_form(t) for t in labelled(n)})
    return [[list(form[i * n:(i + 1) * n]) for i in range(n)] for form in forms]


def test_labelled_and_isomorphism_class_counts():
    assert [len(labelled(n)) for n in (1, 2, 3, 4)] == [1, 8, 113, 3492]
    assert [len(classes(n)) for n in (1, 2, 3, 4)] == [1, 5, 24, 188]


def check_every_norm(table):
    """Every norm over POOL on one table against the references: the gate
    and its witness, P2-P8 (all INAPPLICABLE behind a failing gate), the
    axioms in both notations, and the envelope, which is submultiplicative,
    below the norm, and at least every submultiplicative pool norm below
    it.  Returns the number of submultiplicative norms."""
    s = FiniteSemigroup(table)
    norms = [list(v) for v in itertools.product(POOL, repeat=len(table))]
    gated = [fraction_submultiplicative(table, v) for v in norms]
    passing = [v for v, (ok, _) in zip(norms, gated) if ok]
    for values, (ok, witness) in zip(norms, gated):
        verdict = check_submultiplicative(s, values)
        assert (verdict.ok, verdict.witness) == (ok, witness), (table, values)

        suite = [(v.proposition, v.status, v.witness, v.detail) for v in run_suite(s, values)]
        if ok:
            assert suite == reference_suite(table, values), (table, values)
        else:
            assert {status for _, status, _, _ in suite} == {INAPPLICABLE}, (table, values)

        for notation in ("multiplicative", "additive"):
            report = classify_literature_axioms(s, values, notation=notation)
            got = [(e.definition, e.axiom, e.status, e.witness, e.note) for e in report.entries]
            assert got == reference_axioms(table, values, notation), (table, values, notation)

        envelope = list(submultiplicative_envelope(s, values))
        assert fraction_submultiplicative(table, envelope)[0], (table, values)
        assert all(map(Fraction.__le__, envelope, values)), (table, values)
        for lower in passing:
            if all(map(Fraction.__le__, lower, values)):
                assert all(map(Fraction.__le__, lower, envelope)), (table, values, lower)
    return len(passing)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_pool_norm_on_every_small_semigroup(n):
    submultiplicative = sum(check_every_norm(table) for table in classes(n))
    # Every constant norm at 1 or 2 is submultiplicative.
    assert submultiplicative >= 2 * len(classes(n))


def test_green_classes_and_natural_order_of_order_four():
    for table in classes(4):
        s = FiniteSemigroup(table)
        assert green_structure(s) == principal_ideal_green(table), table
        assert natural_order(s).pairs == brute_natural_pairs(table), table
