"""Independent oracles for the fast kernels.

Each kernel under test takes a shortcut: Light's associativity test in
``validate``, integer cross-multiplication and value classes in
``check_submultiplicative``, the bounded integer rounds of
``submultiplicative_envelope``, by pairs or by value classes, the lower
sets of ``natural_order`` read off the idempotents, the Cayley-graph
components of ``green_structure``, the single gate of ``run_suite``, the
stored inverse sets of P5, the least violating pair of P8 and the laws
P3-P8 decided on all-zero or zero-free norms without derived structure,
the integer pair scans of ``classify_literature_axioms``, the integer Laplace program of ``compound``,
the integer products of ``mat_mul``, the Bareiss elimination of ``rank``
and ``det`` and its Schur complement, the integer pseudoinverse and its
Penrose check, and the split-based tokenizer
and the table-entry lookup of the text parsers.  The references here are
written from the definitions alone, or are sympy's, and share no code
with those kernels; hypothesis draws the inputs.
"""

import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnorms import (
    BUILTIN_SEMIGROUPS,
    FAIL,
    INAPPLICABLE,
    PASS,
    FiniteSemigroup,
    NormTable,
    ParseError,
    RatMatrix,
    builtin_semigroup,
    check_submultiplicative,
    classify_literature_axioms,
    compound,
    det,
    full_transformation_monoid,
    generalized_inverse,
    green_structure,
    left_zero_semigroup,
    mat_mul,
    minor_norm,
    natural_order,
    null_semigroup,
    parse_cayley_text,
    parse_matrix_text,
    parse_norm_text,
    random_submultiplicative_norms,
    rank,
    run_suite,
    submultiplicative_envelope,
    validate,
)
from semnorms import matrices, norms
from semnorms.matrices import _boundary_point, _diagonal_norm, _eliminate
from semnorms.norms import (
    _envelope_rounds,
    _scan_group_lower_bound,
    _scan_idempotent_dichotomy,
    _scan_inverse_lower_bound,
    _scan_order_zero_downward,
    _scan_zero_element_bound,
    _scan_zero_set_closed,
    _scan_zero_spreads_over_d_class,
)

from matrix_draws import (
    diagonal_matrix,
    identity_matrix,
    random_invertible_integer_matrix,
    random_rational_matrix,
    transposed,
    zero_matrix,
)
from references import minor, natural_leq

NON_ASSOCIATIVE_TABLE = [[0, 1], [0, 0]]

# Large primes, so that denominators drawn from them are pairwise coprime
# and cross-multiplied products run to dozens of digits.
PRIMES = (1000003, 1000033, 1000037, 1000039, 2147483647, 4294967291, 10**12 + 39)


# ---------------------------------------------------------------------------
# References, written from the definitions.


def brute_triples(table):
    n = len(table)
    return tuple(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if table[table[i][j]][k] != table[i][table[j][k]]
    )


def fraction_submultiplicative(table, values):
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            if values[ab] > values[a] * values[b]:
                return False, (a, b, values[ab], values[a], values[b])
    return True, None


def bounded_infimum(table, values, length):
    """B_L(a): the least value product over factorizations of a with at
    most ``length`` factors, by dynamic programming on the exact number of
    factors (values are nonnegative, so a least product of k factors
    extends a least product of k - 1)."""
    n = len(table)
    exact = list(values)
    best = list(values)
    for _ in range(length - 1):
        longer = [None] * n
        for a in range(n):
            if exact[a] is None:
                continue
            for b in range(n):
                c, product = table[a][b], exact[a] * values[b]
                if longer[c] is None or product < longer[c]:
                    longer[c] = product
        exact = longer
        best = [x if y is None else min(x, y) for x, y in zip(best, exact)]
    return best


def reference_validate(table):
    """The report of ``validate`` from the definitions: rows of the wrong
    length, then entries that are not plain integers (``bool`` is not),
    entries out of range, and every triple (i*j)*k != i*(j*k) when all
    entries are usable."""
    n = len(table)
    if n == 0:
        return (("empty table",), (), ())
    structural = [
        f"row {i} has {len(row)} entries, expected {n}"
        for i, row in enumerate(table)
        if len(row) != n
    ]
    out_of_range = []
    for i, row in enumerate(table):
        for j, value in enumerate(row):
            if type(value) is bool or not isinstance(value, int):
                structural.append(f"entry ({i}, {j}) is not an integer: {value!r}")
            elif value < 0 or value >= n:
                out_of_range.append((i, j, value))
    if structural or out_of_range:
        return (tuple(structural), tuple(out_of_range), ())
    return ((), (), brute_triples(table))


def principal_ideal_green(table):
    """R, L, D and H from principal ideals: a R b iff aS^1 = bS^1, a L b
    iff S^1 a = S^1 b, H is the pair, and a D b iff a R c and c L b for
    some c.  Each partition lists its classes by least element."""
    n = len(table)
    right = [frozenset(table[a]) | {a} for a in range(n)]
    left = [frozenset(table[x][a] for x in range(n)) | {a} for a in range(n)]

    def classes_of(key):
        classes = {}
        for a in range(n):
            classes.setdefault(key(a), set()).add(a)
        return tuple(frozenset(c) for c in sorted(classes.values(), key=min))

    def d_class(a):
        reached = {left[c] for c in range(n) if right[c] == right[a]}
        return frozenset(b for b in range(n) if left[b] in reached)

    return (
        classes_of(right.__getitem__),
        classes_of(left.__getitem__),
        classes_of(d_class),
        classes_of(lambda a: (right[a], left[a])),
    )


def brute_natural_pairs(table):
    """a <= b iff a = x*b = b*y and x*a = a for some x, y in S^1; the
    identity of S^1 is represented by None."""
    n = len(table)

    def mul(x, a):
        return a if x is None else table[x][a]

    def rmul(a, y):
        return a if y is None else table[a][y]

    ones = [None, *range(n)]
    return frozenset(
        (a, b)
        for a in range(n)
        for b in range(n)
        if any(mul(x, b) == a and mul(x, a) == a for x in ones)
        and any(rmul(b, y) == a for y in ones)
    )


def transformation_closure(points, generators):
    """Cayley table of the semigroup the maps generate under
    (f*g)(x) = g(f(x)), elements in sorted order."""
    found = set(generators)
    frontier = list(found)
    while frontier:
        new = []
        for f in frontier:
            for g in list(found):
                for h in (tuple(g[f[x]] for x in range(points)),
                          tuple(f[g[x]] for x in range(points))):
                    if h not in found:
                        found.add(h)
                        new.append(h)
        frontier = new
    maps = sorted(found)
    index = {f: i for i, f in enumerate(maps)}
    return [[index[tuple(g[f[x]] for x in range(points))] for g in maps] for f in maps]


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def magmas(draw, max_order=4):
    n = draw(st.integers(1, max_order))
    cells = st.integers(0, n - 1)
    return [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def transformation_tables(draw, max_points=3):
    points = draw(st.integers(1, max_points))
    one_map = st.tuples(*[st.integers(0, points - 1)] * points)
    generators = draw(st.lists(one_map, min_size=1, max_size=3))
    return transformation_closure(points, generators)


def rationals():
    small = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
    coprime = st.builds(
        lambda whole, p, q: whole + Fraction(p % q, q),
        st.integers(0, 3),
        st.integers(0, 10**15),
        st.sampled_from(PRIMES),
    )
    near_one = st.builds(lambda q: 1 + Fraction(1, q), st.sampled_from(PRIMES))
    return st.one_of(small, coprime, near_one)


def matrix_entries():
    signed = st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)), rationals())
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.one_of(st.just(Fraction(0)), small, signed)


@st.composite
def rat_matrices(draw, rows=None, cols=None, max_side=5):
    rows = rows or draw(st.integers(1, max_side))
    cols = cols or draw(st.integers(1, max_side))
    size = rows * cols
    entries = draw(st.lists(matrix_entries(), min_size=size, max_size=size))
    return RatMatrix(rows, cols, tuple(entries))


@st.composite
def chained_matrices(draw, max_side=4):
    """A pair whose product is defined, of any shapes up to max_side."""
    rows, inner, cols = (draw(st.integers(1, max_side)) for _ in range(3))
    return draw(rat_matrices(rows, inner)), draw(rat_matrices(inner, cols))


@st.composite
def nonsingular_squares(draw, max_side=4):
    """P L U, with L lower and U upper triangular with nonzero diagonals
    and P a row permutation: a full-rank square of order 2 or more, whose
    rows come in a drawn order, so elimination often exchanges rows."""
    n = draw(st.integers(2, max_side))
    nonzero = matrix_entries().filter(bool)

    def triangle(below):
        return [
            [draw(nonzero) if i == j else draw(matrix_entries()) if (j < i) == below else 0
             for j in range(n)]
            for i in range(n)
        ]

    lower, upper = triangle(True), triangle(False)
    product = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
    return RatMatrix.from_rows([product[i] for i in draw(st.permutations(range(n)))])


def subsets(size, k):
    return list(itertools.combinations(range(size), k))


@st.composite
def tables_with_values(draw):
    table = draw(st.one_of(transformation_tables(), st.sampled_from(BUILTIN_TABLES)))
    values = draw(st.lists(rationals(), min_size=len(table), max_size=len(table)))
    return table, values


BUILTIN_TABLES = [
    [list(row) for row in builtin_semigroup(name).table] for name in BUILTIN_SEMIGROUPS
]


@st.composite
def tables_with_few_values(draw):
    """Values from a pool of 1 to 4, so that the value classes of the
    kernels stay few and their pruning and class paths run; the values of
    ``tables_with_values`` are mostly all distinct."""
    table = draw(st.one_of(transformation_tables(), st.sampled_from(BUILTIN_TABLES)))
    landmarks = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), 2, 3])
    pool = draw(st.lists(st.one_of(landmarks, rationals()), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool), min_size=len(table), max_size=len(table)))
    return table, values


def all_magmas(n):
    for cells in itertools.product(range(n), repeat=n * n):
        yield [list(cells[i * n:(i + 1) * n]) for i in range(n)]


# Every associative table of order at most 3: 1 + 8 + 113 of them.
SMALL_SEMIGROUPS = [t for n in (1, 2, 3) for t in all_magmas(n) if validate(t).ok]


# ---------------------------------------------------------------------------
# validate: Light's test against the full triple scan.


@settings(max_examples=300, deadline=None)
@given(magmas())
def test_validate_lists_exactly_the_brute_force_triples(table):
    assert validate(table).non_associative == brute_triples(table)


@settings(max_examples=60, deadline=None)
@given(transformation_tables())
def test_validate_accepts_transformation_semigroups(table):
    assert brute_triples(table) == ()
    assert validate(table).ok


class Index(int):
    """An int subclass: a usable index that fails the exact-type check."""


@st.composite
def odd_tables(draw):
    """A magma with some entries made bool, Index, negative, too large,
    float or str, and perhaps one row made ragged."""
    plain = draw(magmas())
    table = [list(row) for row in plain]
    n = len(table)
    odd = st.sampled_from((
        lambda v: bool(v % 2), Index, lambda v: -1 - v, lambda v: v + n, float, str,
    ))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(odd)(plain[i][j])
    if draw(st.integers(0, 3)) == 0:
        row = table[draw(st.integers(0, n - 1))]
        if draw(st.booleans()) or not row:
            row.append(0)
        else:
            row.pop()
    return table


@settings(max_examples=300, deadline=None)
@given(st.one_of(odd_tables(), magmas()))
@example([[0]])
@example([[1]])
@example([[-1]])
@example([[True]])
@example([[False]])
@example([[Index(0)]])
@example([[]])
@example([[0, 1], [1, True]])
@example([[Index(0), Index(1)], [Index(1), Index(0)]])
@example([[0, 1], [1, 0, 1]])
@example([[0], [0, 0]])
def test_validate_equals_the_definitions_on_odd_entries(table):
    report = validate(table)
    assert (report.structural, report.out_of_range, report.non_associative) == (
        reference_validate(table)
    )


def test_validate_on_the_known_non_associative_table():
    assert validate(NON_ASSOCIATIVE_TABLE).non_associative == brute_triples(
        NON_ASSOCIATIVE_TABLE
    )


def test_validate_on_every_magma_of_order_two():
    for cells in itertools.product(range(2), repeat=4):
        table = [list(cells[:2]), list(cells[2:])]
        assert validate(table).non_associative == brute_triples(table)


# ---------------------------------------------------------------------------
# check_submultiplicative: integers against plain Fractions.


@settings(max_examples=150, deadline=None)
@given(tables_with_values())
def test_submultiplicative_verdict_and_witness_match_fractions(case):
    table, values = case
    verdict = check_submultiplicative(FiniteSemigroup(table), values)
    assert (verdict.ok, verdict.witness) == fraction_submultiplicative(
        table, [Fraction(v) for v in values]
    )


@settings(max_examples=200, deadline=None)
@given(tables_with_few_values())
@example(([[0] * 3] * 3, [Fraction(1, 2)] * 3))
@example(([[0, 1], [1, 0]], [0, 0]))
@example(([[0, 1], [1, 0]], [3, 3]))
def test_submultiplicative_on_few_values_matches_fractions(case):
    table, values = case
    verdict = check_submultiplicative(FiniteSemigroup(table), values)
    assert (verdict.ok, verdict.witness) == fraction_submultiplicative(
        table, [Fraction(v) for v in values]
    )


def test_submultiplicative_by_value_classes_on_t3_and_t4():
    # Few values on large tables, where the gate reads by value classes:
    # raw draws, which mostly fail, and their envelopes, which pass.
    rng = random.Random(34)
    for s in (builtin_semigroup("t3"), full_transformation_monoid(4)):
        for pool in ([0], [Fraction(1, 2)], [1, 2], [Fraction(1, 2), 1, 2], [0, Fraction(1, 3), 1, 3]):
            values = [Fraction(rng.choice(pool)) for _ in s.elements()]
            for table in (values, list(submultiplicative_envelope(s, values))):
                verdict = check_submultiplicative(s, table)
                assert (verdict.ok, verdict.witness) == fraction_submultiplicative(s.table, table)


def test_submultiplicative_boundary_with_coprime_denominators():
    # On a null semigroup every product is element 0, so the verdict
    # turns on value(0) <= value(a) * value(b) alone.  With value(0) =
    # (q/p)^2 and value(1) = value(2) = q/p the pair (1, 1) holds with
    # equality; a hair more on value(0) makes it the first violation.
    p, q = PRIMES[-2], PRIMES[-1]
    s = FiniteSemigroup([[0] * 3 for _ in range(3)])
    tight = [Fraction(q * q, p * p), Fraction(q, p), Fraction(q, p)]
    assert check_submultiplicative(s, tight).ok
    over = [tight[0] + Fraction(1, p * p * q), *tight[1:]]
    verdict = check_submultiplicative(s, over)
    assert verdict.witness == (1, 1, over[0], over[1], over[2])
    assert (verdict.ok, verdict.witness) == fraction_submultiplicative(s.table, over)


# ---------------------------------------------------------------------------
# submultiplicative_envelope: integer rounds against bounded factorizations.


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SMALL_SEMIGROUPS + [t for t in BUILTIN_TABLES if len(t) <= 4]),
    st.sampled_from([
        (0, Fraction(1, 2), 1, 2),
        (Fraction(1, 2), 1, 2),
        (Fraction(1, 3), 1, 3),
        (Fraction(99, 100), 1, Fraction(101, 100)),
        (0, Fraction(1, 3), Fraction(1, 2), 1, 3),
    ]),
    st.data(),
)
def test_envelope_equals_bounded_factorization_infimum(table, pool, data):
    # A nonzero infimum is reached within n factors and then no longer
    # factorization goes lower; an infimum of 0 is either reached within
    # n factors or shows as a longer factorization going below them.
    # Values below 1 on idempotents exercise the envelope's rule that
    # zeroes them after each round.
    n = len(table)
    drawn = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    values = [Fraction(v) for v in drawn]
    env = submultiplicative_envelope(FiniteSemigroup(table), values)
    within_n = bounded_infimum(table, values, n)
    within_64 = bounded_infimum(table, values, 64)
    for e, short, long in zip(env, within_n, within_64):
        if e:
            assert e == short == long
        else:
            assert short == 0 or long < short


def test_envelope_zeroes_a_pumped_idempotent_in_the_first_round():
    # e = (0, 1, 1) is an idempotent of t3 of image size 2; at 1/2 it
    # pumps, e = e**k, so its infimum and that of the ideal it generates
    # (the 21 maps of image size at most 2) are 0.  Zeroed after round 1,
    # the zero reaches x*e and e*y in round 2 and x*e*y in round 3, and
    # round 4 changes nothing.  Squaring e's value through all R = 5
    # exact rounds instead took R + 2 rounds.
    s = builtin_semigroup("t3")
    maps = sorted(itertools.product(range(3), repeat=3))
    e = maps.index((0, 1, 1))
    values = [Fraction(1)] * 27
    values[e] = Fraction(1, 2)
    envelope, rounds = _envelope_rounds(s, values)
    assert list(envelope) == [1 if len(set(f)) == 3 else 0 for f in maps]
    assert rounds == 4 <= (s.order - 1).bit_length() + 2
    bound = bounded_infimum(s.table, values, 64)
    assert all(v == 0 or v == b for v, b in zip(envelope, bound))


def group_with_absorbers(order):
    """The cyclic group C_order on 0..order-1 and four more elements x, y,
    c and z: x*g = x and g*y = y for every g in the group, x*y = c, and
    every other product with an element outside the group is the zero z.
    So c = x*e*y, but c*e = e*c = z for the identity e."""
    x, y, c, z = order, order + 1, order + 2, order + 3

    def product(a, b):
        if a < order and b < order:
            return (a + b) % order
        if a == x and b < order:
            return x
        if a < order and b == y:
            return y
        return c if (a, b) == (x, y) else z

    return [[product(a, b) for b in range(order + 4)] for a in range(order + 4)]


def test_envelope_zeroes_every_value_lowered_after_round_r(monkeypatch):
    # C_9 with x, y, c, z: n = 13, R = 4.  The generator 1 is valued 1/2,
    # x and y 1, the rest 2**20, and every infimum is 0 (g = g*1**9,
    # x = x*1, y = 1*y).  The identity e = 1**9 needs nine factors to go
    # below 1, so it is pumped at the end of round R, and in round R + 1
    # the zero reaches x = x*e, y = e*y and every g = e*g.  c = x*y has no
    # factorization with e as a factor, so round R + 1 lowers it to
    # x*y from round R's values, 2**-30, a product of 32 input values;
    # only the pass after a post-R round writes 0 there.  Without it, c
    # starts round R + 2 at 2**-30 and the envelope runs one more round.
    table = group_with_absorbers(9)
    s = FiniteSemigroup(table)
    x, y, c = 9, 10, 11
    values = [Fraction(2**20)] * s.order
    values[1] = Fraction(1, 2)
    values[x] = values[y] = Fraction(1)
    starts = []
    value_classes = norms._value_classes

    def recording(num, den, share):
        starts.append([Fraction(p, q) for p, q in zip(num, den)])
        return value_classes(num, den, share)

    monkeypatch.setattr(norms, "_value_classes", recording)
    envelope, rounds = _envelope_rounds(s, values)
    r = (s.order - 1).bit_length()
    assert r == 4 and len(starts) == rounds >= r + 2
    before, after = starts[r], starts[r + 1]
    lowered = [a for a in s.elements() if after[a] < before[a]]
    assert c in lowered and 0 < before[x] * before[y] < before[c]
    assert [after[a] for a in lowered] == [0] * len(lowered)
    assert (list(envelope), rounds) == reference_envelope_rounds(table, values)


def reference_envelope_rounds(table, values):
    """The envelope's rounds read literally, in Fractions over every pair:
    value(a*b) falls to the least value(a)*value(b) of the round before,
    to 0 after the first (n - 1).bit_length() rounds; then idempotents
    valued in (0, 1) are zeroed; the rounds stop after one that lowered
    nothing.  Returns the table and the number of rounds."""
    n = len(table)
    exact_rounds = (n - 1).bit_length()
    idempotent = [e for e in range(n) if table[e][e] == e]
    values = [Fraction(v) for v in values]
    rounds = 0
    while True:
        rounds += 1
        lowered = list(values)
        changed = False
        for a in range(n):
            for b in range(n):
                c, candidate = table[a][b], values[a] * values[b]
                if candidate < lowered[c]:
                    changed = True
                    lowered[c] = candidate if rounds <= exact_rounds else Fraction(0)
        for e in idempotent:
            if 0 < lowered[e] < 1:
                lowered[e] = Fraction(0)
        if not changed:
            return values, rounds
        values = lowered


def envelope_pools(n):
    """Pools of 1, 3, 16 and n values: below, at and above 1."""
    return [
        [Fraction(1, 2)],
        [Fraction(1, 2), Fraction(1), Fraction(2)],
        [Fraction(j, 8) for j in range(1, 17)],
        [Fraction(j + 1, n // 2 + 1) for j in range(n)],
    ]


@pytest.mark.parametrize("name", sorted(BUILTIN_SEMIGROUPS) + ["t4"])
def test_envelope_and_rounds_equal_the_literal_rounds(name):
    # The envelope picks a pair or class round by the number of values;
    # these pools put rounds on both sides.  t4 runs one draw per pool.
    s = full_transformation_monoid(4) if name == "t4" else builtin_semigroup(name)
    rng = random.Random(name)
    for pool in envelope_pools(s.order):
        for _ in range(1 if name == "t4" else 6):
            values = [rng.choice(pool) for _ in s.elements()]
            envelope, rounds = _envelope_rounds(s, values)
            assert (list(envelope), rounds) == reference_envelope_rounds(s.table, values)


# ---------------------------------------------------------------------------
# green_structure: Cayley-graph components against principal ideals.


@settings(max_examples=80, deadline=None)
@given(transformation_tables())
def test_green_structure_equals_principal_ideals_on_transformation_semigroups(table):
    assert green_structure(FiniteSemigroup(table)) == principal_ideal_green(table)


def test_green_structure_equals_principal_ideals_on_fixed_tables():
    tables = BUILTIN_TABLES + SMALL_SEMIGROUPS + [
        [list(row) for row in make(n).table]
        for make in (left_zero_semigroup, null_semigroup)
        for n in (1, 2, 5, 17)
    ] + [list(map(list, full_transformation_monoid(4).table))]
    for table in tables:
        assert green_structure(FiniteSemigroup(table)) == principal_ideal_green(table), table


# ---------------------------------------------------------------------------
# natural_order: quadratic lower sets against brute force.


def test_natural_order_equals_natural_leq_on_builtins():
    for name in BUILTIN_SEMIGROUPS:
        s = builtin_semigroup(name)
        expected = {
            (a, b) for a in s.elements() for b in s.elements() if natural_leq(s, a, b)
        }
        assert natural_order(s).pairs == expected, name


def test_natural_order_on_t4_by_idempotents_equals_natural_leq():
    # 2680 pairs, as the maps on 4 points give; the lower sets of a
    # sample of elements against the brute force over all witnesses.
    s = full_transformation_monoid(4)
    pairs = natural_order(s).pairs
    assert len(pairs) == 2680
    for b in random.Random(4).sample(range(s.order), 12):
        below = {a for a, c in pairs if c == b}
        assert below == {a for a in s.elements() if natural_leq(s, a, b)}, b


@settings(max_examples=60, deadline=None)
@given(transformation_tables())
def test_natural_order_equals_definition_on_transformation_semigroups(table):
    assert natural_order(FiniteSemigroup(table)).pairs == brute_natural_pairs(table)


# ---------------------------------------------------------------------------
# run_suite: one gate against the seven raw scans, in suite order, behind
# the Fraction submultiplicativity oracle.

RAW_SCANS = (
    _scan_idempotent_dichotomy,
    _scan_zero_set_closed,
    _scan_zero_spreads_over_d_class,
    _scan_inverse_lower_bound,
    _scan_group_lower_bound,
    _scan_zero_element_bound,
    _scan_order_zero_downward,
)


def assert_suite_is_gated_raw_scans(s, values):
    """run_suite(s, values) is every raw scan when the oracle finds the
    table submultiplicative, and all INAPPLICABLE when it does not."""
    suite = run_suite(s, values)
    values = [Fraction(v) for v in values]
    if fraction_submultiplicative(s.table, values)[0]:
        norm = NormTable(values)
        assert suite == tuple(scan(s, norm) for scan in RAW_SCANS)
    else:
        assert {v.status for v in suite} == {INAPPLICABLE}
    return suite


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(transformation_tables(), st.sampled_from(BUILTIN_TABLES)),
    st.integers(0, 2**16),
    st.sampled_from([(0, Fraction(1, 2), 1, 2), (Fraction(1, 2), 1, 2), (1, 2, 3)]),
)
def test_run_suite_equals_separate_checkers(table, seed, pool):
    s = FiniteSemigroup(table)
    for norm in random_submultiplicative_norms(s, 2, seed=seed, value_pool=pool).norms:
        suite = assert_suite_is_gated_raw_scans(s, norm)
        # P2-P8 hold for every submultiplicative norm.
        assert FAIL not in {v.status for v in suite}


@settings(max_examples=60, deadline=None)
@given(tables_with_values())
def test_run_suite_equals_separate_checkers_on_raw_values(case):
    table, values = case
    assert_suite_is_gated_raw_scans(FiniteSemigroup(table), values)


# P5 and P8 against the laws read literally: inverses by brute force, the
# order by ``natural_leq`` over all pairs, and the first violation in
# sorted order as the witness.  The raw scans take any values, so FAILs
# occur.


def reference_inverse_lower_bound(s, values):
    t = s.table
    for a in s.elements():
        for b in s.elements():
            inverse = t[t[a][b]][a] == a and t[t[b][a]][b] == b
            if inverse and values[a] != 0 and values[b] < 1 / values[a]:
                return FAIL, (a, b, values[a], values[b])
    return PASS, None


def reference_order_zero_downward(s, values):
    for a in s.elements():
        for b in s.elements():
            if natural_leq(s, a, b) and values[b] == 0 and values[a] != 0:
                return FAIL, (a, b, values[a])
    return PASS, None


@settings(max_examples=80, deadline=None)
@given(tables_with_values())
@example(([[0, 1], [1, 0]], [1, Fraction(1, 2)]))
@example(([[0] * 4] * 4, [1, 0, 0, 0]))
@example(([[0, 0, 3, 3], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 0, 3]], [1, 0, 0, 2]))
@example(([[0, 0, 3, 3], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 0, 3]], [1, 2, 1, 0]))
def test_inverse_and_order_scans_equal_the_definitions(case):
    table, values = case
    s = FiniteSemigroup(table)
    norm = NormTable(values)
    for scan, reference in (
        (_scan_inverse_lower_bound, reference_inverse_lower_bound),
        (_scan_order_zero_downward, reference_order_zero_downward),
    ):
        verdict = scan(s, norm)
        assert (verdict.status, verdict.witness) == reference(s, norm.values)



# P2-P8 against the laws read literally, on the four kinds of norm whose
# scans skip derived structure (all zero, zero-free, every value at least
# 1) and on mixed norms, which need it.  Green's D comes from principal
# ideals, inverses and one-sided zeros by brute force, and a group is a
# monoid in which every element has a two-sided inverse.


def reference_suite(table, values):
    n = len(table)
    v = [Fraction(x) for x in values]
    elements = range(n)
    idempotent = [e for e in elements if table[e][e] == e]
    zeros = {a for a in elements if v[a] == 0}
    s = FiniteSemigroup(table)

    p2 = next(((e, v[e]) for e in idempotent if 0 < v[e] < 1), None)
    p2 = (PASS, None, "") if p2 is None else (FAIL, p2, "")

    p3 = next(
        ((a, b, table[a][b], v[table[a][b]])
         for a in sorted(zeros) for b in sorted(zeros) if table[a][b] not in zeros),
        None,
    )
    if p3 is not None:
        p3 = (FAIL, p3, "")
    elif zeros:
        p3 = (PASS, None, f"zero set has {len(zeros)} elements")
    else:
        p3 = (PASS, None, "zero set empty (vacuously closed)")

    p4 = (PASS, None, "")
    for part in principal_ideal_green(table)[2]:
        low = sorted(a for a in part if v[a] == 0)
        high = sorted(a for a in part if v[a] != 0)
        if low and high:
            p4 = (FAIL, (low[0], high[0], v[high[0]]), "")
            break

    p5 = reference_inverse_lower_bound(s, v)
    p5 = (p5[0], p5[1], "")

    identity = brute_identity(table)
    group = identity is not None and all(
        any(table[a][b] == identity == table[b][a] for b in elements) for a in elements
    )
    if not group:
        p6 = (INAPPLICABLE, None, "not a group")
    elif zeros:
        p6 = (INAPPLICABLE, None, "zero values present; the law assumes none")
    else:
        p6 = next(((FAIL, (a, v[a]), "") for a in elements if v[a] < 1), (PASS, None, ""))

    one_sided = [
        z for z in elements
        if all(table[z][x] == z for x in elements) or all(table[x][z] == z for x in elements)
    ]
    carriers = [z for z in one_sided if v[z] != 0]
    if not carriers:
        detail = "every one-sided zero has value 0" if one_sided else "no one-sided zero elements"
        p7 = (INAPPLICABLE, None, detail)
    else:
        p7 = next(
            ((FAIL, (carriers[0], x, v[x]), "") for x in elements if v[x] < 1),
            (PASS, None, ""),
        )

    p8 = reference_order_zero_downward(s, v)
    p8 = (p8[0], p8[1], "")
    return [
        (law, *verdict)
        for law, verdict in zip(("P2", "P3", "P4", "P5", "P6", "P7", "P8"),
                                (p2, p3, p4, p5, p6, p7, p8))
    ]


@st.composite
def norms_by_kind(draw):
    """A table and a norm that is all zero, zero-free, at least 1
    everywhere, or mixed (a zero and a nonzero value at least)."""
    table = draw(st.one_of(transformation_tables(), st.sampled_from(BUILTIN_TABLES)))
    n = len(table)
    positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "zero-free", "at least 1", "mixed"]))
    if kind == "zero":
        return table, [Fraction(0)] * n
    if kind == "zero-free":
        return table, draw(st.lists(positive, min_size=n, max_size=n))
    if kind == "at least 1":
        return table, draw(st.lists(positive.map(lambda x: 1 + x), min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.just(Fraction(0)), positive), min_size=n, max_size=n))
    if n > 1:
        zero, nonzero = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        values[zero] = Fraction(0)
        values[nonzero] = values[nonzero] or Fraction(1)
    return table, values


@settings(max_examples=150, deadline=None)
@given(norms_by_kind())
@example(([[0] * 4] * 4, [0, 0, 0, 0]))
@example(([[0, 1], [1, 0]], [Fraction(1, 2), 2]))
@example(([[0, 0, 3, 3], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 0, 3]], [2, 1, 1, 3]))
def test_suite_scans_equal_the_literal_laws(case):
    table, values = case
    s = FiniteSemigroup(table)
    norm = NormTable(values)
    got = [(v.proposition, v.status, v.witness, v.detail) for v in (scan(s, norm) for scan in RAW_SCANS)]
    assert got == reference_suite(table, values)


# ---------------------------------------------------------------------------
# classify_literature_axioms: each finitely checkable axiom read from its
# definition in Fraction arithmetic, the identity and the two-sided zero
# found by brute force, and the first violation in row-major order as the
# witness.  The classifier's pair scans compare cross-multiplied integers.

NOT_CHECKABLE = "not_finitely_checkable"


def brute_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def brute_two_sided_zero(table):
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z == table[x][z] for x in range(n)):
            return z
    return None


def first_pair_violation(table, values, combine, violated):
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            bound = combine(values[a], values[b])
            if violated(values[ab], bound):
                return (a, b, values[ab], bound)
    return None


def brute_power(table, a, n):
    power = a
    for _ in range(n - 1):
        power = table[power][a]
    return power


def reference_axioms(table, values, notation):
    """(definition, axiom, status, witness, note) for the 14 axioms of the
    six definitions, in report order."""
    n = len(table)
    v = [Fraction(x) for x in values]

    def decided(witness, note=""):
        return ("holds", None, note) if witness is None else ("fails", witness, note)

    def at_identity(wanted, missing):
        e = brute_identity(table)
        if e is None:
            return "inapplicable", None, missing
        return decided(None if v[e] == wanted else (e, v[e]))

    multiplicative = decided(
        first_pair_violation(table, v, lambda x, y: x * y, lambda xy, b: xy != b)
    )
    subadditive = decided(
        first_pair_violation(table, v, lambda x, y: x + y, lambda xy, b: xy > b)
    )
    power = next(
        (
            (a, k, v[brute_power(table, a, k)], k * v[a])
            for a in range(n)
            for k in range(2, 6)
            if v[brute_power(table, a, k)] != k * v[a]
        ),
        None,
    )
    if notation == "additive":
        special, missing = brute_identity(table), "no neutral element in the table"
    else:
        special, missing = brute_two_sided_zero(table), "no two-sided zero element in the table"
    if special is None:
        zero_normalization = ("inapplicable", None, missing)
    else:
        bad = next((a for a in range(n) if (v[a] == 0) != (a == special)), None)
        zero_normalization = decided(
            None if bad is None else (bad, v[bad], special),
            "value zero exactly at the element written 0",
        )
    rows = [
        ("wegmann", "multiplicativity", multiplicative),
        ("wegmann", "generator_norms_exceed_one", (
            NOT_CHECKABLE, None, "quantifies over a distinguished generator system")),
        ("wegmann", "generator_norms_diverge", (
            NOT_CHECKABLE, None, "a limit over an infinite generator sequence")),
        ("kryzius", "multiplicativity", multiplicative),
        ("kryzius", "identity_norm_one", at_identity(1, "no two-sided identity in the table")),
        ("kryzius", "sublevel_sets_finite", (
            NOT_CHECKABLE, None,
            "finiteness of sublevel sets constrains infinite carriers only")),
        ("dikran", "subadditivity", subadditive),
        ("dikran", "identity_norm_zero", at_identity(0, "the monoid-norm axiom needs an identity")),
        ("pavlov", "complex_module_norm", (
            NOT_CHECKABLE, None, "needs a scalar action that a Cayley table does not carry")),
        ("shkarin", "power_homogeneity",
         decided(power, "checked for exponents up to 5")),
        ("shkarin", "subadditivity", subadditive),
        ("valero", "zero_characterization_via_negatives", (
            "ambiguous", None, "the original statement does not pin down one finite reading")),
        ("valero", "subadditivity", subadditive),
        ("valero", "zero_normalization", zero_normalization),
    ]
    return [(definition, axiom, *verdict) for definition, axiom, verdict in rows]


@settings(max_examples=150, deadline=None)
@given(tables_with_values(), st.sampled_from(("multiplicative", "additive")))
@example(([[0]], [0]), "multiplicative")
@example(([[0]], [1]), "additive")
@example(([[0, 1], [1, 0]], [0, 0]), "additive")
@example(([[0, 1], [1, 0]], [1, 1]), "multiplicative")
@example(([[0] * 4] * 4, [0, 1, 1, 1]), "multiplicative")
@example(([[0] * 4] * 4, [0, 0, 0, 0]), "additive")
@example(([[0, 0, 3, 3], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 0, 3]], [0, 1, 1, 0]), "additive")
def test_literature_axioms_equal_the_definitions(case, notation):
    table, values = case
    report = classify_literature_axioms(FiniteSemigroup(table), values, notation=notation)
    assert report.notation == notation
    got = [(e.definition, e.axiom, e.status, e.witness, e.note) for e in report.entries]
    assert got == reference_axioms(table, values, notation)


@settings(max_examples=150, deadline=None)
@given(tables_with_few_values(), st.sampled_from(("multiplicative", "additive")))
@example(([[0] * 4] * 4, [1, 1, 1, 1]), "multiplicative")
@example(([[0] * 4] * 4, [0, 2, 2, 2]), "additive")
def test_literature_axioms_on_few_values_equal_the_definitions(case, notation):
    # The pair scans read only the rows their value classes leave them.
    table, values = case
    report = classify_literature_axioms(FiniteSemigroup(table), values, notation=notation)
    got = [(e.definition, e.axiom, e.status, e.witness, e.note) for e in report.entries]
    assert got == reference_axioms(table, values, notation)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tables_with_values(), tables_with_few_values()))
@example(([[0, 1], [1, 0]], [0, 1]))
@example(([[0] * 4] * 4, [0, 0, 0, 0]))
@example(([list(row) for row in builtin_semigroup("t3").table], [0] * 27))
def test_power_homogeneity_fails_exactly_when_some_value_is_nonzero(case):
    # On a finite table the axiom for every exponent forces every value to
    # 0: value(x^(2^j)) = 2^j * value(x) would take infinitely many values
    # at a nonzero value(x).  So the verdict is a closed form of the values,
    # and a FAIL's witness is a genuine violation.
    table, values = case
    report = classify_literature_axioms(FiniteSemigroup(table), values)
    (entry,) = (
        e for e in report.entries if (e.definition, e.axiom) == ("shkarin", "power_homogeneity")
    )
    assert entry.status == ("fails" if any(values) else "holds")
    if entry.witness is not None:
        a, k, value_power, bound = entry.witness
        assert value_power == Fraction(values[brute_power(table, a, k)]) != bound
        assert bound == k * Fraction(values[a])



# ---------------------------------------------------------------------------
# compound: the Laplace program against one Bareiss minor per entry.


@settings(max_examples=100, deadline=None)
@given(st.one_of(rat_matrices(), nonsingular_squares()))
def test_compound_entries_are_the_minors(a):
    for k in range(1, min(a.rows, a.cols) + 1):
        c = compound(a, k)
        rows, cols = subsets(a.rows, k), subsets(a.cols, k)
        assert (c.rows, c.cols) == (len(rows), len(cols))
        assert c.to_rows() == [[minor(a, r, q) for q in cols] for r in rows]


@settings(max_examples=100, deadline=None)
@given(st.one_of(rat_matrices(), nonsingular_squares()))
def test_compound_of_order_one_and_of_full_order(a):
    assert compound(a, 1) == a
    if a.is_square:
        assert compound(a, a.rows).to_rows() == [[det(a)]]


@settings(max_examples=100, deadline=None)
@given(chained_matrices())
def test_compound_is_multiplicative(pair):
    # Cauchy-Binet in full: C_k(ab) = C_k(a) C_k(b) for every k the
    # three dimensions allow.
    a, b = pair
    for k in range(1, min(a.rows, a.cols, b.cols) + 1):
        assert compound(mat_mul(a, b), k) == mat_mul(compound(a, k), compound(b, k))


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.integers(1, 4).flatmap(lambda n: rat_matrices(n, n)), nonsingular_squares()))
def test_compound_matches_sympy_determinants(a):
    sympy = pytest.importorskip("sympy")
    grid = sympy.Matrix(a.to_rows())
    for k in range(1, a.rows + 1):
        rows = subsets(a.rows, k)
        expected = [
            [Fraction(str(grid.extract(list(r), list(q)).det())) for q in rows] for r in rows
        ]
        assert compound(a, k).to_rows() == expected


def test_compound_rejects_orders_outside_the_shape():
    a = zero_matrix(2, 3)
    for k in (0, -1, 3, 4):
        with pytest.raises(ValueError, match="0 < k <= min"):
            compound(a, k)


# ---------------------------------------------------------------------------
# Integer products, the Bareiss kernel and the pseudoinverse against a
# Fraction triple loop and sympy.


def fraction_product(a, b):
    """a @ b as rows of Fractions, by the triple loop of the definition."""
    return [
        [sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), Fraction(0))
         for j in range(b.cols)]
        for i in range(a.rows)
    ]


@st.composite
def with_zero_lines(draw, matrices):
    """A drawn matrix with some of its rows and columns set to zero."""
    a = draw(matrices)
    rows = draw(st.sets(st.integers(0, a.rows - 1), max_size=2))
    cols = draw(st.sets(st.integers(0, a.cols - 1), max_size=2))
    return RatMatrix(a.rows, a.cols, tuple(
        Fraction(0) if i in rows or j in cols else a.entry(i, j)
        for i in range(a.rows) for j in range(a.cols)
    ))


@st.composite
def low_rank_products(draw, square=False, max_side=5):
    """B C with B of shape rows x r and C of shape r x cols, r below
    min(rows, cols) when that is above 1, so rank(B C) <= r."""
    rows = draw(st.integers(1, max_side))
    cols = rows if square else draw(st.integers(1, max_side))
    inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    b, c = draw(rat_matrices(rows, inner)), draw(rat_matrices(inner, cols))
    return RatMatrix.from_rows(fraction_product(b, c))


def square_matrices():
    full = st.integers(1, 5).flatmap(lambda n: rat_matrices(n, n))
    return st.one_of(
        full, with_zero_lines(full), low_rank_products(square=True), nonsingular_squares()
    )


@settings(max_examples=100, deadline=None)
@given(chained_matrices(max_side=5).flatmap(
    lambda pair: st.tuples(*(with_zero_lines(st.just(m)) for m in pair))
))
def test_mat_mul_matches_a_fraction_triple_loop(pair):
    a, b = pair
    assert mat_mul(a, b).to_rows() == fraction_product(a, b)


# Pivots that need a row exchange, in every drawing.
SWAPPING = (
    RatMatrix.from_rows([[0, 1], [1, 0]]),
    RatMatrix.from_rows([[0, 0, 2], [0, 3, 1], [Fraction(1, 2), 1, 1]]),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    rat_matrices(), with_zero_lines(rat_matrices()), low_rank_products(), nonsingular_squares()
))
@example(SWAPPING[0])
@example(SWAPPING[1])
def test_rank_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    assert rank(a) == sympy.Matrix(a.to_rows()).rank()


@settings(max_examples=100, deadline=None)
@given(square_matrices())
@example(SWAPPING[0])
@example(SWAPPING[1])
def test_det_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    assert det(a) == Fraction(str(sympy.Matrix(a.to_rows()).det()))


# Points x_m = diag((1/m) I_k, 0) of the witness sequence, whose
# pseudoinverse is diag(m I_k, 0).
WITNESS_POINTS = tuple(
    diagonal_matrix([Fraction(1, m)] * k + [0] * (n - k))
    for n, k, m in ((2, 1, 1), (3, 1, 4), (6, 3, 7))
)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
@example(SWAPPING[0])
@example(SWAPPING[1])
@example(WITNESS_POINTS[0])
@example(WITNESS_POINTS[1])
@example(WITNESS_POINTS[2])
def test_generalized_inverse_matches_sympy_pinv(a):
    sympy = pytest.importorskip("sympy")
    g = generalized_inverse(a)
    expected = sympy.Matrix(a.to_rows()).pinv()
    assert g.to_rows() == [[Fraction(str(x)) for x in row] for row in expected.tolist()]
    # The four Penrose identities, on the triple loop.
    ag = RatMatrix.from_rows(fraction_product(a, g))
    ga = RatMatrix.from_rows(fraction_product(g, a))
    assert fraction_product(ag, a) == a.to_rows()
    assert fraction_product(ga, g) == g.to_rows()
    assert transposed(ag) == ag
    assert transposed(ga) == ga


def leibniz_det(k):
    """det k as the signed sum over permutations."""
    return sum(
        (-1) ** inversions(p) * math.prod(k[i][p[i]] for i in range(len(k)))
        for p in itertools.permutations(range(len(k)))
    )


def inversions(seq):
    return sum(x > y for x, y in itertools.combinations(seq, 2))


def fraction_inverse(k):
    """k^-1 in Fractions, by Gauss-Jordan on [k | I] with row exchanges."""
    n = len(k)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(k)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            factor = m[i][c]
            if i != c and factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


@st.composite
def schur_blocks(draw):
    """K, B and U of an integer block [[K, B], [-U, 0]] with K invertible:
    a drawn nonsingular square, or one of SWAPPING, times the lcm of its
    denominators, or a nonzero integer.  U may have no rows."""
    square = draw(st.one_of(
        nonsingular_squares(), st.sampled_from(SWAPPING), rat_matrices(1, 1).filter(
            lambda a: a.entries[0] != 0
        ),
    ))
    scale = math.lcm(*(x.denominator for x in square.entries))
    k = [[int(x * scale) for x in row] for row in square.to_rows()]
    entries = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))
    r, cols, rows = len(k), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    b = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(r)]
    u = [draw(st.lists(entries, min_size=r, max_size=r)) for _ in range(rows)]
    return k, b, u


@settings(max_examples=100, deadline=None)
@given(schur_blocks())
def test_eliminate_leaves_the_last_pivot_times_the_schur_complement(case):
    k, b, u = case
    r = len(k)
    block = [kr + br for kr, br in zip(k, b)] + [[-x for x in ur] + [0] * len(b[0]) for ur in u]
    pivot_rows, pivot_cols, last, rest = _eliminate(block, r)
    # Every pivot falls in K's rows, where the default call on K alone finds them.
    assert pivot_cols == list(range(r)) and sorted(pivot_rows) == list(range(r))
    assert _eliminate(k) == (pivot_rows, pivot_cols, last, [])
    assert last == (-1) ** inversions(pivot_rows) * leibniz_det(k)
    kinv = fraction_inverse(k)
    schur = [
        [sum(ui[s] * kinv[s][t] * b[t][c] for s in range(r) for t in range(r))
         for c in range(len(b[0]))]
        for ui in u
    ]
    assert rest == [[last * x for x in row] for row in schur]


@st.composite
def inner_inverse_draws(draw):
    """x with U and V for b1 = g + (I - g x) U + V (I - x g), g = x^+;
    x is singular in most draws, and U and V are zero in some, where
    b1 = g."""
    x = draw(st.one_of(
        square_matrices(), low_rank_products(square=True), st.sampled_from(WITNESS_POINTS)
    ))
    n = x.rows
    u, v = (draw(st.one_of(st.just(zero_matrix(n)), rat_matrices(n, n))) for _ in "uv")
    return x, u, v


@settings(max_examples=60, deadline=None)
@given(inner_inverse_draws())
@example((SWAPPING[0], identity_matrix(2), identity_matrix(2)))
@example((WITNESS_POINTS[1], identity_matrix(3), zero_matrix(3)))
def test_generalized_inverse_check_refuses_every_other_inner_inverse(case):
    """b = b1 x b1 satisfies x b x = x and b x b = b for every U and V (a
    {1,2}-inverse); it is x^+ only when x b and b x are symmetric too.
    Fed to ``generalized_inverse`` as its Schur complement, b must pass
    the in-kernel check exactly when it is x^+."""
    sympy = pytest.importorskip("sympy")
    x, u, v = case
    big_x, big_u, big_v = (sympy.Matrix(m.to_rows()) for m in (x, u, v))
    big_g, eye = big_x.pinv(), sympy.eye(x.rows)
    b1 = big_g + (eye - big_g * big_x) * big_u + big_v * (eye - big_x * big_g)
    big_b = b1 * big_x * b1
    assert big_x * big_b * big_x == big_x and big_b * big_x * big_b == big_b
    g, b = (
        RatMatrix.from_rows([[Fraction(str(e)) for e in row] for row in m.tolist()])
        for m in (big_g, big_b)
    )
    d = math.lcm(*(e.denominator for e in x.entries))
    scale = math.lcm(*(e.denominator for e in b.entries))

    def fed(grid, width=None):
        pivots = _eliminate(grid, width)
        if width is None:
            return pivots
        # d * G' / D = b: G' = scale * b and D = d * scale.
        return (*pivots[:2], d * scale, [[int(e * scale) for e in row] for row in b.to_rows()])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "_eliminate", fed)
        if b == g:
            assert generalized_inverse(x) == g
        else:
            with pytest.raises(RuntimeError, match="failed its defining identities"):
                generalized_inverse(x)


def fraction_sum(*terms):
    """The entrywise sum of matrices given as rows of Fractions."""
    return [[sum(entries) for entries in zip(*rows)] for rows in zip(*terms)]


def identity_minus_product(a, b):
    """I - a b, by the triple loop."""
    return RatMatrix.from_rows([
        [int(i == j) - e for j, e in enumerate(row)]
        for i, row in enumerate(fraction_product(a, b))
    ])


@st.composite
def witness_inner_inverses(draw):
    """(n, k, m) of a witness point x = diag((1/m) I_k, 0) of order 2 to 6,
    with U and V for b = g + (I - g x) U + V (I - x g), g = x^+; U and V
    are zero in some draws, where b = g."""
    n = draw(st.integers(2, 6))
    k, m = draw(st.integers(1, n - 1)), draw(st.integers(1, 40))
    u, v = (draw(st.one_of(st.just(zero_matrix(n)), rat_matrices(n, n))) for _ in "uv")
    return n, k, m, u, v


@settings(max_examples=60, deadline=None)
@given(witness_inner_inverses())
@example((6, 3, 7, zero_matrix(6), zero_matrix(6)))
@example((4, 2, 3, identity_matrix(4), identity_matrix(4)))
def test_every_inner_inverse_of_a_witness_point_meets_the_bound(case):
    """Law P5 on the matrix side, for every inverse: a b with x b x = x has
    m I_k as its top-left k x k block, so the order-k norm of b is at least
    C(n, k) m^k, which the pseudoinverse g attains."""
    n, k, m, u, v = case
    x, g = map(diagonal_matrix, _boundary_point(n, k, m))
    b = RatMatrix.from_rows(fraction_sum(
        g.to_rows(),
        fraction_product(identity_minus_product(g, x), u),
        fraction_product(v, identity_minus_product(x, g)),
    ))
    assert fraction_product(RatMatrix.from_rows(fraction_product(x, b)), x) == x.to_rows()
    bound = math.comb(n, k) * m**k
    assert minor_norm(g, k) == bound
    assert minor_norm(b, k) >= bound
    if u == v == zero_matrix(n):
        assert b == g


# Laws P2, P3 and P5 on the matrix side.  N_k is submultiplicative on
# M_n(Q), so it obeys the laws every submultiplicative norm obeys; each
# is checked at every k on seeded draws of order 2 to 5, with the
# products by the triple loop and N_k(x) = 0 exactly when rank x < k.


def seeded_orders():
    """(n, rng): an order from 2 to 5 and a random.Random of a drawn seed."""
    return st.tuples(st.integers(2, 5), st.integers(0, 2**32 - 1).map(random.Random))


def product(*factors):
    """The product of ``factors``, left to right, by the triple loop."""
    out = factors[0]
    for factor in factors[1:]:
        out = RatMatrix.from_rows(fraction_product(out, factor))
    return out


@settings(max_examples=60, deadline=None)
@given(seeded_orders(), st.data())
def test_idempotent_matrices_have_norm_zero_or_at_least_one(case, data):
    """P2: e = P diag(I_r, 0) P^-1 is idempotent of rank r, and N_k(e)
    is 0 (k > r) or at least 1 (k <= r)."""
    n, rng = case
    r = data.draw(st.integers(0, n))
    p = random_invertible_integer_matrix(rng, n)
    p_inv = generalized_inverse(p)
    assert product(p, p_inv) == identity_matrix(n)
    e = product(p, diagonal_matrix([1] * r + [0] * (n - r)), p_inv)
    assert product(e, e) == e
    assert rank(e) == r
    for k in range(1, n + 1):
        value = minor_norm(e, k)
        assert value >= 1 if k <= r else value == 0, (k, r, value)


@settings(max_examples=60, deadline=None)
@given(seeded_orders(), st.data())
def test_the_zero_set_of_a_minor_norm_absorbs_products(case, data):
    """P3, as an ideal: a = B C through an inner dimension below k has
    N_k(a) = 0, and so have a b and b a for every b."""
    n, rng = case
    k = data.draw(st.integers(1, n))
    inner = data.draw(st.integers(0, k - 1))
    a = (
        product(random_rational_matrix(rng, n, inner), random_rational_matrix(rng, inner, n))
        if inner else zero_matrix(n)
    )
    b = random_rational_matrix(rng, n, n)
    for x in (a, product(a, b), product(b, a)):
        assert rank(x) <= inner
        assert minor_norm(x, k) == 0


@settings(max_examples=60, deadline=None)
@given(seeded_orders(), st.data())
def test_inner_inverses_meet_the_reciprocal_bound(case, data):
    """P5: b = a^+ + (I - a^+ a) U + V (I - a a^+) satisfies a b a = a
    for every U and V, and N_k(a) N_k(b) >= 1 wherever N_k(a) > 0."""
    n, rng = case
    inner = data.draw(st.integers(1, n))
    a = product(random_rational_matrix(rng, n, inner), random_rational_matrix(rng, inner, n))
    g = generalized_inverse(a)
    u, v = (
        random_rational_matrix(rng, n, n) if data.draw(st.booleans()) else zero_matrix(n)
        for _ in "uv"
    )
    b = RatMatrix.from_rows(fraction_sum(
        g.to_rows(),
        fraction_product(identity_minus_product(g, a), u),
        fraction_product(v, identity_minus_product(a, g)),
    ))
    assert product(a, b, a) == a
    for k in range(1, n + 1):
        norm_a = minor_norm(a, k)
        assert (norm_a > 0) == (k <= rank(a))
        if norm_a:
            assert norm_a * minor_norm(b, k) >= 1, (k, norm_a)


@settings(max_examples=200, deadline=None)
@given(st.lists(matrix_entries(), min_size=1, max_size=7))
@example([Fraction(0), Fraction(-3, 2), Fraction(3, 2), Fraction(0), Fraction(1, 7)])
def test_diagonal_norm_and_rank_equal_the_general_kernels(d):
    """The witness reads each norm and rank off a diagonal: the closed
    form against the compound and the Bareiss rank, for every k."""
    a = diagonal_matrix(d)
    for k in range(1, len(d) + 1):
        assert _diagonal_norm(d, k) == minor_norm(a, k)
    assert sum(x != 0 for x in d) == rank(a)


# ---------------------------------------------------------------------------
# The three text parsers against a regex tokenizer.

BOUND_MESSAGE = (
    "a rational may spell out at most 4300 digits in its numerator and in its denominator"
)

# Whitespace inside a line, and the line breaks of str.splitlines().
SPACES = (" ", "\t", "\xa0", "\x1f", " ", "　")
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ")

INT_TOKENS = ("0", "1", "2", "-1", "+2", "1_0", "٣")
RATIONAL_TOKENS = ("1/2", "-3/4", "0.25", ".5", "1.", "1e-3", "2E2", "1_0/3", "+7/5", "0e9")
JUNK_TOKENS = (
    "x", "#", "1/0", "1/2/3", "--1", "1e", "1.d", "1__0", "labels", "labels:", "labels:1", "Ⅷ",
)
HUGE_TOKENS = (
    "1e4299", "1e4300", "-1e-4299", "1e-4300", "1e5000", "1e99999", "1e100000", "0e100000",
    "9" * 4300, "9" * 4301, "1/" + "7" * 4301, "0." + "0" * 4298 + "1", "0." + "0" * 4299 + "1",
    "1" * 4299 + ".5e1", "1" * 4299 + ".5e2",
)
ANY_TOKEN = st.sampled_from(INT_TOKENS + RATIONAL_TOKENS + JUNK_TOKENS + HUGE_TOKENS)


def regex_tokens(line_no, line, offset=0):
    return [(line_no, offset + m.start() + 1, m.group()) for m in re.finditer(r"\S+", line[offset:])]


def spelled_digits(token):
    """Digits of the numerator and the denominator a literal writes out
    before any cancellation: p/q writes p and q; w.f with exponent x
    writes wf and x - len(f) zeros over a 1 and len(f) - x zeros."""
    body = token.lstrip("+-").replace("_", "")
    if "/" in body:
        p, q = body.split("/")
        return len(p), len(q)
    mantissa, _, exponent = body.replace("E", "e").partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction)
    return len(whole) + len(fraction) + max(shift, 0), 1 + max(-shift, 0)


def ref_count(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    return digits if len(digits) <= 4300 else "more than 10**4300"


def ref_int(where, what="an integer"):
    line_no, col, token = where
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}", line_no, col) from None


def ref_rational(where):
    line_no, col, token = where
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"expected a rational like 3, -1/2 or 0.25, got {token!r}", line_no, col
        ) from None
    finally:
        sys.set_int_max_str_digits(limit)
    if max(spelled_digits(token)) > 4300:
        raise ParseError(BOUND_MESSAGE, line_no, col)
    return value


def ref_cayley(text):
    lines = text.splitlines()
    last = max(len(lines), 1)
    body, labels = [], None
    for line_no, line in enumerate(lines, start=1):
        head = re.match(r"\s*labels:", line)
        if labels is None and head:
            labels = regex_tokens(line_no, line, head.end())
        else:
            (body if labels is None else labels).extend(regex_tokens(line_no, line))
    if not body:
        raise ParseError("missing table order", last, 1)
    n = ref_int(body[0])
    if n <= 0:
        raise ParseError(f"order must be positive, got {n}", *body[0][:2])
    entries = body[1:]
    if len(entries) < n * n:
        raise ParseError(
            f"expected {ref_count(n * n)} table entries, found {len(entries)}", last, 1
        )
    if len(entries) > n * n:
        line_no, col, token = entries[n * n]
        raise ParseError(f"unexpected extra token {token!r}", line_no, col)
    values = [ref_int(e) for e in entries]
    rows = [values[i * n:(i + 1) * n] for i in range(n)]
    if labels is None:
        return rows, None
    if len(labels) != n:
        raise ParseError(f"expected {n} labels, found {len(labels)}", labels[0][0] if labels else last, 1)
    return rows, [ref_rational(e) for e in labels]


def ref_matrix(text):
    lines = text.splitlines()
    last = max(len(lines), 1)
    tokens = [t for line_no, line in enumerate(lines, start=1) for t in regex_tokens(line_no, line)]
    if len(tokens) < 2:
        raise ParseError("missing matrix dimensions", last, 1)
    rows = ref_int(tokens[0], "row count")
    cols = ref_int(tokens[1], "column count")
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive", *tokens[0][:2])
    if len(tokens) - 2 != rows * cols:
        raise ParseError(
            f"expected {ref_count(rows * cols)} entries for a {rows}x{cols} matrix, "
            f"found {len(tokens) - 2}",
            last,
            1,
        )
    return rows, cols, tuple(ref_rational(t) for t in tokens[2:])


def ref_norm(text):
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = regex_tokens(line_no, line)
        if not tokens:
            continue
        if len(tokens) > 1:
            raise ParseError("expected one value per line", line_no, 1)
        value = ref_rational(tokens[0])
        if value < 0:
            raise ParseError(f"norm values must be nonnegative, got {value}", *tokens[0][:2])
        values.append(value)
    return tuple(values)


def outcome(parse, text):
    """The result, or the message, line and column of the ParseError; any
    other exception fails the test."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


@st.composite
def mutated(draw, tokens):
    """Up to two tokens replaced, dropped or added."""
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("replace", "drop", "add")))
        if kind == "add" or not tokens:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(ANY_TOKEN))
        elif kind == "drop":
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(ANY_TOKEN)
    return tokens


@st.composite
def laid_out(draw, lines):
    """Lines of tokens as text: Unicode whitespace around and between the
    tokens, blank lines, and every kind of line break."""
    spaces = st.text(st.sampled_from(SPACES), min_size=1, max_size=3)
    out = []
    for words in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(("", " ", "\t　"))))
        lead = draw(spaces) if draw(st.booleans()) else ""
        trail = draw(spaces) if draw(st.booleans()) else ""
        out.append(lead + "".join(w + draw(spaces) for w in words[:-1]) + "".join(words[-1:]) + trail)
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in out]
    return "".join(line + brk for line, brk in zip(out, breaks))


@st.composite
def spread(draw, tokens):
    """Tokens cut into lines at drawn places."""
    lines, line = [], []
    for token in tokens:
        line.append(token)
        if draw(st.booleans()):
            lines.append(line)
            line = []
    return lines + [line]


@st.composite
def cayley_texts(draw):
    n = draw(st.integers(1, 3))
    body = [str(n)] + [str(draw(st.integers(0, n - 1))) for _ in range(n * n)]
    lines = draw(spread(draw(mutated(body))))
    placement = draw(st.sampled_from((None, "same line", "glued", "following lines")))
    if placement is not None:
        labels = draw(mutated(draw(st.lists(st.sampled_from(RATIONAL_TOKENS), min_size=n, max_size=n))))
        if placement == "following lines":
            lines += [["labels:"]] + draw(spread(labels))
        elif placement == "glued" and labels:
            lines += [["labels:" + labels[0]] + labels[1:]]
        else:
            lines += [["labels:"] + labels]
    return draw(laid_out(lines))


@st.composite
def matrix_texts(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = [str(rows), str(cols)] + [
        draw(st.sampled_from(INT_TOKENS + RATIONAL_TOKENS)) for _ in range(rows * cols)
    ]
    return draw(laid_out(draw(spread(draw(mutated(entries))))))


@st.composite
def norm_texts(draw):
    values = draw(mutated(draw(st.lists(st.sampled_from(INT_TOKENS + RATIONAL_TOKENS), max_size=4))))
    lines = [[v] for v in values]
    if lines and draw(st.integers(0, 2)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))].append(draw(ANY_TOKEN))
    return draw(laid_out(lines))


def arbitrary_texts():
    pieces = SPACES + LINE_BREAKS + ("labels:", "1", "0", "-", "/", ".", "e", "_", "x", "٣")
    return st.lists(st.sampled_from(pieces), max_size=30).map("".join)


@pytest.mark.parametrize(
    "token", ["1", "007", "00", "+1", "-0", "+0", "1_0", "٣", "١", "2", "-1", "0x1", "1.0", "x"]
)
def test_table_entry_lookup_equals_int(token):
    # Canonical spellings take the lookup; any other token sends every
    # entry through int(), so values and errors are int()'s.
    text = f"2\n0 1\n1 {token}\n"
    parsed = outcome(parse_cayley_text, text)
    assert parsed == outcome(ref_cayley, text)
    try:
        value = int(token)
    except ValueError:
        assert parsed[0] == "error"
    else:
        assert parsed == ("ok", ([[0, 1], [1, value]], None))


# Orders of errors the draws seldom reach: the entry count before a bad
# entry or an extra token, the labels after the table, and in a norm file
# whichever bad line comes first.
@pytest.mark.parametrize(
    "parse, reference, text, message",
    [
        (parse_cayley_text, ref_cayley, "2\n0 x\n1\n", "expected 4 table entries, found 3"),
        (parse_cayley_text, ref_cayley, "1\nx 0\n", "unexpected extra token '0'"),
        (parse_cayley_text, ref_cayley, "1\n0\nlabels: x y\n", "expected 1 labels, found 2"),
        # The labels swallow the last row.
        (parse_cayley_text, ref_cayley, "2\n0 1\nlabels: 1\n1 0\n", "expected 4 table entries, found 2"),
        (parse_matrix_text, ref_matrix, "2 2\nx 1 2\n", "expected 4 entries for a 2x2 matrix, found 3"),
        (parse_norm_text, ref_norm, "x\n1 2\n", "expected a rational"),
        (parse_norm_text, ref_norm, "1 2\nx\n", "expected one value per line"),
        # Too short a text for n * n entries: they are counted, and no
        # lookup of n spellings is built.
        (parse_cayley_text, ref_cayley, "1000000000\n0\n", "expected 10" + "0" * 17 + " table entries"),
    ],
)
def test_parse_error_order(parse, reference, text, message):
    start = time.perf_counter()
    parsed = outcome(parse, text)
    assert time.perf_counter() - start < 0.1
    assert parsed[0] == "error" and message in parsed[1]
    # The reference returns a matrix's or a norm's fields, not the object;
    # both raise here, so only the errors are compared.
    assert parsed == outcome(reference, text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(cayley_texts(), arbitrary_texts()))
def test_parse_cayley_text_matches_a_regex_tokenizer(text):
    assert outcome(parse_cayley_text, text) == outcome(ref_cayley, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrix_texts(), arbitrary_texts()))
def test_parse_matrix_text_matches_a_regex_tokenizer(text):
    def parse(t):
        a = parse_matrix_text(t)
        return a.rows, a.cols, a.entries

    assert outcome(parse, text) == outcome(ref_matrix, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(norm_texts(), arbitrary_texts()))
def test_parse_norm_text_matches_a_regex_tokenizer(text):
    assert outcome(lambda t: parse_norm_text(t).values, text) == outcome(ref_norm, text)
