"""Independent oracles for the fast kernels of norms and matrices.

Each kernel under test takes a shortcut: integer cross-multiplication and
value classes in ``check_submultiplicative``, the bounded integer rounds
of ``submultiplicative_envelope``, by pairs or by value classes, the
single gate of ``run_suite``, the stored inverse sets of P5, the least
violating pair of P8 and the laws P3-P8 decided on all-zero or zero-free
norms without derived structure, the integer pair scans of
``classify_literature_axioms``, the integer Laplace program of
``compound``, the integer products of ``mat_mul``, the Bareiss
elimination of ``rank`` and ``det`` and its Schur complement, the integer
pseudoinverse and its Penrose check, and the split-based tokenizers of
the matrix and norm parsers.  The references in ``references`` are
written from the definitions alone, or are sympy's, and share no code
with those kernels; hypothesis draws the inputs, from ``strategies``.
The semigroup kernels' oracles are in ``test_semigroups``.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semnorms import (
    BUILTIN_SEMIGROUPS,
    FAIL,
    INAPPLICABLE,
    FiniteSemigroup,
    NormTable,
    RatMatrix,
    builtin_semigroup,
    check_submultiplicative,
    classify_literature_axioms,
    compound,
    det,
    full_transformation_monoid,
    generalized_inverse,
    mat_mul,
    minor_norm,
    parse_matrix_text,
    parse_norm_text,
    random_submultiplicative_norms,
    rank,
    run_suite,
    submultiplicative_envelope,
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

from references import (
    bounded_infimum,
    brute_power,
    fraction_inverse,
    fraction_product,
    fraction_submultiplicative,
    inner_inverse,
    inversions,
    laplace_det,
    minor,
    outcome,
    product,
    ref_matrix,
    ref_norm,
    reference_axioms,
    reference_envelope_rounds,
    reference_inverse_lower_bound,
    reference_order_zero_downward,
    reference_suite,
    transformation_maps,
)
from strategies import (
    BUILTIN_TABLES,
    PRIMES,
    SMALL_SEMIGROUPS,
    SWAPPING,
    WITNESS_POINTS,
    arbitrary_texts,
    chained_matrices,
    diagonal_matrix,
    identity_matrix,
    inner_inverse_draws,
    low_rank_products,
    matrix_entries,
    matrix_texts,
    nonsingular_squares,
    norm_texts,
    norms_by_kind,
    random_invertible_integer_matrix,
    random_rational_matrix,
    rat_matrices,
    schur_blocks,
    seeded_orders,
    square_matrices,
    tables_with_few_values,
    tables_with_values,
    transformation_tables,
    transposed,
    with_zero_lines,
    witness_inner_inverses,
    zero_matrix,
)


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
    maps = transformation_maps(3)
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


def subsets(size, k):
    return list(itertools.combinations(range(size), k))


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


@settings(max_examples=100, deadline=None)
@given(chained_matrices(max_side=5).flatmap(
    lambda pair: st.tuples(*(with_zero_lines(st.just(m)) for m in pair))
))
def test_mat_mul_matches_a_fraction_triple_loop(pair):
    a, b = pair
    assert mat_mul(a, b).to_rows() == fraction_product(a, b)


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
    assert last == (-1) ** inversions(pivot_rows) * laplace_det(k)
    kinv = fraction_inverse(k)
    schur = [
        [sum(ui[s] * kinv[s][t] * b[t][c] for s in range(r) for t in range(r))
         for c in range(len(b[0]))]
        for ui in u
    ]
    assert rest == [[last * x for x in row] for row in schur]


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
    b = inner_inverse(x, g, u, v)
    assert product(x, b, x) == x
    bound = math.comb(n, k) * m**k
    assert minor_norm(g, k) == bound
    assert minor_norm(b, k) >= bound
    if u == v == zero_matrix(n):
        assert b == g


# Laws P2, P3 and P5 on the matrix side.  N_k is submultiplicative on
# M_n(Q), so it obeys the laws every submultiplicative norm obeys; each
# is checked at every k on seeded draws of order 2 to 5, with the
# products by the triple loop and N_k(x) = 0 exactly when rank x < k.


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
    b = inner_inverse(a, g, u, v)
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
# The matrix and norm parsers against a regex tokenizer.


# Orders of errors the draws seldom reach: the entry count of a matrix
# before a bad entry, and in a norm file whichever bad line comes first.


@pytest.mark.parametrize(
    "parse, reference, text, message",
    [
        (parse_matrix_text, ref_matrix, "2 2\nx 1 2\n", "expected 4 entries for a 2x2 matrix, found 3"),
        (parse_norm_text, ref_norm, "x\n1 2\n", "expected a rational"),
        (parse_norm_text, ref_norm, "1 2\nx\n", "expected one value per line"),
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
