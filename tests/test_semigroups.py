"""Cayley-table validation, the semigroup type, Green's relations, the
natural partial order, and the text format.

Frozen oracle tables are written out by hand at the top; every derived
fact asserted below was computed independently from those tables before
the assertions were written.  The t2 Green partitions come from right
ideals row by row and left ideals column by column.  The t3 oracle is the
classical count of self-maps of a 3-point set by image size: 3 with
image size 1, 18 with image size 2, 6 with image size 3, and the
D-classes of a full transformation monoid are exactly the image-size
classes.  In the t2 natural order both constants sit below both units
(witnessed by x = y = the constant itself), the two constants are
incomparable, and so are the units.
"""

import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from semnorms import (
    BUILTIN_SEMIGROUPS,
    FiniteSemigroup,
    InvalidSemigroupError,
    ParseError,
    builtin_semigroup,
    cyclic_group,
    full_transformation_monoid,
    green_structure,
    idempotents,
    inverse_set,
    is_regular,
    left_zero_semigroup,
    load_cayley_table,
    natural_order,
    null_semigroup,
    parse_cayley_text,
    symmetric_group,
    validate,
    zero_elements,
)
from semnorms import semigroups
from semnorms.semigroups import LIGHT_TEST_BUDGET, LISTING_BUDGET, inverse_sets

from references import image_size_classes, natural_leq
from strategies import NON_ASSOCIATIVE_TABLE, SUITE


# Self-maps of {0, 1} in lexicographic order: 0 = const 0, 1 = identity,
# 2 = swap, 3 = const 1, composed left to right.
T2_TABLE = (
    (0, 0, 3, 3),
    (0, 1, 2, 3),
    (0, 2, 1, 3),
    (0, 3, 0, 3),
)

Z2_TABLE = ((0, 1), (1, 0))


# Green's relations and the natural order of t2, by hand.
T2_R = ({0, 3}, {1, 2})
T2_L = ({0}, {1, 2}, {3})
T2_H = ({0}, {1, 2}, {3})
T2_D = ({0, 3}, {1, 2})

T2_PAIRS = {
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2),
    (3, 1), (3, 2),
}


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_z2():
    report = validate(Z2_TABLE)
    assert report.ok
    assert report.summary() == "valid Cayley table"


def test_validate_empty_table():
    report = validate([])
    assert not report.ok
    assert report.structural == ("empty table",)


def test_validate_ragged_rows():
    report = validate([[0, 1], [0]])
    assert not report.ok
    assert any("row 1 has 1 entries" in msg for msg in report.structural)


def test_validate_non_integer_entries():
    report = validate([[0, "x"], [1.5, 0]])
    assert not report.ok
    assert len(report.structural) == 2


def test_validate_rejects_bool_entries():
    # bool is an int subclass; a table of Trues must not validate.
    report = validate([[True, 0], [0, 0]])
    assert not report.ok
    assert "not an integer" in report.structural[0]


def test_validate_collects_every_out_of_range_entry():
    report = validate([[0, 5], [-1, 0]])
    assert not report.ok
    assert report.out_of_range == ((0, 1, 5), (1, 0, -1))
    assert report.non_associative == ()


def test_validate_collects_every_non_associative_triple():
    report = validate(NON_ASSOCIATIVE_TABLE)
    assert not report.ok
    assert report.non_associative == ((1, 0, 1), (1, 1, 1))


def cyclic_with_one_entry_changed(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[3][5] = 0
    return table


def test_listing_is_bounded_by_the_triples_it_would_scan():
    # Order 64 scans 64**3 = LISTING_BUDGET triples and lists its
    # violations; order 65 is refused before any listing, by ValueError
    # naming a violating triple that Light's test found.
    assert LISTING_BUDGET == 64**3
    table = cyclic_with_one_entry_changed(64)
    triples = validate(table).non_associative
    assert triples and all(
        table[table[i][j]][k] != table[i][table[j][k]] for i, j, k in triples
    )
    assert len(triples) == sum(
        table[table[i][j]][k] != table[i][table[j][k]]
        for i in range(64) for j in range(64) for k in range(64)
    )
    table = cyclic_with_one_entry_changed(65)
    for check in (validate, FiniteSemigroup):
        with pytest.raises(ValueError, match="over the budget of 262144") as exc:
            check(table)
        i, j, k = map(int, re.search(r"triple \((\d+), (\d+), (\d+)\)", str(exc.value)).groups())
        assert table[table[i][j]][k] != table[i][table[j][k]]


def test_light_test_is_refused_over_its_budget(monkeypatch):
    # Every element of a null table is a generator, so Light's test reads
    # n**3 entries, about 14 s at order 1024: refused before the test.
    assert LIGHT_TEST_BUDGET == 512**3
    table = [[0] * 1024 for _ in range(1024)]
    for check in (validate, FiniteSemigroup):
        start = time.perf_counter()
        with pytest.raises(
            ValueError,
            match="^Light's associativity test with 1024 generators on 1024 elements "
            "reads 1073741824 table entries, over the budget of 134217728$",
        ):
            check(table)
        assert time.perf_counter() - start < 0.5
    # The budget itself is admitted.
    monkeypatch.setattr(semigroups, "LIGHT_TEST_BUDGET", 8**3)
    assert validate([[0] * 8 for _ in range(8)]).ok
    with pytest.raises(ValueError, match="reads 729 table entries, over the budget of 512$"):
        validate([[0] * 9 for _ in range(9)])


def test_validate_summary_counts():
    report = validate(NON_ASSOCIATIVE_TABLE)
    assert "2 associativity violations" in report.summary()
    assert "(1, 0, 1)" in report.summary()


def test_report_to_jsonable_roundtrips_values():
    report = validate([[0, 5], [0, 0]])
    out = report.to_jsonable()
    assert out["valid"] is False
    assert out["out_of_range"] == [{"row": 0, "col": 1, "value": 5}]
    assert out["structural"] == []


# ---------------------------------------------------------------------------
# FiniteSemigroup


def test_construction_validates():
    with pytest.raises(InvalidSemigroupError) as exc:
        FiniteSemigroup(NON_ASSOCIATIVE_TABLE)
    assert exc.value.report.non_associative == ((1, 0, 1), (1, 1, 1))
    with pytest.raises(InvalidSemigroupError) as exc:
        FiniteSemigroup([[0, 5], [1, 0]])
    assert str(exc.value) == "1 out-of-range entries (first at row 0, column 1: 5)"


def test_construction_freezes_rows():
    s = FiniteSemigroup([[0, 1], [1, 0]])
    assert s.table == Z2_TABLE
    assert isinstance(s.table[0], tuple)


def test_order_elements_mul():
    s = FiniteSemigroup(T2_TABLE)
    assert s.order == 4
    assert list(s.elements()) == [0, 1, 2, 3]
    assert s.table[2][2] == 1


def test_identity_found_and_missing():
    assert FiniteSemigroup(Z2_TABLE).identity() == 0
    assert FiniteSemigroup(T2_TABLE).identity() == 1
    assert left_zero_semigroup(3).identity() is None


def test_labels_coerced_to_fractions():
    s = FiniteSemigroup(Z2_TABLE, labels=(1, "1/2"))
    assert s.labels == (Fraction(1), Fraction(1, 2))


def test_label_count_mismatch():
    with pytest.raises(InvalidSemigroupError, match="3 labels for 2 elements"):
        FiniteSemigroup(Z2_TABLE, labels=(1, 2, 3))


def test_semigroups_are_hashable_and_equal_by_value():
    assert builtin_semigroup("t2") == builtin_semigroup("t2")
    assert hash(builtin_semigroup("z2")) == hash(builtin_semigroup("z2"))


def test_semigroup_is_an_immutable_value():
    s = FiniteSemigroup(table=Z2_TABLE, labels=(1, "1/2"))
    same = FiniteSemigroup([[0, 1], [1, 0]], (1, Fraction(1, 2)))
    assert s == same and hash(s) == hash(same)
    assert s != FiniteSemigroup(Z2_TABLE) and s != Z2_TABLE
    assert {same: "found"}[s] == "found"
    assert repr(s) == "FiniteSemigroup(order=2)"
    for name in ("table", "labels", "generators", "_derived", "order", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.table, s.labels) == (Z2_TABLE, (1, Fraction(1, 2)))


DERIVED_QUERIES = (
    green_structure,
    natural_order,
    idempotents,
    zero_elements,
    is_regular,
    inverse_sets,
    FiniteSemigroup.identity,
)


def test_derived_structure_lives_on_the_semigroup_alone():
    # Each query is computed once and kept on the instance, not in a
    # module-level cache that would hold a reference to the semigroup.
    s = FiniteSemigroup(T2_TABLE)
    before = sys.getrefcount(s)
    first = [query(s) for query in DERIVED_QUERIES]
    assert sys.getrefcount(s) == before
    assert all(query(s) is value for query, value in zip(DERIVED_QUERIES, first))
    fresh = FiniteSemigroup(T2_TABLE)
    assert s == fresh and hash(s) == hash(fresh)


def test_builtin_semigroup_is_one_shared_instance_per_name():
    assert builtin_semigroup("t3") is builtin_semigroup("t3")
    assert builtin_semigroup("t2") is not builtin_semigroup("t3")


# ---------------------------------------------------------------------------
# element predicates


def test_idempotents():
    assert idempotents(builtin_semigroup("z2")) == {0}
    assert idempotents(builtin_semigroup("t2")) == {0, 1, 3}
    assert idempotents(builtin_semigroup("null4")) == {0}
    assert idempotents(builtin_semigroup("leftzero3")) == {0, 1, 2}


def test_inverse_set_t2():
    t2 = builtin_semigroup("t2")
    assert inverse_set(t2, 0) == {0, 3}
    assert inverse_set(t2, 1) == {1}
    assert inverse_set(t2, 2) == {2}


def test_inverse_set_null_semigroup():
    null4 = builtin_semigroup("null4")
    assert inverse_set(null4, 0) == {0}
    assert inverse_set(null4, 1) == frozenset()


def test_inverse_set_left_zero_is_everything():
    # a*b*a = a and b*a*b = b hold for every pair when x*y = x.
    lz = builtin_semigroup("leftzero3")
    for a in lz.elements():
        assert inverse_set(lz, a) == {0, 1, 2}


def test_inverse_set_rejects_bad_index():
    with pytest.raises(ValueError, match="out of range"):
        inverse_set(builtin_semigroup("z2"), 5)
    with pytest.raises(ValueError, match=r"index more than 10\*\*4300 out of range"):
        inverse_set(builtin_semigroup("z2"), 10**5000)


def test_is_regular():
    assert is_regular(builtin_semigroup("t2"))
    assert is_regular(builtin_semigroup("t3"))
    assert is_regular(builtin_semigroup("leftzero3"))
    assert is_regular(builtin_semigroup("s3"))
    assert not is_regular(builtin_semigroup("null4"))


def test_zero_elements():
    t2 = builtin_semigroup("t2")
    zeros = zero_elements(t2)
    assert zeros.left == frozenset()
    assert zeros.right == {0, 3}
    assert zeros.two_sided == frozenset()

    null4 = builtin_semigroup("null4")
    assert zero_elements(null4).two_sided == {0}

    lz = builtin_semigroup("leftzero3")
    assert zero_elements(lz).left == {0, 1, 2}
    assert zero_elements(lz).right == frozenset()


# ---------------------------------------------------------------------------
# stock semigroups


def test_builtin_names_and_orders():
    expected = {
        "z2": 2,
        "c4": 4,
        "s3": 6,
        "t2": 4,
        "t3": 27,
        "leftzero3": 3,
        "null4": 4,
    }
    assert set(BUILTIN_SEMIGROUPS) == set(expected)
    for name, order in expected.items():
        assert builtin_semigroup(name).order == order


def test_t2_table_is_frozen_oracle():
    assert builtin_semigroup("t2").table == T2_TABLE


def test_cyclic_groups_are_abelian():
    for s in (cyclic_group(2), cyclic_group(4)):
        for a in s.elements():
            for b in s.elements():
                assert s.table[a][b] == s.table[b][a]


def test_s3_is_not_abelian():
    s3 = symmetric_group(3)
    assert s3.identity() == 0
    assert any(
        s3.table[a][b] != s3.table[b][a] for a in s3.elements() for b in s3.elements()
    )


def test_left_zero_law():
    lz = left_zero_semigroup(3)
    for a in lz.elements():
        for b in lz.elements():
            assert lz.table[a][b] == a


def test_null_semigroup_law():
    null = null_semigroup(4)
    for a in null.elements():
        for b in null.elements():
            assert null.table[a][b] == 0


def test_t3_contains_identity():
    # The identity map (0,1,2) sits at lexicographic position 5 = 0*9+1*3+2.
    assert full_transformation_monoid(3).identity() == 5


def test_catalog_rejects_bad_sizes():
    for factory in (
        cyclic_group,
        symmetric_group,
        full_transformation_monoid,
        left_zero_semigroup,
        null_semigroup,
    ):
        with pytest.raises(ValueError):
            factory(0)


def test_unknown_builtin_name():
    with pytest.raises(ValueError, match="unknown semigroup name"):
        builtin_semigroup("nope")


# ---------------------------------------------------------------------------
# Green's relations


def test_t2_all_four_partitions():
    g = green_structure(builtin_semigroup("t2"))
    assert g.r_classes == tuple(frozenset(c) for c in T2_R)
    assert g.l_classes == tuple(frozenset(c) for c in T2_L)
    assert g.h_classes == tuple(frozenset(c) for c in T2_H)
    assert g.d_classes == tuple(frozenset(c) for c in T2_D)


def test_t2_d_classes_match_image_size_oracle():
    oracle = image_size_classes(2)
    computed = set(green_structure(builtin_semigroup("t2")).d_classes)
    assert computed == set(oracle.values())
    assert sorted(len(c) for c in computed) == [2, 2]


def test_t3_d_classes_match_image_size_oracle():
    oracle = image_size_classes(3)
    computed = set(green_structure(builtin_semigroup("t3")).d_classes)
    assert computed == set(oracle.values())
    assert sorted(len(c) for c in computed) == [3, 6, 18]


def test_groups_have_one_class_of_everything():
    for name in ("z2", "c4", "s3"):
        s = builtin_semigroup(name)
        g = green_structure(s)
        everything = (frozenset(s.elements()),)
        assert g.r_classes == everything
        assert g.l_classes == everything
        assert g.d_classes == everything
        assert g.h_classes == everything


def test_left_zero_semigroup():
    # a*b = a: right ideals are singletons, left ideals are everything.
    g = green_structure(builtin_semigroup("leftzero3"))
    assert g.r_classes == ({0}, {1}, {2})
    assert g.l_classes == ({0, 1, 2},)
    assert g.h_classes == ({0}, {1}, {2})
    assert g.d_classes == ({0, 1, 2},)


def test_null_semigroup_degenerates_to_singletons():
    g = green_structure(builtin_semigroup("null4"))
    singletons = ({0}, {1}, {2}, {3})
    assert g.r_classes == singletons
    assert g.l_classes == singletons
    assert g.h_classes == singletons
    assert g.d_classes == singletons


def test_every_partition_is_an_equivalence():
    for name in SUITE:
        s = builtin_semigroup(name)
        g = green_structure(s)
        for classes in (g.r_classes, g.l_classes, g.d_classes, g.h_classes):
            seen = sorted(a for part in classes for a in part)
            assert seen == list(s.elements())  # disjoint cover, nothing repeated


def test_h_refines_r_and_l_and_d_coarsens_both():
    for name in SUITE:
        g = green_structure(builtin_semigroup(name))
        for h in g.h_classes:
            assert any(h <= r for r in g.r_classes)
            assert any(h <= l for l in g.l_classes)
        for r in g.r_classes:
            assert any(r <= d for d in g.d_classes)
        for l in g.l_classes:
            assert any(l <= d for d in g.d_classes)


def test_classes_ordered_by_minimum():
    for name in SUITE:
        g = green_structure(builtin_semigroup(name))
        for classes in (g.r_classes, g.l_classes, g.d_classes, g.h_classes):
            minima = [min(part) for part in classes]
            assert minima == sorted(minima)


def test_structure_is_cached_per_semigroup():
    a = green_structure(builtin_semigroup("t2"))
    b = green_structure(builtin_semigroup("t2"))
    assert a is b


# ---------------------------------------------------------------------------
# the natural partial order


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


# ---------------------------------------------------------------------------
# text format


def test_parse_round_trip():
    text = "2\n0 1\n1 0\n"
    rows, labels = parse_cayley_text(text)
    assert rows == [[0, 1], [1, 0]]
    assert labels is None


def test_parse_labels_same_line():
    rows, labels = parse_cayley_text("2\n0 1\n1 0\nlabels: 1 -1/2\n")
    assert rows == [[0, 1], [1, 0]]
    assert labels == [Fraction(1), Fraction(-1, 2)]


def test_parse_labels_following_lines():
    rows, labels = parse_cayley_text("2\n0 1\n1 0\nlabels:\n0.5\n2\n")
    assert labels == [Fraction(1, 2), Fraction(2)]


def test_parse_ignores_blank_lines():
    rows, _ = parse_cayley_text("\n2\n\n0 1\n\n1 0\n\n")
    assert rows == [[0, 1], [1, 0]]


def test_parse_missing_order():
    with pytest.raises(ParseError, match="missing table order"):
        parse_cayley_text("")


def test_parse_nonpositive_order():
    with pytest.raises(ParseError, match="order must be positive"):
        parse_cayley_text("0\n")


def test_parse_too_few_entries():
    with pytest.raises(ParseError, match="expected 4 table entries, found 3"):
        parse_cayley_text("2\n0 1\n1\n")


def test_parse_extra_token_position():
    with pytest.raises(ParseError) as exc:
        parse_cayley_text("2\n0 1\n1 0 9\n")
    assert exc.value.line == 3
    assert exc.value.column == 5


def test_parse_bad_integer_position():
    with pytest.raises(ParseError) as exc:
        parse_cayley_text("2\n0 x\n1 0\n")
    assert "expected an integer" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_parse_label_count_mismatch():
    with pytest.raises(ParseError, match="expected 2 labels, found 1"):
        parse_cayley_text("2\n0 1\n1 0\nlabels: 1\n")


def test_parse_bad_label():
    with pytest.raises(ParseError, match="expected a rational"):
        parse_cayley_text("2\n0 1\n1 0\nlabels: 1 x\n")


def test_parse_bounds_label_literals():
    # A label may spell out at most 4300 digits above and below the line,
    # counted before cancellation, so 1e2000000 is refused without work.
    _, labels = parse_cayley_text("1\n0\nlabels: 1e4299\n")
    assert labels == [Fraction(10**4299)]
    for huge in ("1e4300", "1e-4300", "1e2000000", "1/" + "3" * 4301):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="at most 4300 digits") as exc:
            parse_cayley_text(f"1\n0\nlabels:  {huge}\n")
        assert time.perf_counter() - start < 0.5
        assert (exc.value.line, exc.value.column) == (3, 10)


def test_parse_keeps_rows_not_tokens():
    # Read a line at a time, the parser holds the rows and one line's
    # words, not a string per entry of the whole text.
    t4 = full_transformation_monoid(4)
    text = f"{t4.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t4.table)
    tracemalloc.start()
    try:
        rows, labels = parse_cayley_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rows, labels) == ([list(row) for row in t4.table], None)
    assert peak < 10 * len(text)


def test_load_cayley_table(tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 0\nlabels: 1 -1\n")
    s = load_cayley_table(path)
    assert s.table == Z2_TABLE
    assert s.labels == (Fraction(1), Fraction(-1))


def test_load_rejects_invalid_table(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 0\n")
    with pytest.raises(InvalidSemigroupError):
        load_cayley_table(path)


