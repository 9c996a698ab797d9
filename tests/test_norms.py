"""Norm tables, the exhaustive submultiplicativity check, the envelope
repair, the random generator, the text format, the laws P2..P8 with the
bridge from N_k, the literature's norm axioms, and each kernel's shortcut
against an independent oracle.

Frozen envelope oracles, derived by hand:

* z2 with (2, 1): the only failing pair is 1*1 = 0 with 2 > 1*1, so the
  identity drops to 1 and (1, 1) is stable.
* z2 with (1, 1/2): 1*1 = 0 forces value(0) <= 1/4, then 0*1 = 1 forces
  value(1) <= value(0)/2, and the two bounds pump each other to 0.
* null4 with all 1/2: the two-sided zero is idempotent with value below
  1, so it pumps itself to 0; nothing constrains the other elements.

The axiom expectations were worked out by hand per definition: which
axioms a constant table satisfies, where the first row-major violation
of multiplicativity sits on a null semigroup, and how the notation tag
moves the zero-normalization axiom between the zero element and the
identity.
"""

import json
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
    PASS,
    SUITE_IDS,
    FiniteSemigroup,
    InvalidSemigroupError,
    NormDomainError,
    NormTable,
    ParseError,
    RatMatrix,
    builtin_semigroup,
    check_submultiplicative,
    classify_literature_axioms,
    full_transformation_monoid,
    generalized_inverse,
    load_norm_table,
    mat_mul,
    minor_norm,
    parse_norm_text,
    random_submultiplicative_norms,
    run_suite,
    submultiplicative_envelope,
    validate,
    witness_sequence,
    zero_set,
)
from semnorms import norms
from semnorms.norms import (
    AMBIGUOUS,
    FAILS,
    FUZZ_WORK_BUDGET,
    HOLDS,
    NO_SUCH_ELEMENT,
    NOT_FINITELY_CHECKABLE,
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
    assert_parse_error,
    bounded_infimum,
    brute_power,
    fraction_submultiplicative,
    outcome,
    ref_norm,
    reference_axioms,
    reference_envelope_rounds,
    reference_inverse_lower_bound,
    reference_order_zero_downward,
    reference_suite,
    transformation_maps,
)
from strategies import (
    BIG,
    BRIDGE_ORDERS,
    BUILTIN_TABLES,
    HALF,
    PRIMES,
    SMALL_SEMIGROUPS,
    SUITE,
    arbitrary_texts,
    identity_matrix,
    map_matrix,
    norm_texts,
    norms_by_kind,
    random_invertible_integer_matrix,
    semigroup_of_maps,
    tables_with_few_values,
    tables_with_values,
    transformation_tables,
)


# ---------------------------------------------------------------------------
# NormTable


def test_norm_table_coerces_to_fractions():
    t = NormTable([1, "1/2", 0.25])
    assert t.values == (Fraction(1), HALF, Fraction(1, 4))


def test_norm_table_rejects_negatives():
    with pytest.raises(NormDomainError, match="element 1 is negative"):
        NormTable([1, -1])


def test_norm_table_is_immutable():
    t = NormTable([1, 2])
    with pytest.raises(AttributeError):
        t.values = (Fraction(0),)


def test_norm_table_container_protocol():
    t = NormTable([0, 1, 2])
    assert len(t) == 3
    assert t[2] == 2
    assert list(t) == [0, 1, 2]
    assert t == NormTable(["0", "1", "2"])
    assert hash(t) == hash(NormTable([0, 1, 2]))
    assert "1/2" in repr(NormTable([HALF]))


def test_length_mismatch_rejected():
    z2 = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="3 values for order 2"):
        check_submultiplicative(z2, [1, 1, 1])


# ---------------------------------------------------------------------------
# check_submultiplicative


def test_constant_one_is_submultiplicative_everywhere():
    for name in SUITE:
        s = builtin_semigroup(name)
        assert check_submultiplicative(s, NormTable([1] * s.order)).ok


def test_first_violation_in_row_major_order():
    # On a left zero semigroup value(a*b) = value(a), so the scan first
    # trips at a = 0 against the first b with value 0.
    verdict = check_submultiplicative(builtin_semigroup("leftzero3"), [2, 0, 0])
    assert not verdict.ok
    assert verdict.witness == (0, 1, Fraction(2), Fraction(2), Fraction(0))


def test_z2_half_witness():
    verdict = check_submultiplicative(builtin_semigroup("z2"), [1, HALF])
    assert verdict.witness == (1, 1, Fraction(1), HALF, HALF)


def test_verdict_to_jsonable():
    verdict = check_submultiplicative(builtin_semigroup("z2"), [1, HALF])
    out = verdict.to_jsonable()
    assert out["ok"] is False
    assert out["witness"] == {
        "a": 1,
        "b": 1,
        "value_ab": "1",
        "value_a": "1/2",
        "value_b": "1/2",
    }
    assert check_submultiplicative(builtin_semigroup("z2"), [1, 1]).to_jsonable() == {
        "ok": True,
        "witness": None,
    }


def test_zero_set():
    s = builtin_semigroup("null4")
    assert zero_set(s, [0, 1, 0, 2]) == {0, 2}


# ---------------------------------------------------------------------------
# envelope


def test_envelope_frozen_oracles():
    z2 = builtin_semigroup("z2")
    assert submultiplicative_envelope(z2, [2, 1]) == NormTable([1, 1])
    assert submultiplicative_envelope(z2, [1, HALF]) == NormTable([0, 0])
    null4 = builtin_semigroup("null4")
    assert submultiplicative_envelope(null4, [HALF] * 4) == NormTable(
        [0, HALF, HALF, HALF]
    )


def test_envelope_fixes_nothing_on_valid_input():
    s = builtin_semigroup("t2")
    table = NormTable([2, 1, 1, 2])
    assert check_submultiplicative(s, table).ok
    assert submultiplicative_envelope(s, table) == table


def test_envelope_result_properties():
    # Submultiplicative, dominated by the input, and idempotent as an
    # operator, across a deterministic spread of inputs.
    rng = random.Random(11)
    pool = (Fraction(0), HALF, Fraction(1), Fraction(2), Fraction(3))
    for name in ("z2", "c4", "t2", "null4", "leftzero3"):
        s = builtin_semigroup(name)
        for _ in range(25):
            raw = NormTable(rng.choice(pool) for _ in s.elements())
            env = submultiplicative_envelope(s, raw)
            assert check_submultiplicative(s, env).ok
            assert all(e <= r for e, r in zip(env, raw))
            assert submultiplicative_envelope(s, env) == env


def test_envelope_handles_pumping_without_blowup():
    # A sub-1 value on the group part of t3 pumps the identity to 0 and
    # the zero ideal then swallows the whole table; this used to square
    # fractions every round and must stay fast and exact.
    t3 = builtin_semigroup("t3")
    values = [Fraction(1)] * 27
    values[5] = HALF  # the identity map itself
    env = submultiplicative_envelope(t3, values)
    assert env == NormTable([0] * 27)


def test_envelope_zeroes_near_one_cycles_at_once():
    # In both tables the identity is a product of two elements valued
    # 9999/10000, so it pumps to 0, and every element is itself times the
    # identity.  Pumping reaches the tiny values only after over 10**5
    # factors; the envelope must not follow it that far.
    z2_zero = FiniteSemigroup(((0, 1, 2), (1, 0, 2), (2, 2, 2)))
    near_one, tiny = Fraction(9999, 10000), Fraction(1, 10**6)
    t3 = builtin_semigroup("t3")
    maps = transformation_maps(3)
    t3_values = [near_one if len(set(f)) == 3 else tiny if len(set(f)) == 1 else 1 for f in maps]
    for s, values in ((z2_zero, [1, near_one, tiny]), (t3, t3_values)):
        start = time.perf_counter()
        env = submultiplicative_envelope(s, values)
        assert time.perf_counter() - start < 1
        assert env == NormTable([0] * s.order)


# ---------------------------------------------------------------------------
# random generator


def test_generator_is_deterministic():
    s = builtin_semigroup("t2")
    a = random_submultiplicative_norms(s, 10, seed=42)
    b = random_submultiplicative_norms(s, 10, seed=42)
    assert a.norms == b.norms
    assert a.attempts == b.attempts
    assert random_submultiplicative_norms(s, 10, seed=43).norms != a.norms


def test_generator_outputs_are_all_valid():
    for name in ("z2", "s3", "t2", "null4"):
        s = builtin_semigroup(name)
        batch = random_submultiplicative_norms(s, 20, seed=5)
        assert len(batch.norms) == 20
        assert batch.requested == 20
        for norm in batch.norms:
            assert check_submultiplicative(s, norm).ok


def test_generator_yields_the_envelope_of_each_raw_draw():
    # The raw draws rebuilt from the seed: one choice per element, in
    # element order.  A draw is repaired exactly when a Fraction check
    # finds it not submultiplicative.
    pools = ((0, HALF, 1, 2), (HALF, 1, 2), (1, 2, 3), (Fraction(99, 100), 1, Fraction(101, 100)))
    for name in ("z2", "s3", "t2", "t3", "leftzero3", "null4"):
        s = builtin_semigroup(name)
        for pool in pools:
            batch = random_submultiplicative_norms(s, 8, seed=11, value_pool=pool)
            rng = random.Random(11)
            raws = [[rng.choice(pool) for _ in s.elements()] for _ in range(8)]
            assert batch.norms == tuple(submultiplicative_envelope(s, raw) for raw in raws)
            repaired = sum(not fraction_submultiplicative(s.table, raw)[0] for raw in raws)
            assert batch.repaired == repaired


def test_repair_mode_counts_repairs():
    s = builtin_semigroup("z2")
    batch = random_submultiplicative_norms(s, 50, seed=7)
    assert batch.attempts == 50
    assert 0 < batch.repaired < 50


def test_pool_validation():
    s = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="pool is empty"):
        random_submultiplicative_norms(s, 1, value_pool=())
    with pytest.raises(NormDomainError, match="negative"):
        random_submultiplicative_norms(s, 1, value_pool=(1, -1))
    with pytest.raises(ValueError, match="count"):
        random_submultiplicative_norms(s, -1)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        random_submultiplicative_norms(s, -(10**5000))


@pytest.mark.parametrize("count", [2.5, "3", None])
def test_random_norms_refuse_a_non_integer_count(count):
    # As witness_sequence refuses a non-integer m_max: before any draw.
    with pytest.raises(ValueError, match="count must be an integer"):
        random_submultiplicative_norms(builtin_semigroup("z2"), count)


TOO_LONG = "a rational with more than 4300 digits in its numerator or its denominator"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: NormTable([-BIG]), NormDomainError, r"negative: less than -10\*\*4300$"),
        (lambda: NormTable([Fraction(-1, 2)]), NormDomainError, r"negative: -1/2$"),
        (
            lambda: random_submultiplicative_norms(
                builtin_semigroup("z2"), 1, value_pool=(-BIG,)
            ),
            NormDomainError,
            r"negative entry: less than -10\*\*4300$",
        ),
        (
            lambda: check_submultiplicative(builtin_semigroup("z2"), [Fraction(-BIG), 1]),
            NormDomainError,
            r"element 0 is negative: less than -10\*\*4300$",
        ),
        (
            lambda: NormTable([1, Fraction(-1, BIG)]),
            NormDomainError,
            f"element 1 is negative: {TOO_LONG}$",
        ),
        (
            lambda: witness_sequence(3, 1, Fraction(BIG)),
            ValueError,
            r"m_max must be an integer, got more than 10\*\*4300$",
        ),
        (
            lambda: witness_sequence(3, 1, Fraction(5, 2)),
            ValueError,
            r"m_max must be an integer, got Fraction\(5, 2\)$",
        ),
        (
            lambda: FiniteSemigroup([[BIG]]),
            InvalidSemigroupError,
            r"\(first at row 0, column 0: more than 10\*\*4300\)$",
        ),
        (
            lambda: FiniteSemigroup([[Fraction(1, BIG)]]),
            InvalidSemigroupError,
            f"entry \\(0, 0\\) is not an integer: {TOO_LONG}$",
        ),
        (
            lambda: FiniteSemigroup([[Fraction(1, 2)]]),
            InvalidSemigroupError,
            r"entry \(0, 0\) is not an integer: Fraction\(1, 2\)$",
        ),
    ],
    ids=[
        "norm-table", "norm-table-printable", "value-pool", "check-submultiplicative",
        "norm-table-denominator", "witness-m-max", "witness-m-max-printable",
        "semigroup-out-of-range", "semigroup-not-an-integer",
        "semigroup-not-an-integer-printable",
    ],
)
def test_a_caller_value_too_long_for_str_is_echoed_by_a_bound(call, error, message):
    # str() refuses an int, or a Fraction's numerator or denominator, of
    # more than 4300 digits; the package's own error prints a bound in its
    # place, and a value str prints is echoed as before.
    with pytest.raises(error, match=message):
        call()


NON_FINITE_CALLS = {
    "norm-table": (lambda x: NormTable([1, x]), NormDomainError, "norm value at element 1"),
    "check-submultiplicative": (
        lambda x: check_submultiplicative(builtin_semigroup("z2"), [x, 1]),
        NormDomainError,
        "norm value at element 0",
    ),
    "value-pool": (
        lambda x: random_submultiplicative_norms(builtin_semigroup("z2"), 1, value_pool=[1, x]),
        NormDomainError,
        "value pool entry 1",
    ),
    "matrix": (lambda x: RatMatrix(2, 2, [1, 2, 3, x]), ValueError, r"matrix entry \(1, 1\)"),
    "matrix-rows": (lambda x: RatMatrix.from_rows([[1], [x]]), ValueError, r"matrix entry \(1, 0\)"),
    "labels": (lambda x: FiniteSemigroup([[0]], [x]), InvalidSemigroupError, "label 0"),
}


@pytest.mark.parametrize("value, shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_a_non_finite_value_ends_in_the_package_error(call, value, shown):
    # Fraction refuses an infinity with OverflowError and a NaN with
    # ValueError; each entry point names the position and echoes the value.
    make, error, where = NON_FINITE_CALLS[call]
    with pytest.raises(error, match=f"^{where} is not a finite rational: {shown}$") as info:
        make(value)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "entry, shown",
    [
        ([BIG], "a value of type list"),
        ((Fraction(1, BIG),), "a value of type tuple"),
        ("x" * 1000, "a value of type str"),
        ("x", "'x'"),
        ([1, 2], "[1, 2]"),
    ],
    ids=["list-of-huge-int", "tuple-of-huge-fraction", "long-str", "short-str", "short-list"],
)
def test_a_non_integer_entry_is_echoed_within_one_bound(entry, shown):
    # repr of a container that holds an int of more than 4300 digits raises
    # CPython's own ValueError, and a long str would be echoed in full; the
    # package's message names the type of either instead.
    message = f"entry (0, 0) is not an integer: {shown}"
    assert validate([[entry]]).structural == (message,)
    with pytest.raises(InvalidSemigroupError) as caught:
        FiniteSemigroup([[entry]])
    assert str(caught.value) == message


def test_reports_print_an_int_too_long_for_str_as_a_bound():
    out = validate([[BIG], [-BIG]]).to_jsonable()
    assert [e["value"] for e in out["out_of_range"]] == [
        "more than 10**4300", "less than -10**4300",
    ]
    json.dumps(out)
    assert repr(NormTable([BIG, Fraction(1, 2)])) == "NormTable(['more than 10**4300', '1/2'])"


def test_work_budget_admits_the_default_count_on_t4_and_refuses_larger_work():
    # fuzz's default --count 50 on the 256-element t4 must stay admitted.
    assert (50 - 1) * 256**2 <= FUZZ_WORK_BUDGET
    t3 = builtin_semigroup("t3")
    over = FUZZ_WORK_BUDGET // 27**2 + 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{over} random norms on 27 elements .* over the budget"):
        random_submultiplicative_norms(t3, over)
    # A count longer than str prints, and the pairs it asks for, print as a bound.
    with pytest.raises(
        ValueError, match=r"^more than 10\*\*4300 random norms on 27 elements visit more than"
    ):
        random_submultiplicative_norms(t3, 10**5000)
    assert time.perf_counter() - start < 0.5


def test_work_budget_always_admits_one_draw(monkeypatch):
    # One draw is admitted at any order, even where a single table's pairs
    # exceed the budget (t5 has 3125**2); only the draws after it count.
    monkeypatch.setattr(norms, "FUZZ_WORK_BUDGET", 27**2 - 1)
    t3 = builtin_semigroup("t3")
    assert len(random_submultiplicative_norms(t3, 1, seed=3).norms) == 1
    with pytest.raises(ValueError, match="2 random norms on 27 elements visit 729 table pairs"):
        random_submultiplicative_norms(t3, 2)


def test_zero_count_is_fine():
    batch = random_submultiplicative_norms(builtin_semigroup("z2"), 0)
    assert batch.norms == ()
    assert batch.attempts == 0


def test_pool_accepts_strings():
    s = builtin_semigroup("z2")
    batch = random_submultiplicative_norms(s, 5, seed=2, value_pool=("0", "1", "3/2"))
    assert len(batch.norms) == 5


# ---------------------------------------------------------------------------
# text format


def test_parse_norm_text():
    assert parse_norm_text("1\n1/2\n0.25\n\n") == NormTable([1, HALF, Fraction(1, 4)])


def test_parse_norm_rejects_multiple_tokens():
    with pytest.raises(ParseError, match="one value per line"):
        parse_norm_text("1 2\n")


def test_parse_norm_rejects_negative():
    with pytest.raises(ParseError, match="nonnegative"):
        parse_norm_text("1\n-1/2\n")


def test_parse_norm_rejects_junk():
    with pytest.raises(ParseError, match="expected a rational"):
        parse_norm_text("x\n")


def test_parse_norm_bounds_value_literals():
    assert parse_norm_text("1\n1e-4299\n") == NormTable([1, Fraction(1, 10**4299)])
    for huge in ("1e4300", "1e-4300", "1e2000000", "7" * 4301):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="at most 4300 digits") as exc:
            parse_norm_text(f"1\n {huge}\n")
        assert time.perf_counter() - start < 0.5
        assert (exc.value.line, exc.value.column) == (2, 2)


def test_load_norm_table(tmp_path):
    path = tmp_path / "norm.txt"
    path.write_text("1\n1\n2\n1\n")
    assert load_norm_table(path) == NormTable([1, 1, 2, 1])


# ---------------------------------------------------------------------------
# the seven structural laws P2..P8
#
# For genuinely submultiplicative tables each law is a theorem, so the
# suite can only ever PASS or report INAPPLICABLE; the FAIL branches are
# exercised against the raw scans, bypassing the gate, with witnesses
# re-evaluated by hand in each test.


def statuses(verdicts):
    return {v.proposition: v.status for v in verdicts}


def details(verdicts):
    return {v.proposition: v.detail for v in verdicts}


# gating


def test_non_submultiplicative_input_gates_everything():
    suite = run_suite(builtin_semigroup("z2"), [1, HALF])
    assert statuses(suite) == {p: INAPPLICABLE for p in SUITE_IDS}
    assert set(details(suite).values()) == {"norm table is not submultiplicative"}


def test_suite_order_and_constants():
    suite = run_suite(builtin_semigroup("z2"), [1, 1])
    assert tuple(v.proposition for v in suite) == SUITE_IDS
    assert (PASS, FAIL, INAPPLICABLE) == ("PASS", "FAIL", "INAPPLICABLE")


# whole-suite expectations on known tables


def test_zero_norm_on_z2():
    suite = run_suite(builtin_semigroup("z2"), [0, 0])
    expected = {
        "P2": PASS,
        "P3": PASS,
        "P4": PASS,
        "P5": PASS,
        "P6": INAPPLICABLE,
        "P7": INAPPLICABLE,
        "P8": PASS,
    }
    assert statuses(suite) == expected
    d = details(suite)
    assert d["P6"] == "zero values present; the law assumes none"
    assert d["P7"] == "no one-sided zero elements"
    assert d["P3"] == "zero set has 2 elements"


def test_group_norm_above_one():
    suite = run_suite(builtin_semigroup("z2"), [1, 2])
    expected = {
        "P2": PASS,
        "P3": PASS,
        "P4": PASS,
        "P5": PASS,
        "P6": PASS,
        "P7": INAPPLICABLE,
        "P8": PASS,
    }
    assert statuses(suite) == expected
    assert details(suite)["P3"] == "zero set empty (vacuously closed)"


def test_null_semigroup_with_sub_one_values():
    # Valid since every product lands on the zero element of value 0.
    suite = run_suite(builtin_semigroup("null4"), [0, HALF, HALF, HALF])
    expected = {
        "P2": PASS,
        "P3": PASS,
        "P4": PASS,
        "P5": PASS,
        "P6": INAPPLICABLE,
        "P7": INAPPLICABLE,
        "P8": PASS,
    }
    assert statuses(suite) == expected
    d = details(suite)
    assert d["P6"] == "not a group"
    assert d["P7"] == "every one-sided zero has value 0"


def test_left_zero_semigroup_exercises_p7():
    suite = run_suite(builtin_semigroup("leftzero3"), [2, 1, 1])
    assert statuses(suite) == {
        "P2": PASS,
        "P3": PASS,
        "P4": PASS,
        "P5": PASS,
        "P6": INAPPLICABLE,
        "P7": PASS,
        "P8": PASS,
    }


def test_group_checker_alone():
    assert statuses(run_suite(builtin_semigroup("c4"), [1, 1, 1, 1]))["P6"] == PASS
    assert (
        statuses(run_suite(builtin_semigroup("t2"), [1, 1, 1, 1]))["P6"] == INAPPLICABLE
    )


def test_zero_element_checker_alone():
    assert statuses(run_suite(builtin_semigroup("leftzero3"), [1, 1, 1]))["P7"] == PASS


# FAIL witnesses at scan level


def test_p2_witness():
    s = builtin_semigroup("z2")
    verdict = _scan_idempotent_dichotomy(s, NormTable([HALF, 1]))
    assert verdict.status == FAIL
    e, value = verdict.witness
    assert s.table[e][e] == e and 0 < value < 1
    # The same values are not submultiplicative, so the public checker gates.
    assert run_suite(s, [HALF, 1])[0].status == INAPPLICABLE


def test_p3_witness():
    s = builtin_semigroup("z2")
    verdict = _scan_zero_set_closed(s, NormTable([1, 0]))
    assert verdict.status == FAIL
    a, b, ab, value = verdict.witness
    assert (a, b, ab) == (1, 1, 0) and value == 1


def test_p4_witness():
    s = builtin_semigroup("t2")
    verdict = _scan_zero_spreads_over_d_class(s, NormTable([0, 1, 1, 1]))
    assert verdict.status == FAIL
    zero_elem, nonzero_elem, value = verdict.witness
    assert (zero_elem, nonzero_elem) == (0, 3) and value == 1


def test_p5_witness():
    s = builtin_semigroup("t2")
    verdict = _scan_inverse_lower_bound(s, NormTable([2, 1, 1, Fraction(1, 4)]))
    assert verdict.status == FAIL
    a, b, va, vb = verdict.witness
    assert vb < 1 / va
    assert (a, b) == (0, 3)


def test_p6_witness():
    verdict = _scan_group_lower_bound(builtin_semigroup("z2"), NormTable([1, HALF]))
    assert verdict.status == FAIL
    assert verdict.witness == (1, HALF)


def test_p7_witness():
    s = builtin_semigroup("leftzero3")
    verdict = _scan_zero_element_bound(s, NormTable([2, HALF, 1]))
    assert verdict.status == FAIL
    carrier, x, value = verdict.witness
    assert carrier == 0 and x == 1 and value == HALF


def test_p8_witness():
    s = builtin_semigroup("null4")
    verdict = _scan_order_zero_downward(s, NormTable([1, 0, 1, 1]))
    assert verdict.status == FAIL
    a, b, va = verdict.witness
    assert (a, b) == (0, 1) and va == 1


# serialization and the theorem property


def test_suite_to_jsonable():
    out = [v.to_jsonable() for v in run_suite(builtin_semigroup("z2"), [0, 0])]
    assert [entry["proposition"] for entry in out] == list(SUITE_IDS)
    assert out[0] == {"proposition": "P2", "status": "PASS"}
    assert out[4]["detail"] == "zero values present; the law assumes none"


def test_no_law_fails_on_generated_norms():
    for name in ("z2", "t2", "null4", "leftzero3"):
        s = builtin_semigroup(name)
        for norm in random_submultiplicative_norms(s, 15, seed=9).norms:
            for verdict in run_suite(s, norm):
                assert verdict.status != FAIL, (name, norm, verdict)


# ---------------------------------------------------------------------------
# the bridge: the order-k matrix norm read on a semigroup of maps
#
# A map f on n points has the 0/1 matrix M_f with (M_f)_{x,f(x)} = 1.  The
# stock semigroups compose left to right, (f*g)(x) = g(f(x)), so
# (M_f M_g)_{x,z} = [g(f(x)) = z] and f -> M_f is a homomorphism, as is
# f -> P M_f P^-1 for an invertible P.  N_k is submultiplicative on
# matrices, so v(f) = N_k(P M_f P^-1) is a submultiplicative norm on the
# table, and no law of the suite may FAIL on it.  At P = I an order-k
# minor of M_f is +-1 when f maps its rows one to one onto its columns and
# 0 otherwise, so v(f) = C(n, k) * [|im f| >= k].


def test_maps_compose_left_to_right_as_the_tables_do():
    for name in BRIDGE_ORDERS:
        s, maps = semigroup_of_maps(name)
        for a, f in enumerate(maps):
            for b, g in enumerate(maps):
                assert maps[s.table[a][b]] == tuple(g[f[x]] for x in range(len(f)))


@pytest.mark.parametrize(
    "name, k", [(name, k) for name, ks in BRIDGE_ORDERS.items() for k in ks]
)
def test_minor_norms_of_map_matrices_obey_every_law(name, k):
    s, maps = semigroup_of_maps(name)
    n = len(maps[0])
    p = random_invertible_integer_matrix(random.Random(100 + n), n)
    p_inverse = generalized_inverse(p)
    assert mat_mul(p, p_inverse) == identity_matrix(n)
    plain = [minor_norm(map_matrix(f), k) for f in maps]
    assert plain == [math.comb(n, k) * (len(set(f)) >= k) for f in maps]
    conjugated = [
        minor_norm(mat_mul(mat_mul(p, map_matrix(f)), p_inverse), k) for f in maps
    ]
    for values in (plain, conjugated):
        assert check_submultiplicative(s, values).ok
        assert all(verdict.status != FAIL for verdict in run_suite(s, values))


# ---------------------------------------------------------------------------
# the literature's norm axioms


ALL_STATUSES = {HOLDS, FAILS, NOT_FINITELY_CHECKABLE, NO_SUCH_ELEMENT, AMBIGUOUS}


def find(report, definition, axiom):
    """The one entry of ``report`` for ``axiom`` of ``definition``."""
    (entry,) = (e for e in report.entries if (e.definition, e.axiom) == (definition, axiom))
    return entry


def test_report_shape_is_fixed():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    assert report.notation == "multiplicative"
    assert len(report.entries) == 14
    assert {e.status for e in report.entries} <= ALL_STATUSES
    definitions = {e.definition for e in report.entries}
    assert definitions == {"wegmann", "kryzius", "dikran", "pavlov", "shkarin", "valero"}


def test_constant_one_on_z2():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    assert find(report, "wegmann", "multiplicativity").status == HOLDS
    assert find(report, "kryzius", "multiplicativity").status == HOLDS
    assert find(report, "kryzius", "identity_norm_one").status == HOLDS
    assert find(report, "dikran", "subadditivity").status == HOLDS
    assert find(report, "shkarin", "subadditivity").status == HOLDS
    assert find(report, "valero", "subadditivity").status == HOLDS

    # A multiplicative-notation norm of constant 1 is not an additive one.
    entry = find(report, "dikran", "identity_norm_zero")
    assert entry.status == FAILS
    assert entry.witness == (0, Fraction(1))

    entry = find(report, "shkarin", "power_homogeneity")
    assert entry.status == FAILS
    assert entry.witness == (0, 2, Fraction(1), Fraction(2))
    assert "up to 5" in entry.note


def test_not_finitely_checkable_axioms():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    for definition, axiom in (
        ("wegmann", "generator_norms_exceed_one"),
        ("wegmann", "generator_norms_diverge"),
        ("kryzius", "sublevel_sets_finite"),
        ("pavlov", "complex_module_norm"),
    ):
        assert find(report, definition, axiom).status == NOT_FINITELY_CHECKABLE


def test_ambiguous_axiom():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    entry = find(report, "valero", "zero_characterization_via_negatives")
    assert entry.status == AMBIGUOUS
    assert "finite reading" in entry.note


def test_multiplicativity_witness_on_null_semigroup():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    entry = find(report, "wegmann", "multiplicativity")
    assert entry.status == FAILS
    assert entry.witness == (1, 1, Fraction(0), Fraction(1))
    # Same witness feeds the Kryzius copy of the axiom.
    assert find(report, "kryzius", "multiplicativity").witness == entry.witness


def test_identity_axioms_without_identity():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    assert find(report, "kryzius", "identity_norm_one").status == NO_SUCH_ELEMENT
    assert find(report, "dikran", "identity_norm_zero").status == NO_SUCH_ELEMENT


def test_zero_normalization_multiplicative_reading():
    # Element 0 of null4 is the two-sided zero, and the value vanishes
    # exactly there: the axiom holds under multiplicative notation.
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    assert find(report, "valero", "zero_normalization").status == HOLDS

    # z2 has no zero element at all.
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    entry = find(report, "valero", "zero_normalization")
    assert entry.status == NO_SUCH_ELEMENT
    assert "no two-sided zero" in entry.note


def test_zero_normalization_additive_reading():
    # Under additive notation the symbol 0 denotes the neutral element.
    report = classify_literature_axioms(
        builtin_semigroup("z2"), [0, 1], notation="additive"
    )
    assert report.notation == "additive"
    assert find(report, "valero", "zero_normalization").status == HOLDS

    report = classify_literature_axioms(
        builtin_semigroup("z2"), [1, 1], notation="additive"
    )
    entry = find(report, "valero", "zero_normalization")
    assert entry.status == FAILS
    assert entry.witness == (0, Fraction(1), 0)


def test_additive_style_norm_fits_dikran():
    report = classify_literature_axioms(builtin_semigroup("z2"), [0, 1])
    assert find(report, "dikran", "subadditivity").status == HOLDS
    assert find(report, "dikran", "identity_norm_zero").status == HOLDS
    entry = find(report, "shkarin", "power_homogeneity")
    # 1+1 = 0 in z2, so value(1^2) = 0 while 2*value(1) = 2.
    assert entry.status == FAILS
    assert entry.witness == (1, 2, Fraction(0), Fraction(2))


def test_power_homogeneity_trivial_cases():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 0, 0, 0])
    assert find(report, "shkarin", "power_homogeneity").status == HOLDS

    # The exact verdict: a nonzero value cannot be power homogeneous on a
    # finite table, and here 1+1 = 0 already breaks exponent 2.
    report = classify_literature_axioms(builtin_semigroup("z2"), [0, 1])
    entry = find(report, "shkarin", "power_homogeneity")
    assert entry.status == FAILS
    assert entry.witness == (1, 2, Fraction(0), Fraction(2))
    assert entry.note == "checked for exponents up to 5"


def test_each_pair_scan_runs_once_per_call(monkeypatch):
    # Multiplicativity is cited twice and subadditivity three times; each
    # pair scan starts by splitting the values into numerators and
    # denominators, so two splits mean two scans.
    splits = []
    split = norms._numerators_denominators
    monkeypatch.setattr(
        norms, "_numerators_denominators", lambda v: splits.append(v) or split(v)
    )
    classify_literature_axioms(builtin_semigroup("t3"), [1] * 27)
    assert len(splits) == 2


def test_parameter_validation():
    s = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="notation"):
        classify_literature_axioms(s, [1, 1], notation="roman")


def test_to_jsonable_stringifies_fractions():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, Fraction(1, 2)])
    out = report.to_jsonable()
    assert out["notation"] == "multiplicative"
    flat = [e for e in out["entries"] if e["axiom"] == "multiplicativity"]
    assert flat[0]["status"] == "fails"
    assert all(isinstance(x, (str, int)) for x in flat[0]["witness"])


# ---------------------------------------------------------------------------
# oracles: each kernel's shortcut against a reference
#
# Integer cross-multiplication and value classes in
# ``check_submultiplicative``, the bounded integer rounds of
# ``submultiplicative_envelope``, by pairs or by value classes, the single
# gate of ``run_suite``, the stored inverse sets of P5, the least violating
# pair of P8 and the laws P3-P8 decided on all-zero or zero-free norms
# without derived structure, the integer pair scans of
# ``classify_literature_axioms``, and the split-based tokenizer of
# ``parse_norm_text``.  The references in ``references`` are written from
# the definitions alone and share no code with those kernels; hypothesis
# draws the inputs, from ``strategies``.


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


# parse_norm_text against a regex tokenizer.


# Orders of errors the draws seldom reach: in a norm file, whichever bad
# line comes first.


@pytest.mark.parametrize(
    "parse, reference, text, message",
    [
        (parse_norm_text, ref_norm, "x\n1 2\n", "expected a rational"),
        (parse_norm_text, ref_norm, "1 2\nx\n", "expected one value per line"),
    ],
)
def test_parse_error_order(parse, reference, text, message):
    assert_parse_error(parse, reference, text, message)


@settings(max_examples=300, deadline=None)
@given(st.one_of(norm_texts(), arbitrary_texts()))
def test_parse_norm_text_matches_a_regex_tokenizer(text):
    assert outcome(lambda t: parse_norm_text(t).values, text) == outcome(ref_norm, text)
