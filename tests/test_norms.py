"""Norm tables, the exhaustive submultiplicativity check, the envelope
repair, the random generator, the text format and the literature's norm
axioms.

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

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from semnorms import (
    FiniteSemigroup,
    InvalidSemigroupError,
    NormDomainError,
    NormTable,
    ParseError,
    RatMatrix,
    builtin_semigroup,
    check_submultiplicative,
    classify_literature_axioms,
    load_norm_table,
    parse_norm_text,
    random_submultiplicative_norms,
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
)

from references import fraction_submultiplicative
from strategies import BIG, HALF, SUITE


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
    maps = sorted(itertools.product(range(3), repeat=3))
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
