"""Norm tables, the exhaustive submultiplicativity check, the envelope
repair, and the random generator.

Frozen envelope oracles, derived by hand:

* z2 with (2, 1): the only failing pair is 1*1 = 0 with 2 > 1*1, so the
  identity drops to 1 and (1, 1) is stable.
* z2 with (1, 1/2): 1*1 = 0 forces value(0) <= 1/4, then 0*1 = 1 forces
  value(1) <= value(0)/2, and the two bounds pump each other to 0.
* null4 with all 1/2: the two-sided zero is idempotent with value below
  1, so it pumps itself to 0; nothing constrains the other elements.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from semnorms import (
    NormDomainError,
    NormTable,
    ParseError,
    FiniteSemigroup,
    builtin_semigroup,
    check_submultiplicative,
    load_norm_table,
    parse_norm_text,
    random_submultiplicative_norms,
    submultiplicative_envelope,
    zero_set,
)
from semnorms import norms
from semnorms.norms import FUZZ_WORK_BUDGET

HALF = Fraction(1, 2)


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


def test_norm_table_constant():
    assert NormTable.constant(3, HALF) == NormTable([HALF] * 3)


def test_length_mismatch_rejected():
    z2 = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="3 values for order 2"):
        check_submultiplicative(z2, [1, 1, 1])


# ---------------------------------------------------------------------------
# check_submultiplicative


def test_constant_one_is_submultiplicative_everywhere():
    for name in ("z2", "c4", "s3", "t2", "t3", "leftzero3", "null4"):
        s = builtin_semigroup(name)
        assert check_submultiplicative(s, NormTable.constant(s.order, 1)).ok


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
        assert env == NormTable.constant(s.order, 0)


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
    def submultiplicative(s, values):
        return all(
            values[s.table[a][b]] <= values[a] * values[b]
            for a in s.elements()
            for b in s.elements()
        )

    pools = ((0, HALF, 1, 2), (HALF, 1, 2), (1, 2, 3), (Fraction(99, 100), 1, Fraction(101, 100)))
    for name in ("z2", "s3", "t2", "t3", "leftzero3", "null4"):
        s = builtin_semigroup(name)
        for pool in pools:
            batch = random_submultiplicative_norms(s, 8, seed=11, value_pool=pool)
            rng = random.Random(11)
            raws = [[rng.choice(pool) for _ in s.elements()] for _ in range(8)]
            assert batch.norms == tuple(submultiplicative_envelope(s, raw) for raw in raws)
            assert batch.repaired == sum(not submultiplicative(s, raw) for raw in raws)


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


def test_work_budget_admits_the_default_count_on_t4_and_refuses_larger_work():
    # fuzz's default --count 50 on the 256-element t4 must stay admitted.
    assert (50 - 1) * 256**2 <= FUZZ_WORK_BUDGET
    t3 = builtin_semigroup("t3")
    over = FUZZ_WORK_BUDGET // 27**2 + 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{over} random norms on 27 elements .* over the budget"):
        random_submultiplicative_norms(t3, over)
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
