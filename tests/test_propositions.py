"""The seven structural laws P2..P8.

For genuinely submultiplicative tables each law is a theorem, so the
suite can only ever PASS or report INAPPLICABLE; the FAIL branches are
exercised against the raw scans, bypassing the gate, with witnesses
re-evaluated by hand in each test.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import cache

import pytest

from semnorms import (
    FAIL,
    INAPPLICABLE,
    PASS,
    SUITE_IDS,
    NormTable,
    RatMatrix,
    builtin_semigroup,
    check_submultiplicative,
    full_transformation_monoid,
    generalized_inverse,
    mat_mul,
    minor_norm,
    random_submultiplicative_norms,
    run_suite,
)
from semnorms.norms import (
    _scan_group_lower_bound,
    _scan_idempotent_dichotomy,
    _scan_inverse_lower_bound,
    _scan_order_zero_downward,
    _scan_zero_element_bound,
    _scan_zero_set_closed,
    _scan_zero_spreads_over_d_class,
)

from strategies import HALF, identity_matrix, random_invertible_integer_matrix


def statuses(verdicts):
    return {v.proposition: v.status for v in verdicts}


def details(verdicts):
    return {v.proposition: v.detail for v in verdicts}


# ---------------------------------------------------------------------------
# gating


def test_non_submultiplicative_input_gates_everything():
    suite = run_suite(builtin_semigroup("z2"), [1, HALF])
    assert statuses(suite) == {p: INAPPLICABLE for p in SUITE_IDS}
    assert set(details(suite).values()) == {"norm table is not submultiplicative"}


def test_suite_order_and_constants():
    suite = run_suite(builtin_semigroup("z2"), [1, 1])
    assert tuple(v.proposition for v in suite) == SUITE_IDS
    assert (PASS, FAIL, INAPPLICABLE) == ("PASS", "FAIL", "INAPPLICABLE")


# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
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


@cache
def semigroup_of_maps(name):
    """The builtin ``name``, or t4, with the map on n points behind each
    element, in element order: z2 and c4 as the powers of the cyclic
    shift, s3 and t2 to t4 as the lexicographic lists of their maps."""
    s = full_transformation_monoid(4) if name == "t4" else builtin_semigroup(name)
    if name in ("z2", "c4"):
        n = s.order
        maps = [tuple((x + i) % n for x in range(n)) for i in range(n)]
    elif name == "s3":
        maps = sorted(itertools.permutations(range(3)))
    else:
        n = int(name[1:])
        maps = sorted(itertools.product(range(n), repeat=n))
    return s, maps


def map_matrix(f):
    n = len(f)
    return RatMatrix(n, n, [int(f[x] == y) for x in range(n) for y in range(n)])


# Every k for the builtins; t4 at k = 1 and 2, where its values are many.
BRIDGE_ORDERS = {
    "z2": (1, 2), "c4": (1, 2, 3, 4), "s3": (1, 2, 3),
    "t2": (1, 2), "t3": (1, 2, 3), "t4": (1, 2),
}


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
