"""Exact matrices, determinants, the order-k norms, pseudoinverses and
the boundary sequence.

The determinant oracle is an independent Laplace cofactor expansion,
written before anything below it was asserted; the frozen values
(-2, 1/60, -3, the Cauchy-Binet sums, the pseudoinverse of the all-ones
matrix) were computed by hand from the definitions.
"""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from semnorms import (
    MinorNormCheck,
    ParseError,
    RatMatrix,
    cauchy_binet,
    check_minor_norm_submultiplicative,
    compound,
    det,
    generalized_inverse,
    load_matrix,
    mat_mul,
    minor_norm,
    minor_norm_float,
    parse_matrix_text,
    rank,
    witness_sequence,
)
from semnorms import matrices
from semnorms.matrices import WORK_BUDGET, _boundary_point

from references import laplace_det, minor
from strategies import (
    BIG,
    diagonal_matrix,
    identity_matrix,
    random_rational_matrix,
    transposed,
    zero_matrix,
)


def rat(rows):
    return RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# RatMatrix


def test_construction_and_entry_access():
    a = rat([[1, 2], [3, 4]])
    assert (a.rows, a.cols) == (2, 2)
    assert a.entry(1, 0) == 3
    assert a.to_rows() == [[1, 2], [3, 4]]
    assert a.is_square


def test_entries_become_fractions():
    a = RatMatrix(1, 2, ("1/2", 3))
    assert a.entries == (Fraction(1, 2), Fraction(3))


def test_matrix_is_an_immutable_value():
    a = RatMatrix(rows=1, cols=2, entries=(1, "1/2"))
    same = RatMatrix.from_rows([[1, Fraction(1, 2)]])
    assert a == same and hash(a) == hash(same)
    assert a != RatMatrix(2, 1, a.entries) and a != a.entries
    assert {same: "found"}[a] == "found"
    assert repr(a) == "RatMatrix(1x2)"
    for name in ("rows", "cols", "entries", "is_square", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.rows, a.cols, a.entries) == (1, 2, (1, Fraction(1, 2)))


def test_dimension_validation():
    with pytest.raises(ValueError, match="positive"):
        RatMatrix(0, 1, ())
    with pytest.raises(ValueError, match="must be integers"):
        RatMatrix(1.0, 1, (1,))
    with pytest.raises(ValueError, match="needs 4 entries, got 3"):
        RatMatrix(2, 2, (1, 2, 3))


def test_from_rows_rejects_ragged():
    with pytest.raises(ValueError, match="row 1 has 1 entries"):
        RatMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="at least one row"):
        RatMatrix.from_rows([])


def test_identity_zeros_diagonal():
    assert identity_matrix(2).to_rows() == [[1, 0], [0, 1]]
    assert zero_matrix(2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]
    d = diagonal_matrix([Fraction(1, 2), 0, 0])
    assert d.to_rows() == [[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, 0]]


def test_transpose():
    a = rat([[1, 2, 3], [4, 5, 6]])
    assert transposed(a).to_rows() == [[1, 4], [2, 5], [3, 6]]


def test_matmul():
    a = rat([[1, 2], [3, 4]])
    b = rat([[0, 1], [1, 0]])
    assert mat_mul(a, b).to_rows() == [[2, 1], [4, 3]]
    with pytest.raises(ValueError, match="cannot multiply"):
        mat_mul(a, rat([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# determinants


def test_det_frozen_values():
    assert det(rat([[7]])) == 7
    assert det(rat([[1, 2], [3, 4]])) == -2
    assert det(rat([["1/2", "1/3"], ["1/4", "1/5"]])) == Fraction(1, 60)
    assert det(rat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
    assert det(rat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 0
    assert det(identity_matrix(5)) == 1


def test_det_needs_pivot_swaps():
    # Leading zero forces the row exchange branch and the sign flip.
    assert det(rat([[0, 1], [1, 0]])) == -1
    assert det(rat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1


def test_det_matches_laplace_oracle():
    rng = random.Random(100)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a = random_rational_matrix(rng, n, n)
            assert det(a) == laplace_det(a.to_rows())


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        det(rat([[1, 2, 3]]))


def test_minor_frozen():
    a = rat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert minor(a, (0, 1), (1, 2)) == -3
    assert minor(a, (0, 1, 2), (0, 1, 2)) == det(a)
    assert minor(a, (2,), (0,)) == 7


def test_minor_subset_validation():
    a = identity_matrix(3)
    with pytest.raises(ValueError, match="empty"):
        minor(a, (), (0,))
    with pytest.raises(ValueError, match="out of range"):
        minor(a, (0, 3), (0, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        minor(a, (1, 0), (0, 1))
    with pytest.raises(ValueError, match="sizes differ"):
        minor(a, (0, 1), (0,))


# ---------------------------------------------------------------------------
# the order-k norms


def test_minor_norm_coefficient_and_k_range():
    assert minor_norm(identity_matrix(5), 2) == 10
    assert minor_norm(identity_matrix(4), 4) == 1
    for k in (0, -1, 4, 3.0, "1", None):
        with pytest.raises(ValueError, match="0 < k <= min"):
            minor_norm(identity_matrix(3), k)


def test_minor_norm_frozen_values():
    eye = identity_matrix(3)
    assert minor_norm(eye, 1) == 3
    assert minor_norm(eye, 2) == 3
    assert minor_norm(eye, 3) == 1
    half = diagonal_matrix([Fraction(1, 2), 0, 0])
    assert minor_norm(half, 1) == Fraction(3, 2)
    assert minor_norm(half, 2) == 0
    assert minor_norm(zero_matrix(4), 2) == 0


def test_minor_norm_special_cases_on_randoms():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(10):
            a = random_rational_matrix(rng, n, n)
            assert minor_norm(a, n) == abs(det(a))
            assert minor_norm(a, 1) == n * max(abs(x) for x in a.entries)


def test_minor_norm_zero_iff_rank_below_k():
    rng = random.Random(8)
    for n in (2, 3, 4):
        for _ in range(10):
            col = random_rational_matrix(rng, n, 1)
            row = random_rational_matrix(rng, 1, n)
            a = mat_mul(col, row)  # rank at most 1 by construction
            r = rank(a)
            for k in range(1, n + 1):
                assert (minor_norm(a, k) == 0) == (r < k)


def test_minor_norm_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        minor_norm(rat([[1, 2]]), 1)


def test_minor_norm_float_tracks_exact():
    rng = random.Random(9)
    for _ in range(10):
        a = random_rational_matrix(rng, 3, 3)
        for k in (1, 2, 3):
            assert minor_norm_float(a, k) == float(minor_norm(a, k))


def test_minor_norm_float_is_infinite_beyond_the_float_range():
    # Every entry is a float; only the norm, 10**400, is not.
    a = diagonal_matrix([Fraction(10**200)] * 2)
    assert minor_norm_float(a, 1) == 2e200
    assert minor_norm_float(a, 2) == math.inf


def refused_steps(call, *args) -> int:
    """The step estimate named by a call refused over the budget."""
    with pytest.raises(
        ValueError, match=rf"needs about \d+ steps, over the budget of {WORK_BUDGET}"
    ) as info:
        call(*args)
    return int(re.search(r"about (\d+) steps", str(info.value)).group(1))


def test_compound_refuses_work_over_the_budget():
    # Each refusal comes before anything is built, so it returns at once.
    assert refused_steps(minor_norm, zero_matrix(20), 10) >= math.comb(20, 10) ** 2
    refused_steps(compound, zero_matrix(4, 400), 3)
    # Few minors, built from millions of partial ones: C(20, 18)**2 =
    # 36100 minors, and k = n on 24 x 24 is one minor over 2**24 levels.
    refused_steps(compound, zero_matrix(20), 18)
    a = random_rational_matrix(random.Random(12), 24, 24)
    start = time.perf_counter()
    assert refused_steps(minor_norm, a, 24) >= 2**24
    assert time.perf_counter() - start < 1


def test_submultiplicativity_check_passes_on_randoms():
    rng = random.Random(10)
    pairs = [
        (random_rational_matrix(rng, 3, 3), random_rational_matrix(rng, 3, 3))
        for _ in range(20)
    ]
    for k in (1, 2, 3):
        assert check_minor_norm_submultiplicative(pairs, k) == MinorNormCheck(True)


def test_submultiplicativity_check_reports_the_first_violation(monkeypatch):
    # No true pair violates the inequality, so a stand-in norm reports
    # 5 > 1 * 1 on the product a b, which the second and third pairs both
    # give; the check stops at the second.
    a, b = diagonal_matrix([1, 2]), diagonal_matrix([3, 1])
    bad = mat_mul(a, b)
    monkeypatch.setattr(
        matrices, "minor_norm", lambda m, k: Fraction(5) if m == bad else Fraction(1)
    )
    eye = identity_matrix(2)
    assert check_minor_norm_submultiplicative([(eye, eye), (a, b), (b, a)], 1) == (
        MinorNormCheck(False, 1, (5, 1, 1))
    )


def test_submultiplicativity_check_rejects_bad_pairs():
    with pytest.raises(ValueError, match="pair 0"):
        check_minor_norm_submultiplicative([(rat([[1, 2]]), rat([[1], [2]]))], 1)


# ---------------------------------------------------------------------------
# Cauchy-Binet


def test_cauchy_binet_frozen():
    assert cauchy_binet(rat([[1, 2, 3]]), rat([[1], [1], [1]])) == (6, 6)
    alpha = rat([[1, 0, 1], [0, 1, 1]])
    beta = rat([[1, 1], [1, 0], [0, 1]])
    assert cauchy_binet(alpha, beta) == (-1, -1)


def test_cauchy_binet_on_randoms():
    rng = random.Random(12)
    for n in range(1, 5):
        for k in range(1, n + 1):
            for _ in range(5):
                alpha = random_rational_matrix(rng, k, n)
                beta = random_rational_matrix(rng, n, k)
                lhs, rhs = cauchy_binet(alpha, beta)
                assert lhs == rhs


def test_cauchy_binet_shape_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        cauchy_binet(rat([[1, 2]]), rat([[1, 2]]))
    with pytest.raises(ValueError, match="k <= n"):
        cauchy_binet(rat([[1], [2]]), rat([[1, 2]]))


# ---------------------------------------------------------------------------
# rank and the pseudoinverse


def test_rank_frozen():
    assert rank(zero_matrix(3)) == 0
    assert rank(identity_matrix(4)) == 4
    assert rank(rat([[1, 2], [2, 4]])) == 1
    assert rank(rat([[1, 2, 3], [4, 5, 6]])) == 2
    assert rank(rat([["1/2"]])) == 1


def test_pseudoinverse_frozen():
    assert generalized_inverse(rat([[2]])).to_rows() == [[Fraction(1, 2)]]
    assert generalized_inverse(diagonal_matrix([2, 0])).to_rows() == [
        [Fraction(1, 2), 0],
        [0, 0],
    ]
    quarter = Fraction(1, 4)
    assert generalized_inverse(rat([[1, 1], [1, 1]])).to_rows() == [
        [quarter, quarter],
        [quarter, quarter],
    ]
    assert generalized_inverse(zero_matrix(3)) == zero_matrix(3)


def test_pseudoinverse_on_invertible_matrix_is_the_inverse():
    a = rat([[1, 2], [3, 4]])
    g = generalized_inverse(a)
    assert mat_mul(a, g) == identity_matrix(2)


def test_pseudoinverse_satisfies_all_four_penrose_identities():
    rng = random.Random(13)
    matrices = [random_rational_matrix(rng, n, n) for n in (2, 3) for _ in range(10)]
    # Singular inputs matter here; add guaranteed rank-1 ones.
    for n in (2, 3):
        col = random_rational_matrix(rng, n, 1)
        row = random_rational_matrix(rng, 1, n)
        matrices.append(mat_mul(col, row))
    for a in matrices:
        g = generalized_inverse(a)
        ag = mat_mul(a, g)
        ga = mat_mul(g, a)
        assert mat_mul(ag, a) == a
        assert mat_mul(ga, g) == g
        assert transposed(ag) == ag
        assert transposed(ga) == ga


def test_pseudoinverse_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        generalized_inverse(rat([[1, 2]]))


# ---------------------------------------------------------------------------
# the boundary sequence


def test_witness_sequence_frozen_n3_k1():
    report = witness_sequence(3, 1, 10)
    assert (report.n, report.k, report.coefficient) == (3, 1, 3)
    assert len(report.points) == 10
    for point in report.points:
        m = point.m
        assert point.norm_value == Fraction(3, m)
        assert point.matrix_rank == 1
        assert point.in_nonzero_set
        assert point.pseudoinverse_norm == 3 * m
        assert point.inverse_bound_holds
        assert point.product == 9
    assert report.limit_norm_value == 0
    assert report.limit_rank == 0
    assert not report.limit_in_nonzero_set
    assert report.not_closed


def test_witness_sequence_frozen_n3_k2():
    report = witness_sequence(3, 2, 4)
    for point in report.points:
        assert point.norm_value == Fraction(3, point.m**2)
        assert point.matrix_rank == 2
        assert point.pseudoinverse_norm == 3 * point.m**2
    assert report.not_closed


def test_witness_sequence_small_order():
    report = witness_sequence(2, 1, 3)
    assert report.coefficient == 2
    assert [p.norm_value for p in report.points] == [2, 1, Fraction(2, 3)]
    assert report.not_closed


def test_witness_sequence_validation():
    for n, k in ((3, 3), (3, 0), (3, 4), (0, 0), (1, 1), (3.0, 1), (3, "1")):
        with pytest.raises(ValueError, match="0 < k < n"):
            witness_sequence(n, k, 5)
    with pytest.raises(ValueError, match="m_max"):
        witness_sequence(3, 1, 0)


@pytest.mark.parametrize("m_max", [2.0, "3", None])
def test_witness_sequence_refuses_a_non_integer_m_max(m_max):
    with pytest.raises(ValueError, match="m_max must be an integer"):
        witness_sequence(3, 1, m_max)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (witness_sequence, (3, 1, BIG), r"m_max=more than 10\*\*4300 needs about more than"),
        (witness_sequence, (3, 1, -BIG), r"at least 1, got less than -10\*\*4300$"),
        (witness_sequence, (BIG, 1, 1), r"n=more than 10\*\*4300, k=1, m_max=1 needs about"),
        (witness_sequence, (-BIG, 1, 1), r"got n=less than -10\*\*4300, k=1$"),
        (witness_sequence, (3, BIG, 1), r"got n=3, k=more than 10\*\*4300$"),
        (witness_sequence, (3, -BIG, 1), r"got n=3, k=less than -10\*\*4300$"),
        (minor_norm, (identity_matrix(3), BIG), r"got k=more than 10\*\*4300 for a 3x3"),
        (minor_norm, (identity_matrix(3), -BIG), r"got k=less than -10\*\*4300 for a 3x3"),
        (compound, (identity_matrix(3), BIG), r"got k=more than 10\*\*4300 for a 3x3"),
        (compound, (identity_matrix(3), -BIG), r"got k=less than -10\*\*4300 for a 3x3"),
        (minor, (identity_matrix(3), (BIG,), (0,)), r"row index more than 10\*\*4300 out"),
        (minor, (identity_matrix(3), (0,), (-BIG,)), r"column index less than -10\*\*4300 out"),
        (RatMatrix, (10**3000, BIG, ()), r"^10{3000}xmore than 10\*\*4300 matrix needs more than"),
    ],
)
def test_an_argument_too_long_for_str_is_named_by_a_bound(call, args, message):
    # str() refuses an int of more than 4300 digits; the message that
    # echoes one prints a bound in its place.
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_boundary_point_inverse_is_the_moore_penrose_inverse():
    # The closed form diag(m I_k, 0) against the general elimination.
    for n in range(2, 7):
        for k in range(1, n):
            for m in range(1, 6):
                x, g = map(diagonal_matrix, _boundary_point(n, k, m))
                assert x == diagonal_matrix([Fraction(1, m)] * k + [0] * (n - k))
                assert g == generalized_inverse(x)


def test_witness_sequence_refuses_work_over_the_budget():
    # A point (or the limit) costs 400 + 40 n steps, whatever k is.
    assert refused_steps(witness_sequence, 40, 20, 1500) == 1501 * 2000
    assert refused_steps(witness_sequence, 80_000, 1, 1) == 2 * 3_200_400
    start = time.perf_counter()
    assert refused_steps(witness_sequence, 10**40 - 1, 20, 1) == 2 * (400 + 40 * (10**40 - 1))
    assert time.perf_counter() - start < 1


def test_witness_sequence_budget_boundary():
    # At n = 2 a point costs 400 + 80 = 480 steps, and 6250 * 480 is the
    # budget exactly.
    assert len(witness_sequence(2, 1, 6249).points) == 6249
    assert refused_steps(witness_sequence, 2, 1, 6250) == 6251 * 480


def test_witness_sequence_refuses_values_too_long_to_print():
    # C(30000, 15000) has 9029 digits; the run itself is within the budget.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 4300 digits"):
        witness_sequence(30_000, 15_000, 1)
    # At m_max = 1 the largest norm is C(9000, 4500), of 2708 digits, and
    # only the product of the two norms, its square, is too long.
    with pytest.raises(ValueError, match="the product of the two norms has more than 4300"):
        witness_sequence(9_000, 4_500, 1)
    assert time.perf_counter() - start < 1


def test_witness_sequence_runs_no_general_kernel(monkeypatch):
    # Every matrix of the sequence is diagonal: its norms and ranks are read
    # off the diagonals, and no matrix is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a general kernel ran")

    for name in ("minor_norm", "compound", "rank", "_minor_levels", "_eliminate"):
        monkeypatch.setattr(matrices, name, refuse)
    monkeypatch.setattr(RatMatrix, "__init__", refuse)
    report = witness_sequence(12, 6, 2)
    assert [p.norm_value for p in report.points] == [924, Fraction(924, 64)]
    assert [p.matrix_rank for p in report.points] == [6, 6]
    assert (report.limit_norm_value, report.limit_rank) == (0, 0)


def test_witness_report_jsonable():
    out = witness_sequence(2, 1, 2).to_jsonable()
    assert out["points"][0]["norm_value"] == "2"
    assert out["limit"] == {"norm_value": "0", "rank": 0, "in_nonzero_set": False}
    assert out["not_closed"] is True


# ---------------------------------------------------------------------------
# random matrices and the text format


def test_random_matrix_bounds_and_determinism():
    a = random_rational_matrix(random.Random(3), 4, 5)
    b = random_rational_matrix(random.Random(3), 4, 5)
    assert a == b
    assert (a.rows, a.cols) == (4, 5)
    for x in a.entries:
        assert abs(x.numerator) <= 9
        assert 1 <= x.denominator <= 4


def test_parse_matrix_round_trip():
    text = "2 3\n1 1/2 0\n-1 0.25 2\n"
    a = parse_matrix_text(text)
    assert a.to_rows() == [
        [1, Fraction(1, 2), 0],
        [-1, Fraction(1, 4), 2],
    ]


def test_parse_matrix_entries_flow_across_lines():
    assert parse_matrix_text("2 2 1 2\n3 4") == rat([[1, 2], [3, 4]])


def test_parse_matrix_errors():
    with pytest.raises(ParseError, match="missing matrix dimensions"):
        parse_matrix_text("")
    with pytest.raises(ParseError, match="expected row count"):
        parse_matrix_text("x 2\n")
    with pytest.raises(ParseError, match="expected column count"):
        parse_matrix_text("2 y\n")
    with pytest.raises(ParseError, match="must be positive"):
        parse_matrix_text("0 2\n")
    with pytest.raises(ParseError, match="expected 4 entries"):
        parse_matrix_text("2 2\n1 2 3\n")
    with pytest.raises(ParseError) as exc:
        parse_matrix_text("2 2\n1 2\n3 oops\n")
    assert (exc.value.line, exc.value.column) == (3, 3)


def test_parse_matrix_bounds_entry_literals():
    assert parse_matrix_text("1 2\n1e4299 -0.5\n").entries == (10**4299, Fraction(-1, 2))
    for huge in ("1e4300", "-1e-4300", "1e2000000", "0." + "0" * 4300 + "1"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="at most 4300 digits") as exc:
            parse_matrix_text(f"1 2\n1 {huge}\n")
        assert time.perf_counter() - start < 0.5
        assert (exc.value.line, exc.value.column) == (2, 3)


def test_load_matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3 4\n")
    assert load_matrix(path) == rat([[1, 2], [3, 4]])


