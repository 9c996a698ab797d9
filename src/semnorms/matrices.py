"""Exact rational matrices and the minor-based norm family.

The order-k norm of a square matrix of order n is binom(n, k) times the
largest absolute value of an order-k minor.  It is zero exactly when the
rank is below k, it is submultiplicative for matrix products, and for
k = n it reduces to |det| while for k = 1 it is n times the largest
absolute entry.  Everything here is exact, and computed on integers: each
row (or column) is scaled by the lcm of its denominators, and a Fraction
is built only for each entry of a result.

Two kernels do the work.  ``compound`` enumerates the minors by one
integer Laplace program; the norm, its float rounding and the right side
of Cauchy-Binet all read it.  ``_eliminate``, one Bareiss fraction-free
elimination, gives ``det``, ``rank``, and the pivots and Schur complement
of ``generalized_inverse``; ``det`` is the independent reference the
Laplace program is tested against.  The witness sequence needs neither:
its matrices are diagonal, and each norm and rank is read off the
diagonal (``_diagonal_norm``).
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    Immutable,
    ParseError,
    check_budget,
    column,
    exact_text,
    exact_values,
    printable,
    rational,
    read_text,
    spots,
    word_value,
)


class RatMatrix(Immutable):
    """Immutable row-major matrix of exact rationals, equal and hashed by
    its shape and entries.  An entry that is not a finite rational, such
    as an infinity or a NaN, raises ValueError naming its row and column."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if not (isinstance(rows, int) and isinstance(cols, int)):
            raise ValueError("matrix dimensions must be integers")
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = exact_values(
            entries, lambda i: f"matrix entry ({i // cols}, {i % cols})", ValueError
        )
        if len(entries) != rows * cols:
            raise ValueError(
                f"{printable(rows)}x{printable(cols)} matrix needs "
                f"{printable(rows * cols)} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def _key(self):
        return self.rows, self.cols, self.entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        return cls(len(rows), width, tuple(x for row in rows for x in row))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[Fraction]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _scaled_rows(lines: Iterable[Sequence[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Each line (a row or a column) times s, the lcm of its
    denominators, which makes it integral; returns the scales s and the
    integer lines."""
    scales, grid = [], []
    for line in lines:
        scale = math.lcm(*(x.denominator for x in line))
        scales.append(scale)
        grid.append([x.numerator * (scale // x.denominator) for x in line])
    return scales, grid


def _products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix of every dot product of a row with a column."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The product a @ b on integers.  Row i of a is scaled by s_i and
    column j of b by t_j (``_scaled_rows``), so entry (i, j) of the
    product is one integer dot product over s_i * t_j, and it is the only
    Fraction built for that entry."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    s, rows = _scaled_rows(a.to_rows())
    t, cols = _scaled_rows([b.entries[j::b.cols] for j in range(b.cols)])
    return RatMatrix(a.rows, b.cols, tuple(
        Fraction(dot, si * tj)
        for si, dots in zip(s, _products(rows, cols))
        for tj, dot in zip(t, dots)
    ))


def _require_square(a: RatMatrix) -> None:
    if not a.is_square:
        raise ValueError(f"need a square matrix, got {a.rows}x{a.cols}")


def _eliminate(
    grid: list[list[int]], width: int | None = None
) -> tuple[list[int], list[int], int, list[list[int]]]:
    """Bareiss fraction-free forward elimination of an integer matrix
    (Bareiss 1968, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination").

    The first ``width`` columns (all of them by default) are taken from
    left to right.  A column whose remaining rows are all zero is passed
    over; otherwise the first remaining row with a nonzero entry there
    becomes the next pivot row, and every other remaining row x is
    replaced by (p * x - x_c * y) / q, where y is the pivot row, p = y_c
    its pivot and q the previous pivot (1 at first).  Returns the pivot
    rows (indices into grid, in pivot order), the pivot columns, the last
    pivot (1 when there is none) and the rows never pivoted on, in grid
    order, each holding its entries from column ``width`` on.

    - Each step replaces x by p / q times the Gaussian step x - (x_c / p) y,
      and p / q is nonzero, so the zero pattern, the pivots chosen and
      their number are those of Gaussian elimination: the pivots number
      the rank, and grid restricted to the pivot rows and columns is
      invertible.
    - Exactness, by Sylvester's identity: after pivots on rows p_1..p_j
      and columns c_1..c_j, the entry kept for a remaining row i and a
      later column c is the minor of grid on rows (p_1, ..., p_j, i), in
      that order, and columns (c_1, ..., c_j, c).  So every division is
      exact and entries stay as small as minors.
    - The last pivot is the minor on all pivot rows, in pivot order, and
      all pivot columns.  For a square grid of full rank that is det(grid)
      times the sign of the pivot-row permutation.
    - Schur complement: when the first ``width`` columns all hold pivots,
      let W be grid on the pivot rows, in pivot order, and those columns.
      The minor above for a remaining row x and a column c is
      det [[W, w_c], [x', x_c]] = det(W) (x_c - x' W^-1 w_c), and det(W)
      is the last pivot: the rows returned hold the last pivot times the
      Schur complement of W, which no reordering of W's rows changes.
    """
    active = list(enumerate(grid))  # (row index, its entries from the current column on)
    pivot_rows, pivot_cols = [], []
    prev = 1
    for c in range(len(grid[0]) if width is None else width):
        found = next((i for i, (_, row) in enumerate(active) if row[0]), None)
        if found is None:
            active = [(i, row[1:]) for i, row in active]
            continue
        r, pivot = active.pop(found)
        pivot_rows.append(r)
        pivot_cols.append(c)
        lead, rest = pivot[0], pivot[1:]
        active = [
            (i, [(lead * x - row[0] * y) // prev for x, y in zip(row[1:], rest)])
            for i, row in active
        ]
        prev = lead
        if not active:
            break
    return pivot_rows, pivot_cols, prev, [row for _, row in active]


def det(a: RatMatrix) -> Fraction:
    """Determinant by Bareiss elimination (``_eliminate``) on rows scaled
    to integers.  The determinant is linear in each row, so the scaled
    determinant is the product of the row scales times det(a)."""
    _require_square(a)
    scales, grid = _scaled_rows(a.to_rows())
    rows, _, last, _ = _eliminate(grid)
    if len(rows) < a.rows:
        return Fraction(0)
    inversions = sum(x > y for i, x in enumerate(rows) for y in rows[i + 1:])
    return Fraction(-last if inversions % 2 else last, math.prod(scales))


# Most steps one computation may take.  A step is one integer
# multiply-add of one-digit operands, 0.2 to 1.6 microseconds in CPython
# on a 2-core Xeon; the estimates below count the work of building
# Fractions in the same unit, and multiply by ``_limbs`` for wider
# entries.  Near the budget, with one-digit entries, a compound takes 0.4
# to 1.0 s and its norm 0.1 to 0.2 s (k = n: about 2 s at order 18),
# under 100 MB besides the input.
WORK_BUDGET = 3_000_000

# Steps per multiply-subtract of the Bareiss elimination in ``rank``.
# Measured on a 2-core Xeon: with entries p/q, |p| <= 9 and 1 <= q <= 6,
# 0.2 to 0.56 microseconds per cubed order at orders 20 to 120 (order 75
# in 0.14 s); with |p|, q <= 10**6, 0.16 to 3.6 microseconds per cubed
# order and machine digit at orders 10 to 40 (order 40, 21 digits, in
# 4.8 s).  That would allow a weight near 1, but any weight below 7 admits
# orders refused before, so it stays 7: the largest admitted rank takes
# about 0.25 s.
RANK_STEP_WEIGHT = 7

# Bits per machine digit of a Python int.
_LIMB_BITS = sys.int_info.bits_per_digit


def _limbs(grid: list[list[int]]) -> int:
    """Machine digits of the largest |entry| of an integer grid, at least
    one: the factor by which its entries' size multiplies a kernel's
    step estimate."""
    bits = max(abs(x).bit_length() for row in grid for x in row)
    return max(1, -(-bits // _LIMB_BITS))


def _compound_steps(rows: int, cols: int, k: int) -> int:
    """Steps of the Laplace program of ``compound``: j multiply-adds for
    each entry of size j, and about four more to turn each final entry
    into a Fraction."""
    return 4 * math.comb(rows, k) * math.comb(cols, k) + sum(
        j * math.comb(rows - k + j, j) * math.comb(cols, j) for j in range(1, k + 1)
    )


def compound(a: RatMatrix, k: int) -> RatMatrix:
    """The order-k compound of a: every order-k minor, with rows and
    columns indexed by the k-subsets of rows and of columns in
    lexicographic order.  Entry (p, q) is the minor of a on rows R_p and
    columns C_q.

    The kernel is a Laplace dynamic program on integers:

    - Scaling.  Row i is multiplied by s_i, the lcm of its denominators,
      which makes it integral.  The determinant is linear in each row, so
      a minor on rows R of the scaled matrix is prod(s_i, i in R) times
      the minor of a; dividing by that product at the end is exact.
    - Laplace.  With rows r_0 < ... < r_j and columns c_0 < ... < c_j,
      expansion along the last row gives
      det = sum_t (-1)**(j + t) * a[r_j][c_t] * det(r_0..r_{j-1}; C - c_t).
      Deleting row r_j and column c_t keeps the order of the rest, so the
      sign is the cofactor sign of position (j, t) and nothing else.  The
      minors of size j + 1 are therefore sums over minors of size j on
      the row prefix r_0..r_{j-1}.
    - Pruning.  A size-j prefix of a k-subset of rows ends on a row r
      with k - j rows still after it, so r <= rows - 1 - (k - j); other
      prefixes never reach size k and are not built.  Columns are not
      pruned: the expansion drops any column, and every j-subset of
      columns lies in some k-subset.

    Level j thus holds C(rows - k + j, j) * C(cols, j) entries of j
    multiply-adds each, and two levels are held at once.  The levels can
    far outnumber the final minors: for k = n they hold 2**n entries for
    a single minor.  ValueError is raised, before the program runs, for
    k outside 0 < k <= min(rows, cols) or when it needs more than
    WORK_BUDGET steps, counted as ``_compound_steps`` times the machine
    digits of the largest scaled entry (``_limbs``).
    """
    scales, level = _minor_levels(a, k)
    entries = []
    for r_set, values in level.items():
        scale = math.prod(scales[r] for r in r_set)
        entries.extend(Fraction(v, scale) for v in values)
    return RatMatrix(len(level), math.comb(a.cols, k), tuple(entries))


def _minor_levels(a: RatMatrix, k: int) -> tuple[list[int], dict]:
    """The checks and the program of ``compound``: the row scales, and the
    last level, which maps each k-subset of rows to its scaled integer
    minors in the order of itertools.combinations(range(cols), k)."""
    if not isinstance(k, int) or not 0 < k <= min(a.rows, a.cols):
        raise ValueError(
            "the minor size must satisfy 0 < k <= min(rows, cols), "
            f"got k={printable(k)} for a {a.rows}x{a.cols} matrix"
        )
    scales, grid = _scaled_rows(a.to_rows())
    check_budget(
        _compound_steps(a.rows, a.cols, k) * _limbs(grid),
        WORK_BUDGET,
        f"the order-{k} compound of a {a.rows}x{a.cols} matrix needs about",
        "steps",
    )
    last = a.rows - k  # a size-j prefix ends on a row <= last + j - 1
    level = {(r,): grid[r] for r in range(last + 1)}
    for j in range(1, k):
        level = _laplace_level(level, grid, a.cols, j, last)
    return scales, level


def _laplace_level(level: dict, grid: list, cols: int, j: int, last: int) -> dict:
    """One step of the program in ``compound``: from the minors of size j
    on each row prefix to those of size j + 1.  A prefix maps to its
    minors listed in the order of itertools.combinations(range(cols), j),
    so each cofactor is read by its index in that list.

    The j + 1 terms of every (j + 1)-subset of columns are laid out flat,
    subset after subset.  Each row's entries are gathered into that layout
    once, with the cofactor signs folded in, and each prefix's cofactors
    once; a new minor is then the sum of one group of j + 1 consecutive
    products, and the products and the group sums run in C."""
    index = {c_set: i for i, c_set in enumerate(itertools.combinations(range(cols), j))}
    columns, cofactors, signs = [], [], []
    for c_set in itertools.combinations(range(cols), j + 1):
        for t, c in enumerate(c_set):
            columns.append(c)
            cofactors.append(index[c_set[:t] + c_set[t + 1:]])
            signs.append((-1) ** (j + t))
    # A size-j prefix ends on a row >= j - 1, so it grows by rows j..last + j.
    signed = {
        r: list(map(mul, signs, map(grid[r].__getitem__, columns)))
        for r in range(j, last + j + 1)
    }
    grown = {}
    for prefix, sub in level.items():
        gathered = list(map(sub.__getitem__, cofactors))
        for r in range(prefix[-1] + 1, last + j + 1):
            terms = map(mul, signed[r], gathered)
            grown[prefix + (r,)] = list(map(sum, zip(*[terms] * (j + 1))))
    return grown


def minor_norm(a: RatMatrix, k: int) -> Fraction:
    """binom(n, k) times the largest |order-k minor| of a square matrix.

    It reads the integer minors of ``compound`` and builds one Fraction
    per k-subset of rows, from the largest |minor| on it: the minors on
    one row set share the scale of those rows.  A matrix that is not
    square, or k outside 0 < k <= n (``_minor_levels``), raises
    ValueError."""
    _require_square(a)
    scales, level = _minor_levels(a, k)
    return math.comb(a.rows, k) * max(
        Fraction(max(map(abs, values)), math.prod(scales[r] for r in r_set))
        for r_set, values in level.items()
    )


def nearest_float(value: Fraction) -> float:
    """value rounded to the nearest float, infinite beyond the float range
    as IEEE rounding makes it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def minor_norm_float(a: RatMatrix, k: int) -> float:
    """minor_norm rounded to the nearest float; the exact value is computed."""
    return nearest_float(minor_norm(a, k))


def cauchy_binet(alpha: RatMatrix, beta: RatMatrix) -> tuple[Fraction, Fraction]:
    """Both sides of det(alpha @ beta) = sum over strictly increasing
    k-subsets p of det(alpha[:, p]) * det(beta[p, :]).

    alpha is k x n and beta is n x k with k <= n.  The left side is the
    Bareiss determinant of the product.  The right side is the single
    entry of compound(alpha, k) @ compound(beta, k): the compound of
    alpha is the 1 x C(n, k) row of its maximal minors, that of beta the
    matching column.  The two sides share only ``mat_mul``; the left
    side's determinant is the Bareiss elimination and the right side's
    minors the Laplace program, and both are returned so callers can
    assert equality rather than trust it.
    """
    k, n = alpha.rows, alpha.cols
    if beta.rows != n or beta.cols != k:
        raise ValueError(
            f"shape mismatch: {k}x{n} needs an {n}x{k} partner, got {beta.rows}x{beta.cols}"
        )
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    lhs = det(mat_mul(alpha, beta))
    rhs = mat_mul(compound(alpha, k), compound(beta, k)).entry(0, 0)
    return lhs, rhs


def rank(a: RatMatrix) -> int:
    """Exact rank: the number of Bareiss pivots (``_eliminate``) of a with
    its rows scaled to integers; any shape.

    The elimination does at most rows * cols * min(rows, cols)
    multiply-subtracts of entries that grow to the size of minors.  Each
    counts RANK_STEP_WEIGHT steps times the machine digits of the largest
    scaled entry (``_limbs``); ValueError is raised before it starts when
    that is over WORK_BUDGET.
    """
    _, grid = _scaled_rows(a.to_rows())
    check_budget(
        RANK_STEP_WEIGHT * a.rows * a.cols * min(a.rows, a.cols) * _limbs(grid),
        WORK_BUDGET,
        f"the rank of a {a.rows}x{a.cols} matrix needs about",
        "steps",
    )
    return len(_eliminate(grid)[0])


def generalized_inverse(a: RatMatrix) -> RatMatrix:
    """Moore-Penrose inverse of a square rational matrix, exactly, on
    integers.

    Let d be the lcm of all denominators, so that A = d a is integral.
    Bareiss elimination (``_eliminate``) picks pivot rows P and columns Q,
    r = rank A of each, with W = A[P, Q] invertible.  Let C = A[:, Q] and
    R = A[P, :].  Then

        a^+ = d R^T (C^T A R^T)^-1 C^T.

    Proof.  The rows R are independent and as many as the rank, so A = X R
    for some X; on the columns Q this reads C = X W, so A = C M R with
    M = W^-1 invertible.  C has full column rank and G = M R full row
    rank, so the full-rank factorization A = C G gives the usual
    A^+ = G^T (C^T A G^T)^-1 C^T, in which the factors M^T cancel:
    G^T (C^T A R^T M^T)^-1 = R^T M^T M^-T (C^T A R^T)^-1.  Finally
    a^+ = (A / d)^+ = d A^+.

    K = C^T A R^T is an invertible r x r integer matrix.  ``_eliminate``
    on the first r columns of the block [[K, C^T], [-R^T, 0]] pivots in
    K's rows alone (the rest of K's rows after each pivot form the Schur
    complement of an invertible block of K, itself invertible).  Its last
    pivot D is det K with the rows in pivot order, and the rows it leaves
    are D times the Schur complement, G' = D R^T K^-1 C^T, so
    a^+ = d G' / D whatever the sign of D.  G' and D are divided by their
    gcd, and the four Penrose identities, A G' A = D A, G' A G' = D G'
    and A G' and G' A symmetric, are verified on these integers before
    the one Fraction per entry is built.
    """
    _require_square(a)
    n = a.rows
    d = math.lcm(*(x.denominator for x in a.entries))
    big_a = [[x.numerator * (d // x.denominator) for x in row] for row in a.to_rows()]
    pivot_rows, pivot_cols, _, _ = _eliminate(big_a)
    if not pivot_rows:
        return RatMatrix(n, n, (Fraction(0),) * (n * n))
    at = list(zip(*big_a))
    ct = [list(at[q]) for q in pivot_cols]
    big_r = [big_a[p] for p in pivot_rows]
    k = _products(_products(ct, at), big_r)
    block = [kr + cr for kr, cr in zip(k, ct)]
    block += [[-x for x in col] + [0] * n for col in zip(*big_r)]
    _, _, den, g = _eliminate(block, len(pivot_rows))
    common = math.gcd(den, *itertools.chain.from_iterable(g))
    den, g = den // common, [[x // common for x in row] for row in g]
    gt = list(zip(*g))
    ag, ga = _products(big_a, gt), _products(g, at)
    if not (
        ag == list(map(list, zip(*ag)))
        and ga == list(map(list, zip(*ga)))
        and _products(ag, at) == [[den * x for x in row] for row in big_a]
        and _products(ga, gt) == [[den * x for x in row] for row in g]
    ):
        raise RuntimeError("generalized inverse failed its defining identities")
    return RatMatrix(n, n, tuple(Fraction(d * x, den) for row in g for x in row))


class MinorNormCheck(NamedTuple):
    """PASS over a batch of pairs, or the first violation with its values."""

    ok: bool
    pair_index: int | None = None
    values: tuple[Fraction, Fraction, Fraction] | None = None  # norm(ab), norm(a), norm(b)


def check_minor_norm_submultiplicative(
    pairs: Iterable[tuple[RatMatrix, RatMatrix]], k: int
) -> MinorNormCheck:
    """norm_k(a @ b) <= norm_k(a) * norm_k(b) for every supplied pair."""
    for index, (a, b) in enumerate(pairs):
        if not (a.is_square and b.is_square and a.rows == b.rows):
            raise ValueError(f"pair {index} is not a pair of equal-order square matrices")
        na = minor_norm(a, k)
        nb = minor_norm(b, k)
        nab = minor_norm(mat_mul(a, b), k)
        if nab > na * nb:
            return MinorNormCheck(False, index, (nab, na, nb))
    return MinorNormCheck(True)


# ---------------------------------------------------------------------------
# The boundary sequence: x_m has the top-left k x k block (1/m) I_k and
# zeros elsewhere.  Every x_m has rank exactly k, hence nonzero order-k
# norm, while the entrywise limit (the zero matrix) has rank 0.


class WitnessPoint(NamedTuple):
    m: int
    norm_value: Fraction
    matrix_rank: int
    in_nonzero_set: bool
    pseudoinverse_norm: Fraction
    inverse_bound_holds: bool
    product: Fraction

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "norm_value": str(self.norm_value),
            "rank": self.matrix_rank,
            "in_nonzero_set": self.in_nonzero_set,
            "pseudoinverse_norm": str(self.pseudoinverse_norm),
            "inverse_bound_holds": self.inverse_bound_holds,
            "product": str(self.product),
        }


class WitnessReport(NamedTuple):
    n: int
    k: int
    coefficient: int
    points: tuple[WitnessPoint, ...]
    limit_norm_value: Fraction
    limit_rank: int
    limit_in_nonzero_set: bool
    not_closed: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "coefficient": self.coefficient,
            "points": [p.to_jsonable() for p in self.points],
            "limit": {
                "norm_value": str(self.limit_norm_value),
                "rank": self.limit_rank,
                "in_nonzero_set": self.limit_in_nonzero_set,
            },
            "not_closed": self.not_closed,
        }


def _diagonal_norm(d: Sequence[Fraction], k: int) -> Fraction:
    """The order-k norm of diag(d), in closed form: C(n, k) times the
    product of the k largest |d_i|, for n = len(d) and 0 < k <= n.

    Proof.  Take a k x k minor of diag(d) on rows R and columns C.  If
    R != C, some r in R is not in C (|R| = |C|), and row r of the
    submatrix is zero, since the only nonzero entry of row r of diag(d)
    lies in column r; so the minor is 0.  If R = C, the submatrix is
    diag(d_i, i in R), whose determinant is the product of those d_i.
    Every |d_i| is at least 0, so the product of |d_i| over a k-subset is
    largest on k largest |d_i|: exchanging a smaller one in for a larger
    one out never raises it.  One Fraction is built, from the integer
    products of their numerators and of their denominators."""
    top = sorted(map(abs, d), reverse=True)[:k]
    return math.comb(len(d), k) * Fraction(
        math.prod(x.numerator for x in top), math.prod(x.denominator for x in top)
    )


def _boundary_point(n: int, k: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """The diagonals of x_m and of its Moore-Penrose inverse
    g = diag(m I_k, 0), in closed form.  Products of diagonal matrices are
    diagonal, hence symmetric, so of the four Penrose identities x g x = x
    and g x g = g are left, and they are checked entry by entry on the two
    diagonals."""
    zeros = [Fraction(0)] * (n - k)
    xd = [Fraction(1, m)] * k + zeros
    gd = [Fraction(m)] * k + zeros
    if not all(a * b * a == a and b * a * b == b for a, b in zip(xd, gd)):
        raise RuntimeError("generalized inverse failed its defining identities")
    return xd, gd


def witness_sequence(n: int, k: int, m_max: int) -> WitnessReport:
    """Evaluate the boundary sequence for 0 < k < n up to m = m_max.

    k = n is rejected: there the sequence argument needs the zero rows
    below the block, so the strict inequality k < n is part of the
    contract.  Every matrix here is diagonal, so each norm is the closed
    form of ``_diagonal_norm`` and each rank the number of nonzero
    diagonal entries.  The conclusion flag is derived from the recorded
    facts only: every point in the nonzero-norm set, values strictly
    decreasing, and a limit of norm exactly 0 outside the set.
    ValueError is raised before the first point when the run would take
    more than WORK_BUDGET steps, or when a value of the report, the
    largest being C(n, k) m_max^k and C(n, k)^2, is too long to print
    (``exact_text``).
    """
    shown = f"n={printable(n)}, k={printable(k)}"
    if not (isinstance(n, int) and isinstance(k, int) and 0 < k < n):
        raise ValueError(f"need integers n and k with 0 < k < n, got {shown}")
    if not isinstance(m_max, int):
        raise ValueError(f"m_max must be an integer, got {printable(m_max)}")
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {printable(m_max)}")
    # A point (and the limit) builds and checks two diagonals of n
    # Fractions and reads a norm and a rank off each: 400 steps, and 40 per
    # diagonal entry.  On a 2-core Xeon a point took 4 to 9 microseconds
    # per entry at orders 256 to 37490, so the largest admitted runs take
    # 0.2 to 0.6 s; the n term is what refuses a huge order before its
    # diagonals are built.
    check_budget(
        (m_max + 1) * (400 + 40 * n),
        WORK_BUDGET,
        f"the witness sequence for {shown}, m_max={printable(m_max)} needs about",
        "steps",
    )
    coefficient = math.comb(n, k)
    exact_text(Fraction(coefficient * m_max**k), f"the pseudoinverse norm at m={m_max}")
    exact_text(Fraction(coefficient**2), "the product of the two norms")
    points = []
    for m in range(1, m_max + 1):
        xd, gd = _boundary_point(n, k, m)
        value = _diagonal_norm(xd, k)
        g_value = _diagonal_norm(gd, k)
        points.append(
            WitnessPoint(
                m=m,
                norm_value=value,
                matrix_rank=sum(map(bool, xd)),
                in_nonzero_set=value != 0,
                pseudoinverse_norm=g_value,
                inverse_bound_holds=value != 0 and g_value >= 1 / value,
                product=value * g_value,
            )
        )
    limit = [Fraction(0)] * n
    limit_value = _diagonal_norm(limit, k)
    decreasing = all(
        earlier.norm_value > later.norm_value
        for earlier, later in zip(points, points[1:])
    )
    not_closed = (
        all(p.in_nonzero_set for p in points)
        and limit_value == 0
        and decreasing
    )
    return WitnessReport(
        n=n,
        k=k,
        coefficient=coefficient,
        points=tuple(points),
        limit_norm_value=limit_value,
        limit_rank=sum(map(bool, limit)),
        limit_in_nonzero_set=limit_value != 0,
        not_closed=not_closed,
    )


# ---------------------------------------------------------------------------
# Text format: first line "rows cols", then rows*cols rational entries in
# row-major order, split across lines however is convenient.


def parse_matrix_text(text: str) -> RatMatrix:
    """Read a line at a time; the entries are counted before any is
    converted.  So the errors are those of a reader of every token first,
    in its order: missing or bad dimensions, the count, the first bad entry."""
    lines = text.splitlines()
    dims = list(itertools.islice(spots(lines), 2))
    if len(dims) < 2:
        raise ParseError("missing matrix dimensions", max(len(lines), 1), 1)
    rows = word_value(int, *dims[0], what="row count")
    cols = word_value(int, *dims[1], what="column count")
    if rows < 1 or cols < 1:
        line_no, line, _, k = dims[0]
        raise ParseError("matrix dimensions must be positive", line_no, column(line, k))
    found = sum(len(line.split()) for line in lines) - 2
    if found != rows * cols:
        raise ParseError(
            f"expected {printable(rows * cols)} entries for a {rows}x{cols} matrix, "
            f"found {found}",
            len(lines),
            1,
        )
    entries = itertools.islice(spots(lines), 2, None)
    return RatMatrix(rows, cols, tuple(word_value(rational, *spot) for spot in entries))


def load_matrix(path) -> RatMatrix:
    return parse_matrix_text(read_text(path))
