"""Inputs for the tests: hypothesis strategies, seeded random draws, and
the fixed inputs that several test modules share.

Not a test module: the test modules import it.  The seeded draws depend
on the order of the ``randint`` calls below, and the tests pin values
that follow from them.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from semnorms import (
    BUILTIN_SEMIGROUPS,
    RatMatrix,
    builtin_semigroup,
    det,
    full_transformation_monoid,
    validate,
)

from references import fraction_product, transformation_maps

# Every builtin semigroup by name.
SUITE = ("z2", "c4", "s3", "t2", "t3", "leftzero3", "null4")

# An int of 5001 digits: more than str() prints, at either sign.
BIG = 10**5000

HALF = Fraction(1, 2)

# (1*0)*1 = 0*1 = 1 but 1*(0*1) = 1*1 = 0, and similarly for (1,1,1).
NON_ASSOCIATIVE_TABLE = [[0, 1], [0, 0]]

# Large primes, so that denominators drawn from them are pairwise coprime
# and cross-multiplied products run to dozens of digits.
PRIMES = (1000003, 1000033, 1000037, 1000039, 2147483647, 4294967291, 10**12 + 39)


# ---------------------------------------------------------------------------
# Seeded matrices and fixed ones.

# The largest |p| and q of an entry p/q of ``random_rational_matrix``.
_MAX_NUMERATOR = 9
_MAX_DENOMINATOR = 4
# The largest |entry| of ``random_invertible_integer_matrix``.
_MAX_INTEGER = 3


def random_rational_matrix(rng, rows: int, cols: int) -> RatMatrix:
    """Entries p/q with |p| <= _MAX_NUMERATOR and 1 <= q <= _MAX_DENOMINATOR,
    drawn from the supplied random.Random instance."""
    return RatMatrix(
        rows,
        cols,
        tuple(
            Fraction(
                rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR)
            )
            for _ in range(rows * cols)
        ),
    )


def random_invertible_integer_matrix(rng, n: int) -> RatMatrix:
    """An n x n matrix of integers in [-_MAX_INTEGER, _MAX_INTEGER] with
    nonzero determinant: the first such draw from the supplied
    random.Random."""
    while True:
        a = RatMatrix(
            n, n, tuple(rng.randint(-_MAX_INTEGER, _MAX_INTEGER) for _ in range(n * n))
        )
        if det(a) != 0:
            return a


def identity_matrix(n: int) -> RatMatrix:
    return RatMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def zero_matrix(rows: int, cols: int | None = None) -> RatMatrix:
    cols = rows if cols is None else cols
    return RatMatrix(rows, cols, [0] * (rows * cols))


def diagonal_matrix(values) -> RatMatrix:
    """The square matrix of order len(values) with ``values`` on its
    leading diagonal and zeros elsewhere."""
    n = len(values)
    return RatMatrix(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])


def transposed(a: RatMatrix) -> RatMatrix:
    return RatMatrix(a.cols, a.rows, [x for j in range(a.cols) for x in a.entries[j::a.cols]])


# Pivots that need a row exchange, in every drawing.
SWAPPING = (
    RatMatrix.from_rows([[0, 1], [1, 0]]),
    RatMatrix.from_rows([[0, 0, 2], [0, 3, 1], [Fraction(1, 2), 1, 1]]),
)

# Points x_m = diag((1/m) I_k, 0) of the witness sequence, whose
# pseudoinverse is diag(m I_k, 0).
WITNESS_POINTS = tuple(
    diagonal_matrix([Fraction(1, m)] * k + [0] * (n - k))
    for n, k, m in ((2, 1, 1), (3, 1, 4), (6, 3, 7))
)


# ---------------------------------------------------------------------------
# Tables.


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


BUILTIN_TABLES = [
    [list(row) for row in builtin_semigroup(name).table] for name in BUILTIN_SEMIGROUPS
]


def all_magmas(n):
    for cells in itertools.product(range(n), repeat=n * n):
        yield [list(cells[i * n:(i + 1) * n]) for i in range(n)]


# Every associative table of order at most 3: 1 + 8 + 113 of them.
SMALL_SEMIGROUPS = [t for n in (1, 2, 3) for t in all_magmas(n) if validate(t).ok]


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
        maps = transformation_maps(int(name[1:]))
    return s, maps


def map_matrix(f):
    """The 0/1 matrix M_f of the map f, with (M_f)_{x,f(x)} = 1."""
    n = len(f)
    return RatMatrix(n, n, [int(f[x] == y) for x in range(n) for y in range(n)])


# The orders k at which the bridge reads N_k on each semigroup of maps:
# every k for the builtins; t4 at k = 1 and 2, where its values are many.
BRIDGE_ORDERS = {
    "z2": (1, 2), "c4": (1, 2, 3, 4), "s3": (1, 2, 3),
    "t2": (1, 2), "t3": (1, 2, 3), "t4": (1, 2),
}


# ---------------------------------------------------------------------------
# Rationals and norm values.


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


@st.composite
def tables_with_values(draw):
    table = draw(st.one_of(transformation_tables(), st.sampled_from(BUILTIN_TABLES)))
    values = draw(st.lists(rationals(), min_size=len(table), max_size=len(table)))
    return table, values


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


# ---------------------------------------------------------------------------
# Matrices.


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


@st.composite
def witness_inner_inverses(draw):
    """(n, k, m) of a witness point x = diag((1/m) I_k, 0) of order 2 to 6,
    with U and V for b = g + (I - g x) U + V (I - x g), g = x^+; U and V
    are zero in some draws, where b = g."""
    n = draw(st.integers(2, 6))
    k, m = draw(st.integers(1, n - 1)), draw(st.integers(1, 40))
    u, v = (draw(st.one_of(st.just(zero_matrix(n)), rat_matrices(n, n))) for _ in "uv")
    return n, k, m, u, v


def seeded_orders():
    """(n, rng): an order from 2 to 5 and a random.Random of a drawn seed."""
    return st.tuples(st.integers(2, 5), st.integers(0, 2**32 - 1).map(random.Random))


# ---------------------------------------------------------------------------
# Texts for the three parsers.

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
