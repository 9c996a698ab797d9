"""Matrices for the matrix tests: seeded random rational ones, seeded
random invertible integer ones, and the identity, zero, diagonal and
transposed ones.

Not a test module: the matrix tests import it, and their seeded draws
depend on the order of the ``randint`` calls below.
"""

from fractions import Fraction

from semnorms import RatMatrix, det

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
