"""Seeded random rational matrices for the matrix tests.

Not a test module: ``test_matrices.py`` and ``test_acceptance.py``
import it, and their seeded draws depend on the order of the ``randint``
calls below.
"""

from fractions import Fraction

from semnorms import RatMatrix

# The largest |p| and q of an entry p/q of ``random_rational_matrix``.
_MAX_NUMERATOR = 9
_MAX_DENOMINATOR = 4


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
