"""Shared exception types, the immutable base of the value classes, the
tokenizer the three text formats share, and the two input vocabularies
the command line offers.

This module imports nothing heavier than ``fractions``, so the command
line can build its argument parser before it loads any kernel.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

# The values ``norms.random_submultiplicative_norms`` draws from by default.
DEFAULT_VALUE_POOL = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

# How ``axioms.classify_literature_axioms`` may read the binary operation.
NOTATIONS = ("multiplicative", "additive")

# The most digits a rational literal may spell out in its numerator or
# its denominator.  It is CPython's default limit on converting between
# int and str, so every value that parses can also be printed.
LITERAL_DIGITS = 4300


class SemnormsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SemnormsError):
    """Malformed input text.  Carries the 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvalidSemigroupError(SemnormsError):
    """A Cayley table failed validation.  Carries the full report."""

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


class NormDomainError(SemnormsError):
    """Norm values must be nonnegative rationals."""


class NormConstructionError(SemnormsError):
    """A built-in norm family produced a table that failed its own guard."""


class Immutable:
    """Base of a ``__slots__`` value class whose fields are set once, by
    ``object.__setattr__`` in its ``__init__``.  Each subclass defines
    ``_key()``: two instances of one class are equal when their keys are,
    and an instance hashes as its key."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def printable_count(n: int) -> str:
    """A count of entries for a message: ``n`` in digits, or a bound when
    ``str`` refuses it (an order of thousands of digits asks for a table
    whose number of entries has twice as many)."""
    return str(n) if n < 10**LITERAL_DIGITS else f"more than 10**{LITERAL_DIGITS}"


def exact_text(value: Fraction, what: str) -> str:
    """``str(value)`` for a report.  A value computed from the input, such
    as a product of two literals, can pass the digits ``str`` prints;
    then ValueError names ``what`` and the bound, and nothing is built."""
    if max(abs(value.numerator), value.denominator) >= 10**LITERAL_DIGITS:
        raise ValueError(
            f"{what} has more than {LITERAL_DIGITS} digits in its numerator "
            "or its denominator, more than a report prints"
        )
    return str(value)


# ---------------------------------------------------------------------------
# Tokens.


class Tokens:
    """The whitespace-separated tokens of some lines of a text, in reading
    order, as ``str.split()`` cuts them.

    Per line only its number, its text and the index of its first token
    are kept; the column of a token is worked out when it is reported, by
    splitting its line again.  ``str.split()`` and the regular expression
    ``\\S+`` cut at the same whitespace characters, so the columns are the
    ones a regex tokenizer would give.
    """

    def __init__(self):
        self.items: list[str] = []
        self._starts: list[int] = []  # index in items of each line's first token
        self._lines: list[tuple[int, str, int]] = []  # (line number, line, offset)

    def add(self, line_no: int, line: str, words: list[str], offset: int = 0) -> None:
        """Append ``words``, the tokens of ``line[offset:]``."""
        if words:
            self._starts.append(len(self.items))
            self._lines.append((line_no, line, offset))
            self.items.extend(words)

    def first_line(self, default: int) -> int:
        """The line of the first token, or ``default`` when there is none."""
        return self._lines[0][0] if self._lines else default

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the line and column of ``items[index]``."""
        k = bisect_right(self._starts, index) - 1
        line_no, line, offset = self._lines[k]
        rest = line[offset:].split(None, index - self._starts[k])[-1]
        return ParseError(message, line_no, len(line) - len(rest) + 1)

    def ints(self, start: int = 0, stop: int | None = None, what: str = "an integer") -> list[int]:
        """``int`` of each of ``items[start:stop]``; the first token that is
        not an integer raises ``expected <what>, got <token>``."""
        try:
            return list(map(int, self.items[start:stop]))
        except ValueError:
            pass

        def integer(token):
            try:
                return int(token)
            except ValueError:
                raise ValueError(f"expected {what}, got {token!r}") from None

        return self.convert(integer, start, stop)

    def convert(self, value_of, start: int = 0, stop: int | None = None) -> list:
        """``value_of`` each of ``items[start:stop]``.  ``value_of`` raises
        ValueError with the message to report; the first token it rejects
        raises that message as a ParseError at the token."""
        out = []
        for index, token in enumerate(self.items[start:stop], start):
            try:
                out.append(value_of(token))
            except ValueError as exc:
                raise self.error(str(exc), index) from None
        return out


# The literals ``Fraction`` accepts: a sign, then digits over digits, or
# digits with a fractional part and an exponent; ``_`` may join digits.
_DIGITS = r"(?:\d+(?:_\d+)*)?"
_LITERAL = re.compile(
    rf"[-+]?(?=\d|\.\d)({_DIGITS})(?:/(\d+(?:_\d+)*)|(?:\.({_DIGITS}))?(?:[eE]([-+]?\d+(?:_\d+)*))?)"
)


def rational(token: str) -> Fraction:
    """The exact value of a literal like ``3``, ``-1/2``, ``0.25`` or
    ``1e-3``, or ValueError with the message to report.

    The digits are counted on the text before any ``Fraction`` is built:
    ``p/q`` spells out p and q, and ``m.f`` with exponent x spells out
    the numerator ``mf`` followed by ``x - len(f)`` zeros over a 1
    followed by ``len(f) - x`` zeros, before any cancellation.  If either
    has more than ``LITERAL_DIGITS`` digits the literal is refused, so
    ``1e2000000`` costs no work.
    """
    m = _LITERAL.fullmatch(token)
    if m is not None and _too_many_digits(*m.groups()):
        raise ValueError(
            f"a rational may spell out at most {LITERAL_DIGITS} digits "
            "in its numerator and in its denominator"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"expected a rational like 3, -1/2 or 0.25, got {token!r}"
        ) from None


def _too_many_digits(whole, denominator, fraction, exponent) -> bool:
    def digits(text):
        return len(text.replace("_", "")) if text else 0

    if denominator is not None:
        return max(digits(whole), digits(denominator)) > LITERAL_DIGITS
    mantissa = digits(whole) + digits(fraction)
    exponent = (exponent or "0").replace("_", "")
    # When the mantissa fits, len(fraction) <= LITERAL_DIGITS, so an
    # exponent of 10**5 or more in size makes one side too long.
    if mantissa > LITERAL_DIGITS or len(exponent.lstrip("+-").lstrip("0")) > 5:
        return True
    shift = int(exponent) - digits(fraction)
    return mantissa + max(shift, 0) > LITERAL_DIGITS or 1 - min(shift, 0) > LITERAL_DIGITS
