"""Shared exception types, the immutable base of the value classes, the
reader of an input file and of one word of a text format, and the two
input vocabularies the command line offers.

This module imports nothing heavier than ``fractions``, so the command
line can build its argument parser before it loads any kernel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

# The values ``norms.random_submultiplicative_norms`` draws from by default.
DEFAULT_VALUE_POOL = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

# How ``norms.classify_literature_axioms`` may read the binary operation.
NOTATIONS = ("multiplicative", "additive")

# The most digits a rational literal may spell out in its numerator or
# its denominator.  It is CPython's default limit on converting between
# int and str, so every value that parses can also be printed.
LITERAL_DIGITS = 4300
# The least int of more than LITERAL_DIGITS digits.
_TOO_LONG = 10**LITERAL_DIGITS

# The most characters a message echoes of a value that is not a rational;
# a longer one is named by its type instead.
ECHO_CHARS = 80


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


def printable(value, text=repr) -> str:
    """``text(value)`` for a message, or a bound in its place.

    A rational that ``str`` refuses is an int, or a Fraction's numerator
    or denominator, of more than LITERAL_DIGITS digits, such as a count of
    entries for an order of thousands of digits, or a caller's argument
    or value.  An integral one prints as ``more than 10**4300`` (``less
    than -10**4300`` below zero), any other as a rational with more than
    4300 digits in its numerator or its denominator.  Any other value
    prints as ``text(value)`` when that is at most ECHO_CHARS characters,
    and as ``a value of type <name>`` when it is longer or when ``text``
    refuses it with ValueError, as it does a list that holds such an int.
    """
    if isinstance(value, (int, Fraction)):
        p, q = value.numerator, value.denominator
        if q == 1 and abs(p) >= _TOO_LONG:
            return f"{'less than -' if p < 0 else 'more than '}10**{LITERAL_DIGITS}"
        if max(abs(p), q) >= _TOO_LONG:
            return (
                f"a rational with more than {LITERAL_DIGITS} digits in its "
                "numerator or its denominator"
            )
        return text(value)
    try:
        shown = text(value)
    except ValueError:
        shown = None
    if shown is None or len(shown) > ECHO_CHARS:
        return f"a value of type {type(value).__name__}"
    return shown


def exact_values(values: Iterable, where, error) -> tuple[Fraction, ...]:
    """``values`` as a tuple of Fractions, each Fraction kept as it is.
    The first value that ``Fraction`` refuses with ArithmeticError or
    ValueError, such as an infinity or a NaN, at index i raises
    ``error("<where(i)> is not a finite rational: <value>")``, the value
    echoed through ``printable``."""
    out = []
    for i, v in enumerate(values):
        if type(v) is not Fraction:
            try:
                v = Fraction(v)
            except (ArithmeticError, ValueError):
                raise error(f"{where(i)} is not a finite rational: {printable(v)}") from None
        out.append(v)
    return tuple(out)


def json_int(value: int) -> int | str:
    """``value`` for a JSON report, or its ``printable`` bound in place of
    an int of more than LITERAL_DIGITS digits, which ``json`` cannot
    print."""
    return value if abs(value) < _TOO_LONG else printable(value)


def check_budget(estimate: int, limit: int, what: str, unit: str) -> None:
    """Refuse work over a budget before it starts: when ``estimate`` is over
    ``limit``, raise ValueError ``<what> <estimate> <unit>, over the budget
    of <limit>``, with the estimate printed through ``printable``.
    Every work budget of the package refuses through here; each caller
    passes its limit as read at the call, so a test may patch it."""
    if estimate > limit:
        raise ValueError(
            f"{what} {printable(estimate)} {unit}, over the budget of {limit}"
        )


def exact_text(value: Fraction, what: str) -> str:
    """``str(value)`` for a report.  A value computed from the input, such
    as a product of two literals, can pass the digits ``str`` prints;
    then ValueError names ``what`` and the bound, and nothing is built."""
    if max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        raise ValueError(
            f"{what} has more than {LITERAL_DIGITS} digits in its numerator "
            "or its denominator, more than a report prints"
        )
    return str(value)


def read_text(path) -> str:
    """The text of the file at ``path``: its bytes decoded as UTF-8, less
    a leading byte-order mark, as ``utf-8-sig`` reads them.  Bytes that
    are not UTF-8 raise ValueError naming the path and the offset of the
    first bad byte in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


# ---------------------------------------------------------------------------
# Words of a line.  The three text formats are read a line at a time, cut
# into words by ``line.split()``: it cuts at the whitespace the regular
# expression ``\S+`` skips, so a word's column is a regex tokenizer's.


def column(line: str, k: int) -> int:
    """The 1-based column of the ``k``-th word (from 0) of ``line``."""
    return len(line) - len(line.split(None, k)[-1]) + 1


def word_value(value_of, line_no: int, line: str, words: list[str], k: int, what=None):
    """``value_of(words[k])``, where ``words`` are the words of ``line``.
    ``value_of`` raises ValueError with the message to report, or
    ``expected <what>, got <word>`` when ``what`` is given; the message is
    raised as a ParseError at the word."""
    try:
        return value_of(words[k])
    except ValueError as exc:
        message = f"expected {what}, got {words[k]!r}" if what else str(exc)
        raise ParseError(message, line_no, column(line, k)) from None


def spots(lines: list[str], first: int = 1):
    """``(line number, line, words, k)`` of each word ``words[k]`` of
    ``lines`` in reading order, the lines numbered from ``first``."""
    for line_no, line in enumerate(lines, first):
        words = line.split()
        for k in range(len(words)):
            yield line_no, line, words, k


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
