"""Finite semigroups given by Cayley tables.

Elements are the indices 0..n-1 and ``table[a][b]`` is the index of the
product a*b.  Every algebraic operation works on indices only.  Optional
rational labels are parsed and stored, but nothing reads them: they stay
because the benchmark's replay (``bench/replay.py``) still passes them
from ``parse_cayley_text`` to ``FiniteSemigroup``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import (
    Immutable,
    InvalidSemigroupError,
    ParseError,
    Tokens,
    printable_count,
    rational,
)


# The most triples the listing of a table's associativity violations may
# scan: a table of order n that fails Light's test is listed only when
# n**3 is at most this (order 64), and refused with ValueError otherwise.
# Every scanned triple may be listed, at about 56 bytes of JSON each: a
# random table of order 64 lists 258 000 triples, and `semnorms validate`
# prints 14.6 MB for it in 2.1 s, most of it in the JSON encoder (one
# core of a 2-core Xeon).  Order 100 would print about 56 MB in 10 s.
LISTING_BUDGET = 262_144


class ValidationReport(NamedTuple):
    """Everything wrong with a candidate Cayley table; empty means valid.

    Structural problems (non-square rows, non-integer entries) are kept
    apart from associativity failures, and out-of-range entries are kept
    apart from both.  The associativity scan only runs once all entries
    are usable as indices.
    """

    structural: tuple[str, ...] = ()
    out_of_range: tuple[tuple[int, int, object], ...] = ()
    non_associative: tuple[tuple[int, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.structural or self.out_of_range or self.non_associative)

    def summary(self) -> str:
        if self.ok:
            return "valid Cayley table"
        parts = []
        if self.structural:
            parts.append("; ".join(self.structural))
        if self.out_of_range:
            row, col, value = self.out_of_range[0]
            parts.append(
                f"{len(self.out_of_range)} out-of-range entries "
                f"(first at row {row}, column {col}: {value!r})"
            )
        if self.non_associative:
            i, j, k = self.non_associative[0]
            parts.append(
                f"{len(self.non_associative)} associativity violations "
                f"(first at triple ({i}, {j}, {k}))"
            )
        return "; ".join(parts)

    def to_jsonable(self) -> dict:
        return {
            "valid": self.ok,
            "structural": list(self.structural),
            "out_of_range": [
                {"row": r, "col": c, "value": repr(v) if not isinstance(v, int) else v}
                for r, c, v in self.out_of_range
            ],
            "non_associative": [{"i": i, "j": j, "k": k} for i, j, k in self.non_associative],
        }


def validate(table: Sequence[Sequence[object]]) -> ValidationReport:
    """Check a candidate Cayley table exhaustively.

    Lists every structural defect, every out-of-range entry and every
    violating triple (i, j, k) with (i*j)*k != i*(j*k).  A table that
    fails associativity with n**3 > LISTING_BUDGET raises ValueError
    instead, naming one violating triple, before any listing.

    Associativity is decided first by Light's test (Clifford & Preston,
    *The Algebraic Theory of Semigroups* I, section 1.2), which is exact,
    and the O(n^3) triple scan runs only to list the triples of a table
    that fails it.  Call m a good middle element when (x*m)*y = x*(m*y)
    for all x, y.  If a and b are good, so is a*b:

        (x*(a*b))*y = ((x*a)*b)*y     a good at (x, b)
                    = (x*a)*(b*y)     b good at (x*a, y)
                    = x*(a*(b*y))     a good at (x, b*y)
                    = x*((a*b)*y)     b good at (a, y)

    Only the goodness of a and b is used, never associativity of the
    table, so the good elements are closed under the product.  The test
    picks generators G greedily (largest row image first, so that units
    and other elements of large rank come early), grows the closure of G
    under right multiplication by G, and adds the next unreached element
    as a generator until every element is reached.  That closure lies
    inside the closure of G under the table's product, so when every g
    in G is good, every element is good and the table is associative.
    The cost is |G| * n^2.  At worst, on left-zero or null tables, every
    element is a generator and the cost is the n^3 of the full scan.
    """
    return _validate(table)[0]


def _validate(table: Sequence[Sequence[object]]) -> tuple[ValidationReport, tuple[int, ...]]:
    """``validate``'s report, and the generators G that Light's test
    picked when the table is associative (``()`` otherwise).

    A table whose every row has n entries of type exactly ``int``, with
    ``min >= 0`` and ``max < n``, has nothing to list: those four checks
    run in C per row and skip the per-entry loop.  Any other table,
    including one with ``bool`` or other ``int`` subclass entries, goes
    through the loop, which decides the report as before.
    """
    n = len(table)
    if n == 0:
        return ValidationReport(structural=("empty table",)), ()
    if not all(
        len(row) == n and set(map(type, row)) == {int} and min(row) >= 0 and max(row) < n
        for row in table
    ):
        structural = [
            f"row {i} has {len(row)} entries, expected {n}"
            for i, row in enumerate(table)
            if len(row) != n
        ]
        out_of_range = []
        for i, row in enumerate(table):
            for j, value in enumerate(row):
                if not isinstance(value, int) or isinstance(value, bool):
                    structural.append(f"entry ({i}, {j}) is not an integer: {value!r}")
                elif not 0 <= value < n:
                    out_of_range.append((i, j, value))
        if structural or out_of_range:
            return ValidationReport(tuple(structural), tuple(out_of_range)), ()
    rows = [tuple(row) for row in table]
    generators = _right_generators(rows)
    g = next((g for g in generators if not _good_middle(rows, g)), None)
    if g is None:
        return ValidationReport(), tuple(generators)

    def violations(middles):
        return (
            (i, j, k)
            for i, row_i in enumerate(rows)
            for j in middles
            for k in range(n)
            if rows[row_i[j]][k] != row_i[rows[j][k]]
        )

    if n**3 > LISTING_BUDGET:
        raise ValueError(
            f"not associative at triple {next(violations([g]))}; listing every violating "
            f"triple would scan {n**3} triples, over the budget of {LISTING_BUDGET}"
        )
    return ValidationReport(non_associative=tuple(violations(range(n)))), ()


def _right_generators(rows: list[tuple[int, ...]]) -> list[int]:
    """Elements G whose closure under right multiplication by G is the
    whole table, picked greedily by decreasing row image size."""
    n = len(rows)
    by_image = sorted(range(n), key=lambda a: -len(set(rows[a])))
    reached = [False] * n
    gens: list[int] = []
    members: list[int] = []
    for g in by_image:
        if reached[g]:
            continue
        gens.append(g)
        # Members are closed under right multiplication by the earlier
        # generators, so only products with g, and products of the
        # members found now, can be new.
        stack = [g] + [rows[x][g] for x in members]
        while stack:
            y = stack.pop()
            if reached[y]:
                continue
            reached[y] = True
            members.append(y)
            row_y = rows[y]
            stack.extend(row_y[h] for h in gens)
        if len(members) == n:
            break
    return gens


def _good_middle(rows: list[tuple[int, ...]], g: int) -> bool:
    """(x*g)*y == x*(g*y) for all x, y.

    ``itemgetter(*row_g)(row_x)`` is the tuple of x*(g*y) over all y, read
    in C.  With one index it returns the item, not a 1-tuple, so order 1
    is decided apart: its one table, [[0]], is associative.
    """
    if len(rows) == 1:
        return True
    x_g_y = itemgetter(*rows[g])
    return all(rows[row_x[g]] == x_g_y(row_x) for row_x in rows)


def derived(fn):
    """Compute ``fn(s)`` once per semigroup s and keep it on s.

    The value is a function of the table alone, so it is stored in the
    semigroup's ``_derived`` dict and dies with the semigroup; equality and
    hashing never read that dict.
    """

    @wraps(fn)
    def once(s):
        store = s._derived
        if fn not in store:
            store[fn] = fn(s)
        return store[fn]

    return once


class FiniteSemigroup(Immutable):
    """An immutable finite semigroup, equal and hashed by its table and
    labels.

    Construction validates the table and raises InvalidSemigroupError when
    it is not square, not in range, or not associative, or ValueError when
    it is not associative and too large to list (see ``validate``).  ``labels`` is an
    optional per-element tuple of exact rationals, stored and compared but
    read by no computation (see the module docstring).  ``generators`` is the
    generating set G that Light's test picked during validation: every
    element is a product of elements of G.  It and the ``@derived``
    structure (Green classes, natural order, idempotents, zeros, ...) are
    functions of the table, so they take no part in equality.
    """

    __slots__ = ("table", "labels", "generators", "_derived")

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence | None = None):
        table = tuple(tuple(row) for row in table)
        report, generators = _validate(table)
        if not report.ok:
            raise InvalidSemigroupError(report)
        if labels is not None:
            labels = tuple(Fraction(x) for x in labels)
            if len(labels) != len(table):
                raise InvalidSemigroupError(
                    ValidationReport(
                        structural=(
                            f"{len(labels)} labels for {len(table)} elements",
                        )
                    )
                )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_derived", {})

    def _key(self):
        return self.table, self.labels

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @derived
    def identity(self) -> int | None:
        """Index of the two-sided identity, or None."""
        for e in self.elements():
            if all(self.table[e][x] == x and self.table[x][e] == x for x in self.elements()):
                return e
        return None

    def __repr__(self) -> str:
        return f"FiniteSemigroup(order={self.order})"


@derived
def idempotents(s: FiniteSemigroup) -> frozenset[int]:
    """All e with e*e = e, by direct scan."""
    return frozenset(e for e in s.elements() if s.table[e][e] == e)


@derived
def inverse_sets(s: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """Per element a, its inverses (``inverse_set``) in increasing order,
    all found by one n^2 scan."""
    t = s.table
    return tuple(
        tuple(b for b, ab in enumerate(row_a) if t[ab][a] == a and t[t[b][a]][b] == b)
        for a, row_a in enumerate(t)
    )


def inverse_set(s: FiniteSemigroup, a: int) -> frozenset[int]:
    """All b with a*b*a = a and b*a*b = b (possibly empty)."""
    _check_element(s, a)
    return frozenset(inverse_sets(s)[a])


@derived
def is_regular(s: FiniteSemigroup) -> bool:
    """True iff every a has some x with a*x*a = a.

    Equivalent to every element having a nonempty inverse set: from
    a*x*a = a the element x*a*x is a genuine inverse of a.
    """
    return all(inverse_sets(s))


class ZeroElements(NamedTuple):
    left: frozenset[int]
    right: frozenset[int]
    two_sided: frozenset[int]


@derived
def zero_elements(s: FiniteSemigroup) -> ZeroElements:
    """Left zeros (z*x = z for all x), right zeros (x*z = z for all x),
    and their intersection.  A two-sided zero is unique when it exists."""
    t = s.table
    left = frozenset(z for z in s.elements() if all(t[z][x] == z for x in s.elements()))
    right = frozenset(z for z in s.elements() if all(t[x][z] == z for x in s.elements()))
    return ZeroElements(left, right, left & right)


def _check_element(s: FiniteSemigroup, a: int) -> None:
    if not isinstance(a, int) or not 0 <= a < s.order:
        raise ValueError(f"element index {a!r} out of range for order {s.order}")


# ---------------------------------------------------------------------------
# Text format: first line is the order n, then n lines of n space-separated
# 0-based indices, then optionally a line "labels:" followed by n rational
# or decimal labels (same line after the colon or on following lines).


def parse_cayley_text(text: str) -> tuple[list[list[int]], list[Fraction] | None]:
    """Parse the Cayley-table text format into (rows, labels).

    Purely syntactic: the result may still fail ``validate``.  Blank lines
    are ignored.  Raises ParseError with 1-based line and column.

    Table entries are looked up among the spellings ``str(i)`` of 0 to
    n - 1, on which ``int`` gives i.  If any token misses the lookup (a
    leading zero or sign, another script's digits, an out-of-range value
    or no integer at all), every entry goes through ``int`` instead, which
    decides the values and the error as before.
    """
    lines = text.splitlines()
    last_line = max(len(lines), 1)
    table = Tokens()
    labels: Tokens | None = None
    for line_no, line in enumerate(lines, start=1):
        words = line.split()
        if not words:
            continue
        if labels is None and words[0].startswith("labels:"):
            labels = Tokens()
            offset = line.index("labels:") + len("labels:")
            labels.add(line_no, line, line[offset:].split(), offset)
        else:
            (table if labels is None else labels).add(line_no, line, words)

    if not table.items:
        raise ParseError("missing table order", last_line, 1)
    (n,) = table.ints(0, 1)
    if n <= 0:
        raise table.error(f"order must be positive, got {n}", 0)
    found = len(table.items) - 1
    if found < n * n:
        raise ParseError(
            f"expected {printable_count(n * n)} table entries, found {found}", last_line, 1
        )
    if found > n * n:
        raise table.error(f"unexpected extra token {table.items[n * n + 1]!r}", n * n + 1)
    spellings = {str(i): i for i in range(n)}
    try:
        entries = list(map(spellings.__getitem__, table.items[1:]))
    except KeyError:
        entries = table.ints(1)
    rows = [entries[i : i + n] for i in range(0, n * n, n)]

    if labels is None:
        return rows, None
    if len(labels.items) != n:
        raise ParseError(
            f"expected {n} labels, found {len(labels.items)}",
            labels.first_line(last_line),
            1,
        )
    return rows, labels.convert(rational)


def load_cayley_table(path) -> FiniteSemigroup:
    """Read and validate a semigroup from a Cayley-table text file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return FiniteSemigroup(*parse_cayley_text(text))
