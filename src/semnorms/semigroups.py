"""Finite semigroups given by Cayley tables: validation, the structure
derived from a table (idempotents, inverses, zeros, the natural partial
order, Green's relations), the Cayley-table text format and the stock
semigroups.

Elements are the indices 0..n-1 and ``table[a][b]`` is the index of the
product a*b.  Every algebraic operation works on indices only.  Optional
rational labels are parsed and stored, but nothing reads them: they stay
because the benchmark's replay (``bench/replay.py``) still passes them
from ``parse_cayley_text`` to ``FiniteSemigroup``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, wraps
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import (
    Immutable,
    InvalidSemigroupError,
    ParseError,
    check_budget,
    column,
    exact_values,
    json_int,
    printable,
    rational,
    read_text,
    spots,
    word_value,
)


# The most triples the listing of a table's associativity violations may
# scan: a table of order n that fails Light's test is listed only when
# n**3 is at most this (order 64), and refused with ValueError otherwise.
# Every scanned triple may be listed, at about 56 bytes of JSON each: a
# random table of order 64 lists 258 000 triples, and `semnorms validate`
# prints 14.6 MB for it in 2.1 s, most of it in the JSON encoder (one
# core of a 2-core Xeon).  Order 100 would print about 56 MB in 10 s.
LISTING_BUDGET = 262_144

# The most table entries Light's test may read, |G| * n**2 for the
# generators G of a table of order n (see ``validate``); a table over it
# is refused with ValueError before the test.  A read costs 12 to 14 ns
# on the null and left-zero tables of orders 256 to 512, where G is every
# element, and on the 3125-element monoid of all maps on 5 points, where
# G has 6 elements.  So the slowest admitted validation, the null table
# of order 512 at the budget, took 1.73 to 1.92 s in 5 calls, and that
# monoid 1.3 s; the null table of order 1024, 8 times over, is refused in
# 0.15 s (one core of a 2-core Xeon, Python 3.11).
LIGHT_TEST_BUDGET = 512**3


class ValidationReport(NamedTuple):
    """Everything wrong with a candidate Cayley table; empty means valid.

    Structural problems (non-square rows, non-integer entries) are kept
    apart from associativity failures, and out-of-range entries are kept
    apart from both.  The associativity scan only runs once all entries
    are usable as indices.
    """

    structural: tuple[str, ...] = ()
    out_of_range: tuple[tuple[int, int, int], ...] = ()
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
                f"(first at row {row}, column {col}: {printable(value)})"
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
                {"row": r, "col": c, "value": json_int(v)} for r, c, v in self.out_of_range
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
    element is a generator and the cost is the n^3 of the full scan.  A
    table whose |G| * n^2 is over LIGHT_TEST_BUDGET raises ValueError
    before the test.
    """
    return _validate(table)[0]


def _validate(table: Sequence[Sequence[object]]) -> tuple[ValidationReport, tuple[int, ...]]:
    """``validate``'s report, and the generators G that Light's test
    picked when the table is associative (``()`` otherwise).

    A table whose every row has n entries, whose entries all have type
    exactly ``int``, and whose distinct entries have ``min >= 0`` and
    ``max < n`` has nothing to list: those three checks run in C over the
    whole table, in that order, and skip the per-entry loop.  The set of
    distinct entries is taken only once every entry is a plain ``int``, so
    a ``bool`` or a ``1.0`` cannot hide in it behind an equal ``1``.  Any
    other table goes through the loop, which decides the report as before.
    """
    n = len(table)
    if n == 0:
        return ValidationReport(structural=("empty table",)), ()
    if not (
        all(len(row) == n for row in table)
        and set(map(type, itertools.chain.from_iterable(table))) == {int}
        and min(entries := set().union(*table)) >= 0
        and max(entries) < n
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
                    structural.append(f"entry ({i}, {j}) is not an integer: {printable(value)}")
                elif not 0 <= value < n:
                    out_of_range.append((i, j, value))
        if structural or out_of_range:
            return ValidationReport(tuple(structural), tuple(out_of_range)), ()
    rows = [tuple(row) for row in table]
    generators = _right_generators(rows)
    check_budget(
        len(generators) * n * n,
        LIGHT_TEST_BUDGET,
        f"Light's associativity test with {len(generators)} generators "
        f"on {n} elements reads",
        "table entries",
    )
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

    check_budget(
        n**3,
        LISTING_BUDGET,
        f"not associative at triple {next(violations([g]))}; "
        "listing every violating triple would scan",
        "triples",
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


def _structural_error(message: str) -> InvalidSemigroupError:
    return InvalidSemigroupError(ValidationReport(structural=(message,)))


class FiniteSemigroup(Immutable):
    """An immutable finite semigroup, equal and hashed by its table and
    labels.

    Construction validates the table and raises InvalidSemigroupError when
    it is not square, not in range, or not associative, or when a label is
    not a finite rational or the labels do not match the elements one to
    one, or ValueError when Light's test, or the listing of a table that
    is not associative, is over its budget (see ``validate``).  ``labels``
    is an optional per-element tuple of exact rationals, stored and
    compared but read by no computation (see the module docstring).
    ``generators`` is the
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
            labels = exact_values(labels, "label {}".format, _structural_error)
            if len(labels) != len(table):
                raise _structural_error(f"{len(labels)} labels for {len(table)} elements")
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
        raise ValueError(f"element index {printable(a)} out of range for order {s.order}")


# ---------------------------------------------------------------------------
# The natural partial order on an arbitrary semigroup.
#
# a <= b iff there are x, y in S^1 with a = x*b = b*y and x*a = a.  On any
# semigroup this relation is reflexive, antisymmetric and transitive, and
# on a group it collapses to equality.


class OrderRelation(NamedTuple):
    order: int
    pairs: frozenset[tuple[int, int]]


@derived
def natural_order(s: FiniteSemigroup) -> OrderRelation:
    """All pairs (a, b) with a <= b, reflexive pairs included.

    Without adjoining an identity, in |E| * n lookups for the idempotents
    E and n^2 for the right ideals.  Fix b.  A left witness x = 1 forces
    a = b.  A left witness x in S gives a = x*b with x*a = a, so
    x**m * b = x**(m-1) * a = a for every m >= 1; the power x**m that is
    idempotent (every element of a finite semigroup has one) is an e in E
    with a = e*b.  Conversely e*(e*b) = e*b for e in E.  So the first
    half of the definition holds exactly on L(b) = {b} | {e*b : e in E}.
    The right witness y ranges over S^1, so the second half holds exactly
    on b*S^1 = row(b) | {b}.  The lower set of b is their intersection.
    The tests keep the brute force over all witness pairs as the oracle.
    """
    t = s.table
    idempotent_rows = [t[e] for e in idempotents(s)]
    pairs = []
    for b in s.elements():
        right = set(t[b])
        right.add(b)
        below = {row[b] for row in idempotent_rows}
        below &= right
        below.add(b)
        pairs.extend((a, b) for a in below)
    return OrderRelation(s.order, frozenset(pairs))


# ---------------------------------------------------------------------------
# Green's equivalences R, L, D and H on a finite semigroup.
#
# a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
# the composition R;L, which in the finite case is already the join of R
# and L (and equals L;R).

Partition = tuple[frozenset[int], ...]


class GreenStructure(NamedTuple):
    r_classes: Partition
    l_classes: Partition
    d_classes: Partition
    h_classes: Partition


def _group_by(keys: list) -> Partition:
    classes: dict = {}
    for a, key in enumerate(keys):
        classes.setdefault(key, []).append(a)
    parts = sorted(classes.values(), key=min)
    return tuple(frozenset(part) for part in parts)


def _strong_components(successors: list) -> list[int]:
    """The strongly connected component of every vertex of the graph
    a -> successors[a], as an index, by Tarjan's algorithm.  It keeps its
    own stack of half-scanned vertices: on the 256-element monoid t4 a
    recursive search would pass the interpreter's recursion limit."""
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    component = [-1] * n
    stack: list[int] = []
    visited = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            v, pending = path[-1]
            for w in pending:
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(successors[w])))
                    break
                if component[w] < 0:  # w is on the stack
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = components
                        if w == v:
                            break
                    components += 1
    return component


@derived
def green_structure(s: FiniteSemigroup) -> GreenStructure:
    """Compute all four partitions.  They are kept on the semigroup
    (``derived``) and computed once per instance: the structure
    is reused heavily when many norms are checked against one table.

    Over a generating set G (``s.generators``), b lies in aS^1 iff b is
    reached from a along the right Cayley graph a -> a*g, g in G, since
    every element of S is a product of elements of G.  So the R-classes
    are the strongly connected components of that graph, and the
    L-classes those of the left graph a -> g*a (Froidure & Pin 1997,
    "Algorithms for computing finite semigroups").  H is the pair of an
    element's R- and L-class.  D is the join of R and L: a union-find
    over R-classes merges the R-classes of each L-class.  The cost is
    |G| * n edges for each graph, against n^2 for the principal ideals.
    """
    t = s.table
    gens = s.generators
    left_rows = [t[g] for g in gens]
    r_class = _strong_components([[row[g] for g in gens] for row in t])
    l_class = _strong_components([[row[a] for row in left_rows] for a in s.elements()])

    parent = list(range(s.order))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    first_r_class: dict[int, int] = {}
    for rc, lc in zip(r_class, l_class):
        parent[find(rc)] = find(first_r_class.setdefault(lc, rc))
    d_class = [find(rc) for rc in r_class]
    return GreenStructure(
        _group_by(r_class),
        _group_by(l_class),
        _group_by(d_class),
        _group_by(list(zip(r_class, l_class))),
    )


# ---------------------------------------------------------------------------
# Text format: first line is the order n, then n lines of n space-separated
# 0-based indices, then optionally a line "labels:" followed by n rational
# or decimal labels (same line after the colon or on following lines).


def parse_cayley_text(text: str) -> tuple[list[list[int]], list[Fraction] | None]:
    """Parse the Cayley-table text format into (rows, labels).

    Purely syntactic: the result may still fail ``validate``.  Blank lines
    are ignored.  Raises ParseError with 1-based line and column.

    The text is read a line at a time, and a row is kept once its n entries
    are read, wherever the lines break.  The errors are those of a reader
    of every token first, in its order: a missing or bad order, the entry
    count, the first extra token, the first entry that is not an integer,
    the label count and the first bad label.

    Entries are looked up among the spellings ``str(i)`` of 0 to n - 1, on
    which ``int`` gives i.  A line with a word the lookup misses (a leading
    zero or sign, another script's digits, an out-of-range value or no
    integer) goes through ``int``, which decides its values and its error.
    A text shorter than n * n characters cannot hold n * n entries: its
    words are only counted, and no lookup is built.
    """
    lines = text.splitlines()
    last_line = max(len(lines), 1)
    n = lookup = labels_line = error = None
    rows, row, found = [], [], 0  # row: the entries read after the last complete row
    for line_no, line in enumerate(lines, start=1):
        words = line.split()
        if not words:
            continue
        if words[0].startswith("labels:"):
            labels_line = line_no
            break
        start = 0
        if n is None:
            n = word_value(int, line_no, line, words, 0, what="an integer")
            if n <= 0:
                raise ParseError(f"order must be positive, got {n}", line_no, column(line, 0))
            lookup = {str(i): i for i in range(n)} if n * n <= len(text) else None
            start = 1
        count = len(words) - start
        if found <= n * n < found + count:
            k = start + n * n - found
            error = ParseError(f"unexpected extra token {words[k]!r}", line_no, column(line, k))
        found += count
        if lookup is None or error:
            continue
        try:
            entries = list(map(lookup.__getitem__, words[start:]))
        except KeyError:
            try:
                entries = [
                    word_value(int, line_no, line, words, k, what="an integer")
                    for k in range(start, len(words))
                ]
            except ParseError as exc:
                error = exc
                continue
        row += entries
        full = len(row) - len(row) % n
        rows += [row[i : i + n] for i in range(0, full, n)]
        del row[:full]

    if n is None:
        raise ParseError("missing table order", last_line, 1)
    if found < n * n:
        raise ParseError(
            f"expected {printable(n * n)} table entries, found {found}", last_line, 1
        )
    if error:
        raise error
    if labels_line is None:
        return rows, None
    # The section runs from its line to the end.  Blanking that line up to
    # the colon keeps every column where it was.
    head = lines[labels_line - 1]
    cut = head.index("labels:") + len("labels:")
    section = [" " * cut + head[cut:], *lines[labels_line:]]
    count = sum(len(line.split()) for line in section)
    if count != n:
        first = next(spots(section, labels_line))[0] if count else last_line
        raise ParseError(f"expected {n} labels, found {count}", first, 1)
    return rows, [word_value(rational, *spot) for spot in spots(section, labels_line)]


def load_cayley_table(path) -> FiniteSemigroup:
    """Read and validate a semigroup from a Cayley-table text file.  The
    text is dropped once parsed, before the rows are copied into the
    semigroup's table."""
    parsed = parse_cayley_text(read_text(path))
    return FiniteSemigroup(*parsed)


# ---------------------------------------------------------------------------
# Small stock semigroups, constructible by name.
#
# Transformations compose left to right: (f*g)(x) = g(f(x)).  For the
# groups either convention gives the same table up to relabeling; for the
# transformation monoids the convention is fixed here once and used
# everywhere.


def _compose_table(maps: list[tuple[int, ...]]) -> FiniteSemigroup:
    index = {f: i for i, f in enumerate(maps)}
    table = tuple(
        tuple(index[tuple(g[f[x]] for x in range(len(f)))] for g in maps) for f in maps
    )
    return FiniteSemigroup(table)


def cyclic_group(n: int) -> FiniteSemigroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return FiniteSemigroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def symmetric_group(n: int) -> FiniteSemigroup:
    """All permutations of n points in lexicographic order."""
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    return _compose_table(sorted(itertools.permutations(range(n))))


def full_transformation_monoid(n: int) -> FiniteSemigroup:
    """All n^n self-maps of n points in lexicographic order."""
    if n < 1:
        raise ValueError("transformation monoid needs n >= 1")
    return _compose_table(sorted(itertools.product(range(n), repeat=n)))


def left_zero_semigroup(n: int) -> FiniteSemigroup:
    """a*b = a for all a, b."""
    if n < 1:
        raise ValueError("left zero semigroup needs n >= 1")
    return FiniteSemigroup(tuple(tuple(i for _ in range(n)) for i in range(n)))


def null_semigroup(n: int) -> FiniteSemigroup:
    """Every product equals element 0, the two-sided zero."""
    if n < 1:
        raise ValueError("null semigroup needs n >= 1")
    return FiniteSemigroup(tuple(tuple(0 for _ in range(n)) for _ in range(n)))


BUILTIN_SEMIGROUPS = {
    "z2": lambda: cyclic_group(2),
    "c4": lambda: cyclic_group(4),
    "s3": lambda: symmetric_group(3),
    "t2": lambda: full_transformation_monoid(2),
    "t3": lambda: full_transformation_monoid(3),
    "leftzero3": lambda: left_zero_semigroup(3),
    "null4": lambda: null_semigroup(4),
}


@cache
def builtin_semigroup(name: str) -> FiniteSemigroup:
    """The stock semigroup ``name``, one shared instance per name, so the
    structure derived on it is computed once per process."""
    try:
        factory = BUILTIN_SEMIGROUPS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SEMIGROUPS))
        raise ValueError(f"unknown semigroup name {name!r} (known: {known})") from None
    return factory()
