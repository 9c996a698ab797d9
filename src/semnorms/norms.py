"""Norm tables on finite semigroups.

A norm assigns a nonnegative rational to every element; it is
submultiplicative when value(a*b) <= value(a) * value(b) for every pair.
Two closing sections follow: the laws P2-P8 that every submultiplicative
norm obeys, run as one suite behind that check, and the axiom systems of
the literature that a norm table is classified against.  All checks here
are exhaustive and exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, lcm
from operator import ge, itemgetter, lt
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DEFAULT_VALUE_POOL,
    NOTATIONS,
    Immutable,
    NormDomainError,
    ParseError,
    check_budget,
    exact_text,
    exact_values,
    printable,
    rational,
    read_text,
    word_value,
)
from .semigroups import (
    FiniteSemigroup,
    green_structure,
    idempotents,
    inverse_sets,
    is_regular,
    natural_order,
    zero_elements,
)


class NormTable(Immutable):
    """Immutable tuple of nonnegative exact rationals, one per element.  A
    value that is not a finite rational, such as an infinity or a NaN, or
    that is negative, raises NormDomainError naming its element."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        # A Fraction is kept as it is, and its sign is its numerator's: the
        # table of a t4 draw is built in 0.06 ms instead of 0.7 ms.
        vals = exact_values(values, "norm value at element {}".format, NormDomainError)
        if any(v.numerator < 0 for v in vals):
            i = next(i for i, v in enumerate(vals) if v.numerator < 0)
            raise NormDomainError(
                f"norm value at element {i} is negative: {printable(vals[i], str)}"
            )
        object.__setattr__(self, "values", vals)

    def _key(self):
        return self.values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"NormTable({[printable(v, str) for v in self.values]})"


def _coerce(s: FiniteSemigroup, values) -> NormTable:
    norm = values if isinstance(values, NormTable) else NormTable(values)
    if len(norm) != s.order:
        raise ValueError(f"norm table has {len(norm)} values for order {s.order}")
    return norm


class SubmultiplicativityVerdict(NamedTuple):
    """PASS, or the first violating pair in row-major scan order together
    with the three values value(a*b), value(a), value(b)."""

    ok: bool
    witness: tuple[int, int, Fraction, Fraction, Fraction] | None = None

    def to_jsonable(self) -> dict:
        if self.ok:
            return {"ok": True, "witness": None}
        a, b, vab, va, vb = self.witness
        return {
            "ok": False,
            "witness": {
                "a": a,
                "b": b,
                "value_ab": str(vab),
                "value_a": str(va),
                "value_b": str(vb),
            },
        }


def check_submultiplicative(s: FiniteSemigroup, values) -> SubmultiplicativityVerdict:
    """Exhaustive check of value(a*b) <= value(a)*value(b) over all pairs.

    The scan compares integers, not Fractions.  With value(x) = p[x]/q[x]
    in lowest terms and every q[x] > 0, multiplying both sides by the
    positive q[ab]*q[a]*q[b] gives the equivalent, exact test
    p[ab]*q[a]*q[b] <= p[a]*p[b]*q[ab].  Pairs are visited in row-major
    order and the witness is read off the table at the first violation,
    so it is the same first pair the Fraction scan would report.

    Cross-multiplying keeps each comparison as small as the values
    involved.  Scaling the whole table to one common denominator instead
    makes every comparison as large as the product of all denominators:
    on the 256-element full transformation monoid with values 2 + 1/p for
    256 distinct 7-digit primes p (a passing table, so every pair is
    visited), that scan took 3.4 s, the Fraction scan 0.21 s and this one
    0.012 s (Python 3.11, one core of a 2-core Xeon).

    A table of k <= n / 8 distinct values is checked by value classes
    first (``_rows_to_scan``): a pair (a, b) whose classes x, y have x*y
    at least the top value M passes, as value(a*b) <= M, so it is
    skipped, and a constant table of value 0 or at least 1 reads no
    column.  The other pairs are read by C-level gathers over the rows.
    They name the first row with a violation, and the pair scan above,
    run on that row alone, reads off the same witness; the common
    denominator of the classes is paid on k values, not on n**2 pairs.
    On t4 the gate of a fuzz draw from 0, 1/2, 1, 2, which the envelope
    makes constant, takes 0.25 ms against 7 ms over every pair; on a
    null table of order 256 with 256 distinct values the pair scan runs
    as before (Python 3.11, one core of a 2-core Xeon).

    A negative entry raises NormDomainError before any pair is examined;
    that is a domain error, not a FAIL.
    """
    norm = _coerce(s, values)
    v = norm.values
    num, den = _numerators_denominators(v)
    for a in _rows_to_scan(s.table, num, den, _at_most_product):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(s.table[a]):
            if num[ab] * qa * den[b] > pa * num[b] * den[ab]:
                return SubmultiplicativityVerdict(False, (a, b, v[ab], v[a], v[b]))
    return SubmultiplicativityVerdict(True)


def _numerators_denominators(values: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """Lowest-terms numerators and (positive) denominators of ``values``."""
    return [x.numerator for x in values], [x.denominator for x in values]


# The plans by value classes pay k**2 operations on class values, on a
# common denominator that grows with k, and C-level gathers of at most
# n**2 entries; the pair loops pay n**2 cross-multiplied products.  A
# table takes the class plan when it has at most n / share distinct
# values.  The gate's worst case is a null table, on which no class pair
# is pruned: against the pair scan it took 0.97-0.99 times as long at
# k = n / 8 on orders 27, 64 and 256, and 1.13-1.43 times at k = n / 4.
# An envelope round by classes took half the time of one over pairs at
# k = n / 4 on t4 (values in [1, 2)), and as long on t3.
_SCAN_SHARE = 8
_ROUND_SHARE = 4


def _value_classes(num: list[int], den: list[int], share: int):
    """The table p/q grouped by equal value, as (scaled, unit, cls,
    members): the k distinct values in increasing order as integers over
    their common denominator ``unit``, the index cls[e] of e's value, and
    the elements of each class in increasing order.  None when k exceeds
    n / share and the pair loop is the cheaper plan."""
    keys = list(zip(num, den))
    distinct = set(keys)
    if len(distinct) * share > len(keys):
        return None
    unit = lcm(*{q for _, q in distinct})
    scale = {key: key[0] * (unit // key[1]) for key in distinct}
    scaled = sorted(scale.values())
    index = {x: j for j, x in enumerate(scaled)}
    cls = list(map(index.__getitem__, map(scale.__getitem__, keys)))
    members: list[list[int]] = [[] for _ in scaled]
    for e, j in enumerate(cls):
        members[j].append(e)
    return scaled, unit, cls, members


def _gather(part: list[int]) -> itemgetter:
    """A getter for the entries of a row at ``part``, always as a tuple:
    the first index is repeated, since ``itemgetter`` of one index returns
    the bare item.  A set of the entries does not change, and a list of
    bounds per entry repeats its first bound to match."""
    return itemgetter(*part, part[0])


def _at_most_product(bounds: list[int], unit: int, sx: int, sy: int) -> range:
    """The classes at most x*y: value(a*b) <= value(a)*value(b)."""
    return range(bisect_right(bounds, sx * sy))


def _rows_to_scan(table, num, den, allowed) -> Sequence[int]:
    """The rows in which a row-major pair scan of the law "the class of
    value(a*b) lies in ``allowed(bounds, unit, sx, sy)``" must look for
    its first violation: every row when ``_value_classes`` leaves the
    table to the pair scan, and otherwise the first row that breaks the
    law, or none.

    By value classes, values are compared in units of 1/unit**2, in which
    class j is ``bounds[j]`` and the product of classes x and y is
    sx*sy.  ``allowed`` gives, per class pair, the range of class indices
    that satisfy the law there; a pair whose range holds all k classes
    cannot break it and is skipped.  Each row of class x reads only the
    columns of the other pairs, by a C-level gather, and compares their
    products' classes with the ends of the ranges by C-level ``map``s;
    the lower ends only when one of them is above 0.
    """
    classes = _value_classes(num, den, _SCAN_SHARE)
    if classes is None:
        return range(len(table))
    scaled, unit, cls, members = classes
    bounds = [x * unit for x in scaled]
    checks = []
    for sx in scaled:
        columns: list[int] = []
        starts: list[int] = []
        stops: list[int] = []
        for sy, part in zip(scaled, members):
            r = allowed(bounds, unit, sx, sy)
            if len(r) < len(scaled):
                columns += part
                starts += [r.start] * len(part)
                stops += [r.stop] * len(part)
        if columns:
            checks.append((_gather(columns), stops + stops[:1], any(starts) and starts + starts[:1]))
        else:
            checks.append(None)
    rank = cls.__getitem__
    for a, row in enumerate(table):
        check = checks[cls[a]]
        if check is None:
            continue
        get, stops, starts = check
        found = list(map(rank, get(row)))
        if not all(map(lt, found, stops)) or starts and not all(map(ge, found, starts)):
            return (a,)
    return ()


def zero_set(s: FiniteSemigroup, values) -> frozenset[int]:
    norm = _coerce(s, values)
    return frozenset(a for a in s.elements() if norm[a] == 0)


# ---------------------------------------------------------------------------
# Random norms.


def submultiplicative_envelope(s: FiniteSemigroup, values) -> NormTable:
    """Largest submultiplicative table dominated pointwise by ``values``.

    Equivalently: the infimum I(a), over all factorizations
    a = s1*...*sk, of the product of the input values.  I is
    submultiplicative (concatenate factorizations) and lies below the
    input (take k = 1), and it lies above every submultiplicative table
    below the input, so it is the largest one.  It is computed by
    synchronous rounds of value(a*b) <- min(value(a*b), value(a)*value(b)),
    on integers: each value is a lowest-terms numerator and denominator,
    a candidate is compared by cross-multiplying, as in
    check_submultiplicative, and a gcd is taken only when a value is
    written.  Every round writes exact values.  With n = s.order and
    R = ceil(log2 n) = (n - 1).bit_length(), ``_envelope_rounds`` then
    writes 0 over every value that a round numbered above R lowered, in
    one pass over the n values, and the loop ends at the first round in
    which nothing changes.  Four arguments make that exact and bounded.

    - Excision.  A factorization with more than n factors has two equal
      prefix products.  Call the factors between them a segment; cutting
      it out, or repeating it, leaves a factorization of the same
      element.  If the segment's value product is >= 1, cutting it out
      does not raise the product.  If it is < 1, repeating it drives the
      product to 0, so I(a) = 0.  Hence a nonzero I(a) is reached by a
      factorization of at most n factors.
    - The round rule.  After r rounds, each value is at most the least
      product over factorizations of at most 2**r factors: split one
      into two halves of at most 2**(r-1) factors each, and round r
      compares the product of the two values that bound them.  No value
      ever goes below I, by induction on rounds.  An exact write is
      value(a)*value(b) >= I(a)*I(b) >= I(a*b), as I is
      submultiplicative.  After R rounds, 2**R >= n, so every nonzero
      I(a) has been reached and no candidate can go below it; a value
      that falls in a later round was therefore above I(a), so I(a) = 0
      and writing 0 over it is exact.  That pass in ``_envelope_rounds``
      is the rule's one place: the round functions write exact values
      whatever the round.  A round with no change leaves
      value(a*b) <= value(a)*value(b) for every pair: a submultiplicative
      table below the input, hence at most I, and not below I, hence I.
    - Pumped idempotents.  After each round, every idempotent e whose
      value lies strictly between 0 and 1 is written as 0.  Values never
      go below I, so I(e) < 1, and e = e**k for every k gives
      I(e) <= I(e)**k -> 0, so I(e) = 0 and the write is exact.  The rule
      writes 0 only where I = 0, so the round rule above still holds.
      It fires only in a round that already changed: an idempotent that
      enters a round valued in (0, 1) is lowered in it by its own square
      e*e = e, and one that leaves a round so valued was written in it.
      Without the rule such a value keeps squaring through all R exact
      rounds, its integers doubling in length each round.
    - Bounded work.  After round R the pass in ``_envelope_rounds``
      turns every value a round lowered into 0, so each round that
      changes anything ends with at least one new zero, at most n more
      rounds change anything, and the loop runs at most R + n + 1 rounds
      of n**2 candidates.  Every stored nonzero value is a product of at
      most 2**R < 2n input values, which bounds the size of every
      integer.  An exact write in a later round is a product of two
      stored values, of at most 2**(R + 1) inputs, and lasts only until
      the pass at the end of its round.

    A round runs by value classes when the table has at most n / 4
    distinct values (``_value_classes``, ``_class_round``), and over every
    pair otherwise (``_pair_round``); both write the same values.  By
    classes, a pair of classes whose product is at least the top value is
    skipped, since it lowers nothing, so a round on a constant table of
    value 0 or at least 1 costs O(n).  On the 256-element full
    transformation monoid a draw from the pools 0, 1/2, 1, 2 / 1/2, 1, 2 /
    1, 2, 3 takes 1.2 / 2.0 / 1.6 ms, against 19 / 26 / 21 ms over every
    pair in each round (medians of 9 draws, Python 3.11, one core of a
    2-core Xeon); every round of those pools' draws on t3 and t4 ran by
    classes.
    """
    return _envelope_rounds(s, values)[0]


def _envelope_rounds(s: FiniteSemigroup, values) -> tuple[NormTable, int]:
    """``submultiplicative_envelope`` and the number of rounds it ran.
    Each round runs by value classes or by pairs, chosen from that
    round's number of distinct values (``_value_classes``), and writes
    exact values; after a round numbered above R, every value it lowered
    is written as 0 here, and then every idempotent valued in (0, 1)."""
    norm = _coerce(s, values)
    num, den = _numerators_denominators(norm.values)
    exact_rounds = (s.order - 1).bit_length()
    rounds = 0
    while True:
        rounds += 1
        new_num, new_den = list(num), list(den)
        classes = _value_classes(num, den, _ROUND_SHARE)
        if classes is None:
            changed = _pair_round(s.table, num, den, new_num, new_den)
        else:
            changed = _class_round(s.table, classes, new_num, new_den)
        if rounds > exact_rounds:
            for c, (p, q) in enumerate(zip(new_num, new_den)):
                if p * den[c] < num[c] * q:
                    new_num[c], new_den[c] = 0, 1
        for e in idempotents(s):
            if 0 < new_num[e] < new_den[e]:
                new_num[e], new_den[e] = 0, 1
        if not changed:
            keys = list(zip(num, den))
            fractions = {key: Fraction(*key) for key in set(keys)}
            return NormTable(map(fractions.__getitem__, keys)), rounds
        num, den = new_num, new_den


def _pair_round(table, num, den, new_num, new_den) -> bool:
    """One envelope round over every pair: value(a*b) falls to
    value(a)*value(b) when that is lower.  Returns whether anything fell."""
    changed = False
    for a, row in enumerate(table):
        pa, qa = num[a], den[a]
        for b, c in enumerate(row):
            p, q = pa * num[b], qa * den[b]
            if p * new_den[c] < new_num[c] * q:
                changed = True
                g = gcd(p, q)
                new_num[c], new_den[c] = p // g, q // g
    return changed


def _class_round(table, classes, new_num, new_den) -> bool:
    """The same round by value classes.  The class pairs (x, y) with
    x*y below the top value M are taken by increasing x*y (pairs with
    x*y >= M lower nothing, as every value is at most M).  The products
    a*b over a in class x and b in class y are gathered in C, and those
    still pending fall to x*y: an element is pending while its value is
    above the current x*y and no smaller x*y has lowered it, so the first
    x*y to reach it is the least, which is the pair round's write."""
    scaled, unit, cls, members = classes
    bounds = [x * unit for x in scaled]
    square = unit * unit
    pairs = sorted(
        (sx * sy, x, y)
        for x, sx in enumerate(scaled)
        for y, sy in enumerate(scaled)
        if sx * sy < bounds[-1]
    )
    rows = [[table[a] for a in part] for part in members]
    getters = [_gather(part) for part in members]
    pending = set(range(len(cls)))
    settled = 0
    changed = False
    for z, x, y in pairs:
        while bounds[settled] <= z:
            pending.difference_update(members[settled])
            settled += 1
        if not pending:
            break
        hits = pending.intersection(chain.from_iterable(map(getters[y], rows[x])))
        if not hits:
            continue
        pending -= hits
        changed = True
        g = gcd(z, square)
        p, q = z // g, square // g
        for c in hits:
            new_num[c], new_den[c] = p, q
    return changed


# Most table pairs the draws after the first of one call of
# ``random_submultiplicative_norms`` may visit, estimated up front as
# (count - 1) * n**2 on a table of order n.  The first draw is always
# admitted: it costs a few passes over the table the caller has already
# loaded.  A draw reads at most every pair of its table in each round of
# its envelope (one round when the raw draw is already submultiplicative,
# two to four on the builtins and t4 over eight pools, near-one pools
# among them; R + n + 1 at most) and in the suite's gate; by value
# classes both read only the pairs whose class product is below the top
# value, none at all on a constant table of value 0 or at least 1.  The
# estimate stays the worst case, a table of many distinct values.  The
# constant keeps the largest admitted counts at 96 draws on t4, 8574 on
# t3 and one on t5.
FUZZ_WORK_BUDGET = 6_250_000


class NormBatch(NamedTuple):
    """Output of the random generator, with its sampling statistics.

    Every draw yields a table, so ``attempts`` always equals
    ``requested``; ``repaired`` counts the draws that were not
    submultiplicative, so that their envelope differs from them."""

    norms: tuple[NormTable, ...]
    requested: int
    attempts: int
    repaired: int


def random_submultiplicative_norms(
    s: FiniteSemigroup,
    count: int,
    seed: int = 0,
    value_pool: Sequence = DEFAULT_VALUE_POOL,
) -> NormBatch:
    """Draw ``count`` random submultiplicative norm tables, deterministically
    for a given seed.

    Each draw assigns every element, in element order, a uniform value
    from ``value_pool`` and yields its submultiplicative envelope, so every
    draw yields a table.  Rejecting failing draws instead would stall: on
    tables of order n a draw passes with a probability that decays
    exponentially in n^2, and already around order 6 hardly any does.

    The envelope is a draw's only scan.  Its first round writes nothing
    exactly when the draw is submultiplicative (an idempotent valued in
    (0, 1) is lowered there by e*e = e), so ``repaired`` counts the draws
    whose envelope ran more than one round.  It returns only after a full
    round that wrote nothing, which decided value(a*b) <= value(a)*value(b)
    on every pair of exactly the table it returns (by classes, a pair
    whose class product is at least the top value holds at sight): that
    round is the re-verification.  A call whose draws after the first
    would visit more than FUZZ_WORK_BUDGET table pairs raises ValueError
    before any draw.
    """
    pool = exact_values(value_pool, "value pool entry {}".format, NormDomainError)
    if not pool:
        raise ValueError("value pool is empty")
    for v in pool:
        if v < 0:
            raise NormDomainError(
                f"value pool contains a negative entry: {printable(v, str)}"
            )
    if not isinstance(count, int):
        raise ValueError(f"count must be an integer, got {printable(count)}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    check_budget(
        (count - 1) * s.order**2,
        FUZZ_WORK_BUDGET,
        f"{printable(count)} random norms on {s.order} elements visit",
        "table pairs after the first draw",
    )
    rng = random.Random(seed)
    norms: list[NormTable] = []
    repaired = 0
    for _ in range(count):
        norm, rounds = _envelope_rounds(s, [rng.choice(pool) for _ in s.elements()])
        norms.append(norm)
        repaired += rounds > 1
    return NormBatch(tuple(norms), count, count, repaired)


# ---------------------------------------------------------------------------
# Text format: one nonnegative rational (p/q or decimal) per line.


def parse_norm_text(text: str) -> NormTable:
    """Read a line at a time: the first line with more than one word, or
    with a value that is not a nonnegative rational, raises ParseError."""
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if len(words) > 1:
            raise ParseError("expected one value per line", line_no, 1)
        if words:
            values.append(word_value(_norm_value, line_no, line, words, 0))
    return NormTable(values)


def _norm_value(token: str) -> Fraction:
    value = rational(token)
    if value < 0:
        raise ValueError(f"norm values must be nonnegative, got {value}")
    return value


def load_norm_table(path) -> NormTable:
    return parse_norm_text(read_text(path))


# ---------------------------------------------------------------------------
# Structural laws that every submultiplicative norm obeys, as one suite.
#
# The suite first verifies that the table is submultiplicative at all; if
# not, every law's hypothesis is void and its verdict is INAPPLICABLE
# rather than a vacuous PASS.  A FAIL verdict always carries a witness
# tuple that re-evaluates to a genuine violation on its own.
#
# The seven laws, in suite order:
#
# P2  an idempotent's value is 0 or at least 1
# P3  the zero set is closed under products
# P4  a zero value spreads to the whole Green D-class
# P5  if value(a) != 0 and b is an inverse of a then value(b) >= 1/value(a)
# P6  on a group with no zero values, every value is at least 1
# P7  a one-sided zero element with nonzero value forces every value >= 1
# P8  below b in the natural order, value(b) = 0 forces value(a) = 0

PASS = "PASS"
FAIL = "FAIL"
INAPPLICABLE = "INAPPLICABLE"

_NOT_SUBMULTIPLICATIVE = "norm table is not submultiplicative"


class PropositionVerdict(NamedTuple):
    proposition: str
    status: str
    witness: tuple | None = None
    detail: str = ""

    def to_jsonable(self) -> dict:
        out = {"proposition": self.proposition, "status": self.status}
        if self.witness is not None:
            out["witness"] = [
                str(x) if isinstance(x, Fraction) else x for x in self.witness
            ]
        if self.detail:
            out["detail"] = self.detail
        return out


def _scan_idempotent_dichotomy(s, norm):
    v = norm.values
    for e in sorted(idempotents(s)):
        if 0 < v[e] < 1:
            return PropositionVerdict("P2", FAIL, witness=(e, v[e]))
    return PropositionVerdict("P2", PASS)


def _scan_zero_set_closed(s, norm):
    zeros = zero_set(s, norm)
    v = norm.values
    # When every value is 0 the zero set is S, which holds every product.
    ordered = sorted(zeros) if len(zeros) < s.order else ()
    for a in ordered:
        for b in ordered:
            ab = s.table[a][b]
            if ab not in zeros:
                return PropositionVerdict("P3", FAIL, witness=(a, b, ab, v[ab]))
    detail = (
        "zero set empty (vacuously closed)"
        if not zeros
        else f"zero set has {len(zeros)} elements"
    )
    return PropositionVerdict("P3", PASS, detail=detail)


def _mixed(v) -> bool:
    """Whether ``v`` holds a zero and a nonzero value.  P4 computes Green
    classes only then, and P8 the natural order."""
    return not all(v) and any(v)


def _scan_zero_spreads_over_d_class(s, norm):
    v = norm.values
    # A class holding a zero and a nonzero value needs both in the table.
    if not _mixed(v):
        return PropositionVerdict("P4", PASS)
    for part in green_structure(s).d_classes:
        block = sorted(part)
        zeros = [a for a in block if v[a] == 0]
        if not zeros:
            continue
        nonzeros = [b for b in block if v[b] != 0]
        if nonzeros:
            # Equivalently, in contrapositive form: value(a) != 0 forces
            # value(b) != 0 across the D-class; one scan covers both.
            return PropositionVerdict(
                "P4", FAIL, witness=(zeros[0], nonzeros[0], v[nonzeros[0]])
            )
    return PropositionVerdict("P4", PASS)


def _scan_inverse_lower_bound(s, norm):
    v = norm.values
    # No nonzero value(a) to bound from; or value(b) >= 1 >= 1/value(a).
    if not any(v) or min(v) >= 1:
        return PropositionVerdict("P5", PASS)
    for a, inverses in enumerate(inverse_sets(s)):
        if v[a] == 0:
            continue
        bound = 1 / v[a]
        for b in inverses:
            if v[b] < bound:
                return PropositionVerdict("P5", FAIL, witness=(a, b, v[a], v[b]))
    return PropositionVerdict("P5", PASS)


def _scan_group_lower_bound(s, norm):
    if len(idempotents(s)) != 1 or not is_regular(s):
        return PropositionVerdict("P6", INAPPLICABLE, detail="not a group")
    v = norm.values
    if any(v[a] == 0 for a in s.elements()):
        return PropositionVerdict(
            "P6", INAPPLICABLE, detail="zero values present; the law assumes none"
        )
    for a in s.elements():
        if v[a] < 1:
            return PropositionVerdict("P6", FAIL, witness=(a, v[a]))
    return PropositionVerdict("P6", PASS)


def _scan_zero_element_bound(s, norm):
    v = norm.values
    left, right, _ = zero_elements(s)
    carriers = sorted(z for z in left | right if v[z] != 0)
    if not carriers:
        detail = (
            "no one-sided zero elements"
            if not (left | right)
            else "every one-sided zero has value 0"
        )
        return PropositionVerdict("P7", INAPPLICABLE, detail=detail)
    for x in s.elements():
        if v[x] < 1:
            return PropositionVerdict("P7", FAIL, witness=(carriers[0], x, v[x]))
    return PropositionVerdict("P7", PASS)


def _scan_order_zero_downward(s, norm):
    # The least violating pair is the one a scan in sorted order meets first.
    v = norm.values
    # A violation pairs a zero value(b) with a nonzero value(a).
    if not _mixed(v):
        return PropositionVerdict("P8", PASS)
    violations = [(a, b) for a, b in natural_order(s).pairs if v[b] == 0 and v[a] != 0]
    if violations:
        a, b = min(violations)
        return PropositionVerdict("P8", FAIL, witness=(a, b, v[a]))
    return PropositionVerdict("P8", PASS)


# The one registry, in suite order: law id to its raw scan, which assumes
# a submultiplicative norm.  SUITE_IDS and the suite are read off it.
_SCANS = {
    "P2": _scan_idempotent_dichotomy,
    "P3": _scan_zero_set_closed,
    "P4": _scan_zero_spreads_over_d_class,
    "P5": _scan_inverse_lower_bound,
    "P6": _scan_group_lower_bound,
    "P7": _scan_zero_element_bound,
    "P8": _scan_order_zero_downward,
}

SUITE_IDS = tuple(_SCANS)


def _gated_suite(s: FiniteSemigroup, values):
    """The submultiplicativity verdict, and every law's scan behind it as
    a single gate.  The gate depends only on the table and the norm, never
    on the law, so one check decides it for every law at once;
    ``norm-check`` reports the verdict itself as well."""
    norm = _coerce(s, values)
    gate = check_submultiplicative(s, norm)
    if not gate.ok:
        return gate, tuple(
            PropositionVerdict(prop_id, INAPPLICABLE, detail=_NOT_SUBMULTIPLICATIVE)
            for prop_id in _SCANS
        )
    return gate, tuple(scan(s, norm) for scan in _SCANS.values())


def run_suite(s: FiniteSemigroup, values) -> tuple[PropositionVerdict, ...]:
    """The verdicts of P2..P8, in suite order.  Each is INAPPLICABLE when
    the norm is not submultiplicative, since the law's hypothesis is void."""
    return _gated_suite(s, values)[1]


# ---------------------------------------------------------------------------
# Classify a norm table against normed-semigroup axiom systems from the
# literature.
#
# Six published definitions are covered, keyed by author name.  Each axiom
# gets one of five verdicts:
#
# * ``holds`` / ``fails`` for axioms that are finitely checkable on a
#   Cayley table (fails always carries a concrete witness),
# * ``not_finitely_checkable`` for axioms quantifying over data a finite
#   table does not carry (generator systems, sublevel-set finiteness on
#   infinite carriers, a scalar action),
# * ``inapplicable`` (``NO_SUCH_ELEMENT``) when the axiom mentions a
#   distinguished element the table lacks (an identity, or a two-sided
#   zero),
# * ``ambiguous`` for the one axiom whose original statement does not pin
#   down a single finite reading.
#
# The ``notation`` tag says how the single binary operation is written.
# It changes which distinguished element the symbol ``0`` denotes in the
# zero-normalization axiom: the two-sided zero element under
# ``multiplicative`` notation, the neutral element under ``additive``.

HOLDS = "holds"
FAILS = "fails"
NOT_FINITELY_CHECKABLE = "not_finitely_checkable"
NO_SUCH_ELEMENT = "inapplicable"
AMBIGUOUS = "ambiguous"

# The highest exponent n at which power homogeneity is checked; any value
# of 2 or more decides the axiom (see _power_homogeneity).
_TOP_EXPONENT = 5


class AxiomVerdict(NamedTuple):
    definition: str
    axiom: str
    status: str
    witness: tuple | None = None
    note: str = ""

    def to_jsonable(self) -> dict:
        out = {"definition": self.definition, "axiom": self.axiom, "status": self.status}
        if self.witness is not None:
            what = f"the witness value of {self.definition}.{self.axiom}"
            out["witness"] = [
                exact_text(x, what) if isinstance(x, Fraction) else x for x in self.witness
            ]
        if self.note:
            out["note"] = self.note
        return out


class AxiomReport(NamedTuple):
    notation: str
    entries: tuple[AxiomVerdict, ...]

    def to_jsonable(self) -> dict:
        return {
            "notation": self.notation,
            "entries": [e.to_jsonable() for e in self.entries],
        }


# A check decides one axiom from the table: (status, witness, note).
# The two pair scans compare integers: with v[x] = p[x]/q[x] and every
# q[x] > 0, multiplying through by q[ab]*q[a]*q[b] > 0 is exact (see
# check_submultiplicative).  Like that check, they read only the rows
# that ``_rows_to_scan`` leaves them, given the classes that
# satisfy the axiom at each pair of value classes, and build the Fraction
# witness only on the first hit in row-major order.


def _equal_to_product(bounds, unit, sx, sy):
    z = sx * sy
    return range(bisect_left(bounds, z), bisect_right(bounds, z))


def _at_most_sum(bounds, unit, sx, sy):
    return range(bisect_right(bounds, (sx + sy) * unit))


def _multiplicativity(s, v, notation):
    num, den = _numerators_denominators(v)
    for a in _rows_to_scan(s.table, num, den, _equal_to_product):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(s.table[a]):
            if num[ab] * qa * den[b] != pa * num[b] * den[ab]:
                return FAILS, (a, b, v[ab], v[a] * v[b]), ""
    return HOLDS, None, ""


def _subadditivity(s, v, notation):
    num, den = _numerators_denominators(v)
    for a in _rows_to_scan(s.table, num, den, _at_most_sum):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(s.table[a]):
            qb = den[b]
            if num[ab] * qa * qb > (pa * qb + num[b] * qa) * den[ab]:
                return FAILS, (a, b, v[ab], v[a] + v[b]), ""
    return HOLDS, None, ""


def _at_identity(wanted, missing, s, v, notation):
    """v at the identity equals ``wanted``, or inapplicable for ``missing``."""
    e = s.identity()
    if e is None:
        return NO_SUCH_ELEMENT, None, missing
    return (HOLDS, None, "") if v[e] == wanted else (FAILS, (e, v[e]), "")


def _power_homogeneity(s, v, notation):
    """value(a^n) == n * value(a) for n = 2.._TOP_EXPONENT, via repeated
    products.

    On a finite table this decides the axiom for every n: it holds exactly
    when every value is 0.  If value(x^2) = 2 * value(x) for every x, then
    value(x^(2^j)) = 2^j * value(x), so a nonzero value(x) would give the
    powers x^(2^j) infinitely many distinct values, hence make them
    infinitely many distinct elements.  So when some value is nonzero,
    exponent 2 already fails at some element, and any top exponent of 2
    or more gives the same verdict; the top exponent 5 only fixes which
    witness is reported.
    """
    note = f"checked for exponents up to {_TOP_EXPONENT}"
    for a in s.elements():
        power = a
        for n in range(2, _TOP_EXPONENT + 1):
            power = s.table[power][a]
            if v[power] != n * v[a]:
                return FAILS, (a, n, v[power], n * v[a]), note
    return HOLDS, None, note


def _zero_normalization(s, v, notation):
    """Value zero exactly at the element written 0."""
    if notation == "additive":
        special, missing = s.identity(), "no neutral element in the table"
    else:
        special = next(iter(zero_elements(s).two_sided), None)
        missing = "no two-sided zero element in the table"
    if special is None:
        return NO_SUCH_ELEMENT, None, missing
    note = "value zero exactly at the element written 0"
    for a in s.elements():
        if (v[a] == 0) != (a == special):
            return FAILS, (a, v[a], special), note
    return HOLDS, None, note


_CHECKS = {
    "multiplicativity": _multiplicativity,
    "subadditivity": _subadditivity,
    "identity_norm_one": partial(_at_identity, 1, "no two-sided identity in the table"),
    "identity_norm_zero": partial(_at_identity, 0, "the monoid-norm axiom needs an identity"),
    "power_homogeneity": _power_homogeneity,
    "zero_normalization": _zero_normalization,
}

# The axioms of the six definitions, in report order.  One that a finite
# table cannot decide carries its status and the reason as data; any
# other is decided by the check of its name, once per call however many
# definitions share it.
_AXIOMS = (
    ("wegmann", "multiplicativity"),
    ("wegmann", "generator_norms_exceed_one", NOT_FINITELY_CHECKABLE,
     "quantifies over a distinguished generator system"),
    ("wegmann", "generator_norms_diverge", NOT_FINITELY_CHECKABLE,
     "a limit over an infinite generator sequence"),
    ("kryzius", "multiplicativity"),
    ("kryzius", "identity_norm_one"),
    ("kryzius", "sublevel_sets_finite", NOT_FINITELY_CHECKABLE,
     "finiteness of sublevel sets constrains infinite carriers only"),
    ("dikran", "subadditivity"),
    ("dikran", "identity_norm_zero"),
    ("pavlov", "complex_module_norm", NOT_FINITELY_CHECKABLE,
     "needs a scalar action that a Cayley table does not carry"),
    ("shkarin", "power_homogeneity"),
    ("shkarin", "subadditivity"),
    ("valero", "zero_characterization_via_negatives", AMBIGUOUS,
     "the original statement does not pin down one finite reading"),
    ("valero", "subadditivity"),
    ("valero", "zero_normalization"),
)


def classify_literature_axioms(
    s: FiniteSemigroup,
    values,
    notation: str = "multiplicative",
) -> AxiomReport:
    """Evaluate every finitely checkable axiom of the six definitions."""
    if notation not in NOTATIONS:
        raise ValueError(f"notation must be one of {NOTATIONS}, got {notation!r}")
    v = _coerce(s, values).values
    decided = {}
    entries = []
    for definition, axiom, *fixed in _AXIOMS:
        if fixed:
            status, note = fixed
            entries.append(AxiomVerdict(definition, axiom, status, note=note))
            continue
        if axiom not in decided:
            decided[axiom] = _CHECKS[axiom](s, v, notation)
        entries.append(AxiomVerdict(definition, axiom, *decided[axiom]))
    return AxiomReport(notation, tuple(entries))
