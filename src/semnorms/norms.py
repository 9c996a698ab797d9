"""Norm tables on finite semigroups.

A norm assigns a nonnegative rational to every element; it is
submultiplicative when value(a*b) <= value(a) * value(b) for every pair.
All checks here are exhaustive and exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DEFAULT_VALUE_POOL,
    Immutable,
    NormConstructionError,
    NormDomainError,
    ParseError,
    Tokens,
    rational,
)
from .semigroups import FiniteSemigroup, idempotents

NORM_FAMILIES = ("zero", "one", "abs", "exp", "exp_abs")


class NormTable(Immutable):
    """Immutable tuple of nonnegative exact rationals, one per element."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        vals = tuple(Fraction(v) for v in values)
        for i, v in enumerate(vals):
            if v < 0:
                raise NormDomainError(f"norm value at element {i} is negative: {v}")
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
        return f"NormTable({[str(v) for v in self.values]})"

    @classmethod
    def constant(cls, order: int, value) -> "NormTable":
        return cls([Fraction(value)] * order)


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

    A negative entry raises NormDomainError before any pair is examined;
    that is a domain error, not a FAIL.
    """
    norm = _coerce(s, values)
    v = norm.values
    num, den = _numerators_denominators(v)
    for a, row in enumerate(s.table):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(row):
            if num[ab] * qa * den[b] > pa * num[b] * den[ab]:
                return SubmultiplicativityVerdict(False, (a, b, v[ab], v[a], v[b]))
    return SubmultiplicativityVerdict(True)


def _numerators_denominators(values: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """Lowest-terms numerators and (positive) denominators of ``values``."""
    return [x.numerator for x in values], [x.denominator for x in values]


def zero_set(s: FiniteSemigroup, values) -> frozenset[int]:
    norm = _coerce(s, values)
    return frozenset(a for a in s.elements() if norm[a] == 0)


# ---------------------------------------------------------------------------
# Built-in families.


def exp_approx(x: Fraction, terms: int = 32) -> Fraction:
    """Truncated exponential series with exact rational arithmetic.

    For x >= 0 this is the partial sum (a slight underestimate); negative
    arguments go through 1/exp_approx(-x) so the result stays positive.
    """
    x = Fraction(x)
    if x < 0:
        return 1 / exp_approx(-x, terms)
    term = Fraction(1)
    total = Fraction(1)
    for i in range(1, terms + 1):
        term = term * x / i
        total += term
    return total


def builtin_norm(s: FiniteSemigroup, family: str) -> NormTable:
    """Construct one of the stock families.

    zero / one need no labels.  abs is |label|; exp is exp_approx(label)
    and exp_abs is exp_approx(|label|).  Because exp_approx is only an
    approximation of the exponential, every label-derived table is pushed
    through check_submultiplicative afterwards; the guard, not the
    construction, decides validity, and a guard failure raises
    NormConstructionError with the violating pair.
    """
    if family == "zero":
        return NormTable.constant(s.order, 0)
    if family == "one":
        return NormTable.constant(s.order, 1)
    if family not in NORM_FAMILIES:
        raise ValueError(f"unknown norm family {family!r} (known: {', '.join(NORM_FAMILIES)})")
    if s.labels is None:
        raise ValueError(f"norm family {family!r} needs element labels")
    if family == "abs":
        values = [abs(x) for x in s.labels]
    elif family == "exp":
        values = [exp_approx(x) for x in s.labels]
    else:  # exp_abs
        values = [exp_approx(abs(x)) for x in s.labels]
    norm = NormTable(values)
    verdict = check_submultiplicative(s, norm)
    if not verdict.ok:
        a, b, vab, va, vb = verdict.witness
        raise NormConstructionError(
            f"family {family!r} is not submultiplicative on this table: "
            f"value({a}*{b}) = {vab} > {va} * {vb}"
        )
    return norm


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
    written.  With n = s.order and R = ceil(log2 n) = (n - 1).bit_length(),
    every write in the first R rounds is exact, from round R + 1 on a
    value that still falls is written as 0, and the loop ends at the
    first round in which nothing changes.  Three arguments make that
    exact and bounded.

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
      and writing 0 is exact.  A round with no change leaves
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
    - Bounded work.  After round R only zeros are written, and each
      round that changes anything writes at least one new zero, so at
      most n more rounds change anything and the loop runs at most
      R + n + 1 rounds of n**2 candidates.  Every stored nonzero value
      is a product of at most 2**R < 2n input values, which bounds the
      size of every integer.

    On the 256-element full transformation monoid a draw from the pool
    1/2, 1, 2 takes about 0.03 s, and 0.16 s without the idempotent rule
    (medians of 9 draws, Python 3.11, one core of a 2-core Xeon).
    """
    return _envelope_rounds(s, values)[0]


def _envelope_rounds(s: FiniteSemigroup, values) -> tuple[NormTable, int]:
    """``submultiplicative_envelope`` and the number of rounds it ran."""
    norm = _coerce(s, values)
    num, den = _numerators_denominators(norm.values)
    exact_rounds = (s.order - 1).bit_length()
    rounds = 0
    while True:
        rounds += 1
        new_num, new_den = list(num), list(den)
        changed = False
        for a, row in enumerate(s.table):
            pa, qa = num[a], den[a]
            for b, c in enumerate(row):
                p, q = pa * num[b], qa * den[b]
                if p * new_den[c] < new_num[c] * q:
                    changed = True
                    if rounds <= exact_rounds:
                        g = gcd(p, q)
                        new_num[c], new_den[c] = p // g, q // g
                    else:
                        new_num[c], new_den[c] = 0, 1
        for e in idempotents(s):
            if 0 < new_num[e] < new_den[e]:
                new_num[e], new_den[e] = 0, 1
        if not changed:
            return NormTable(Fraction(p, q) for p, q in zip(num, den)), rounds
        num, den = new_num, new_den


# Most table pairs the draws after the first of one call of
# ``random_submultiplicative_norms`` may visit, estimated up front as
# (count - 1) * n**2 on a table of order n.  The first draw is always
# admitted: it costs a few passes over the table the caller has already
# loaded.  A draw visits every pair of its table in each round of its
# envelope (one round when the raw draw is already submultiplicative,
# two to four on the builtins and t4 over eight pools, near-one pools
# among them; R + n + 1 at most) and once more in the suite's gate.
# The constant keeps the largest admitted counts at 96 draws on t4,
# 8574 on t3 and one on t5.
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
    round that wrote nothing, which compared value(a*b) with
    value(a)*value(b) on every pair of exactly the table it returns: that
    round is the re-verification.  A call whose draws after the first
    would visit more than FUZZ_WORK_BUDGET table pairs raises ValueError
    before any draw.
    """
    pool = tuple(Fraction(v) for v in value_pool)
    if not pool:
        raise ValueError("value pool is empty")
    for v in pool:
        if v < 0:
            raise NormDomainError(f"value pool contains a negative entry: {v}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count - 1) * s.order**2
    if pairs > FUZZ_WORK_BUDGET:
        raise ValueError(
            f"{count} random norms on {s.order} elements visit {pairs} table pairs "
            f"after the first draw, over the budget of {FUZZ_WORK_BUDGET}"
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
    tokens = Tokens()
    crowded = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if len(words) > 1:
            crowded = line_no
            break
        tokens.add(line_no, line, words)
    values = tokens.convert(_norm_value)
    if crowded is not None:
        raise ParseError("expected one value per line", crowded, 1)
    return NormTable(values)


def _norm_value(token: str) -> Fraction:
    value = rational(token)
    if value < 0:
        raise ValueError(f"norm values must be nonnegative, got {value}")
    return value


def load_norm_table(path) -> NormTable:
    with open(path, encoding="utf-8") as fh:
        return parse_norm_text(fh.read())
