"""Small stock semigroups, constructible by name.

Transformations compose left to right: (f*g)(x) = g(f(x)).  For the
groups either convention gives the same table up to relabeling; for the
transformation monoids the convention is fixed here once and used
everywhere.
"""

from __future__ import annotations

import itertools
from functools import cache

from .semigroups import FiniteSemigroup


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
