"""Brute-force references the kernels are tested against.

Not a test module: the test modules import it.  Each reference follows
its definition and shares no shortcut with the kernel it checks.
"""

from typing import Sequence

from semnorms import FiniteSemigroup, RatMatrix, det
from semnorms.errors import printable
from semnorms.semigroups import _check_element


def natural_leq(s: FiniteSemigroup, a: int, b: int) -> bool:
    """a <= b in the natural partial order, from the definition, without
    building S^1.  A witness x = 1 gives a = 1*b = b, and y = 1 gives
    a = b*1 = b; so for a != b both witnesses range over S alone."""
    _check_element(s, a)
    _check_element(s, b)
    t = s.table
    return a == b or (
        any(t[x][b] == a == t[x][a] for x in s.elements())
        and any(t[b][y] == a for y in s.elements())
    )


def _check_subset(name: str, subset: Sequence[int], bound: int) -> tuple[int, ...]:
    idx = tuple(subset)
    if not idx:
        raise ValueError(f"{name} index subset is empty")
    for x in idx:
        if not isinstance(x, int) or not 0 <= x < bound:
            raise ValueError(f"{name} index {printable(x)} out of range 0..{bound - 1}")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError(f"{name} indices must be strictly increasing, got {idx}")
    return idx


def minor(a: RatMatrix, row_subset: Sequence[int], col_subset: Sequence[int]):
    """Determinant of the submatrix picked by two equally long, strictly
    increasing index subsets, by one Bareiss ``det``."""
    rows = _check_subset("row", row_subset, a.rows)
    cols = _check_subset("column", col_subset, a.cols)
    if len(rows) != len(cols):
        raise ValueError(f"subset sizes differ: {len(rows)} rows vs {len(cols)} columns")
    sub = RatMatrix(
        len(rows), len(cols), tuple(a.entry(i, j) for i in rows for j in cols)
    )
    return det(sub)
