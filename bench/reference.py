"""Seeded inputs and reference answers computed without semnorms.

Nothing here imports the program under test.  Every expected answer is
derived from a definition or from how the input was built, so a wrong
program cannot agree with itself.  The algorithms are deliberately
different from the program's where a choice exists: Green's D relation
by union-find instead of composing R and L, the natural order by
enumerating the witnesses of its definition, minors by Laplace expansion
over row prefixes, determinants by Gaussian elimination on fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Cayley tables.


def compose_table(maps):
    """Table of the maps under (f*g)(x) = g(f(x)), indexed by position."""
    index = {f: i for i, f in enumerate(maps)}
    return [[index[tuple(g[x] for x in f)] for g in maps] for f in maps]


def transformation_maps(n):
    return sorted(itertools.product(range(n), repeat=n))


def permutation_maps(n):
    return sorted(itertools.permutations(range(n)))


def relabel(table, perm):
    """The isomorphic table in which element i is called perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def table_text(table):
    lines = [str(len(table))] + [" ".join(map(str, row)) for row in table]
    return "\n".join(lines) + "\n"


def violating_triples(table):
    n = len(table)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if table[table[i][j]][k] != table[i][table[j][k]]
    ]


def _classes(keys):
    """Elements grouped by equal key, each class sorted, classes by minimum."""
    groups = {}
    for a, key in enumerate(keys):
        groups.setdefault(key, []).append(a)
    return sorted(groups.values())


def _join(r_classes, l_classes, n):
    """Finest partition coarser than both, by union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in itertools.chain(r_classes, l_classes):
        for b in part[1:]:
            parent[find(b)] = find(part[0])
    return _classes([find(a) for a in range(n)])


def natural_order_pairs(table):
    """a <= b iff a = x*b = b*y and x*a = a for some x, y in S^1.

    Enumerating the witness x directly gives every candidate a below b, so
    the scan is quadratic.  The adjoined identity contributes a = b.
    """
    n = len(table)
    pairs = []
    for b in range(n):
        right = set(table[b]) | {b}
        below = {b}
        for x in range(n):
            a = table[x][b]
            if table[x][a] == a:
                below.add(a)
        pairs.extend([a, b] for a in below & right)
    return sorted(pairs)


def analyze_reference(table):
    """The fields of an ``analyze`` report, from the definitions."""
    n = len(table)
    rng = range(n)
    column = [[table[x][a] for x in rng] for a in rng]
    identity = next(
        (e for e in rng if table[e] == list(rng) and column[e] == list(rng)), None
    )
    inverses = {
        a: [b for b in rng if table[table[a][b]][a] == a and table[table[b][a]][b] == b]
        for a in rng
    }
    left = [z for z in rng if all(v == z for v in table[z])]
    right = [z for z in rng if all(v == z for v in column[z])]
    right_ideals = [frozenset(table[a]) | {a} for a in rng]
    left_ideals = [frozenset(column[a]) | {a} for a in rng]
    r_classes = _classes(right_ideals)
    l_classes = _classes(left_ideals)
    return {
        "order": n,
        "identity": identity,
        "idempotents": [e for e in rng if table[e][e] == e],
        "regular": all(inverses[a] for a in rng),
        "inverse_sets": {str(a): inverses[a] for a in rng},
        "zero_elements": {
            "left": left,
            "right": right,
            "two_sided": sorted(set(left) & set(right)),
        },
        "green": {
            "r_classes": r_classes,
            "l_classes": l_classes,
            "d_classes": _join(r_classes, l_classes, n),
            "h_classes": _classes(list(zip(right_ideals, left_ideals))),
        },
        "natural_order_pairs": natural_order_pairs(table),
    }


def is_group(table):
    n = len(table)
    ident = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    return bool(ident) and all(ident[0] in table[a] for a in range(n))


def first_violation(table, values):
    """First (a, b) in row-major order with value(a*b) > value(a)*value(b)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if values[table[a][b]] > values[a] * values[b]:
                return a, b
    return None


# ---------------------------------------------------------------------------
# Rational matrices, as lists of rows of Fractions.


def random_matrix(rng, rows, cols, numerator=9, denominator=4):
    return [
        [Fraction(rng.randint(-numerator, numerator), rng.randint(1, denominator))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def matrix_text(m):
    lines = [f"{len(m)} {len(m[0])}"] + [" ".join(map(str, row)) for row in m]
    return "\n".join(lines) + "\n"


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _eliminate(a):
    """Row echelon form by Gaussian elimination; returns (rows, swaps, rank)."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    swaps = rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            swaps += 1
        for i in range(rank + 1, rows):
            factor = m[i][col] / m[rank][col]
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return m, swaps, rank


def det(a):
    m, swaps, rank = _eliminate(a)
    if rank < len(a):
        return Fraction(0)
    return math.prod(m[i][i] for i in range(len(a))) * (-1) ** swaps


def rank(a):
    return _eliminate(a)[2]


def inverse(a):
    """Inverse by Gauss-Jordan on [a | I]."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def max_abs_minor(a, k):
    """Largest |k x k minor| of a square matrix.

    Rows are scaled to integers; the minors of the first t rows of every
    row subset come from those of t-1 rows by Laplace expansion along the
    last row, so each minor costs t products instead of a determinant.
    """
    n = len(a)
    scale = [math.lcm(*(x.denominator for x in row)) for row in a]
    m = [[int(x * s) for x in row] for row, s in zip(a, scale)]
    prev = {((r,), (c,)): m[r][c] for r in range(n) for c in range(n)}
    for t in range(2, k + 1):
        cur = {}
        for rows in itertools.combinations(range(n), t):
            head, last = rows[:-1], m[rows[-1]]
            for cols in itertools.combinations(range(n), t):
                total = 0
                for i, c in enumerate(cols):
                    term = last[c] * prev[(head, cols[:i] + cols[i + 1:])]
                    total += term if (t - 1 + i) % 2 == 0 else -term
                cur[(rows, cols)] = total
        prev = cur
    return max(
        Fraction(abs(v), math.prod(scale[r] for r in rows)) for (rows, _), v in prev.items()
    )


def minor_norm(a, k):
    return math.comb(len(a), k) * max_abs_minor(a, k)


def moore_penrose(b, c):
    """Moore-Penrose inverse of b @ c, where b has full column rank and c
    full row rank: c^T (c c^T)^-1 (b^T b)^-1 b^T."""
    ct, bt = transpose(c), transpose(b)
    return matmul(matmul(ct, inverse(matmul(c, ct))), matmul(inverse(matmul(bt, b)), bt))
