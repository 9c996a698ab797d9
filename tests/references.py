"""Brute-force references the kernels are tested against, and a fresh
interpreter to run the package in.

Not a test module: the test modules import it.  Each reference follows
its definition, or reads a law literally, and shares no shortcut with the
kernel it checks.
"""

import itertools
import re
import subprocess
import sys
from fractions import Fraction
from typing import Sequence

from semnorms import FAIL, INAPPLICABLE, PASS, FiniteSemigroup, ParseError, RatMatrix, det
from semnorms.errors import printable
from semnorms.semigroups import _check_element


def run_python(*args, timeout=30, input=None):
    """``python *args`` in a fresh interpreter, as a user starts it: the
    finished process, with its output as text."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, input=input
    )


# ---------------------------------------------------------------------------
# The finite semigroup.


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


def brute_triples(table):
    n = len(table)
    return tuple(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if table[table[i][j]][k] != table[i][table[j][k]]
    )


def reference_validate(table):
    """The report of ``validate`` from the definitions: rows of the wrong
    length, then entries that are not plain integers (``bool`` is not),
    entries out of range, and every triple (i*j)*k != i*(j*k) when all
    entries are usable."""
    n = len(table)
    if n == 0:
        return (("empty table",), (), ())
    structural = [
        f"row {i} has {len(row)} entries, expected {n}"
        for i, row in enumerate(table)
        if len(row) != n
    ]
    out_of_range = []
    for i, row in enumerate(table):
        for j, value in enumerate(row):
            if type(value) is bool or not isinstance(value, int):
                structural.append(f"entry ({i}, {j}) is not an integer: {value!r}")
            elif value < 0 or value >= n:
                out_of_range.append((i, j, value))
    if structural or out_of_range:
        return (tuple(structural), tuple(out_of_range), ())
    return ((), (), brute_triples(table))


def principal_ideal_green(table):
    """R, L, D and H from principal ideals: a R b iff aS^1 = bS^1, a L b
    iff S^1 a = S^1 b, H is the pair, and a D b iff a R c and c L b for
    some c.  Each partition lists its classes by least element."""
    n = len(table)
    right = [frozenset(table[a]) | {a} for a in range(n)]
    left = [frozenset(table[x][a] for x in range(n)) | {a} for a in range(n)]

    def classes_of(key):
        classes = {}
        for a in range(n):
            classes.setdefault(key(a), set()).add(a)
        return tuple(frozenset(c) for c in sorted(classes.values(), key=min))

    def d_class(a):
        reached = {left[c] for c in range(n) if right[c] == right[a]}
        return frozenset(b for b in range(n) if left[b] in reached)

    return (
        classes_of(right.__getitem__),
        classes_of(left.__getitem__),
        classes_of(d_class),
        classes_of(lambda a: (right[a], left[a])),
    )


def brute_natural_pairs(table):
    """a <= b iff a = x*b = b*y and x*a = a for some x, y in S^1; the
    identity of S^1 is represented by None."""
    n = len(table)

    def mul(x, a):
        return a if x is None else table[x][a]

    def rmul(a, y):
        return a if y is None else table[a][y]

    ones = [None, *range(n)]
    return frozenset(
        (a, b)
        for a in range(n)
        for b in range(n)
        if any(mul(x, b) == a and mul(x, a) == a for x in ones)
        and any(rmul(b, y) == a for y in ones)
    )


def image_size_classes(n):
    """Image size -> the self-maps of n points of that image size, each
    by its index in lexicographic order, which is its element of t_n."""
    maps = sorted(itertools.product(range(n), repeat=n))
    classes = {}
    for index, f in enumerate(maps):
        classes.setdefault(len(set(f)), []).append(index)
    return {size: frozenset(members) for size, members in classes.items()}


def brute_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def brute_two_sided_zero(table):
    n = len(table)
    for z in range(n):
        if all(table[z][x] == z == table[x][z] for x in range(n)):
            return z
    return None


def brute_power(table, a, n):
    power = a
    for _ in range(n - 1):
        power = table[power][a]
    return power


# ---------------------------------------------------------------------------
# Norms, and the laws and axioms read literally: inverses, one-sided
# zeros and the natural order by brute force, Green's D from principal
# ideals, and the first violation in sorted order as the witness.


def fraction_submultiplicative(table, values):
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            if values[ab] > values[a] * values[b]:
                return False, (a, b, values[ab], values[a], values[b])
    return True, None


def bounded_infimum(table, values, length):
    """B_L(a): the least value product over factorizations of a with at
    most ``length`` factors, by dynamic programming on the exact number of
    factors (values are nonnegative, so a least product of k factors
    extends a least product of k - 1)."""
    n = len(table)
    exact = list(values)
    best = list(values)
    for _ in range(length - 1):
        longer = [None] * n
        for a in range(n):
            if exact[a] is None:
                continue
            for b in range(n):
                c, product = table[a][b], exact[a] * values[b]
                if longer[c] is None or product < longer[c]:
                    longer[c] = product
        exact = longer
        best = [x if y is None else min(x, y) for x, y in zip(best, exact)]
    return best


def reference_envelope_rounds(table, values):
    """The envelope's rounds read literally, in Fractions over every pair:
    value(a*b) falls to the least value(a)*value(b) of the round before,
    to 0 after the first (n - 1).bit_length() rounds; then idempotents
    valued in (0, 1) are zeroed; the rounds stop after one that lowered
    nothing.  Returns the table and the number of rounds."""
    n = len(table)
    exact_rounds = (n - 1).bit_length()
    idempotent = [e for e in range(n) if table[e][e] == e]
    values = [Fraction(v) for v in values]
    rounds = 0
    while True:
        rounds += 1
        lowered = list(values)
        changed = False
        for a in range(n):
            for b in range(n):
                c, candidate = table[a][b], values[a] * values[b]
                if candidate < lowered[c]:
                    changed = True
                    lowered[c] = candidate if rounds <= exact_rounds else Fraction(0)
        for e in idempotent:
            if 0 < lowered[e] < 1:
                lowered[e] = Fraction(0)
        if not changed:
            return values, rounds
        values = lowered


def reference_inverse_lower_bound(s, values):
    t = s.table
    for a in s.elements():
        for b in s.elements():
            inverse = t[t[a][b]][a] == a and t[t[b][a]][b] == b
            if inverse and values[a] != 0 and values[b] < 1 / values[a]:
                return FAIL, (a, b, values[a], values[b])
    return PASS, None


def reference_order_zero_downward(s, values):
    for a in s.elements():
        for b in s.elements():
            if natural_leq(s, a, b) and values[b] == 0 and values[a] != 0:
                return FAIL, (a, b, values[a])
    return PASS, None


def reference_suite(table, values):
    n = len(table)
    v = [Fraction(x) for x in values]
    elements = range(n)
    idempotent = [e for e in elements if table[e][e] == e]
    zeros = {a for a in elements if v[a] == 0}
    s = FiniteSemigroup(table)

    p2 = next(((e, v[e]) for e in idempotent if 0 < v[e] < 1), None)
    p2 = (PASS, None, "") if p2 is None else (FAIL, p2, "")

    p3 = next(
        ((a, b, table[a][b], v[table[a][b]])
         for a in sorted(zeros) for b in sorted(zeros) if table[a][b] not in zeros),
        None,
    )
    if p3 is not None:
        p3 = (FAIL, p3, "")
    elif zeros:
        p3 = (PASS, None, f"zero set has {len(zeros)} elements")
    else:
        p3 = (PASS, None, "zero set empty (vacuously closed)")

    p4 = (PASS, None, "")
    for part in principal_ideal_green(table)[2]:
        low = sorted(a for a in part if v[a] == 0)
        high = sorted(a for a in part if v[a] != 0)
        if low and high:
            p4 = (FAIL, (low[0], high[0], v[high[0]]), "")
            break

    p5 = reference_inverse_lower_bound(s, v)
    p5 = (p5[0], p5[1], "")

    identity = brute_identity(table)
    group = identity is not None and all(
        any(table[a][b] == identity == table[b][a] for b in elements) for a in elements
    )
    if not group:
        p6 = (INAPPLICABLE, None, "not a group")
    elif zeros:
        p6 = (INAPPLICABLE, None, "zero values present; the law assumes none")
    else:
        p6 = next(((FAIL, (a, v[a]), "") for a in elements if v[a] < 1), (PASS, None, ""))

    one_sided = [
        z for z in elements
        if all(table[z][x] == z for x in elements) or all(table[x][z] == z for x in elements)
    ]
    carriers = [z for z in one_sided if v[z] != 0]
    if not carriers:
        detail = "every one-sided zero has value 0" if one_sided else "no one-sided zero elements"
        p7 = (INAPPLICABLE, None, detail)
    else:
        p7 = next(
            ((FAIL, (carriers[0], x, v[x]), "") for x in elements if v[x] < 1),
            (PASS, None, ""),
        )

    p8 = reference_order_zero_downward(s, v)
    p8 = (p8[0], p8[1], "")
    return [
        (law, *verdict)
        for law, verdict in zip(("P2", "P3", "P4", "P5", "P6", "P7", "P8"),
                                (p2, p3, p4, p5, p6, p7, p8))
    ]


NOT_CHECKABLE = "not_finitely_checkable"


def first_pair_violation(table, values, combine, violated):
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            bound = combine(values[a], values[b])
            if violated(values[ab], bound):
                return (a, b, values[ab], bound)
    return None


def reference_axioms(table, values, notation):
    """(definition, axiom, status, witness, note) for the 14 axioms of the
    six definitions, in report order."""
    n = len(table)
    v = [Fraction(x) for x in values]

    def decided(witness, note=""):
        return ("holds", None, note) if witness is None else ("fails", witness, note)

    def at_identity(wanted, missing):
        e = brute_identity(table)
        if e is None:
            return "inapplicable", None, missing
        return decided(None if v[e] == wanted else (e, v[e]))

    multiplicative = decided(
        first_pair_violation(table, v, lambda x, y: x * y, lambda xy, b: xy != b)
    )
    subadditive = decided(
        first_pair_violation(table, v, lambda x, y: x + y, lambda xy, b: xy > b)
    )
    power = next(
        (
            (a, k, v[brute_power(table, a, k)], k * v[a])
            for a in range(n)
            for k in range(2, 6)
            if v[brute_power(table, a, k)] != k * v[a]
        ),
        None,
    )
    if notation == "additive":
        special, missing = brute_identity(table), "no neutral element in the table"
    else:
        special, missing = brute_two_sided_zero(table), "no two-sided zero element in the table"
    if special is None:
        zero_normalization = ("inapplicable", None, missing)
    else:
        bad = next((a for a in range(n) if (v[a] == 0) != (a == special)), None)
        zero_normalization = decided(
            None if bad is None else (bad, v[bad], special),
            "value zero exactly at the element written 0",
        )
    rows = [
        ("wegmann", "multiplicativity", multiplicative),
        ("wegmann", "generator_norms_exceed_one", (
            NOT_CHECKABLE, None, "quantifies over a distinguished generator system")),
        ("wegmann", "generator_norms_diverge", (
            NOT_CHECKABLE, None, "a limit over an infinite generator sequence")),
        ("kryzius", "multiplicativity", multiplicative),
        ("kryzius", "identity_norm_one", at_identity(1, "no two-sided identity in the table")),
        ("kryzius", "sublevel_sets_finite", (
            NOT_CHECKABLE, None,
            "finiteness of sublevel sets constrains infinite carriers only")),
        ("dikran", "subadditivity", subadditive),
        ("dikran", "identity_norm_zero", at_identity(0, "the monoid-norm axiom needs an identity")),
        ("pavlov", "complex_module_norm", (
            NOT_CHECKABLE, None, "needs a scalar action that a Cayley table does not carry")),
        ("shkarin", "power_homogeneity",
         decided(power, "checked for exponents up to 5")),
        ("shkarin", "subadditivity", subadditive),
        ("valero", "zero_characterization_via_negatives", (
            "ambiguous", None, "the original statement does not pin down one finite reading")),
        ("valero", "subadditivity", subadditive),
        ("valero", "zero_normalization", zero_normalization),
    ]
    return [(definition, axiom, *verdict) for definition, axiom, verdict in rows]


# ---------------------------------------------------------------------------
# Matrices, by the definitions in Fractions.


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


def laplace_det(rows):
    """Cofactor expansion along the first row; the reference oracle."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = Fraction(x) * laplace_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def inversions(seq):
    return sum(x > y for x, y in itertools.combinations(seq, 2))


def fraction_product(a, b):
    """a @ b as rows of Fractions, by the triple loop of the definition."""
    return [
        [sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), Fraction(0))
         for j in range(b.cols)]
        for i in range(a.rows)
    ]


def fraction_inverse(k):
    """k^-1 in Fractions, by Gauss-Jordan on [k | I] with row exchanges."""
    n = len(k)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(k)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            factor = m[i][c]
            if i != c and factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def inner_inverse(x, g, u, v):
    """g + (I - g x) U + V (I - x g), by the triple loop.  For g = x^+
    it is an inner inverse of x, x b x = x, whatever U and V are."""

    def identity_minus(a, b):
        return RatMatrix.from_rows([
            [int(i == j) - e for j, e in enumerate(row)]
            for i, row in enumerate(fraction_product(a, b))
        ])

    terms = (
        g.to_rows(),
        fraction_product(identity_minus(g, x), u),
        fraction_product(v, identity_minus(x, g)),
    )
    return RatMatrix.from_rows([[sum(entries) for entries in zip(*rows)] for rows in zip(*terms)])


def product(*factors):
    """The product of ``factors``, left to right, by the triple loop."""
    out = factors[0]
    for factor in factors[1:]:
        out = RatMatrix.from_rows(fraction_product(out, factor))
    return out


# ---------------------------------------------------------------------------
# The three text parsers, by a regex tokenizer.


BOUND_MESSAGE = (
    "a rational may spell out at most 4300 digits in its numerator and in its denominator"
)


def regex_tokens(line_no, line, offset=0):
    return [(line_no, offset + m.start() + 1, m.group()) for m in re.finditer(r"\S+", line[offset:])]


def spelled_digits(token):
    """Digits of the numerator and the denominator a literal writes out
    before any cancellation: p/q writes p and q; w.f with exponent x
    writes wf and x - len(f) zeros over a 1 and len(f) - x zeros."""
    body = token.lstrip("+-").replace("_", "")
    if "/" in body:
        p, q = body.split("/")
        return len(p), len(q)
    mantissa, _, exponent = body.replace("E", "e").partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction)
    return len(whole) + len(fraction) + max(shift, 0), 1 + max(-shift, 0)


def ref_count(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    return digits if len(digits) <= 4300 else "more than 10**4300"


def ref_int(where, what="an integer"):
    line_no, col, token = where
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}", line_no, col) from None


def ref_rational(where):
    line_no, col, token = where
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"expected a rational like 3, -1/2 or 0.25, got {token!r}", line_no, col
        ) from None
    finally:
        sys.set_int_max_str_digits(limit)
    if max(spelled_digits(token)) > 4300:
        raise ParseError(BOUND_MESSAGE, line_no, col)
    return value


def ref_cayley(text):
    lines = text.splitlines()
    last = max(len(lines), 1)
    body, labels = [], None
    for line_no, line in enumerate(lines, start=1):
        head = re.match(r"\s*labels:", line)
        if labels is None and head:
            labels = regex_tokens(line_no, line, head.end())
        else:
            (body if labels is None else labels).extend(regex_tokens(line_no, line))
    if not body:
        raise ParseError("missing table order", last, 1)
    n = ref_int(body[0])
    if n <= 0:
        raise ParseError(f"order must be positive, got {n}", *body[0][:2])
    entries = body[1:]
    if len(entries) < n * n:
        raise ParseError(
            f"expected {ref_count(n * n)} table entries, found {len(entries)}", last, 1
        )
    if len(entries) > n * n:
        line_no, col, token = entries[n * n]
        raise ParseError(f"unexpected extra token {token!r}", line_no, col)
    values = [ref_int(e) for e in entries]
    rows = [values[i * n:(i + 1) * n] for i in range(n)]
    if labels is None:
        return rows, None
    if len(labels) != n:
        raise ParseError(f"expected {n} labels, found {len(labels)}", labels[0][0] if labels else last, 1)
    return rows, [ref_rational(e) for e in labels]


def ref_matrix(text):
    lines = text.splitlines()
    last = max(len(lines), 1)
    tokens = [t for line_no, line in enumerate(lines, start=1) for t in regex_tokens(line_no, line)]
    if len(tokens) < 2:
        raise ParseError("missing matrix dimensions", last, 1)
    rows = ref_int(tokens[0], "row count")
    cols = ref_int(tokens[1], "column count")
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive", *tokens[0][:2])
    if len(tokens) - 2 != rows * cols:
        raise ParseError(
            f"expected {ref_count(rows * cols)} entries for a {rows}x{cols} matrix, "
            f"found {len(tokens) - 2}",
            last,
            1,
        )
    return rows, cols, tuple(ref_rational(t) for t in tokens[2:])


def ref_norm(text):
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = regex_tokens(line_no, line)
        if not tokens:
            continue
        if len(tokens) > 1:
            raise ParseError("expected one value per line", line_no, 1)
        value = ref_rational(tokens[0])
        if value < 0:
            raise ParseError(f"norm values must be nonnegative, got {value}", *tokens[0][:2])
        values.append(value)
    return tuple(values)


def outcome(parse, text):
    """The result, or the message, line and column of the ParseError; any
    other exception fails the test."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
