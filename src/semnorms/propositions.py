"""Structural laws that every submultiplicative norm obeys, as one suite.

The suite first verifies that the table is submultiplicative at all; if
not, every law's hypothesis is void and its verdict is INAPPLICABLE
rather than a vacuous PASS.  A FAIL verdict always carries a witness
tuple that re-evaluates to a genuine violation on its own.

The seven laws, in suite order:

P2  an idempotent's value is 0 or at least 1
P3  the zero set is closed under products
P4  a zero value spreads to the whole Green D-class
P5  if value(a) != 0 and b is an inverse of a then value(b) >= 1/value(a)
P6  on a group with no zero values, every value is at least 1
P7  a one-sided zero element with nonzero value forces every value >= 1
P8  below b in the natural order, value(b) = 0 forces value(a) = 0
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .norms import _coerce, check_submultiplicative, zero_set
from .semigroups import (
    FiniteSemigroup,
    idempotents,
    inverse_sets,
    is_regular,
    natural_order,
    zero_elements,
)

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
    """Whether ``v`` holds a zero and a nonzero value.  P4 reads Green
    classes, and imports them, only then; P8 computes the natural order
    only then."""
    return not all(v) and any(v)


def _scan_zero_spreads_over_d_class(s, norm):
    v = norm.values
    # A class holding a zero and a nonzero value needs both in the table.
    if not _mixed(v):
        return PropositionVerdict("P4", PASS)
    from .green import green_structure
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
