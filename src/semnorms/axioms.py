"""Classify a norm table against normed-semigroup axiom systems from the
literature.

Six published definitions are covered, keyed by author name.  Each axiom
gets one of five verdicts:

* ``holds`` / ``fails`` for axioms that are finitely checkable on a
  Cayley table (fails always carries a concrete witness),
* ``not_finitely_checkable`` for axioms quantifying over data a finite
  table does not carry (generator systems, sublevel-set finiteness on
  infinite carriers, a scalar action),
* ``inapplicable`` when the axiom mentions a distinguished element the
  table lacks (an identity, or a two-sided zero),
* ``ambiguous`` for the one axiom whose original statement does not pin
  down a single finite reading.

The ``notation`` tag says how the single binary operation is written.
It changes which distinguished element the symbol ``0`` denotes in the
zero-normalization axiom: the two-sided zero element under
``multiplicative`` notation, the neutral element under ``additive``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .errors import NOTATIONS, exact_text
from .norms import _coerce, _numerators_denominators, _rows_to_scan
from .semigroups import FiniteSemigroup, zero_elements

HOLDS = "holds"
FAILS = "fails"
NOT_FINITELY_CHECKABLE = "not_finitely_checkable"
INAPPLICABLE = "inapplicable"
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
# norms.check_submultiplicative).  Like that check, they read only the
# rows that norms._rows_to_scan leaves them, given the classes that
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
        return INAPPLICABLE, None, missing
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
        return INAPPLICABLE, None, missing
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
