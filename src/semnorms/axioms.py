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

from fractions import Fraction
from typing import NamedTuple

from .errors import NOTATIONS, exact_text
from .norms import NormTable, _coerce, _numerators_denominators
from .semigroups import FiniteSemigroup, zero_elements

HOLDS = "holds"
FAILS = "fails"
NOT_FINITELY_CHECKABLE = "not_finitely_checkable"
INAPPLICABLE = "inapplicable"
AMBIGUOUS = "ambiguous"


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

    def find(self, definition: str, axiom: str) -> AxiomVerdict:
        for entry in self.entries:
            if entry.definition == definition and entry.axiom == axiom:
                return entry
        raise KeyError(f"{definition}/{axiom}")

    def to_jsonable(self) -> dict:
        return {
            "notation": self.notation,
            "entries": [e.to_jsonable() for e in self.entries],
        }


# The two pair scans compare integers: with v[x] = p[x]/q[x] and every
# q[x] > 0, multiplying through by q[ab]*q[a]*q[b] > 0 is exact (see
# norms.check_submultiplicative).  The Fraction witness is built only on
# the first hit in row-major order.


def _multiplicativity(s, v):
    num, den = _numerators_denominators(v)
    for a, row in enumerate(s.table):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(row):
            if num[ab] * qa * den[b] != pa * num[b] * den[ab]:
                return (a, b, v[ab], v[a] * v[b])
    return None


def _subadditivity(s, v):
    num, den = _numerators_denominators(v)
    for a, row in enumerate(s.table):
        pa, qa = num[a], den[a]
        for b, ab in enumerate(row):
            qb = den[b]
            if num[ab] * qa * qb > (pa * qb + num[b] * qa) * den[ab]:
                return (a, b, v[ab], v[a] + v[b])
    return None


def _power_homogeneity(s, v, bound):
    """value(a^n) == n * value(a) for n = 1..bound, via repeated products."""
    for a in s.elements():
        power = a
        for n in range(2, bound + 1):
            power = s.table[power][a]
            if v[power] != n * v[a]:
                return (a, n, v[power], n * v[a])
    return None


def _checked(definition, axiom, witness, note=""):
    if witness is None:
        return AxiomVerdict(definition, axiom, HOLDS, note=note)
    return AxiomVerdict(definition, axiom, FAILS, witness=witness, note=note)


def classify_literature_axioms(
    s: FiniteSemigroup,
    values,
    notation: str = "multiplicative",
    power_bound: int = 5,
) -> AxiomReport:
    """Evaluate every finitely checkable axiom of the six definitions."""
    if notation not in NOTATIONS:
        raise ValueError(f"notation must be one of {NOTATIONS}, got {notation!r}")
    if power_bound < 1:
        raise ValueError("power_bound must be at least 1")
    norm = _coerce(s, values)
    v = norm.values
    identity = s.identity()
    two_sided_zero = next(iter(zero_elements(s).two_sided), None)

    mult_witness = _multiplicativity(s, v)
    subadd_witness = _subadditivity(s, v)

    entries = [
        _checked("wegmann", "multiplicativity", mult_witness),
        AxiomVerdict(
            "wegmann",
            "generator_norms_exceed_one",
            NOT_FINITELY_CHECKABLE,
            note="quantifies over a distinguished generator system",
        ),
        AxiomVerdict(
            "wegmann",
            "generator_norms_diverge",
            NOT_FINITELY_CHECKABLE,
            note="a limit over an infinite generator sequence",
        ),
        _checked("kryzius", "multiplicativity", mult_witness),
    ]

    if identity is None:
        entries.append(
            AxiomVerdict(
                "kryzius",
                "identity_norm_one",
                INAPPLICABLE,
                note="no two-sided identity in the table",
            )
        )
    else:
        witness = None if v[identity] == 1 else (identity, v[identity])
        entries.append(_checked("kryzius", "identity_norm_one", witness))
    entries.append(
        AxiomVerdict(
            "kryzius",
            "sublevel_sets_finite",
            NOT_FINITELY_CHECKABLE,
            note="finiteness of sublevel sets constrains infinite carriers only",
        )
    )

    entries.append(_checked("dikran", "subadditivity", subadd_witness))
    if identity is None:
        entries.append(
            AxiomVerdict(
                "dikran",
                "identity_norm_zero",
                INAPPLICABLE,
                note="the monoid-norm axiom needs an identity",
            )
        )
    else:
        witness = None if v[identity] == 0 else (identity, v[identity])
        entries.append(_checked("dikran", "identity_norm_zero", witness))

    entries.append(
        AxiomVerdict(
            "pavlov",
            "complex_module_norm",
            NOT_FINITELY_CHECKABLE,
            note="needs a scalar action that a Cayley table does not carry",
        )
    )

    entries.append(
        _checked(
            "shkarin",
            "power_homogeneity",
            _power_homogeneity(s, v, power_bound),
            note=f"checked for exponents up to {power_bound}",
        )
    )
    entries.append(_checked("shkarin", "subadditivity", subadd_witness))

    entries.append(
        AxiomVerdict(
            "valero",
            "zero_characterization_via_negatives",
            AMBIGUOUS,
            note="the original statement does not pin down one finite reading",
        )
    )
    entries.append(_checked("valero", "subadditivity", subadd_witness))
    if notation == "additive":
        special, missing = identity, "no neutral element in the table"
    else:
        special, missing = two_sided_zero, "no two-sided zero element in the table"
    if special is None:
        entries.append(
            AxiomVerdict("valero", "zero_normalization", INAPPLICABLE, note=missing)
        )
    else:
        bad = [a for a in s.elements() if (v[a] == 0) != (a == special)]
        witness = None if not bad else (bad[0], v[bad[0]], special)
        entries.append(
            _checked(
                "valero",
                "zero_normalization",
                witness,
                note="value zero exactly at the element written 0",
            )
        )

    return AxiomReport(notation, tuple(entries))
