"""Classification of norm tables against the published axiom systems.

The expectations below were worked out by hand per definition: which
axioms a constant table satisfies, where the first row-major violation
of multiplicativity sits on a null semigroup, and how the notation tag
moves the zero-normalization axiom between the zero element and the
identity.
"""

from fractions import Fraction

import pytest

from semnorms import builtin_semigroup, classify_literature_axioms, norms
from semnorms.norms import (
    AMBIGUOUS,
    FAILS,
    HOLDS,
    NO_SUCH_ELEMENT,
    NOT_FINITELY_CHECKABLE,
)

ALL_STATUSES = {HOLDS, FAILS, NOT_FINITELY_CHECKABLE, NO_SUCH_ELEMENT, AMBIGUOUS}


def find(report, definition, axiom):
    """The one entry of ``report`` for ``axiom`` of ``definition``."""
    (entry,) = (e for e in report.entries if (e.definition, e.axiom) == (definition, axiom))
    return entry


def test_report_shape_is_fixed():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    assert report.notation == "multiplicative"
    assert len(report.entries) == 14
    assert {e.status for e in report.entries} <= ALL_STATUSES
    definitions = {e.definition for e in report.entries}
    assert definitions == {"wegmann", "kryzius", "dikran", "pavlov", "shkarin", "valero"}


def test_constant_one_on_z2():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    assert find(report, "wegmann", "multiplicativity").status == HOLDS
    assert find(report, "kryzius", "multiplicativity").status == HOLDS
    assert find(report, "kryzius", "identity_norm_one").status == HOLDS
    assert find(report, "dikran", "subadditivity").status == HOLDS
    assert find(report, "shkarin", "subadditivity").status == HOLDS
    assert find(report, "valero", "subadditivity").status == HOLDS

    # A multiplicative-notation norm of constant 1 is not an additive one.
    entry = find(report, "dikran", "identity_norm_zero")
    assert entry.status == FAILS
    assert entry.witness == (0, Fraction(1))

    entry = find(report, "shkarin", "power_homogeneity")
    assert entry.status == FAILS
    assert entry.witness == (0, 2, Fraction(1), Fraction(2))
    assert "up to 5" in entry.note


def test_not_finitely_checkable_axioms():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    for definition, axiom in (
        ("wegmann", "generator_norms_exceed_one"),
        ("wegmann", "generator_norms_diverge"),
        ("kryzius", "sublevel_sets_finite"),
        ("pavlov", "complex_module_norm"),
    ):
        assert find(report, definition, axiom).status == NOT_FINITELY_CHECKABLE


def test_ambiguous_axiom():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    entry = find(report, "valero", "zero_characterization_via_negatives")
    assert entry.status == AMBIGUOUS
    assert "finite reading" in entry.note


def test_multiplicativity_witness_on_null_semigroup():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    entry = find(report, "wegmann", "multiplicativity")
    assert entry.status == FAILS
    assert entry.witness == (1, 1, Fraction(0), Fraction(1))
    # Same witness feeds the Kryzius copy of the axiom.
    assert find(report, "kryzius", "multiplicativity").witness == entry.witness


def test_identity_axioms_without_identity():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    assert find(report, "kryzius", "identity_norm_one").status == NO_SUCH_ELEMENT
    assert find(report, "dikran", "identity_norm_zero").status == NO_SUCH_ELEMENT


def test_zero_normalization_multiplicative_reading():
    # Element 0 of null4 is the two-sided zero, and the value vanishes
    # exactly there: the axiom holds under multiplicative notation.
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 1, 1, 1])
    assert find(report, "valero", "zero_normalization").status == HOLDS

    # z2 has no zero element at all.
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, 1])
    entry = find(report, "valero", "zero_normalization")
    assert entry.status == NO_SUCH_ELEMENT
    assert "no two-sided zero" in entry.note


def test_zero_normalization_additive_reading():
    # Under additive notation the symbol 0 denotes the neutral element.
    report = classify_literature_axioms(
        builtin_semigroup("z2"), [0, 1], notation="additive"
    )
    assert report.notation == "additive"
    assert find(report, "valero", "zero_normalization").status == HOLDS

    report = classify_literature_axioms(
        builtin_semigroup("z2"), [1, 1], notation="additive"
    )
    entry = find(report, "valero", "zero_normalization")
    assert entry.status == FAILS
    assert entry.witness == (0, Fraction(1), 0)


def test_additive_style_norm_fits_dikran():
    report = classify_literature_axioms(builtin_semigroup("z2"), [0, 1])
    assert find(report, "dikran", "subadditivity").status == HOLDS
    assert find(report, "dikran", "identity_norm_zero").status == HOLDS
    entry = find(report, "shkarin", "power_homogeneity")
    # 1+1 = 0 in z2, so value(1^2) = 0 while 2*value(1) = 2.
    assert entry.status == FAILS
    assert entry.witness == (1, 2, Fraction(0), Fraction(2))


def test_power_homogeneity_trivial_cases():
    report = classify_literature_axioms(builtin_semigroup("null4"), [0, 0, 0, 0])
    assert find(report, "shkarin", "power_homogeneity").status == HOLDS

    # The exact verdict: a nonzero value cannot be power homogeneous on a
    # finite table, and here 1+1 = 0 already breaks exponent 2.
    report = classify_literature_axioms(builtin_semigroup("z2"), [0, 1])
    entry = find(report, "shkarin", "power_homogeneity")
    assert entry.status == FAILS
    assert entry.witness == (1, 2, Fraction(0), Fraction(2))
    assert entry.note == "checked for exponents up to 5"


def test_each_pair_scan_runs_once_per_call(monkeypatch):
    # Multiplicativity is cited twice and subadditivity three times; each
    # pair scan starts by splitting the values into numerators and
    # denominators, so two splits mean two scans.
    splits = []
    split = norms._numerators_denominators
    monkeypatch.setattr(
        norms, "_numerators_denominators", lambda v: splits.append(v) or split(v)
    )
    classify_literature_axioms(builtin_semigroup("t3"), [1] * 27)
    assert len(splits) == 2


def test_parameter_validation():
    s = builtin_semigroup("z2")
    with pytest.raises(ValueError, match="notation"):
        classify_literature_axioms(s, [1, 1], notation="roman")


def test_to_jsonable_stringifies_fractions():
    report = classify_literature_axioms(builtin_semigroup("z2"), [1, Fraction(1, 2)])
    out = report.to_jsonable()
    assert out["notation"] == "multiplicative"
    flat = [e for e in out["entries"] if e["axiom"] == "multiplicativity"]
    assert flat[0]["status"] == "fails"
    assert all(isinstance(x, (str, int)) for x in flat[0]["witness"])
