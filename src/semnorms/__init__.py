"""Submultiplicative norms on finite semigroups, plus the exact
minor-based norm family on square rational matrices.

Every public name is loaded on first use (PEP 562), so a program pays to
import only the modules it calls into: ``from semnorms import
minor_norm`` loads ``matrices`` and no semigroup code.
"""

from importlib import import_module

__version__ = "0.1.0"

# The one registry of public names: each is defined in the module named
# beside it.  __all__, dir() and attribute lookup are read off it.
_EXPORTS = {
    name: module
    for module, names in (
        ("axioms", ("AxiomReport", "AxiomVerdict", "classify_literature_axioms")),
        (
            "catalog",
            (
                "BUILTIN_SEMIGROUPS",
                "builtin_semigroup",
                "cyclic_group",
                "full_transformation_monoid",
                "left_zero_semigroup",
                "null_semigroup",
                "symmetric_group",
            ),
        ),
        (
            "errors",
            (
                "DEFAULT_VALUE_POOL",
                "InvalidSemigroupError",
                "NormDomainError",
                "ParseError",
                "SemnormsError",
            ),
        ),
        ("green", ("GreenStructure", "green_structure")),
        (
            "matrices",
            (
                "MinorNormCheck",
                "MinorNormParams",
                "RatMatrix",
                "WitnessPoint",
                "WitnessReport",
                "cauchy_binet",
                "check_minor_norm_submultiplicative",
                "compound",
                "det",
                "generalized_inverse",
                "load_matrix",
                "mat_mul",
                "minor",
                "minor_norm",
                "minor_norm_float",
                "parse_matrix_text",
                "random_rational_matrix",
                "rank",
                "witness_sequence",
            ),
        ),
        ("order", ("OrderRelation", "natural_leq", "natural_order")),
        (
            "norms",
            (
                "NormBatch",
                "NormTable",
                "SubmultiplicativityVerdict",
                "check_submultiplicative",
                "load_norm_table",
                "parse_norm_text",
                "random_submultiplicative_norms",
                "submultiplicative_envelope",
                "zero_set",
            ),
        ),
        (
            "propositions",
            (
                "FAIL",
                "INAPPLICABLE",
                "PASS",
                "SUITE_IDS",
                "PropositionVerdict",
                "run_suite",
                "suite_to_jsonable",
            ),
        ),
        (
            "semigroups",
            (
                "FiniteSemigroup",
                "ValidationReport",
                "ZeroElements",
                "idempotents",
                "inverse_set",
                "is_regular",
                "load_cayley_table",
                "parse_cayley_text",
                "validate",
                "zero_elements",
            ),
        ),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
