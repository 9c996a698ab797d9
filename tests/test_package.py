"""The package namespace: every public name, loaded on first use, and
the README's examples, each read by its parser.

Import order matters only in a fresh interpreter, so those checks run in
one; the rest run here.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import semnorms
from semnorms import parse_cayley_text, parse_matrix_text, parse_norm_text, validate
from semnorms.cli import main

from references import run_python


def test_importing_the_package_loads_no_submodule():
    code = "import sys, semnorms; print(sorted(m for m in sys.modules if m.startswith('semnorms')))"
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "['semnorms']\n"), result.stderr


def test_a_name_loads_only_its_own_module():
    code = (
        "import sys; from semnorms import minor_norm; "
        "print(sorted(m for m in sys.modules if m.startswith('semnorms')))"
    )
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (
        0, "['semnorms', 'semnorms.errors', 'semnorms.matrices']\n"
    ), result.stderr


def test_no_module_shares_a_name_with_a_public_name():
    # Importing a submodule binds it on the package under its own name,
    # which would hide a public name spelled the same.
    assert set(semnorms._EXPORTS.values()).isdisjoint(semnorms.__all__)


# The public surface.  A name joins or leaves it only with this list.
PUBLIC_NAMES = [
    "AxiomReport", "AxiomVerdict", "BUILTIN_SEMIGROUPS", "DEFAULT_VALUE_POOL", "FAIL",
    "FiniteSemigroup", "GreenStructure", "INAPPLICABLE", "InvalidSemigroupError",
    "MinorNormCheck", "NormBatch", "NormDomainError", "NormTable", "OrderRelation",
    "PASS", "ParseError", "PropositionVerdict", "RatMatrix", "SUITE_IDS",
    "SemnormsError", "SubmultiplicativityVerdict", "ValidationReport", "WitnessPoint",
    "WitnessReport", "ZeroElements", "builtin_semigroup", "cauchy_binet",
    "check_minor_norm_submultiplicative", "check_submultiplicative",
    "classify_literature_axioms", "compound", "cyclic_group", "det",
    "full_transformation_monoid", "generalized_inverse", "green_structure",
    "idempotents", "inverse_set", "is_regular", "left_zero_semigroup",
    "load_cayley_table", "load_matrix", "load_norm_table", "mat_mul", "minor_norm",
    "minor_norm_float", "natural_order", "null_semigroup", "parse_cayley_text",
    "parse_matrix_text", "parse_norm_text", "random_submultiplicative_norms", "rank",
    "run_suite", "submultiplicative_envelope", "symmetric_group", "validate",
    "witness_sequence", "zero_elements", "zero_set",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 60
    assert semnorms.__all__ == PUBLIC_NAMES


def test_every_name_the_benchmark_replay_imports_resolves():
    # bench/replay.py replays commands as library calls (``--trace 1``);
    # an API change that would break it fails here first.
    replay = Path(__file__).resolve().parent.parent / "bench" / "replay.py"
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(replay.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semnorms"
        for alias in node.names
    ]
    assert ("semnorms.cli", "build_parser") in imported
    assert len(imported) > 1
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    # The methods it calls on what it imports.
    for owner, method in (
        (semnorms.RatMatrix, "from_rows"),
        (semnorms.RatMatrix, "to_rows"),
        (semnorms.FiniteSemigroup, "identity"),
    ):
        assert callable(getattr(owner, method)), (owner, method)


def test_every_public_name_resolves():
    assert semnorms.__all__ == sorted(set(semnorms.__all__))
    for name in semnorms.__all__:
        value = getattr(semnorms, name)
        assert not isinstance(value, types.ModuleType), name
        module = getattr(value, "__module__", None)
        if isinstance(value, (type, types.FunctionType)):
            assert module.startswith("semnorms."), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from semnorms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(semnorms.__all__)
    assert namespace["natural_order"] is semnorms.natural_order


def test_dir_lists_every_public_name():
    assert set(semnorms.__all__) <= set(dir(semnorms))


# The sibling modules each module imports at its top: three layers over
# ``errors``, one per object of the paper (the finite semigroup, its
# norms, the matrices), and a command line that loads a layer only
# inside the command that runs it.
LAYERS = {
    "__init__": set(),
    "__main__": {"cli"},
    "errors": set(),
    "semigroups": {"errors"},
    "norms": {"errors", "semigroups"},
    "matrices": {"errors"},
    "text": set(),
    "cli": {"errors"},
}


def test_modules_import_their_layers_and_no_private_names():
    package = Path(semnorms.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert set(trees) == set(LAYERS)
    private = set()
    for name, tree in trees.items():
        top = {
            node.module.split(".")[0] if node.module else alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        assert top == LAYERS[name], name
        private |= {
            (name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        }
    assert private == {("cli", "_gated_suite")}


# Each test module is named after the library module it tests, and holds
# its kernels' oracles, except those that cut across the layers: the
# acceptance criteria, the package surface and the small world.  Code they
# share lives in the support modules ``references`` and ``strategies``,
# not in a test module.
CROSS_LAYER_TESTS = {
    "test_acceptance",
    "test_package",
    "test_small_world",
}


def test_test_modules_follow_the_library_modules_and_import_no_other():
    tests = Path(__file__).resolve().parent
    modules = {path.stem for path in Path(semnorms.__file__).resolve().parent.glob("*.py")}
    names = {path.stem for path in tests.glob("test_*.py")}
    assert names - {f"test_{module}" for module in modules} == CROSS_LAYER_TESTS
    imported, defined_twice = set(), set()
    for path in tests.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        defined_twice |= {(path.name, name) for name in defs if defs.count(name) > 1}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((path.name, node.module or ""))
    assert {(name, module) for name, module in imported if module.startswith("test_")} == set()
    # A second ``def`` of a name silently replaces the first, test or helper.
    assert defined_twice == set()


def test_submodules_stay_reachable_as_attributes():
    code = "import semnorms; print(semnorms.norms.__name__, semnorms.matrices.WORK_BUDGET > 0)"
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "semnorms.norms True\n"), result.stderr


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        semnorms.no_such_name
    with pytest.raises(ImportError):
        exec("from semnorms import no_such_name", {})


# ---------------------------------------------------------------------------
# README


def readme_section(heading):
    """The README's text from ``heading`` to the next second-level heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_format_examples():
    """(format, text) for each fenced block of README's File formats
    section; the format is the label, such as ``Matrix``, that opens the
    nearest paragraph before the block."""
    section = readme_section("### File formats")
    examples, label = [], None
    for i, part in enumerate(section.split("```")):
        if i % 2:
            examples.append((label, part.strip("\n")))
        else:
            labels = re.findall(r"^(\w[\w ]*):", part, re.MULTILINE)
            label = labels[-1] if labels else label
    return examples


def test_readme_format_examples_parse():
    parsers = {
        "Cayley table": lambda text: validate(parse_cayley_text(text)[0]).ok,
        "Norm table": lambda text: bool(parse_norm_text(text).values),
        "Matrix": lambda text: bool(parse_matrix_text(text).entries),
    }
    examples = readme_format_examples()
    assert sorted({label for label, _ in examples}) == sorted(parsers)
    for label, text in examples:
        assert parsers[label](text), (label, text)


def test_readme_library_example_prints_what_it_says(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", readme_section("## Library"), re.DOTALL)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [
        "P2 PASS",
        "P3 PASS",
        "P4 PASS",
        "P5 PASS",
        "P6 INAPPLICABLE",
        "P7 PASS",
        "P8 PASS",
        "4",
        "True",
    ]


def test_readme_command_lines_exit_as_pinned(capsys, monkeypatch, tmp_path):
    """Each line of the README's Command line block, run in a directory
    that holds its File formats examples as table.txt, norm.txt and
    matrix.txt."""
    names = {"Cayley table": "table.txt", "Norm table": "norm.txt", "Matrix": "matrix.txt"}
    for label, text in readme_format_examples():
        (tmp_path / names[label]).write_text(text + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    block = readme_section("## Command line").split("```\n")[1]
    codes = {}
    for line in block.splitlines():
        program, *argv = line.split()
        assert program == "semnorms"
        codes[" ".join(argv)] = main(argv)
    capsys.readouterr()
    assert codes == {
        "validate t2": 0,
        "validate table.txt": 0,
        "analyze t3": 0,
        "norm-check z2 norm.txt": 0,
        "norm-check z2 norm.txt --notation additive": 0,
        "fuzz t3 --count 50 --seed 1": 0,
        "fuzz null4 --count 20 --pool 0,1,3": 0,
        "minor-norm matrix.txt --k 2": 0,
        "minor-norm matrix.txt --k 2 --mode float": 0,
        "witness --n 3 --k 1 --m-max 10": 0,
    }
