"""CLI behavior: JSON reports, text rendering, exit codes.

Exit code contract: 0 success, 1 mathematical failure, 2 usage or parse
trouble.  Tests call main() in process, except where a fresh process is
the point (a hang, the modules a command imports, or how the process
ends); byte-level determinism across separate processes is covered by the
acceptance suite.
"""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semnorms
from semnorms import full_transformation_monoid, random_submultiplicative_norms
from semnorms.cli import main

from references import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin(capsys):
    code, out = run_json(capsys, "validate", "t2")
    assert code == 0
    assert out["command"] == "validate"
    assert out["valid"] is True
    assert out["order"] == 4


def test_validate_bad_table_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 0\n")
    code, out = run_json(capsys, "validate", str(path))
    assert code == 1
    assert out["valid"] is False
    assert out["non_associative"] == [{"i": 1, "j": 0, "k": 1}, {"i": 1, "j": 1, "k": 1}]


def test_validate_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "/no/such/file")
    assert code == 2
    assert out == ""
    assert "error:" in err


# One input file per reader: the Cayley table through validate's own
# read and through load_cayley_table, the norm table and the matrix.
READERS = {
    "validate": (["validate"], "2\n0 1\n1 0\n"),
    "analyze": (["analyze"], "2\n0 1\n1 0\n"),
    "norm-check": (["norm-check", "z2"], "1\n1\n"),
    "minor-norm": (["minor-norm", "--k", "1"], "2 2\n1 2\n3 4\n"),
}


@pytest.mark.parametrize("command", sorted(READERS))
def test_input_files_are_utf8_with_an_optional_bom(capsys, tmp_path, monkeypatch, command):
    """A leading byte-order mark changes no output; bytes that are not
    UTF-8 exit 2 with the file's name and the offset of the bad byte."""
    argv, text = READERS[command]
    outputs = []
    for folder, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "in.txt").write_bytes(data)
        monkeypatch.chdir(tmp_path / folder)
        outputs.append(run_cli(capsys, *argv, "in.txt"))
    assert outputs[0] == outputs[1] == (0, outputs[0][1], "")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text.encode()[:2] + b"\xff" + text.encode()[2:])
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 2\n"


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("2\n0 x\n1 0\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 2, column 3" in err


def test_validate_text_format(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 0\n")
    code, out, _ = run_cli(capsys, "validate", str(path), "--format", "text")
    assert code == 1
    assert "INVALID" in out
    assert "associativity fails at (1, 0, 1)" in out


def random_table_file(tmp_path, n):
    rng = random.Random(1)
    path = tmp_path / f"random{n}.txt"
    rows = [" ".join(str(rng.randrange(n)) for _ in range(n)) for _ in range(n)]
    path.write_text("\n".join([str(n), *rows]) + "\n")
    return path


@pytest.mark.parametrize("command", ["validate", "analyze", "norm-check", "fuzz"])
def test_a_listing_over_the_budget_exits_2_at_once(capsys, tmp_path, command):
    # A random order-100 table violates most of its 10**6 triples; listing
    # them took seconds and printed tens of MB.  Light's test names one.
    path = random_table_file(tmp_path, 100)
    norm = tmp_path / "norm.txt"
    norm.write_text("1\n" * 100)
    argv = [command, str(path)] + ([str(norm)] if command == "norm-check" else [])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: not associative at triple \(\d+, \d+, \d+\); listing every violating "
        r"triple would scan 1000000 triples, over the budget of 262144\n",
        err,
    )


# ---------------------------------------------------------------------------
# analyze


def test_analyze_t2(capsys):
    code, out = run_json(capsys, "analyze", "t2")
    assert code == 0
    assert out["identity"] == 1
    assert out["idempotents"] == [0, 1, 3]
    assert out["regular"] is True
    assert out["inverse_sets"]["0"] == [0, 3]
    assert out["zero_elements"] == {"left": [], "right": [0, 3], "two_sided": []}
    assert out["green"]["d_classes"] == [[0, 3], [1, 2]]
    assert out["green"]["l_classes"] == [[0], [1, 2], [3]]
    assert out["natural_order_pairs"] == [
        [0, 0], [0, 1], [0, 2], [1, 1], [2, 2], [3, 1], [3, 2], [3, 3],
    ]


def test_analyze_invalid_table_reports_and_fails(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 0\n")
    code, out = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert out["error"] == "invalid semigroup"
    assert out["valid"] is False


@pytest.mark.parametrize("command", ["analyze", "norm-check", "fuzz"])
def test_invalid_table_in_text_format_is_text(capsys, tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n0 0\n")
    norm = tmp_path / "norm.txt"
    norm.write_text("1\n1\n")
    argv = [command, str(path)] + ([str(norm)] if command == "norm-check" else [])
    code, out, err = run_cli(capsys, *argv, "--format", "text")
    assert (code, err) == (1, "")
    assert out == (
        f"{command}: invalid semigroup\n"
        "  associativity fails at (1, 0, 1)\n"
        "  associativity fails at (1, 1, 1)\n"
    )


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "leftzero3", "--format", "text")
    assert code == 0
    assert "order 3" in out
    assert "regular" in out


def test_unknown_input_name(capsys):
    for command in ("validate", "analyze"):
        code, out, err = run_cli(capsys, command, "zz")
        assert (code, out) == (2, "")
        assert err == (
            "error: 'zz' is neither a builtin name "
            "(c4, leftzero3, null4, s3, t2, t3, z2) nor a file\n"
        )


# ---------------------------------------------------------------------------
# norm-check


def test_norm_check_passing(capsys, tmp_path):
    norm = tmp_path / "one.txt"
    norm.write_text("1\n1\n1\n1\n")
    code, out = run_json(capsys, "norm-check", "t2", str(norm))
    assert code == 0
    assert out["pass"] is True
    assert out["submultiplicative"]["ok"] is True
    assert len(out["propositions"]) == 7
    assert len(out["axioms"]["entries"]) == 14
    assert out["axioms"]["notation"] == "multiplicative"


def test_norm_check_failing(capsys, tmp_path):
    norm = tmp_path / "half.txt"
    norm.write_text("1\n1/2\n")
    code, out = run_json(capsys, "norm-check", "z2", str(norm))
    assert code == 1
    assert out["pass"] is False
    assert out["submultiplicative"]["witness"]["value_a"] == "1/2"
    assert all(p["status"] == "INAPPLICABLE" for p in out["propositions"])


def test_norm_check_additive_notation(capsys, tmp_path):
    norm = tmp_path / "one.txt"
    norm.write_text("1\n1\n")
    code, out = run_json(capsys, "norm-check", "z2", str(norm), "--notation", "additive")
    assert code == 0
    assert out["axioms"]["notation"] == "additive"
    entry = next(
        e for e in out["axioms"]["entries"]
        if e["definition"] == "valero" and e["axiom"] == "zero_normalization"
    )
    # additive reading: the identity must get value 0, here it has 1
    assert entry["status"] == "fails"


def test_norm_check_text_format(capsys, tmp_path):
    norm = tmp_path / "one.txt"
    norm.write_text("1\n1\n")
    code, out, _ = run_cli(capsys, "norm-check", "z2", str(norm), "--format", "text")
    assert code == 0
    assert "PASS" in out
    assert "submultiplicative: yes" in out


def test_norm_check_scans_submultiplicativity_once(capsys, tmp_path, monkeypatch):
    # The verdict it prints is the one the P2-P8 gate computed.
    from semnorms import cli, norms

    calls = []
    scan = norms.check_submultiplicative

    def counted(s, norm):
        calls.append(1)
        return scan(s, norm)

    # Every binding of the scan: where it is defined, and where it is imported.
    for module in (norms, cli):
        monkeypatch.setattr(module, "check_submultiplicative", counted, raising=False)
    for values, expected in (("1\n1\n", 0), ("1\n1/2\n", 1)):
        norm = tmp_path / "norm.txt"
        norm.write_text(values)
        calls.clear()
        code, out = run_json(capsys, "norm-check", "z2", str(norm))
        assert (code, len(calls)) == (expected, 1)
        assert out["submultiplicative"]["ok"] is (expected == 0)


def test_fuzz_scans_submultiplicativity_once_per_norm(capsys, monkeypatch):
    # The generator's envelope verifies its own draws; the only scans left
    # are the P2-P8 gates, one per generated norm.
    from semnorms import cli, norms

    calls = []
    scan = norms.check_submultiplicative

    def counted(s, norm):
        calls.append(1)
        return scan(s, norm)

    for module in (norms, cli):
        monkeypatch.setattr(module, "check_submultiplicative", counted, raising=False)
    for pool in ("1,2,3", "1/2,1,2"):
        calls.clear()
        code, out = run_json(capsys, "fuzz", "t3", "--count", "5", "--pool", pool)
        assert (code, out["generated"], len(calls)) == (0, 5, 5)


def test_fuzz_derives_only_the_structure_its_laws_need(capsys):
    # Every envelope of this pool on t3 is constant, and on a constant
    # table P3, P4, P5 and P8 are decided without Green classes, inverse
    # sets or the natural order.
    from semnorms import builtin_semigroup, green_structure, natural_order
    from semnorms.semigroups import inverse_sets

    s = builtin_semigroup("t3")
    s._derived.clear()
    code, out = run_json(capsys, "fuzz", "t3", "--pool", "0,1/2,1,2")
    assert (code, out["generated"]) == (0, 50)
    kept = {fn.__name__ for fn in s._derived}
    assert kept.isdisjoint(f.__name__ for f in (green_structure, inverse_sets, natural_order))


def test_norm_check_huge_value_is_a_parse_error(capsys, tmp_path):
    norm = tmp_path / "huge.txt"
    norm.write_text("1\n1e5000\n")
    code, out, err = run_cli(capsys, "norm-check", "z2", str(norm))
    assert (code, out) == (2, "")
    assert "line 2, column 1: a rational may spell out at most 4300 digits" in err


def test_norm_check_product_too_long_to_print_exits_2(capsys, tmp_path):
    # Both values fit the literal bound; their product, a multiplicativity
    # witness, does not.
    norm = tmp_path / "huge.txt"
    norm.write_text("1e4000\n1e4000\n")
    code, out, err = run_cli(capsys, "norm-check", "z2", str(norm))
    assert (code, out) == (2, "")
    assert "wegmann.multiplicativity has more than 4300 digits" in err
    assert "Traceback" not in err


def test_norm_check_wrong_length(capsys, tmp_path):
    norm = tmp_path / "short.txt"
    norm.write_text("1\n")
    code, _, err = run_cli(capsys, "norm-check", "z2", str(norm))
    assert code == 2
    assert "1 values for order 2" in err


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_small_run(capsys):
    code, out = run_json(capsys, "fuzz", "z2", "--count", "5", "--seed", "1")
    assert code == 0
    assert out["pass"] is True
    assert out["generated"] == 5
    assert out["checker_runs"] == 35
    assert out["verdict_counts"]["FAIL"] == 0
    assert out["failures"] == []
    assert out["pool"] == ["0", "1/2", "1", "2"]


def test_fuzz_custom_pool(capsys):
    code, out = run_json(
        capsys, "fuzz", "null4", "--count", "3", "--seed", "2", "--pool", "0,1,3"
    )
    assert code == 0
    assert out["pool"] == ["0", "1", "3"]


def test_fuzz_bad_pool(capsys):
    code, _, err = run_cli(capsys, "fuzz", "z2", "--pool", "0,x")
    assert code == 2
    assert "cannot parse pool" in err


def test_fuzz_huge_pool_value_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fuzz", "z2", "--pool", "1, 1e2000000")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "cannot parse pool" in err and "at most 4300 digits" in err


def test_fuzz_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "z2", "--count", "3", "--seed", "1", "--format", "text"
    )
    assert code == 0
    assert "result: PASS" in out


def test_fuzz_with_near_one_cycles_finishes():
    # Every draw from this pool has cycles whose product is just below 1;
    # the envelope must zero them rather than pump them.  A fresh process
    # with a timeout turns a hang into a failure.
    result = run_python(
        "-m", "semnorms", "fuzz", "t3", "--count", "30", "--seed", "1",
        "--pool", "1/1000000,9999/10000,1", timeout=10,
    )
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout)["generated"] == 30


def test_fuzz_over_the_work_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fuzz", "t3", "--count", "1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "over the budget of 6250000" in err and "Traceback" not in err


# Sixteen values in [3/2, 3): a draw from them keeps 16 to 20 distinct
# values through its envelope on t4.
POOL16 = ",".join(str(Fraction(3, 2) + Fraction(k, 10)) for k in range(16))

# The stdout sha256 of ``fuzz`` before the envelope zeroed pumped
# idempotents and Green classes came from Cayley graphs.  The verdict
# counts depend on both, so a change to either that moves any verdict
# fails here.  t4 is read from a file, as a user would give it.
FUZZ_DIGESTS = {
    ("t3", "30", "0,1/2,1,2", "11"): "35f506c060599345d8faf9112202a2d0f0807e9de696c61d539148a342e61f75",
    ("t3", "30", "1/2,1,2", "12"): "1262ee51bef1f53e52fc4099ea42ca1ae3dfbb5e76b0d2a970c88a7aa129f659",
    ("t3", "30", "1,2,3", "13"): "ce347522f80b37c23d202efdf5e467e9bdf7a9083ef3350c9f218c13bbe0e460",
    ("t4.txt", "1", "0,1/2,1,2", "21"): "228cf133d9719f9e14e6d502e24ea2d630a3bf18c348e68eb95d887ad49493af",
    ("t4.txt", "1", "1/2,1,2", "22"): "3a08926f9d8f2a51e5786aa629ef178ed3c6694b3284e33a52fb445e0cd38df3",
    ("t4.txt", "1", "1,2,3", "23"): "031c8a1dedd0919aff386f401fb870596d0b0684b8ee004b727ff4f4e8a45ed8",
    # Recorded before the envelope and the gate ran by value classes: pools
    # near 1, with zeros, and of 16 values whose envelopes keep many values.
    ("t3", "30", "1/3,1,3", "31"): "1c6a2323b7007add795e49b730d2457ba21a9e8a87424d2c470ad7d99f2eddda",
    ("t4.txt", "1", "1/3,1,3", "41"): "51f26cde3bb3132c5c822235a922c022d8b4c0ad3d12e169028a60b673f52523",
    ("t3", "30", "99/100,1,101/100", "32"): "ba162018fdf66600fb902d4570ceea3d2e1f37c9db7ac3abb9780b06e496481f",
    ("t4.txt", "1", "99/100,1,101/100", "42"): "aa7db18267face8532a58bc2123e391f0744a6a4db3a9829a234ffee7de5eedf",
    ("t3", "30", "0,1/3,1/2,1,3", "33"): "a961dd2727ffc4858e25e20554d43fe4d7ecde754ee6ff38d78225ac81aac4cc",
    ("t4.txt", "1", "0,1/3,1/2,1,3", "43"): "df7497568cb016088a1a822de0e1dc61b2a746c1e516b701c8e62d1a9b53429e",
    ("t3", "30", POOL16, "34"): "69e5d1d9f0e85774e95ddc4fbd684facb3887009f2b8373e2630fa42b5a52d89",
    ("t4.txt", "1", POOL16, "44"): "2bd3ff6586b8404a61f6816746add0be54a470b866c49e5180fd232cd557fc9c",
}


def test_fuzz_output_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t4 = full_transformation_monoid(4)
    rows = "".join(" ".join(map(str, row)) + "\n" for row in t4.table)
    (tmp_path / "t4.txt").write_text(f"{t4.order}\n{rows}")
    for (spec, count, pool, seed), digest in FUZZ_DIGESTS.items():
        code, out, err = run_cli(
            capsys, "fuzz", spec, "--count", count, "--seed", seed, "--pool", pool
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (spec, pool)


# The stdout sha256 of ``analyze`` and of ``norm-check`` with two norms:
# the constant-1 norm ``one.txt``, which passes, and ``bad.txt`` with
# values 1/2, 1, 3/2, 1/2, ..., which is not submultiplicative and exits 1
# with a witness.  Recorded before the derived structure moved onto the
# semigroup and the suite into one registry.
ANALYZE_DIGESTS = {
    "t4.txt": "4e68d4f3e55cbe96db59fb8c55c8c6f8a2a85fc383cf4dc4a18e29c88ddc8a19",
    "t3": "5c55458a96500930c42bb375b6dfd0db59ce41445c48e3a2990d57e818fa4ab9",
    "leftzero3": "8fa84a669e52ddf66078cb26121217c90576be53e2196d87eb4dbd5f745b4c61",
    "null4": "e649f0748aae3150894330d80c3ef43ef07260a4b67f6bc214a0a54c29207779",
}
NORM_CHECK_DIGESTS = {
    ("t4.txt", "one.txt"): "9ce12f308efa719f53caae270997dd777b4b73c49f77c0d8f54872220f935119",
    ("t4.txt", "bad.txt"): "1715b2b565849a7f4b79f39581a80f03c2b7db8fb9502987ff0450577e358213",
    ("t3", "one.txt"): "dfcc58b3cb83777c56ab0a4951da7cd1a41971bc84671f6cf98dc59c4484d063",
    ("t3", "bad.txt"): "d28b8a15022df705f615d5a01260f85e321f486d95b63d1a96f24dc1b6e8d418",
    ("leftzero3", "one.txt"): "f6e403c2bc5182fa4abd75ca81d8ceba420ed992ea7c586022410a55fcb50869",
    ("leftzero3", "bad.txt"): "5df03a76bd351c49b06fda3c8a6be686a48b42517a03efcbc01369faf5b8c4c8",
    ("null4", "one.txt"): "bb485ef3f30706956604ee558db1796ea48fd8ccf662387f18f2e2c29102cf54",
    ("null4", "bad.txt"): "c17c8642ceee7247d5dd8ca50e37a8d8b54e13e7e1ce876625b640a6eb967a0e",
}
# The same, under the options the digests above leave at their defaults:
# additive notation, which moves valero.zero_normalization onto the
# identity, and text format.  Recorded before the axiom classifier ran
# from one registry.
NORM_CHECK_OPTION_DIGESTS = {
    ("--notation", "additive"): {
        ("t3", "one.txt"): "b94c3c79847b57d89396424f805fc9f1fee42624c21cd11b5394649db5ab38da",
        ("t3", "bad.txt"): "ce6e7703106ea1214477bef7798734894c3ddafa746f77afaf9d907fa47edf52",
        ("leftzero3", "one.txt"): "b77608b3ed6eb85e615f951982933cf5d1ab70c525c1dc1854b7e3d7bef331c6",
        ("leftzero3", "bad.txt"): "c47ace0da04402d993bcde0d17d4b76d0df9da1a623b502a9b79a6141f233fa2",
        ("null4", "one.txt"): "8acba1ee47ba424b267dfb01df49ca08fcef44cb7a6552b608b3d17a5b1dc705",
        ("null4", "bad.txt"): "b951def3e1f7a36263e3cad3191631ca23d07dc5a9a2b01aa5fd52c3e6b1775f",
    },
    ("--format", "text"): {
        ("t3", "one.txt"): "45affeeef31b53ffafa5f34260117e841fb9fe8cc3d4cd42cd5ccf44f26fecda",
        ("t3", "bad.txt"): "d93ba81220bbdcd51543849661d9b69f798c2bda52d110cbc29072f364ef9983",
        ("leftzero3", "one.txt"): "8367be92b701552d2181a021024581503c8333fc13ce08ce808121749cb5f5d9",
        ("leftzero3", "bad.txt"): "bce9adddafa3337e285732b903c25a5f8dc8546224f8f63625a99338886fe9b6",
        ("null4", "one.txt"): "97df056eb718f9905c0ae2a9e3954c97e519b6d16aa22f8d1d1f590ee1d5f74a",
        ("null4", "bad.txt"): "2080780b584774336208b9c107331a4982eb746f1eeac9aa4d3ed7aa9aad7284",
    },
}


def test_analyze_and_norm_check_output_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t4 = full_transformation_monoid(4)
    rows = "".join(" ".join(map(str, row)) + "\n" for row in t4.table)
    (tmp_path / "t4.txt").write_text(f"{t4.order}\n{rows}")
    for spec, digest in ANALYZE_DIGESTS.items():
        code, out, err = run_cli(capsys, "analyze", spec)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, spec
    orders = {"t4.txt": 256, "t3": 27, "leftzero3": 3, "null4": 4}
    cases = [((), NORM_CHECK_DIGESTS)] + list(NORM_CHECK_OPTION_DIGESTS.items())
    for options, digests in cases:
        for (spec, norm), digest in digests.items():
            n = orders[spec]
            if norm == "one.txt":
                values = ["1"] * n
            else:
                values = [str(Fraction(a % 3 + 1, 2)) for a in range(n)]
            (tmp_path / norm).write_text("".join(f"{v}\n" for v in values))
            code, out, err = run_cli(capsys, "norm-check", spec, norm, *options)
            assert (code, err) == (0 if norm == "one.txt" else 1, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (spec, norm, options)


# ``norm-check`` on passing norms of many values, recorded before the gate
# ran by value classes: on t4 the envelope of a draw from POOL16 (18
# distinct values), and on a null table of order 64 the values a/3, so
# that v(0) = 0 and every other value is distinct.
MANY_VALUED_NORM_CHECK_DIGESTS = {
    ("t4.txt", "env16.txt"): "2383befcbe048ea4b61bda8a9a451315b0af614d178781fe2b62828b49fb315b",
    ("null64.txt", "thirds.txt"): "7989b7f9fee0fb96c7d14c83fee3311f5ddc5cd93683bcac953aa4a548bad0f5",
}


def test_norm_check_on_many_valued_norms_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t4 = full_transformation_monoid(4)
    pool = [Fraction(v) for v in POOL16.split(",")]
    cases = {
        "t4.txt": (t4.table, random_submultiplicative_norms(t4, 1, seed=51, value_pool=pool).norms[0]),
        "null64.txt": ([[0] * 64] * 64, [Fraction(a, 3) for a in range(64)]),
    }
    for (spec, norm), digest in MANY_VALUED_NORM_CHECK_DIGESTS.items():
        table, values = cases[spec]
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
        (tmp_path / spec).write_text(f"{len(table)}\n{rows}")
        (tmp_path / norm).write_text("".join(f"{v}\n" for v in values))
        code, out, err = run_cli(capsys, "norm-check", spec, norm)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, spec


# ---------------------------------------------------------------------------
# minor-norm


def test_minor_norm_exact(capsys, tmp_path):
    path = tmp_path / "eye.txt"
    path.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out = run_json(capsys, "minor-norm", str(path), "--k", "2")
    assert code == 0
    assert out["norm_value"] == "3"
    assert out["rank"] == 3
    assert out["norm_nonzero"] is True


def test_minor_norm_float_mode(capsys, tmp_path):
    path = tmp_path / "eye.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    code, out = run_json(capsys, "minor-norm", str(path), "--k", "1", "--mode", "float")
    assert code == 0
    assert out["norm_value"] == 2.0


def test_minor_norm_float_mode_beyond_the_float_range(capsys, tmp_path):
    # The entries are floats but the order-2 norm, 10**400, is not: it
    # rounds to infinity, as the exact value rounded to a float does.
    path = tmp_path / "huge.txt"
    path.write_text("2 2\n1e200 0\n0 1e200\n")
    code, out = run_json(capsys, "minor-norm", str(path), "--k", "2", "--mode", "float")
    assert code == 0
    assert out["norm_value"] == math.inf
    assert out["norm_nonzero"] is True


def test_minor_norm_huge_entry_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1 1\n1e5000\n")
    code, out, err = run_cli(capsys, "minor-norm", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert "line 2, column 1: a rational may spell out at most 4300 digits" in err
    assert "Traceback" not in err


def test_minor_norm_k_out_of_range(capsys, tmp_path):
    path = tmp_path / "eye.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    code, _, err = run_cli(capsys, "minor-norm", str(path), "--k", "5")
    assert code == 2
    assert "0 < k <= min(rows, cols), got k=5 for a 2x2 matrix" in err


def test_minor_norm_text_format(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("2 2\n0 0\n0 0\n")
    code, out, _ = run_cli(
        capsys, "minor-norm", str(path), "--k", "1", "--format", "text"
    )
    assert code == 0
    assert "zero" in out


def test_minor_norm_over_the_work_budget_exits_2_at_once(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("20 20\n" + "1 " * 400 + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minor-norm", str(path), "--k", "10")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "over the budget" in err and "Traceback" not in err
    assert int(re.search(r"about (\d+) steps", err).group(1)) >= math.comb(20, 10) ** 2


def test_minor_norm_rank_over_the_work_budget_exits_2_at_once(capsys, tmp_path):
    # The order-1 compound of a 120 x 120 matrix is cheap, but the rank
    # printed beside it is a cubic Fraction elimination.
    path = tmp_path / "big.txt"
    path.write_text("120 120\n" + "1 " * 120**2 + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minor-norm", str(path), "--k", "1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "rank of a 120x120 matrix" in err and "Traceback" not in err
    assert int(re.search(r"about (\d+) steps", err).group(1)) >= 120**3


def test_minor_norm_rank_of_many_digits_exits_2_at_once(capsys, tmp_path):
    # Order 40 passes the shape bound of the rank, but entries p/q with
    # |p|, q up to 10**6 scale rows to about 600 bits, and the Bareiss
    # elimination took about 5 s; the estimate weighs those digits.
    rng = random.Random(40)
    entries = [f"{rng.randint(-10**6, 10**6)}/{rng.randint(1, 10**6)}" for _ in range(40 * 40)]
    path = tmp_path / "digits.txt"
    path.write_text("40 40\n" + " ".join(entries) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "minor-norm", str(path), "--k", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "rank of a 40x40 matrix" in err and "Traceback" not in err
    assert int(re.search(r"about (\d+) steps", err).group(1)) > 7 * 40**3


def test_minor_norm_too_long_to_print_exits_2(capsys, tmp_path):
    # Each entry fits the literal bound; the order-2 norm, 10**8000, does not.
    path = tmp_path / "huge.txt"
    path.write_text("2 2\n1e4000 0\n0 1e4000\n")
    code, out, err = run_cli(capsys, "minor-norm", str(path), "--k", "2")
    assert (code, out) == (2, "")
    assert "the order-2 norm has more than 4300 digits" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# witness


def test_witness_json(capsys):
    code, out = run_json(capsys, "witness", "--n", "3", "--k", "1", "--m-max", "3")
    assert code == 0
    assert out["not_closed"] is True
    assert [p["norm_value"] for p in out["points"]] == ["3", "3/2", "1"]
    assert out["limit"]["norm_value"] == "0"


def test_witness_rejects_k_equal_n(capsys):
    code, _, err = run_cli(capsys, "witness", "--n", "3", "--k", "3")
    assert code == 2
    assert "0 < k < n, got n=3, k=3" in err


@pytest.mark.parametrize(
    "argv, tail",
    [
        (
            ["witness", "--n", "3", "--k", "1", "--m-max", "9" * 4300],
            "more than 10**4300 steps, over the budget of 3000000",
        ),
        (
            ["witness", "--n", "9" * 4300, "--k", "1", "--m-max", "2"],
            "more than 10**4300 steps, over the budget of 3000000",
        ),
        (
            ["fuzz", "t3", "--count", "9" * 4300],
            "more than 10**4300 table pairs after the first draw, over the budget of 6250000",
        ),
    ],
)
def test_an_estimate_too_long_for_str_is_refused_with_a_bound(capsys, argv, tail):
    # Each estimate has more digits than CPython converts to str.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f" {tail}\n")


def test_witness_over_the_work_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", "--n", "80000", "--k", "40000")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "over the budget" in err and "Traceback" not in err
    # Ten points and the limit, each touching two diagonals of 80000 entries.
    assert int(re.search(r"about (\d+) steps", err).group(1)) >= 11 * 2 * 80000


@pytest.mark.parametrize("n, k", [(11, 5), (12, 6), (16, 4)])
def test_witness_reaches_its_conclusion_at_order_11_and_up(capsys, n, k):
    code, out = run_json(capsys, "witness", "--n", str(n), "--k", str(k), "--m-max", "1")
    assert code == 0
    assert out["not_closed"] is True
    assert out["points"][0]["norm_value"] == str(math.comb(n, k))


def test_witness_values_too_long_to_print_exit_2_at_once(capsys):
    # C(30000, 15000) has 9029 digits, which a report does not print on any
    # Python version.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", "--n", "30000", "--k", "15000", "--m-max", "1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "has more than 4300 digits" in err and "more than a report prints" in err
    assert "Traceback" not in err


def test_witness_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--n", "2", "--k", "1", "--m-max", "2", "--format", "text"
    )
    assert code == 0
    assert "NOT closed" in out


# ---------------------------------------------------------------------------
# failure reports: no law fails on a submultiplicative norm and every
# witness run reaches its conclusion, so stand-ins make them fail


@pytest.fixture
def failing_p2(monkeypatch):
    """P2's scan replaced by one that fails with a Fraction in its witness."""
    from semnorms import norms

    def fails(s, norm):
        return norms.PropositionVerdict("P2", norms.FAIL, witness=(0, Fraction(1, 2)))

    monkeypatch.setitem(norms._SCANS, "P2", fails)


def test_fuzz_reports_each_failing_law(capsys, failing_p2):
    code, out = run_json(capsys, "fuzz", "z2", "--count", "2", "--seed", "1")
    assert (code, out["pass"], out["verdict_counts"]["FAIL"]) == (1, False, 2)
    assert [f["norm_index"] for f in out["failures"]] == [0, 1]
    failure = out["failures"][0]
    assert sorted(failure) == ["norm", "norm_index", "proposition", "status", "witness"]
    assert (failure["proposition"], failure["status"]) == ("P2", "FAIL")
    assert failure["witness"] == [0, "1/2"]
    assert all(isinstance(v, str) for v in failure["norm"])
    code, text, _ = run_cli(
        capsys, "fuzz", "z2", "--count", "2", "--seed", "1", "--format", "text"
    )
    assert code == 1
    assert "  result: FAIL" in text.splitlines()
    assert f"  FAIL norm 0 {failure['norm']}: P2 witness [0, '1/2']" in text.splitlines()


def test_fuzz_fails_a_draw_its_gate_rejects(capsys, monkeypatch):
    # With the envelope skipped, the raw draws reach the suite; every law
    # behind the gate is INAPPLICABLE, and the gate itself is the failure.
    from semnorms import norms

    monkeypatch.setattr(
        norms, "_envelope_rounds", lambda s, values: (norms.NormTable(values), 1)
    )
    argv = ["fuzz", "t3", "--count", "10", "--seed", "3", "--pool", "1/2,1,2"]
    code, out = run_json(capsys, *argv)
    assert (code, out["pass"]) == (1, False)
    assert out["verdict_counts"] == {"PASS": 0, "FAIL": 0, "INAPPLICABLE": 70}
    assert [f["norm_index"] for f in out["failures"]] == list(range(10))
    failure = out["failures"][0]
    assert sorted(failure) == ["norm", "norm_index", "proposition", "status", "witness"]
    assert (failure["proposition"], failure["status"]) == ("submultiplicative", "FAIL")
    s = full_transformation_monoid(3)
    a, b, vab, va, vb = failure["witness"]
    values = [Fraction(v) for v in failure["norm"]]
    assert [values[s.table[a][b]], values[a], values[b]] == [Fraction(vab), Fraction(va), Fraction(vb)]
    assert Fraction(vab) > Fraction(va) * Fraction(vb)
    code, text, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 1
    lines = text.splitlines()
    assert "  result: FAIL" in lines
    assert (
        f"  FAIL norm 0 {failure['norm']}: submultiplicative witness {failure['witness']}"
        in lines
    )


def test_norm_check_reports_a_failing_law(capsys, tmp_path, failing_p2):
    norm = tmp_path / "one.txt"
    norm.write_text("1\n1\n")
    code, out = run_json(capsys, "norm-check", "z2", str(norm))
    assert (code, out["pass"], out["submultiplicative"]["ok"]) == (1, False, True)
    assert out["propositions"][0] == {"proposition": "P2", "status": "FAIL", "witness": [0, "1/2"]}
    code, text, _ = run_cli(capsys, "norm-check", "z2", str(norm), "--format", "text")
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == f"norm {norm} on z2: FAIL"
    assert "  P2: FAIL witness [0, '1/2']" in lines


def test_witness_without_its_conclusion_exits_1(capsys, monkeypatch):
    from semnorms import matrices

    sequence = matrices.witness_sequence
    monkeypatch.setattr(
        matrices,
        "witness_sequence",
        lambda n, k, m_max: sequence(n, k, m_max)._replace(not_closed=False),
    )
    code, out = run_json(capsys, "witness", "--n", "2", "--k", "1", "--m-max", "2")
    assert (code, out["not_closed"]) == (1, False)
    code, text, _ = run_cli(
        capsys, "witness", "--n", "2", "--k", "1", "--m-max", "2", "--format", "text"
    )
    assert code == 1
    assert text.splitlines()[-1] == "  conclusion flag not established"


# ---------------------------------------------------------------------------
# imports: each command loads the modules it runs and no others


# Each command loads one layer: the table side, the table side with its
# norms, or the matrices.  A norm that mixes zero and nonzero values,
# which runs P4's Green classes, loads no more than any other.
COMMAND_MODULES = {
    "--help": set(),
    "validate": {"semigroups"},
    "analyze": {"semigroups"},
    "norm-check": {"semigroups", "norms"},
    "norm-check-mixed": {"semigroups", "norms"},
    "fuzz": {"semigroups", "norms"},
    "minor-norm": {"matrices"},
    "witness": {"matrices"},
}


@pytest.mark.parametrize(
    "command, fmt",
    [pytest.param(command, "json", id=command) for command in sorted(COMMAND_MODULES)]
    + [
        pytest.param(command, "text", id=f"{command}-text")
        for command in sorted(COMMAND_MODULES)
        if command != "--help"
    ],
)
def test_command_imports_only_what_it_runs(command, fmt, tmp_path):
    norm = tmp_path / "norm.txt"
    norm.write_text("1\n1\n")
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("0\n1\n1\n1\n")
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("2 2\n1 2\n3 4\n")
    argv = {
        "--help": ["--help"],
        "validate": ["validate", "t2"],
        "analyze": ["analyze", "t2"],
        "norm-check": ["norm-check", "z2", str(norm)],
        "norm-check-mixed": ["norm-check", "null4", str(mixed)],
        "fuzz": ["fuzz", "z2", "--count", "2"],
        "minor-norm": ["minor-norm", str(matrix), "--k", "1"],
        "witness": ["witness", "--n", "3", "--k", "1"],
    }[command]
    # The text renderers are compiled only when a run asks for them.
    expected = {"cli", "errors"} | COMMAND_MODULES[command]
    if fmt == "text":
        argv, expected = [*argv, "--format", "text"], expected | {"text"}
    # -v reports every module the import system loads, also those loaded
    # through importlib by the package's lazy attributes.
    result = run_python("-v", "-m", "semnorms", *argv)
    assert result.returncode == 0, result.stderr
    loaded = set(re.findall(r"^import 'semnorms\.(\w+)'", result.stderr, re.MULTILINE))
    assert loaded == expected
    # The runtime is the standard library; these serve the tests only.
    assert not re.findall(r"^import '(sympy|hypothesis|numpy)\b", result.stderr, re.MULTILINE)
    # Records are named tuples and plain classes, so no command pays for
    # ``dataclasses`` and the ``inspect`` it imports.  ``python -c pass``
    # loads neither, so only the package could load them.
    assert not re.findall(r"^import '(dataclasses|inspect)'", result.stderr, re.MULTILINE)


# ---------------------------------------------------------------------------
# the process entry: ``python -m semnorms`` ends at its report without the
# interpreter's teardown, and must leave what a normal exit leaves


@pytest.fixture(scope="module")
def entry_files(tmp_path_factory):
    """Placeholder -> path of each input file the entry cases read."""
    tmp = tmp_path_factory.mktemp("entry")
    t4 = full_transformation_monoid(4)
    contents = {
        "NORM": "1\n1\n",
        "MATRIX": "2 2\n1 2\n3 4\n",
        "BAD": "2\n0 1\n0 0\n",
        "T4": f"{t4.order}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t4.table),
    }
    for name, text in contents.items():
        (tmp / f"{name.lower()}.txt").write_text(text)
    return {name: str(tmp / f"{name.lower()}.txt") for name in contents}


REPORTS = {
    "validate": ["validate", "t2"],
    "analyze": ["analyze", "s3"],
    "norm-check": ["norm-check", "z2", "NORM"],
    "fuzz": ["fuzz", "t2", "--count", "3"],
    "minor-norm": ["minor-norm", "MATRIX", "--k", "1"],
    "witness": ["witness", "--n", "3", "--k", "1", "--m-max", "4"],
}
ENTRY_CASES = [
    *(
        pytest.param(argv + extra, 0, id=f"{command}-{fmt}")
        for command, argv in REPORTS.items()
        for fmt, extra in (("json", []), ("text", ["--format", "text"]))
    ),
    pytest.param(["validate", "BAD"], 1, id="invalid-table"),
    pytest.param(["analyze", "BAD", "--format", "text"], 1, id="invalid-table-text"),
    pytest.param(["witness", "--n", "x"], 2, id="usage-error"),
    pytest.param(["fuzz", "t3", "--count", "1000000000"], 2, id="refused-count"),
    # About 130 KB, twice a pipe's buffer: a flush that lost data would show.
    pytest.param(["analyze", "T4"], 0, id="analyze-t4-file"),
]


@pytest.fixture(scope="module")
def other_pythons():
    """Every other CPython that ``requires-python = ">=3.10"`` admits, as
    PATH names it (python3.10 to python3.13), except the one running the
    tests; a name that is missing or fails ``-c pass`` is left out."""
    found = []
    for minor in range(10, 14):
        path = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or path is None:
            continue
        try:
            probe = subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            found.append(path)
    return found


@pytest.mark.parametrize("argv, expected", ENTRY_CASES)
def test_module_run_prints_what_main_returns(
    argv, expected, entry_files, other_pythons, monkeypatch
):
    # argparse wraps usage lines to the terminal's width; fix it for every run.
    monkeypatch.setenv("COLUMNS", "80")
    # Buffered, as a user runs it, so the report waits for the last flush.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    # Every interpreter imports this semnorms, installed or not.
    source = str(Path(semnorms.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (
        source, os.environ.get("PYTHONPATH")
    ))))
    argv = [entry_files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == expected
    for python in (sys.executable, *other_pythons):
        result = subprocess.run(
            [python, "-m", "semnorms", *argv], capture_output=True, timeout=60
        )
        assert result.returncode == code, python
        assert result.stdout == out.getvalue().encode(), python
        assert result.stderr == err.getvalue().encode(), python


def test_tools_that_report_at_exit_still_report():
    # cProfile prints its table after the program; ``run`` must exit
    # normally under it, or the table is lost.
    profiled = run_python("-m", "cProfile", "-m", "semnorms", "validate", "t2")
    assert profiled.returncode == 0, profiled.stderr
    assert '"valid": true' in profiled.stdout
    assert "function calls" in profiled.stdout and "Ordered by" in profiled.stdout
    traced = run_python(
        "-m", "trace", "--listfuncs", "--module", "semnorms", "validate", "z2", timeout=60
    )
    assert traced.returncode == 0, traced.stderr
    assert "functions called:" in traced.stdout
    # -i opens a prompt after the program.
    inspected = run_python(
        "-i", "-m", "semnorms", "validate", "z2", input="print('inspected')\n"
    )
    assert inspected.stdout.rstrip().endswith("inspected")


FAILED_FLUSH = (
    r"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='[\w-]+'>\n"
    r"BrokenPipeError: \[Errno 32\] Broken pipe\n"
)


# Recorded before ``run`` ended the process: unbuffered, the report's own
# write fails and ``main`` reports it; buffered, the flush at exit fails
# and the interpreter reports it with status 120, whether the failed flush
# kept the report (``validate t2``) or dropped it (``analyze t3``).
@pytest.mark.parametrize(
    "argv, unbuffered, code, message",
    [
        pytest.param(
            ["analyze", "t3"], True, 2, r"error: \[Errno 32\] Broken pipe\n", id="unbuffered"
        ),
        pytest.param(["analyze", "t3"], False, 120, FAILED_FLUSH, id="buffered-dropped"),
        pytest.param(["validate", "t2"], False, 120, FAILED_FLUSH, id="buffered-kept"),
    ],
)
def test_a_closed_stdout_ends_as_a_normal_exit_does(argv, unbuffered, code, message):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "semnorms", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=30) == code
    assert re.fullmatch(message, stderr), stderr


# Cleanup these modules do (atexit handlers, joining threads and worker
# pools, flushing log handlers, deleting temporary files, weakref
# finalizers) runs only at a normal exit, which ``run`` skips.
EXIT_TIME_MODULES = {
    "atexit", "threading", "multiprocessing", "concurrent", "logging", "tempfile", "weakref",
}


def test_no_module_imports_one_that_cleans_up_at_exit():
    package = Path(main.__code__.co_filename).parent
    sources = sorted(package.glob("*.py"))
    assert "cli.py" in [path.name for path in sources]
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                (path.name, name) for name in names if name.split(".")[0] in EXIT_TIME_MODULES
            ]
    assert found == []


# ---------------------------------------------------------------------------
# parser plumbing


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "witness" in capsys.readouterr().out


def test_repeated_invocations_print_identical_reports(capsys):
    _, first, _ = run_cli(capsys, "analyze", "s3")
    _, second, _ = run_cli(capsys, "analyze", "s3")
    assert first == second


# ---------------------------------------------------------------------------
# any command line over any files: an exit code of the contract, never an
# exception

FORMATS = ("json", "text", "xml")
# Counts and sizes stay small so that an example runs in milliseconds:
# ``fuzz`` admits thousands of draws on t3 before its work budget refuses
# a count, while ``witness`` runs order 40 with k = 20 in about a
# millisecond at these m_max and refuses the 40-digit order up front; the
# larger values check both refusals.  HUGE are integers at and past
# CPython's 4300-digit limit on int and str: those of 4301 and 5000
# digits do not parse, and a refusal of the others may print an estimate
# longer than the limit.
SMALL = ("-1", "0", "1", "2", "3", "", "x", "1.5")
HUGE = ("9" * 4300, "9" * 4301, "-" + "9" * 4300, "9" * 5000)
OPTIONS = {
    "validate": {"--format": FORMATS},
    "analyze": {"--format": FORMATS},
    "norm-check": {"--notation": ("multiplicative", "additive", "x"), "--format": FORMATS},
    "fuzz": {
        "--count": SMALL + HUGE + ("9" * 40,),
        "--seed": SMALL + HUGE + ("9" * 40,),
        "--pool": ("0,1/2,1,2", "1/2", "", "x", "-1", "1,,2", "1e5000", "1/0"),
        "--format": FORMATS,
    },
    "minor-norm": {
        "--k": SMALL + HUGE, "--mode": ("exact", "float", "x"), "--format": FORMATS
    },
    "witness": {
        "--n": SMALL + HUGE + ("40", "9" * 40),
        "--k": SMALL + HUGE + ("20",),
        "--m-max": SMALL + HUGE,
        "--format": FORMATS,
    },
}
REQUIRED = ("--k", "--n")
POSITIONALS = {
    "validate": 1, "analyze": 1, "norm-check": 2, "fuzz": 1, "minor-norm": 1, "witness": 0,
}
# Placeholders for the files each example writes, a directory and a
# missing file, next to builtin names.
INPUTS = ("TABLE", "NORM", "MATRIX", "DIR", "MISSING", "z2", "t3", "null4", "s9", "")
JUNK_ARGS = ("--junk", "-x", "--", "-", "--help", "extra", "--k=1", "--format")
VALUES = ("0", "1", "2", "3", "-1", "1/2", "0.25")
TOKENS = VALUES + ("1e3", "1e5000", "1/0", "x", "labels:", "٣")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["junk"]))
    argv = [command] + [
        draw(st.sampled_from(INPUTS)) for _ in range(POSITIONALS.get(command, 0))
    ]
    for flag, values in OPTIONS.get(command, {}).items():
        if flag in REQUIRED or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK_ARGS)))
    return argv


@st.composite
def format_texts(draw):
    """A table, a matrix or a norm file with up to two tokens replaced."""
    kind = draw(st.sampled_from(("table", "matrix", "norm")))
    n = draw(st.integers(1, 3))
    if kind == "table":
        words = [str(n)] + [str(draw(st.integers(0, n - 1))) for _ in range(n * n)]
    elif kind == "matrix":
        words = [str(n), str(n)] + [draw(st.sampled_from(VALUES)) for _ in range(n * n)]
    else:
        words = [draw(st.sampled_from(VALUES)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
    return "\n".join(words).encode()


def file_contents():
    return st.one_of(format_texts(), st.text(max_size=20).map(str.encode), st.binary(max_size=8))


@settings(max_examples=200, deadline=None)
@given(command_lines(), st.tuples(file_contents(), file_contents(), file_contents()))
def test_any_command_line_exits_0_1_or_2(argv, contents):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"DIR": tmp, "MISSING": os.path.join(tmp, "missing.txt")}
        for name, content in zip(("TABLE", "NORM", "MATRIX"), contents):
            paths[name] = os.path.join(tmp, f"{name.lower()}.txt")
            with open(paths[name], "wb") as fh:
                fh.write(content)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (code, out.getvalue(), err.getvalue())
    for text in ("Traceback", "set_int_max_str_digits", "Exceeds the limit"):
        assert text not in err.getvalue()
    assert elapsed < 1, argv
