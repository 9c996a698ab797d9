"""Tests of the benchmark's own failure accounting and metric names.

    python3 -m pytest bench/test_harness.py
"""

import json
import os

import pytest

import run
import workloads
from harness import ROOT, Op, Outcome, execute, failure, mismatch, tally

OP = Op("op", "cli", ("validate", "t.txt"), 0,
        {"command": "validate", "valid": True, "non_associative": []})
GOOD = b'{"command": "validate", "non_associative": [], "order": 2, "valid": true}\n'


def outcome(stdout=GOOD, stderr=b"", exit_code=0, timed_out=False):
    return Outcome("op", exit_code, stdout, stderr, 0.2, 0.2, 20.0, timed_out)


BAD = {
    "wrong exit code": outcome(exit_code=1),
    "traceback": outcome(stderr=b"Traceback (most recent call last):\n  ...\nKeyError: 3\n"),
    "wrong verdict": outcome(stdout=GOOD.replace(b"true", b"false")),
    "non-JSON output": outcome(stdout=b"table t.txt (order 2): valid\n"),
    "timeout": outcome(stdout=b"", exit_code=None, timed_out=True),
}


def test_good_op_counts_as_ok():
    assert failure(OP, outcome()) is None


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_outcome_counts_as_failed(case):
    assert failure(OP, BAD[case]) is not None


def test_tally_counts_every_failure_once():
    verdicts = [failure(OP, o) for o in (outcome(), *BAD.values(), outcome())]
    assert tally(verdicts) == (7, 5)


def test_real_timeout_is_killed_reaped_and_failed():
    result = execute("sleep", ["-c", "import time; time.sleep(60)"], timeout=0.5)
    assert result.timed_out
    assert result.wall_s < 30
    assert failure(OP, result) == "timeout"


def test_mismatch_rules():
    assert mismatch({"a": [1, 2]}, {"a": [1, 2], "b": 0}) is None
    assert mismatch({"a": [1, 2]}, {"a": [1, 2, 3]}) is not None
    assert mismatch({"a": 1}, {}) is not None
    assert mismatch(True, 1) is not None
    assert mismatch(0.1 + 0.2, 0.3) is None
    assert mismatch(0.3, 0.31) is not None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
