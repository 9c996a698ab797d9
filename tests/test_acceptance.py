"""Acceptance gate: every shipped claim, checked end to end.

One test per criterion, each printing a single PASS/FAIL line.  All
arithmetic checks are exact (Fraction equality, no tolerances); the CLI
criteria run the installed module in fresh subprocesses.
"""

import json
import random
import time
from fractions import Fraction

from semnorms import (
    DEFAULT_VALUE_POOL,
    builtin_semigroup,
    cauchy_binet,
    check_minor_norm_submultiplicative,
    det,
    full_transformation_monoid,
    generalized_inverse,
    green_structure,
    mat_mul,
    minor_norm,
    natural_order,
    random_submultiplicative_norms,
    rank,
    zero_set,
)

from references import image_size_classes, run_python
from strategies import SUITE, random_rational_matrix

GROUPS = ("z2", "c4", "s3")


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_minor_norm_submultiplicative_at_scale():
    started = time.monotonic()
    violations = 0
    for n in (2, 3, 4, 5):
        rng = random.Random(1000 + n)
        pairs = [
            (random_rational_matrix(rng, n, n), random_rational_matrix(rng, n, n))
            for _ in range(200)
        ]
        for k in range(1, n + 1):
            result = check_minor_norm_submultiplicative(pairs, k)
            if not result.ok:
                violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 120.0
    assert _report(
        1, f"order-k norm submultiplicative on 200 pairs per (n, k), {elapsed:.1f}s", ok
    )


def test_criterion_2_cauchy_binet_oracle():
    violations = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            rng = random.Random(2000 + 10 * n + k)
            for _ in range(200):
                alpha = random_rational_matrix(rng, k, n)
                beta = random_rational_matrix(rng, n, k)
                lhs, rhs = cauchy_binet(alpha, beta)
                if lhs != rhs:
                    violations += 1
    assert _report(2, "Cauchy-Binet equality on 200 pairs per shape", violations == 0)


def test_criterion_3_special_cases():
    violations = 0
    for n in (2, 3, 4, 5):
        rng = random.Random(3000 + n)
        for _ in range(100):
            a = random_rational_matrix(rng, n, n)
            if minor_norm(a, n) != abs(det(a)):
                violations += 1
            if minor_norm(a, 1) != n * max(abs(x) for x in a.entries):
                violations += 1
            r = rank(a)
            for k in range(1, n + 1):
                if (minor_norm(a, k) == 0) != (r < k):
                    violations += 1
    assert _report(
        3, "top norm is |det|, bottom norm is n*max entry, zero iff rank below k",
        violations == 0,
    )


def test_criterion_4_witness_cli():
    ok = True
    for k in (1, 2):
        proc = run_python("-m", "semnorms", "witness", "--n", "3", "--k", str(k), "--m-max", "10")
        ok = ok and proc.returncode == 0
        out = json.loads(proc.stdout)
        ok = ok and out["not_closed"] is True
        ok = ok and out["limit"]["norm_value"] == "0"
        for point in out["points"]:
            expected = Fraction(3, point["m"] ** k)
            ok = ok and point["norm_value"] == str(expected)
            ok = ok and point["rank"] == k
        ok = ok and len(out["points"]) == 10
    assert _report(4, "boundary sequence CLI exact values and exit code", ok)


def test_criterion_5_pseudoinverse_bound():
    violations = 0
    for n in (2, 3, 4):
        rng = random.Random(5000 + n)
        for _ in range(100):
            a = random_rational_matrix(rng, n, n)
            g = generalized_inverse(a)
            if mat_mul(mat_mul(a, g), a) != a:
                violations += 1
            if mat_mul(mat_mul(g, a), g) != g:
                violations += 1
            for k in range(1, rank(a) + 1):
                value = minor_norm(a, k)
                if value == 0 or minor_norm(g, k) < 1 / value:
                    violations += 1
    assert _report(
        5, "pseudoinverse identities and norm lower bound on 100 matrices per order",
        violations == 0,
    )


def test_criterion_6_fuzz_suite_zero_failures():
    total_runs = 0
    failures = 0
    ok = True
    for name in SUITE:
        for seed in (1, 2, 3):
            proc = run_python("-m", "semnorms", "fuzz", name, "--count", "50", "--seed", str(seed))
            out = json.loads(proc.stdout)
            ok = ok and proc.returncode == 0 and out["pass"] is True
            ok = ok and out["generated"] == 50
            total_runs += out["checker_runs"]
            failures += out["verdict_counts"]["FAIL"]
    ok = ok and failures == 0 and total_runs >= 1050
    assert _report(
        6, f"fuzz across 7 semigroups, 3 seeds, {total_runs} checker runs, 0 FAILs", ok
    )


def test_criterion_7_green_structure_oracle():
    ok = True
    for n, name, expected_sizes in ((2, "t2", [2, 2]), (3, "t3", [3, 6, 18])):
        oracle = set(image_size_classes(n).values())
        computed = set(green_structure(builtin_semigroup(name)).d_classes)
        ok = ok and computed == oracle
        ok = ok and sorted(len(c) for c in computed) == sorted(expected_sizes)
    for name in SUITE:
        s = builtin_semigroup(name)
        g = green_structure(s)
        for classes in (g.r_classes, g.l_classes, g.d_classes, g.h_classes):
            covered = sorted(a for part in classes for a in part)
            ok = ok and covered == list(s.elements())
    assert _report(7, "D-classes match image-size oracle, partitions well formed", ok)


def test_criterion_8_natural_order_axioms():
    ok = True
    for name in SUITE:
        s = builtin_semigroup(name)
        pairs = natural_order(s).pairs
        for a in s.elements():
            ok = ok and (a, a) in pairs
        for a, b in pairs:
            if a != b:
                ok = ok and (b, a) not in pairs
        below = {}
        for a, b in pairs:
            below.setdefault(b, set()).add(a)
        for a, b in pairs:
            for c in below.get(a, ()):
                ok = ok and (c, b) in pairs
        if name in GROUPS:
            ok = ok and pairs == frozenset((a, a) for a in s.elements())
    assert _report(8, "natural order is a partial order, equality on groups", ok)


def test_criterion_9_cli_determinism(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("3 3\n1 1/2 0\n0 2 1\n1 0 1\n")
    norm = tmp_path / "n.txt"
    norm.write_text("1\n1\n")
    invocations = (
        ("validate", "t2"),
        ("analyze", "t3"),
        ("norm-check", "z2", str(norm)),
        ("fuzz", "t2", "--count", "10", "--seed", "2"),
        ("minor-norm", str(matrix), "--k", "2"),
        ("witness", "--n", "3", "--k", "2", "--m-max", "6"),
    )
    ok = True
    for argv in invocations:
        first = run_python("-m", "semnorms", *argv)
        second = run_python("-m", "semnorms", *argv)
        ok = ok and first.stdout == second.stdout
        ok = ok and first.returncode == second.returncode
        ok = ok and first.stdout.strip() != ""
        json.loads(first.stdout)  # every report stays valid JSON
    assert _report(9, "repeated CLI invocations are byte-identical", ok)


def test_criterion_10_fuzzed_zero_sets_are_rank_ideals():
    # value(a) = 0 forces value(a*b) = value(b*a) = 0, so a zero set is an
    # ideal, and the ideals of the monoid of all maps on n points are the
    # sets {f : |im f| < j} for j in 1..n+1.  A pool with one 0 among many
    # 1s leaves some draws a zero set between empty and everything.
    pools = (DEFAULT_VALUE_POOL, (1, 2, 3), (Fraction(1, 2), 2, 3), (0,) + (1,) * 63)
    ok, seen = True, set()
    for n, count in ((3, 30), (4, 8)):
        s = builtin_semigroup("t3") if n == 3 else full_transformation_monoid(4)
        classes = image_size_classes(n)
        ideals = [
            {a for size, members in classes.items() if size < j for a in members}
            for j in range(1, n + 2)
        ]
        for pool in pools:
            for seed in (1, 2):
                batch = random_submultiplicative_norms(s, count, seed=seed, value_pool=pool)
                for norm in batch.norms:
                    zeros = zero_set(s, norm)
                    ok = ok and zeros in ideals
                    seen.add((n, len(zeros)))
    # Not only the empty set and everything: a proper ideal on each monoid.
    ok = ok and {n for n, size in seen if 0 < size < n**n} == {3, 4}
    assert _report(
        10, f"fuzzed zero sets on t3 and t4 are rank ideals ({len(seen)} kinds seen)", ok
    )
