"""The three workloads: their inputs, operations and oracles.

Each workload function writes its inputs under a work directory and
returns the operations of one pass, every one with the answer it must
give.  All randomness comes from the workload seed.  Why each workload
exists is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import reference as ref
from harness import ROOT, Op

# ``fuzz`` value pools on t4.  The default pool makes the envelope collapse
# every repaired table to zeros, 1/2,1,2 drives its deep-pumping path
# until values snap to zero, and 1,2,3 gives nonzero tables.
POOLS = ("0,1/2,1,2", "1/2,1,2", "1,2,3")
SUITE = ("P2", "P3", "P4", "P5", "P6", "P7", "P8")


class Inputs:
    """Writes input files under one directory, named relative to the root."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(os.path.join(ROOT, directory), exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _t4(rng):
    """t4 under a seeded relabelling, with self-checks of the oracle against
    facts about T_4: 41 idempotents, D-classes = maps of equal image size
    (4/84/144/24 elements), 2680 natural-order pairs."""
    maps = ref.transformation_maps(4)
    perm = _permutation(rng, len(maps))
    table = ref.relabel(ref.compose_table(maps), perm)
    answer = ref.analyze_reference(table)
    by_rank = {}
    for i, f in enumerate(maps):
        by_rank.setdefault(len(set(f)), []).append(perm[i])
    ranks = sorted(sorted(part) for part in by_rank.values())
    if (
        len(answer["idempotents"]) != 41
        or answer["green"]["d_classes"] != ranks
        or [len(by_rank[r]) for r in (1, 2, 3, 4)] != [4, 84, 144, 24]
        or len(answer["natural_order_pairs"]) != 2680
    ):
        raise RuntimeError("reference answers for t4 contradict known facts")
    return table, answer


def _fuzz_op(spec, count, seed, pool):
    return Op(
        id=f"fuzz {os.path.basename(spec)} pool {pool}",
        program="cli",
        args=("fuzz", spec, "--count", str(count), "--seed", str(seed), "--pool", pool),
        exit_code=0,
        expect={
            "command": "fuzz",
            "semigroup": spec,
            "seed": seed,
            "pool": [str(Fraction(v)) for v in pool.split(",")],
            "requested": count,
            "generated": count,
            "checker_runs": len(SUITE) * count,
            "verdict_counts": {"FAIL": 0},
            "failures": [],
            "pass": True,
        },
    )


def fuzz(inputs: Inputs, rng) -> list[Op]:
    t4, _ = _t4(rng)
    path = inputs.write("t4.txt", ref.table_text(t4))
    ops = [_fuzz_op(path, 1, rng.randrange(1 << 30), pool) for pool in POOLS]
    ops += [_fuzz_op("t3", 30, rng.randrange(1 << 30), pool) for pool in POOLS]
    return ops


def _validate_op(path, table, violations=()):
    return Op(
        id=f"validate {os.path.basename(path)}",
        program="cli",
        args=("validate", path),
        exit_code=1 if violations else 0,
        expect={
            "command": "validate",
            "input": path,
            "order": len(table),
            "valid": not violations,
            "structural": [],
            "out_of_range": [],
            "non_associative": [{"i": i, "j": j, "k": k} for i, j, k in violations],
        },
    )


def _analyze_op(path, answer):
    return Op(
        id=f"analyze {os.path.basename(path)}",
        program="cli",
        args=("analyze", path),
        exit_code=0,
        expect={"command": "analyze", "input": path, **answer},
    )


def _norm_check_op(table_path, norm_path, submultiplicative, statuses):
    ok = submultiplicative["ok"] and "FAIL" not in statuses
    return Op(
        id=f"norm-check {os.path.basename(norm_path)}",
        program="cli",
        args=("norm-check", table_path, norm_path),
        exit_code=0 if ok else 1,
        expect={
            "command": "norm-check",
            "semigroup": table_path,
            "norm": norm_path,
            "submultiplicative": submultiplicative,
            "propositions": [
                {"proposition": p, "status": s} for p, s in zip(SUITE, statuses)
            ],
            "axioms": {"notation": "multiplicative"},
            "pass": ok,
        },
    )


def _bad_table(rng, n=40):
    """A relabelled cyclic group with one entry changed, so it is not
    associative; returns it with every violating triple."""
    table = ref.relabel([[(i + j) % n for j in range(n)] for i in range(n)], _permutation(rng, n))
    i, j = rng.randrange(n), rng.randrange(n)
    table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return table, ref.violating_triples(table)


def verdict(inputs: Inputs, rng) -> list[Op]:
    t4, t4_answer = _t4(rng)
    s5 = ref.relabel(ref.compose_table(ref.permutation_maps(5)), _permutation(rng, 120))
    s5_answer = ref.analyze_reference(s5)
    if s5_answer["natural_order_pairs"] != [[a, a] for a in range(120)]:
        raise RuntimeError("reference natural order on S5 is not equality")
    if rng.randrange(2):
        small_name, small = "null64.txt", [[0] * 64 for _ in range(64)]
    else:
        small_name, small = "leftzero64.txt", [[i] * 64 for i in range(64)]
    small = ref.relabel(small, _permutation(rng, 64))
    bad, violations = _bad_table(rng)

    ops = []
    for name, table, answer in (
        ("t4.txt", t4, t4_answer),
        ("s5.txt", s5, s5_answer),
        (small_name, small, ref.analyze_reference(small)),
    ):
        path = inputs.write(name, ref.table_text(table))
        ops += [_validate_op(path, table), _analyze_op(path, answer)]
    ops.append(_validate_op(inputs.write("bad.txt", ref.table_text(bad)), bad, violations))

    t4_path = os.path.join(inputs.directory, "t4.txt")
    one = inputs.write("one.txt", "1\n" * len(t4))
    zeros = t4_answer["zero_elements"]
    statuses = [
        "PASS", "PASS", "PASS", "PASS",
        "PASS" if ref.is_group(t4) else "INAPPLICABLE",
        "PASS" if zeros["left"] or zeros["right"] else "INAPPLICABLE",
        "PASS",
    ]
    ops.append(_norm_check_op(t4_path, one, {"ok": True, "witness": None}, statuses))

    pool = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    violation = None
    while violation is None:
        values = [rng.choice(pool) for _ in t4]
        violation = ref.first_violation(t4, values)
    a, b = violation
    witness = {
        "a": a,
        "b": b,
        "value_ab": str(values[t4[a][b]]),
        "value_a": str(values[a]),
        "value_b": str(values[b]),
    }
    bad_norm = inputs.write("bad_norm.txt", "".join(f"{v}\n" for v in values))
    ops.append(
        _norm_check_op(t4_path, bad_norm, {"ok": False, "witness": witness},
                       ["INAPPLICABLE"] * len(SUITE))
    )
    return ops


def _rows_json(m):
    return [[str(x) for x in row] for row in m]


def _full_rank_factors(rng, n, r):
    while True:
        b = ref.random_matrix(rng, n, r)
        c = ref.random_matrix(rng, r, n)
        if ref.rank(b) == r == ref.rank(c):
            return b, c


def matrix(inputs: Inputs, rng) -> list[Op]:
    ops = []
    for n, k, mode in ((7, 3, "exact"), (8, 4, "exact"), (9, 4, "exact"), (8, 4, "float")):
        a = ref.random_matrix(rng, n, n)
        path = inputs.write(f"m{n}_{mode}.txt", ref.matrix_text(a))
        value = ref.minor_norm(a, k)
        ops.append(Op(
            id=f"minor-norm n={n} k={k} {mode}",
            program="cli",
            args=("minor-norm", path, "--k", str(k)) + (("--mode", mode) if mode != "exact" else ()),
            exit_code=0,
            expect={
                "command": "minor-norm", "input": path, "mode": mode, "n": n, "k": k,
                "rank": ref.rank(a),
                "norm_value": float(value) if mode == "float" else str(value),
                "norm_nonzero": value != 0,
            },
        ))

    n, k, m_max = 6, 3, 20
    coefficient = math.comb(n, k)
    ops.append(Op(
        id=f"witness n={n} k={k}",
        program="cli",
        args=("witness", "--n", str(n), "--k", str(k), "--m-max", str(m_max)),
        exit_code=0,
        expect={
            "command": "witness", "n": n, "k": k, "coefficient": coefficient,
            "points": [
                {
                    "m": m,
                    "norm_value": str(Fraction(coefficient, m**k)),
                    "rank": k,
                    "in_nonzero_set": True,
                    "pseudoinverse_norm": str(coefficient * m**k),
                    "inverse_bound_holds": True,
                    "product": str(coefficient**2),
                }
                for m in range(1, m_max + 1)
            ],
            "limit": {"norm_value": "0", "rank": 0, "in_nonzero_set": False},
            "not_closed": True,
        },
    ))

    k, pairs = 3, [(ref.random_matrix(rng, 6, 6), ref.random_matrix(rng, 6, 6)) for _ in range(12)]
    for a, b in pairs:
        if ref.minor_norm(ref.matmul(a, b), k) > ref.minor_norm(a, k) * ref.minor_norm(b, k):
            raise RuntimeError("reference minor norms are not submultiplicative")
    path = inputs.write("pairs.json", json.dumps(
        {"k": k, "pairs": [[_rows_json(a), _rows_json(b)] for a, b in pairs]}))
    ops.append(Op("check-pairs", "lib", ("check-pairs", path), 0,
                  {"ok": True, "pair_index": None, "pairs": len(pairs)}))

    pairs = [(ref.random_matrix(rng, 4, 8), ref.random_matrix(rng, 8, 4)) for _ in range(16)]
    path = inputs.write("cauchy_binet.json", json.dumps(
        {"pairs": [[_rows_json(a), _rows_json(b)] for a, b in pairs]}))
    dets = [str(ref.det(ref.matmul(a, b))) for a, b in pairs]
    ops.append(Op("cauchy-binet", "lib", ("cauchy-binet", path), 0,
                  {"identities": [[d, d] for d in dets]}))

    factors = [_full_rank_factors(rng, 7, r) for r in (2, 3, 4, 5, 6) * 2]
    path = inputs.write("ginv.json", json.dumps(
        {"matrices": [_rows_json(ref.matmul(b, c)) for b, c in factors]}))
    ops.append(Op("ginv", "lib", ("ginv", path), 0,
                  {"inverses": [_rows_json(ref.moore_penrose(b, c)) for b, c in factors]}))
    return ops


WORKLOADS = {"fuzz": fuzz, "verdict": verdict, "matrix": matrix}


def build(workload: str, seed: int, directory: str) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](Inputs(directory), rng)
