"""Command line front end.

Exit codes are a stable contract: 0 for success (everything checked out),
1 for a mathematical failure (invalid table, violated inequality, FAIL
verdict), 2 for usage, parse and I/O errors.  JSON output is the primary
format and is byte-identical across runs of the same invocation; --format
text renders the same content for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# Each command imports the modules it runs inside its own function, so a
# command pays only for those; this module loads nothing heavier than
# ``errors`` before it knows which command it runs.
from .errors import (
    DEFAULT_VALUE_POOL,
    NOTATIONS,
    InvalidSemigroupError,
    SemnormsError,
    exact_text,
    rational,
)


def _load_semigroup(spec: str):
    """A builtin name wins over a file of the same name."""
    from .catalog import BUILTIN_SEMIGROUPS, builtin_semigroup
    from .semigroups import load_cayley_table

    if spec in BUILTIN_SEMIGROUPS:
        return builtin_semigroup(spec)
    if os.path.exists(spec):
        return load_cayley_table(spec)
    known = ", ".join(sorted(BUILTIN_SEMIGROUPS))
    raise ValueError(f"{spec!r} is neither a builtin name ({known}) nor a file")


def _parts(classes) -> list[list[int]]:
    return [sorted(part) for part in classes]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))


# ---------------------------------------------------------------------------
# Commands.


def cmd_validate(args) -> int:
    from .catalog import BUILTIN_SEMIGROUPS, builtin_semigroup
    from .semigroups import parse_cayley_text, validate

    if args.input in BUILTIN_SEMIGROUPS:
        table = builtin_semigroup(args.input).table
    else:
        with open(args.input, encoding="utf-8") as fh:
            table, _ = parse_cayley_text(fh.read())
    report = validate(table)
    out = {"command": "validate", "input": args.input, "order": len(table)}
    out.update(report.to_jsonable())
    _emit(out, args.format)
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    from .green import green_structure
    from .order import natural_order
    from .semigroups import idempotents, inverse_set, is_regular, zero_elements

    s = _load_semigroup(args.input)
    g = green_structure(s)
    zeros = zero_elements(s)
    out = {
        "command": "analyze",
        "input": args.input,
        "order": s.order,
        "identity": s.identity(),
        "idempotents": sorted(idempotents(s)),
        "regular": is_regular(s),
        "inverse_sets": {str(a): sorted(inverse_set(s, a)) for a in s.elements()},
        "zero_elements": {
            "left": sorted(zeros.left),
            "right": sorted(zeros.right),
            "two_sided": sorted(zeros.two_sided),
        },
        "green": {
            "r_classes": _parts(g.r_classes),
            "l_classes": _parts(g.l_classes),
            "d_classes": _parts(g.d_classes),
            "h_classes": _parts(g.h_classes),
        },
        "natural_order_pairs": sorted([a, b] for a, b in natural_order(s).pairs),
    }
    _emit(out, args.format)
    return 0


def cmd_norm_check(args) -> int:
    from .axioms import classify_literature_axioms
    from .norms import load_norm_table
    from .propositions import FAIL, _gated_suite, suite_to_jsonable

    s = _load_semigroup(args.semigroup)
    norm = load_norm_table(args.norm)
    verdict, suite = _gated_suite(s, norm)
    axioms = classify_literature_axioms(s, norm, notation=args.notation)
    ok = verdict.ok and all(v.status != FAIL for v in suite)
    out = {
        "command": "norm-check",
        "semigroup": args.semigroup,
        "norm": args.norm,
        "submultiplicative": verdict.to_jsonable(),
        "propositions": suite_to_jsonable(suite),
        "axioms": axioms.to_jsonable(),
        "pass": ok,
    }
    _emit(out, args.format)
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from .norms import random_submultiplicative_norms
    from .propositions import FAIL, run_suite

    s = _load_semigroup(args.semigroup)
    try:
        pool = [rational(tok.strip()) for tok in args.pool.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse pool {args.pool!r}; {exc}") from None
    batch = random_submultiplicative_norms(s, args.count, seed=args.seed, value_pool=pool)
    counts = {"PASS": 0, "FAIL": 0, "INAPPLICABLE": 0}
    failures = []
    for index, norm in enumerate(batch.norms):
        for verdict in run_suite(s, norm):
            counts[verdict.status] += 1
            if verdict.status == FAIL:
                failures.append(
                    {
                        "norm_index": index,
                        "norm": [str(v) for v in norm],
                        **verdict.to_jsonable(),
                    }
                )
    out = {
        "command": "fuzz",
        "semigroup": args.semigroup,
        "seed": args.seed,
        "pool": [str(Fraction(v)) for v in pool],
        "requested": batch.requested,
        "generated": len(batch.norms),
        "attempts": batch.attempts,
        "repaired": batch.repaired,
        "checker_runs": sum(counts.values()),
        "verdict_counts": counts,
        "failures": failures,
        "pass": not failures,
    }
    _emit(out, args.format)
    return 0 if not failures else 1


def cmd_minor_norm(args) -> int:
    from .matrices import load_matrix, minor_norm, nearest_float, rank

    a = load_matrix(args.input)
    value = minor_norm(a, args.k)
    out = {
        "command": "minor-norm",
        "input": args.input,
        "mode": args.mode,
        "n": a.rows,
        "k": args.k,
        "rank": rank(a),
        "norm_value": (
            nearest_float(value) if args.mode == "float"
            else exact_text(value, f"the order-{args.k} norm")
        ),
        "norm_nonzero": value != 0,
    }
    _emit(out, args.format)
    return 0


def cmd_witness(args) -> int:
    from .matrices import witness_sequence

    report = witness_sequence(args.n, args.k, args.m_max)
    out = {"command": "witness", **report.to_jsonable()}
    _emit(out, args.format)
    return 0 if report.not_closed else 1


# ---------------------------------------------------------------------------
# Text rendering.


def _render_text(report: dict) -> str:
    if "error" in report:
        return _table_text(f"{report['command']}: {report['error']}", report)
    return _TEXT_RENDERERS[report["command"]](report)


def _table_text(heading: str, r) -> str:
    """``heading``, then one line for each thing a validation report finds
    wrong with a table."""
    lines = [heading]
    for msg in r["structural"]:
        lines.append(f"  structural: {msg}")
    for e in r["out_of_range"]:
        lines.append(f"  out of range at ({e['row']}, {e['col']}): {e['value']}")
    for t in r["non_associative"]:
        lines.append(f"  associativity fails at ({t['i']}, {t['j']}, {t['k']})")
    return "\n".join(lines)


def _text_validate(r) -> str:
    verdict = "valid" if r["valid"] else "INVALID"
    return _table_text(f"table {r['input']} (order {r['order']}): {verdict}", r)


def _text_analyze(r) -> str:
    g = r["green"]
    lines = [
        f"semigroup {r['input']}: order {r['order']}, "
        + ("regular" if r["regular"] else "not regular"),
        f"  identity: {r['identity']}",
        f"  idempotents: {r['idempotents']}",
        f"  zero elements: left {r['zero_elements']['left']}, "
        f"right {r['zero_elements']['right']}, "
        f"two-sided {r['zero_elements']['two_sided']}",
        f"  R classes: {g['r_classes']}",
        f"  L classes: {g['l_classes']}",
        f"  D classes: {g['d_classes']}",
        f"  H classes: {g['h_classes']}",
        f"  natural order: {len(r['natural_order_pairs'])} pairs",
    ]
    return "\n".join(lines)


def _text_norm_check(r) -> str:
    sub = r["submultiplicative"]
    lines = [f"norm {r['norm']} on {r['semigroup']}: "
             + ("PASS" if r["pass"] else "FAIL")]
    if sub["ok"]:
        lines.append("  submultiplicative: yes")
    else:
        w = sub["witness"]
        lines.append(
            f"  submultiplicative: NO, value({w['a']}*{w['b']}) = {w['value_ab']}"
            f" > {w['value_a']} * {w['value_b']}"
        )
    for v in r["propositions"]:
        extra = ""
        if "witness" in v:
            extra = f" witness {v['witness']}"
        elif "detail" in v:
            extra = f" ({v['detail']})"
        lines.append(f"  {v['proposition']}: {v['status']}{extra}")
    for e in r["axioms"]["entries"]:
        note = f" ({e['note']})" if "note" in e else ""
        witness = f" witness {e['witness']}" if "witness" in e else ""
        lines.append(f"  {e['definition']}.{e['axiom']}: {e['status']}{witness}{note}")
    return "\n".join(lines)


def _text_fuzz(r) -> str:
    lines = [
        f"fuzz {r['semigroup']} seed {r['seed']}: {r['generated']} norms "
        f"({r['repaired']} repaired), {r['checker_runs']} checker runs",
        f"  verdicts: {r['verdict_counts']}",
        f"  result: {'PASS' if r['pass'] else 'FAIL'}",
    ]
    for f in r["failures"]:
        lines.append(
            f"  FAIL norm {f['norm_index']} {f['norm']}: {f['proposition']}"
            f" witness {f.get('witness')}"
        )
    return "\n".join(lines)


def _text_minor_norm(r) -> str:
    return (
        f"matrix {r['input']} (order {r['n']}): rank {r['rank']}, "
        f"order-{r['k']} norm {r['norm_value']} ({r['mode']} mode), "
        + ("nonzero" if r["norm_nonzero"] else "zero")
    )


def _text_witness(r) -> str:
    lines = [
        f"boundary sequence for n={r['n']}, k={r['k']} "
        f"(coefficient {r['coefficient']}):",
        "  m | norm | rank | pseudoinverse norm | product",
    ]
    for p in r["points"]:
        lines.append(
            f"  {p['m']} | {p['norm_value']} | {p['rank']} | "
            f"{p['pseudoinverse_norm']} | {p['product']}"
        )
    limit = r["limit"]
    lines.append(
        f"  limit: zero matrix, norm {limit['norm_value']}, rank {limit['rank']}, "
        + ("inside" if limit["in_nonzero_set"] else "outside")
        + " the nonzero-norm set"
    )
    if r["not_closed"]:
        lines.append(
            "  conclusion: the set of matrices with nonzero order-k norm "
            "(rank >= k) is NOT closed: it contains every sequence point "
            "but not the limit"
        )
    else:
        lines.append("  conclusion flag not established")
    return "\n".join(lines)


_TEXT_RENDERERS = {
    "validate": _text_validate,
    "analyze": _text_analyze,
    "norm-check": _text_norm_check,
    "fuzz": _text_fuzz,
    "minor-norm": _text_minor_norm,
    "witness": _text_witness,
}


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnorms",
        description="Submultiplicative norms on finite semigroups and "
        "minor-based matrix norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("validate", help="check a Cayley table exhaustively")
    p.add_argument("input", help="builtin name or Cayley-table file")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="idempotents, Green classes, natural order")
    p.add_argument("input", help="builtin name or Cayley-table file")
    add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("norm-check", help="verdicts for one norm table")
    p.add_argument("semigroup", help="builtin name or Cayley-table file")
    p.add_argument("norm", help="norm-table file, one value per line")
    p.add_argument("--notation", choices=NOTATIONS, default="multiplicative")
    add_format(p)
    p.set_defaults(func=cmd_norm_check)

    p = sub.add_parser("fuzz", help="random norms through every checker")
    p.add_argument("semigroup", help="builtin name or Cayley-table file")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--pool",
        default=",".join(str(v) for v in DEFAULT_VALUE_POOL),
        help="comma-separated rational values (default %(default)s)",
    )
    add_format(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("minor-norm", help="order-k norm of one matrix")
    p.add_argument("input", help="matrix file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    add_format(p)
    p.set_defaults(func=cmd_minor_norm)

    p = sub.add_parser("witness", help="the boundary sequence x_m and its norms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-max", type=int, default=10, dest="m_max")
    add_format(p)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidSemigroupError as exc:
        report = {"command": args.command, "error": "invalid semigroup"}
        report.update(exc.report.to_jsonable())
        _emit(report, args.format)
        return 1
    except (SemnormsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
