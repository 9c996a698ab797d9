"""Command line front end.

Exit codes are a stable contract: 0 for success (everything checked out),
1 for a mathematical failure (invalid table, violated inequality, FAIL
verdict), 2 for usage, parse and I/O errors.  JSON output is the primary
format and is byte-identical across runs of the same invocation; --format
text renders the same content for reading.  ``run()`` is the entry of
``python -m semnorms`` and the ``semnorms`` script; ``main(argv)`` runs a
command line in process.
"""

from __future__ import annotations

import argparse
import contextlib
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
    read_text,
)


def _builtin(spec: str):
    """The builtin semigroup named ``spec``, or None when ``spec`` is an
    existing file.  A builtin name wins over a file of the same name."""
    from .semigroups import BUILTIN_SEMIGROUPS, builtin_semigroup

    if spec in BUILTIN_SEMIGROUPS:
        return builtin_semigroup(spec)
    if os.path.exists(spec):
        return None
    known = ", ".join(sorted(BUILTIN_SEMIGROUPS))
    raise ValueError(f"{spec!r} is neither a builtin name ({known}) nor a file")


def _load_semigroup(spec: str):
    from .semigroups import load_cayley_table

    return _builtin(spec) or load_cayley_table(spec)


def _parts(classes) -> list[list[int]]:
    return [sorted(part) for part in classes]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        from .text import render_text

        print(render_text(report))


# ---------------------------------------------------------------------------
# Commands.


def cmd_validate(args) -> int:
    from .semigroups import parse_cayley_text, validate

    s = _builtin(args.input)
    if s is None:
        table, _ = parse_cayley_text(read_text(args.input))
    else:
        table = s.table
    report = validate(table)
    out = {"command": "validate", "input": args.input, "order": len(table)}
    out.update(report.to_jsonable())
    _emit(out, args.format)
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    from .semigroups import (
        green_structure,
        idempotents,
        inverse_sets,
        is_regular,
        natural_order,
        zero_elements,
    )

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
        "inverse_sets": {str(a): list(bs) for a, bs in enumerate(inverse_sets(s))},
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
    from .norms import FAIL, _gated_suite, classify_literature_axioms, load_norm_table

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
        "propositions": [v.to_jsonable() for v in suite],
        "axioms": axioms.to_jsonable(),
        "pass": ok,
    }
    _emit(out, args.format)
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    from .norms import FAIL, PropositionVerdict, _gated_suite, random_submultiplicative_norms

    s = _load_semigroup(args.semigroup)
    try:
        pool = [rational(tok.strip()) for tok in args.pool.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse pool {args.pool!r}; {exc}") from None
    batch = random_submultiplicative_norms(s, args.count, seed=args.seed, value_pool=pool)
    counts = {"PASS": 0, "FAIL": 0, "INAPPLICABLE": 0}
    failures = []
    for index, norm in enumerate(batch.norms):
        # A draw the gate rejects is the generator's fault, not a law's: it
        # is listed as a failure of its own, and the laws behind the gate
        # count as INAPPLICABLE.
        gate, suite = _gated_suite(s, norm)
        for verdict in suite:
            counts[verdict.status] += 1
        if not gate.ok:
            suite = (PropositionVerdict("submultiplicative", FAIL, witness=gate.witness),)
        failures += [
            {"norm_index": index, "norm": [str(v) for v in norm], **verdict.to_jsonable()}
            for verdict in suite
            if verdict.status == FAIL
        ]
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


def _observed() -> bool:
    """Whether something that acts at a normal exit watches this process:
    a trace or profile hook (coverage, cProfile, ``trace``, a debugger),
    on Python 3.12+ a ``sys.monitoring`` tool, or ``-i``, which opens a
    prompt after the program."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or sys.flags.inspect
        or (monitoring and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def run() -> None:
    """The process entry point of ``python -m semnorms`` and the
    ``semnorms`` script: ``main()`` on ``sys.argv``, then end the process.

    Once stdout and stderr are flushed, the report and the exit status are
    all a run leaves, so the process ends through ``os._exit``. That skips
    the interpreter's teardown, which unloads every module and frees every
    object: memory the operating system reclaims anyway, at a fixed cost
    that every run would pay.  The flush is the one the interpreter makes
    at exit, and a stream whose flush fails (stdout into a closed pipe) is
    reported as the interpreter reports it, with its exit status 120.
    A hook that writes its output at a normal exit would lose it, so when
    ``_observed()`` the process ends through ``sys.exit`` instead.
    ``main(argv)`` is the in-process API and returns the status.
    """
    status = main()
    if _observed():
        sys.exit(status)
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except Exception as exc:
            import traceback

            status = 120
            with contextlib.suppress(Exception):
                sys.stderr.write(
                    f"Exception ignored in: {stream!r}\n"
                    + "".join(traceback.format_exception_only(exc))
                )
    os._exit(status)
