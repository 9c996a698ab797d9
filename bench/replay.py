"""Library batches, and CLI commands replayed as their library calls.

    python bench/replay.py check-pairs|cauchy-binet|ginv FILE
    python bench/replay.py --trace OP_ID check-pairs|cauchy-binet|ginv FILE
    python bench/replay.py --trace OP_ID cli <semnorms command line>

Without ``--trace`` a batch prints its results as JSON for the oracle.
With it, the same calls run inside spans and the spans are printed
instead.  ``cli`` replays a command as the sequence of public calls the
CLI makes for it, so each call's time shows as its own span; the run
prints spans only, because the untraced CLI run is the one checked.

A span records its name, start, end, parent span, operation id and the
work counts taken from the call's result or computed from input sizes.
Spans stay in memory until the end.  For ``fuzz``, the replay also probes
``submultiplicative_envelope`` on a table it draws from the same pool;
the probe sits under a span named ``probe`` so it can be told apart from
the calls the command itself makes.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from semnorms import (
    BUILTIN_SEMIGROUPS,
    FiniteSemigroup,
    RatMatrix,
    builtin_semigroup,
    cauchy_binet,
    check_minor_norm_submultiplicative,
    check_submultiplicative,
    classify_literature_axioms,
    generalized_inverse,
    green_structure,
    idempotents,
    inverse_set,
    is_regular,
    load_matrix,
    minor_norm,
    minor_norm_float,
    natural_order,
    parse_cayley_text,
    parse_norm_text,
    random_submultiplicative_norms,
    rank,
    run_suite,
    submultiplicative_envelope,
    validate,
    witness_sequence,
    zero_elements,
)
from semnorms.cli import build_parser


class Tracer:
    """Spans of one operation, kept in memory; inert when disabled."""

    def __init__(self, op_id: str | None):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yields the span's counts dict, which the caller may fill in
        after the call returns."""
        counts: dict = {}
        if self.op_id is None:
            yield counts
            return
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "counts": counts,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _matrix(rows):
    return RatMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def _rows(m):
    return [[str(x) for x in row] for row in m.to_rows()]


# ---------------------------------------------------------------------------
# Library batches.


def check_pairs(tr, path):
    data = json.loads(_read(path))
    pairs = [(_matrix(a), _matrix(b)) for a, b in data["pairs"]]
    with tr.span("matrices.check_minor_norm_submultiplicative") as c:
        result = check_minor_norm_submultiplicative(pairs, data["k"])
    c["pairs"] = len(pairs)
    return {"ok": result.ok, "pair_index": result.pair_index, "pairs": len(pairs)}


def cauchy_binet_batch(tr, path):
    data = json.loads(_read(path))
    identities = []
    for a, b in data["pairs"]:
        alpha, beta = _matrix(a), _matrix(b)
        with tr.span("matrices.cauchy_binet"):
            lhs, rhs = cauchy_binet(alpha, beta)
        identities.append([str(lhs), str(rhs)])
    return {"identities": identities}


def ginv_batch(tr, path):
    inverses = []
    for rows in json.loads(_read(path))["matrices"]:
        a = _matrix(rows)
        with tr.span("matrices.generalized_inverse"):
            g = generalized_inverse(a)
        inverses.append(_rows(g))
    return {"inverses": inverses}


BATCHES = {"check-pairs": check_pairs, "cauchy-binet": cauchy_binet_batch, "ginv": ginv_batch}


# ---------------------------------------------------------------------------
# CLI commands as library calls, in the order the CLI makes them.


def _semigroup(tr, spec):
    if spec in BUILTIN_SEMIGROUPS:
        with tr.span("catalog.builtin_semigroup"):
            return builtin_semigroup(spec)
    text = _read(spec)
    with tr.span("semigroups.parse_cayley_text"):
        rows, labels = parse_cayley_text(text)
    with tr.span("semigroups.FiniteSemigroup") as c:
        s = FiniteSemigroup(tuple(tuple(r) for r in rows), tuple(labels) if labels else None)
    c["triples"] = s.order**3
    return s


def _suite(tr, s, norm):
    with tr.span("propositions.run_suite") as c:
        verdicts = run_suite(s, norm)
    for v in verdicts:
        key = f"verdicts.{v.status}"
        c[key] = c.get(key, 0) + 1


def replay_validate(tr, args):
    text = _read(args.input)
    with tr.span("semigroups.parse_cayley_text"):
        rows, _ = parse_cayley_text(text)
    with tr.span("semigroups.validate") as c:
        report = validate(rows)
    c["violations"] = len(report.non_associative)


def replay_analyze(tr, args):
    s = _semigroup(tr, args.input)
    with tr.span("green.green_structure"):
        green_structure(s)
    with tr.span("semigroups.queries"):
        zero_elements(s)
        s.identity()
        idempotents(s)
        is_regular(s)
        for a in s.elements():
            inverse_set(s, a)
    with tr.span("natural_order.natural_order") as c:
        order = natural_order(s)
    c["pairs"] = len(order.pairs)


def replay_norm_check(tr, args):
    s = _semigroup(tr, args.semigroup)
    text = _read(args.norm)
    with tr.span("norms.parse_norm_text"):
        norm = parse_norm_text(text)
    with tr.span("norms.check_submultiplicative") as c:
        check_submultiplicative(s, norm)
    c["pairs"] = s.order**2
    _suite(tr, s, norm)
    with tr.span("axioms.classify_literature_axioms"):
        classify_literature_axioms(s, norm, notation=args.notation)


def replay_fuzz(tr, args):
    s = _semigroup(tr, args.semigroup)
    pool = [Fraction(tok) for tok in args.pool.split(",") if tok.strip()]
    # Warm the per-semigroup caches here so run_suite's spans hold the
    # checkers' own work.
    with tr.span("green.green_structure"):
        green_structure(s)
    with tr.span("natural_order.natural_order") as c:
        order = natural_order(s)
    c["pairs"] = len(order.pairs)
    with tr.span("norms.random_submultiplicative_norms") as c:
        batch = random_submultiplicative_norms(s, args.count, seed=args.seed, value_pool=pool)
    c["attempts"] = batch.attempts
    c["repaired"] = batch.repaired
    c["accepted"] = batch.attempts - batch.repaired
    for norm in batch.norms:
        _suite(tr, s, norm)

    rng = random.Random(f"probe:{args.seed}:{args.pool}")
    draw = [rng.choice(pool) for _ in s.elements()]
    with tr.span("probe"):
        with tr.span("norms.submultiplicative_envelope") as c:
            envelope = submultiplicative_envelope(s, draw)
    c["nonzero_in"] = sum(v != 0 for v in draw)
    c["zeroed"] = sum(v != 0 and e == 0 for v, e in zip(draw, envelope))


def replay_minor_norm(tr, args):
    with tr.span("matrices.load_matrix"):
        a = load_matrix(args.input)
    with tr.span("matrices.rank"):
        rank(a)
    if args.mode == "float":
        with tr.span("matrices.minor_norm_float"):
            minor_norm_float(a, args.k)
    else:
        with tr.span("matrices.minor_norm") as c:
            minor_norm(a, args.k)
        c["minors"] = math.comb(a.rows, args.k) ** 2


def replay_witness(tr, args):
    with tr.span("matrices.witness_sequence"):
        witness_sequence(args.n, args.k, args.m_max)


COMMANDS = {
    "validate": replay_validate,
    "analyze": replay_analyze,
    "norm-check": replay_norm_check,
    "fuzz": replay_fuzz,
    "minor-norm": replay_minor_norm,
    "witness": replay_witness,
}


def main(argv: list[str]) -> int:
    op_id = None
    if argv[:1] == ["--trace"]:
        op_id, argv = argv[1], argv[2:]
    tr = Tracer(op_id)
    with tr.span("op"):
        if argv[0] == "cli":
            if op_id is None:
                raise SystemExit("cli replays are traced only")
            args = build_parser().parse_args(argv[1:])
            COMMANDS[args.command](tr, args)
            result = None
        else:
            result = BATCHES[argv[0]](tr, argv[1])
    print(json.dumps({"spans": tr.spans} if op_id else result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
