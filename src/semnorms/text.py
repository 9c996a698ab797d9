"""The ``--format text`` rendering of each command's report.

``cli`` imports this module only when a run asks for text, so a JSON run
does not compile it.
"""


def render_text(report: dict) -> str:
    if "error" in report:
        return _table_text(f"{report['command']}: {report['error']}", report)
    return _TEXT_RENDERERS[report["command"]](report)


def _table_text(heading: str, r) -> str:
    """``heading``, then one line for each thing a validation report finds
    wrong with a table."""
    return "\n".join([
        heading,
        *(f"  structural: {msg}" for msg in r["structural"]),
        *(f"  out of range at ({e['row']}, {e['col']}): {e['value']}" for e in r["out_of_range"]),
        *(
            f"  associativity fails at ({t['i']}, {t['j']}, {t['k']})"
            for t in r["non_associative"]
        ),
    ])


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
