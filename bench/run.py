"""The semnorms benchmark.

    python3 bench/run.py --workload fuzz|verdict|matrix --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up writes the workload's inputs and
oracles from the seed, then makes one untimed warm-up run.  The timed part
runs the workload's operations one after another, each in a fresh
process, until ``--seconds`` have passed and every operation has run at
least once, and checks every output against its oracle.  With
``--trace 1`` each operation is also replayed as its library calls inside
spans, and the per-layer metrics replace the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (machine, op
list, every execution with its stdout sha256, spans) goes to
``bench/results/<workload>-seed<N>-trace<T>.json``.  README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import workloads
from harness import BENCH_DIR, ROOT, WORK_DIR, execute, failure, tally

# Set-up is repeated and its median reported, so one slow repetition
# (or the first one, which also compiles bytecode) does not decide it.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# Span names, one per public call the replays wrap; each gets busy_s.
LAYERS = (
    "semigroups.FiniteSemigroup",
    "semigroups.validate",
    "semigroups.parse_cayley_text",
    "semigroups.queries",
    "catalog.builtin_semigroup",
    "green.green_structure",
    "natural_order.natural_order",
    "norms.random_submultiplicative_norms",
    "norms.submultiplicative_envelope",
    "norms.check_submultiplicative",
    "norms.parse_norm_text",
    "propositions.run_suite",
    "axioms.classify_literature_axioms",
    "matrices.minor_norm",
    "matrices.minor_norm_float",
    "matrices.load_matrix",
    "matrices.witness_sequence",
    "matrices.generalized_inverse",
    "matrices.rank",
    "matrices.check_minor_norm_submultiplicative",
    "matrices.cauchy_binet",
)
CALLS = (
    "green.green_structure",
    "norms.check_submultiplicative",
    "propositions.run_suite",
    "axioms.classify_literature_axioms",
    "matrices.minor_norm",
    "matrices.cauchy_binet",
)
# Work counts recorded on spans.  "computed" ones follow from input sizes
# (n^3 triples, n^2 pairs, C(n,k)^2 minors), the rest from results.
COUNTS = (
    "semigroups.FiniteSemigroup.triples",
    "semigroups.validate.violations",
    "natural_order.natural_order.pairs",
    "norms.random_submultiplicative_norms.attempts",
    "norms.random_submultiplicative_norms.repaired",
    "norms.check_submultiplicative.pairs",
    "propositions.run_suite.verdicts.PASS",
    "propositions.run_suite.verdicts.FAIL",
    "propositions.run_suite.verdicts.INAPPLICABLE",
    "matrices.minor_norm.minors",
    "matrices.check_minor_norm_submultiplicative.pairs",
)
COMPUTED_COUNTS = (
    "semigroups.FiniteSemigroup.triples",
    "norms.check_submultiplicative.pairs",
    "matrices.minor_norm.minors",
)
RATIOS = {
    # name: (numerator count, denominator count, unit)
    "norms.random_submultiplicative_norms.accept_ratio": ("accepted", "attempts", "ratio"),
    "norms.submultiplicative_envelope.zeroed_share": ("zeroed", "nonzero_in", "share"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        if layer in CALLS:
            units[f"{layer}.calls"] = "count"
        units.update((c, "count") for c in COUNTS if c.startswith(layer + "."))
        units.update(
            (name, unit) for name, (_, _, unit) in RATIOS.items() if name.startswith(layer + ".")
        )
    units["cli.overhead_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Set-up.


class SetupError(Exception):
    pass


def warm_up() -> None:
    """Compile bytecode with one CLI run, and make sure children import
    semnorms from this checkout's src/."""
    probe = execute("import", ["-c", "import semnorms.cli as c; print(c.__file__)"])
    where = probe.stdout.decode().strip()
    if probe.exit_code != 0 or not where.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SetupError(f"semnorms does not import from {ROOT}/src: {probe.stderr.decode()}")
    if execute("warm-up", ["-m", "semnorms", "validate", "z2"]).exit_code != 0:
        raise SetupError("warm-up run of the CLI failed")


def set_up(workload: str, seed: int):
    directory = os.path.relpath(os.path.join(WORK_DIR, f"{workload}-{seed}"), ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(os.path.join(ROOT, directory), ignore_errors=True)
        ops = workloads.build(workload, seed, directory)
        warm_up()
        times.append(time.perf_counter() - start)
    return ops, directory, times


# ---------------------------------------------------------------------------
# Timed runs.


def _record(op, outcome, verdict):
    return {
        "op": op.id,
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "maxrss_mb": outcome.maxrss_mb,
        "exit_code": outcome.exit_code,
        "stdout_sha256": outcome.stdout_sha256,
        "failure": verdict,
    }


def run_plain(ops, seconds):
    """Cycle through the ops until the time is up and each has run once."""
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < len(ops) or time.perf_counter() < deadline:
        op = ops[len(runs) % len(ops)]
        outcome = execute(op.id, op.argv())
        runs.append((op, outcome, failure(op, outcome)))
    return runs


def _by_op(runs, attr):
    samples = defaultdict(list)
    for op, outcome, _ in runs:
        samples[op.id].append(getattr(outcome, attr))
    return samples


def end_to_end(runs, setup_times):
    attempted, failed = tally(v for _, _, v in runs)
    values = {
        "setup_s": statistics.median(setup_times),
        # One pass over the op list, each op at its median.
        "wall_s": sum(statistics.median(v) for v in _by_op(runs, "wall_s").values()),
        "cpu_s": sum(statistics.median(v) for v in _by_op(runs, "cpu_s").values()),
        "peak_rss_mb": max(o.maxrss_mb for _, o, _ in runs),
        "ok_share": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _replay_failure(op, outcome):
    """A replay must exit 0 and print spans; the untraced run of the same op
    is the one whose report is checked."""
    found = failure(dataclasses.replace(op, exit_code=0, expect={}), outcome)
    if found is None and not json.loads(outcome.stdout).get("spans"):
        found = "replay printed no spans"
    return found


def run_traced(ops, seconds):
    """Whole passes until the time is up: each op untraced, then replayed."""
    passes, runs, replays, samples = 0, [], [], []
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for op in ops:
            plain = execute(op.id, op.argv())
            runs.append((op, plain, failure(op, plain)))
            traced = execute(op.id, op.traced_argv())
            verdict = _replay_failure(op, traced)
            replays.append((op, traced, verdict))
            if verdict is None:
                samples.append((plain, traced, json.loads(traced.stdout)["spans"]))
        passes += 1
    return runs, replays, samples, passes


def per_layer(samples, passes):
    """Per-pass totals over the traced replays.  A span's busy time is its
    duration; the root span of every replay is index 0."""
    busy, calls, counts = defaultdict(float), Counter(), Counter()
    cli_overhead = trace_overhead = 0.0
    for plain, traced, spans in samples:
        top = [s for s in spans if s["parent"] == 0]
        probe = sum(s["end"] - s["start"] for s in top if s["name"] == "probe")
        layered = sum(s["end"] - s["start"] for s in top if s["name"] != "probe")
        cli_overhead += plain.wall_s - layered
        trace_overhead += traced.wall_s - probe - plain.wall_s
        for s in spans:
            busy[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
            for key, value in s["counts"].items():
                counts[f"{s['name']}.{key}"] += value
    values = {"cli.overhead_s": cli_overhead / passes, "trace.overhead_s": trace_overhead / passes}
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = busy[layer] / passes
    for layer in CALLS:
        values[f"{layer}.calls"] = calls[layer] / passes
    for name in COUNTS:
        values[name] = counts[name] / passes
    for name, (num, den, _) in RATIOS.items():
        layer = name.rsplit(".", 1)[0]
        total = counts[f"{layer}.{den}"]
        values[name] = counts[f"{layer}.{num}"] / total if total else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


# ---------------------------------------------------------------------------
# Description of the machine and the run.


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256():
    """Identifies the code under test when the checkout is not a git tree."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def describe(args, ops):
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "ops": [
            {"id": op.id, "argv": op.argv(), "exit_code": op.exit_code} for op in ops
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semnorms", "__init__.py")):
        print(f"error: no semnorms sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        ops, directory, setup_times = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, replays, samples, passes = run_traced(ops, args.seconds)
            metrics = per_layer(samples, passes)
        else:
            runs, replays, samples = run_plain(ops, args.seconds), [], []
            metrics = end_to_end(runs, setup_times)
    finally:
        shutil.rmtree(os.path.join(ROOT, directory), ignore_errors=True)
    attempted, failed = tally(v for _, _, v in runs + replays)

    record = describe(args, ops)
    record.update(
        setup_s=setup_times,
        per_op={
            op_id: {"samples": len(v), "median_wall_s": statistics.median(v)}
            for op_id, v in _by_op(runs, "wall_s").items()
        },
        executions=[_record(*run) for run in runs],
        replays=[_record(*run) for run in replays],
        spans=[span for _, _, spans in samples for span in spans],
        computed_counts=list(COMPUTED_COUNTS) if args.trace else [],
        metrics=metrics,
    )
    results = os.path.join(BENCH_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"machine: {m['nproc']} x {m['cpu_model']}, Python {m['python']}; "
          f"commit {record['commit'] or 'unknown'}, src {record['src_sha256'][:12]}")
    for op, _, verdict in runs + replays:
        if verdict:
            print(f"FAILED {op.id}: {verdict}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
