"""Running one operation in a fresh process and judging its outcome.

An operation fails when its process times out, prints a traceback, exits
with another code than its oracle expects, prints something that is not
JSON, or prints a report that differs from the oracle.  ``failure`` is
the single place that decides this; ``tally`` counts with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REPLAY = os.path.join(os.path.basename(BENCH_DIR), "replay.py")
WORK_DIR = os.path.join(BENCH_DIR, "work")

# The slowest operation takes about 6 s on a 2-core Xeon; ten times that
# is a hang, not noise.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    """One user-level operation and its oracle.

    ``program`` is ``cli`` for ``python -m semnorms <args>`` or ``lib`` for
    a library batch run by ``replay.py <args>``.  ``expect`` is the part of
    the JSON report that must match exactly (see ``mismatch``).
    """

    id: str
    program: str
    args: tuple[str, ...]
    exit_code: int
    expect: dict

    def argv(self) -> list[str]:
        if self.program == "cli":
            return ["-m", "semnorms", *self.args]
        return [REPLAY, *self.args]

    def traced_argv(self) -> list[str]:
        prefix = ["cli"] if self.program == "cli" else []
        return [REPLAY, "--trace", self.id, *prefix, *self.args]


@dataclass
class Outcome:
    op_id: str
    exit_code: int | None
    stdout: bytes = field(repr=False)
    stderr: bytes = field(repr=False)
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool = False

    @property
    def stdout_sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict:
    """Children import semnorms from this checkout's src/ and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def execute(op_id: str, argv: list[str], timeout: float = TIMEOUT_S) -> Outcome:
    """Run ``python <argv>`` from the checkout root, reap it with wait4 for
    its resource usage, and kill it if it outlives ``timeout``."""
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, tempfile.TemporaryFile(dir=WORK_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timed_out = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    timed_out = True
                    proc.kill()
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            op_id=op_id,
            exit_code=None if timed_out else proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
            timed_out=timed_out,
        )


def mismatch(expected, actual, path="$"):
    """None when ``actual`` agrees with ``expected``, else where it differs.

    Dicts match on the keys of ``expected`` only, lists elementwise and
    with equal length, floats within a relative 1e-9, anything else by
    equality.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = mismatch(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float):
        ok = isinstance(actual, (int, float)) and abs(actual - expected) <= 1e-9 * max(1.0, abs(expected))
    else:
        ok = type(actual) is type(expected) and actual == expected
    return None if ok else f"{path}: expected {expected!r}, got {actual!r}"


def failure(op: Op, outcome: Outcome) -> str | None:
    """Why ``outcome`` fails ``op``'s oracle, or None when it is correct."""
    if outcome.timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in outcome.stderr:
        return "traceback"
    if outcome.exit_code != op.exit_code:
        return f"exit code {outcome.exit_code}, expected {op.exit_code}"
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        return "stdout is not JSON"
    found = mismatch(op.expect, report)
    return f"wrong verdict at {found}" if found else None


def tally(verdicts) -> tuple[int, int]:
    """(attempted, failed) over an iterable of ``failure`` results."""
    verdicts = list(verdicts)
    return len(verdicts), sum(v is not None for v in verdicts)
