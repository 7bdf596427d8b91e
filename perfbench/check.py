"""One CLI invocation run in-process, and the check of its output.

An invocation fails when an exception escapes ``main``, when it exits
outside {0, 1, 2}, or when its output fails its check. Every failure
except a crash on a random spec is also a problem, which makes the run
incorrect. Checked-in specs
and the ladder are checked byte for byte against the stdout digests in
``digests.json``, written by ``record_digests.py`` from the code before
any optimisation: ROADMAP's byte-identity rule. Random specs are
checked against invariants that no byte-identical refactor and no
planned closed-form fix can change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

DIGESTS = Path(__file__).with_name("digests.json")
ALLOWED_EXITS = (0, 1, 2)

# Checks take (exit code, stdout) and return a problem or None.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Check
    # Pinned to a recorded output that completed: a crash here is a wrong
    # answer, not a known failure of the program.
    pinned: bool = False


@dataclass(frozen=True)
class Outcome:
    argv: tuple[str, ...]
    seconds: float
    exit_code: int | None
    stdout_sha256: str
    crash: str | None
    problem: str | None
    peak_rss_kb: int = 0  # of the process that ran the invocation, if measured
    started: float = 0.0  # perf_counter() when main was called
    ref_seconds: float = 0.0  # duration at reference host speed, if sampled (see speed.py)

    @property
    def failed(self) -> bool:
        return self.crash is not None or self.problem is not None


def invoke(cli, invocation: Invocation) -> Outcome:
    """Run ``cli.main`` on one argv with stdout and stderr captured.

    ``main`` is looked up on the module at call time so that a traced
    pass goes through the installed wrapper.
    """
    out = io.StringIO()
    crash = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(invocation.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the benchmark records crashes and keeps going
        crash = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    stdout = out.getvalue()
    problem = None
    if crash is not None and invocation.pinned:
        problem = "crashed where the recorded output completed"
    elif crash is None:
        if code not in ALLOWED_EXITS:
            problem = f"exit code {code!r} outside {ALLOWED_EXITS}"
        else:
            try:
                problem = invocation.check(code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
    sha256 = hashlib.sha256(stdout.encode()).hexdigest()
    return Outcome(invocation.argv, seconds, code, sha256, crash, problem, started=start)


def digest_key(argv) -> str:
    return " ".join(argv)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def digest_check(expected: dict) -> Check:
    """Exit code and stdout sha256 must equal the recorded ones."""

    def check(code: int, stdout: str) -> str | None:
        got = {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        return None if got == expected else f"expected {expected}, got {got}"

    return check


def _section(stdout: str, command: str) -> dict:
    return json.loads(stdout)["sections"][command]


def sections_check(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"sections exited {code}"
    if _section(stdout, "sections")["riemann_roch_balanced"] is not True:
        return "riemann_roch_balanced is not true"
    return None


def deform_check(spec: dict, weights: range) -> Check:
    """``t0_direct - t1_direct = D*m + 3 - 3g`` at every weight of the range.

    Riemann-Roch for the twist ``T (x) L^m``, whose degree is
    ``D*m + 2 - 2g``. D and g are read from the spec, not the output.
    """
    degree = sum(spec["bundle"]["multidegree"])
    genus = len(spec["nodes"]) - len(spec["components"]) + 1

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"deform exited {code}"
        entries = _section(stdout, "deform")["entries"]
        if [e["m"] for e in entries] != list(weights):
            return "deform table does not cover the requested weights"
        for e in entries:
            if e["t0_direct"] - e["t1_direct"] != degree * e["m"] + 3 - 3 * genus:
                return f"t0_direct - t1_direct != D*m + 3 - 3g at m = {e['m']}"
        return None

    return check


VERIFY_MUST_PASS = ("riemann-roch", "basis-gluing-exact", "basis-independent")


def verify_check(code: int, stdout: str) -> str | None:
    if code not in (0, 1):
        return f"verify exited {code}"
    status = {c["name"]: c["status"] for c in _section(stdout, "verify")["checks"]}
    bad = [name for name in VERIFY_MUST_PASS if status.get(name) != "ok"]
    return f"checks not ok: {bad}" if bad else None
