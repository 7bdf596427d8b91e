"""Rewrite ``digests.json`` from the current code.

    python3 perfbench/record_digests.py

The digests pin the stdout of every checked-in curve under ``verify``
and every ladder rung under ``ideal``. Rerun this only for a change
whose purpose is to alter that output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import check
import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import nodalcone.cli as cli

    digests = {}
    for argv in run.curve_argvs() + run.ladder_argvs():
        outcome = check.invoke(cli, check.Invocation(argv, lambda code, stdout: None))
        if outcome.failed:
            print(f"{' '.join(argv)}: {outcome.crash or outcome.problem}", file=sys.stderr)
            return 1
        digests[check.digest_key(argv)] = {"exit": outcome.exit_code, "sha256": outcome.stdout_sha256}
    check.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
