"""Record the expected outputs that the benchmark checks against.

Usage: python3 bench/pin.py

Runs every command-line corpus entry and every large count as a fresh
``python3 -m braidcount.cli`` process, computes ``count_words`` for the
``many_small`` thresholds, and writes ``bench/expected.json``.  The
checked-in file was produced from the tree at commit 7f144c4; rerun it
only when an output is meant to change.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import inputs
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def cli_stdout(argv: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "braidcount.cli", *argv],
        capture_output=True, env=run.child_env(), cwd=ROOT, check=True, timeout=600,
    )
    return proc.stdout


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from braidcount import counting

    cli = {
        kind: [
            hashlib.sha256(cli_stdout(inputs.cli_argv(kind, i))).hexdigest()
            for i in range(inputs.CLI_CORPUS_SIZE)
        ]
        for kind in inputs.CLI_KINDS
    }
    large = {
        workload: {
            str(x): cli_stdout(inputs.large_argv(workload, x)).decode()
            for x in inputs.LARGE_X
        }
        for workload in ("count_words", "count_tuples")
    }
    words = {str(x): counting.count_words(x) for x in inputs.SMALL_WORDS_X}
    out = {"cli": cli, "large": large, "count_words": words}
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
