"""Which heavy packages a command loads, checked in fresh interpreters.

``sympy`` costs about 0.3 s to import and ``mpmath`` about 0.03 s, so
only the commands that need them may load them: ``sympy`` for a ``Y``
expression, ``mpmath`` for the bound columns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one command line (none: import only) and reports the exit code and
# which of the two packages ended up in sys.modules
PROBE = """
import contextlib, io, json, sys
import braidcount, braidcount.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = braidcount.cli.main(argv)
print(json.dumps([code, "sympy" in sys.modules, "mpmath" in sys.modules]))
"""


def loaded(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code, sympy, mpmath = json.loads(proc.stdout)
    return code, {"sympy": sympy, "mpmath": mpmath}


def test_import_loads_neither():
    assert loaded([]) == (None, {"sympy": False, "mpmath": False})


@pytest.mark.parametrize("argv", [
    ["normalize", "s1^2 s2^2"],
    ["syllables", "a1^3 a2"],
    ["theta", "s1^2 s2^2"],
    ["count", "classes", "--pairs", "3"],
    ["count", "words", "--X", "1000"],
    ["verify", "--suite", "words"],
])
def test_commands_without_bounds_or_y_load_neither(argv):
    assert loaded(argv) == (0, {"sympy": False, "mpmath": False})


@pytest.mark.parametrize("argv", [
    ["bounds", "--word", "a1^2 a2^2"],
    ["count", "tuples", "--X", "1000"],
])
def test_bound_columns_load_mpmath_only(argv):
    assert loaded(argv) == (0, {"sympy": False, "mpmath": True})


@pytest.mark.parametrize("argv", [
    ["count", "tuples", "--Y", "log(27)"],
    ["report", "lambda", "--Y", "600*log(8)"],
])
def test_y_commands_load_sympy(argv):
    assert loaded(argv) == (0, {"sympy": True, "mpmath": True})
