"""Which heavy packages a command loads, checked in fresh interpreters.

``sympy`` costs about 0.3 s to import and ``mpmath`` about 0.03 s, so
only the commands that need them may load them: no command loads
``sympy``, and ``mpmath`` serves the bound columns and the certificates
of a ``Y`` expression.
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
def test_y_commands_load_mpmath_only(argv):
    assert loaded(argv) == (0, {"sympy": False, "mpmath": True})


def test_only_y_loads_exact_forms():
    # braidcount.exactlog is loaded on first use, like sympy and mpmath
    code = (
        "import contextlib, io, sys, braidcount.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    braidcount.cli.main(['count', 'words', '--X', '1000'])\n"
        "    braidcount.cli.main(['bounds', '--word', 'a1^2 a2^2'])\n"
        "print('braidcount.exactlog' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.strip() == "False"


# runs each command line with sympy made unimportable and prints its stdout
WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import braidcount.cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = braidcount.cli.main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""

Y_COMMANDS = [
    ["count", "tuples", "--Y", "log(27)"],
    ["count", "words", "--Y", "3*log(3)"],
    ["report", "lambda", "--Y", "600*log(8)"],
    ["report", "entropy", "--Y", "600*pi*log(8)"],
]


def test_y_commands_run_without_sympy(capsys):
    from braidcount.cli import main

    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SYMPY, json.dumps(Y_COMMANDS)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    expected = []
    for argv in Y_COMMANDS:
        code = main(argv)
        expected.append([code, capsys.readouterr().out])
    assert all(code == 0 for code, _ in expected)
    assert json.loads(proc.stdout) == expected
