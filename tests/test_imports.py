"""Which packages and submodules a command loads, checked in fresh interpreters.

``sympy`` costs about 0.3 s to import and ``mpmath`` about 0.02 s, and
both are references for the tests alone: no command loads either, and
no module imports ``mpmath``.  The certificates of a ``Y`` expression are
integer intervals (``interval``), and the bound columns integer arithmetic.
The package's own submodules are registered lazily, and a command
executes only those it uses.  No command loads ``dataclasses`` (about
10 ms with the ``inspect``, ``ast`` and ``dis`` it imports): the records
are slotted classes on a base that imports only ``operator``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidcount

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one command line (none: import only) and reports the exit code and
# which of the named modules ended up in sys.modules
PROBE = """
import contextlib, io, json, sys
import braidcount, braidcount.cli
argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = braidcount.cli.main(argv)
print(json.dumps([code, [name in sys.modules for name in names]]))
"""


def loaded(argv, names=("sympy", "mpmath")):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), json.dumps(names)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code, present = json.loads(proc.stdout)
    return code, dict(zip(names, present))


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
    ["bounds", "--braid", "s1^2 s2^-3 s1"],
    ["count", "tuples", "--X", "1000"],
    ["count", "tuples", "--X", "1000", "--j", "3"],
])
def test_bound_columns_load_neither(argv):
    assert loaded(argv) == (0, {"sympy": False, "mpmath": False})


@pytest.mark.parametrize("argv", [
    ["count", "tuples", "--Y", "log(27)"],
    ["count", "words", "--Y", "3*log(3)"],
    ["report", "lambda", "--Y", "600*log(8)"],
    ["report", "entropy", "--Y", "600*pi*log(8)"],
])
def test_y_commands_load_neither(argv):
    assert loaded(argv) == (0, {"sympy": False, "mpmath": False})


#: one command line of each kind the ``cli`` benchmark workload runs
COMMAND_KINDS = [
    ["normalize", "s1^2 s2^2"],
    ["syllables", "a1^3 a2"],
    ["theta", "s1^2 s2^2"],
    ["bounds", "--word", "a1^2 a2^2"],
    ["bounds", "--braid", "s1^2 s2^-3 s1"],
    ["count", "tuples", "--Y", "log(27)"],
    ["count", "words", "--X", "1000"],
    ["count", "classes", "--pairs", "3"],
    ["report", "lambda", "--Y", "600*log(8)"],
    ["report", "entropy", "--Y", "600*pi*log(8)"],
    ["verify", "--suite", "words"],
]


@pytest.mark.parametrize("argv", [[], *COMMAND_KINDS])
def test_no_command_loads_dataclasses_or_inspect(argv):
    code = None if not argv else 0
    assert loaded(argv, ("dataclasses", "inspect")) == (
        code, {"dataclasses": False, "inspect": False}
    )


# as PROBE, but a command line may end in SystemExit: --help and usage errors
EXITING_PROBE = """
import contextlib, io, json, sys
import braidcount.cli
argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = braidcount.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [name in sys.modules for name in names]]))
"""


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in COMMAND_KINDS),
    (["--help"], 0),
    (["count", "words", "-h"], 0),
    (["count", "words", "--Y", "--X", "5"], 2),
    (["verify", "--max", "5"], 2),
])
def test_no_command_loads_argparse_gettext_or_locale(argv, code):
    # argparse with gettext cost about 3 ms to import and building its
    # parser about 4 ms more, locale included; the grammar table needs none
    names = ["argparse", "gettext", "locale"]
    proc = subprocess.run(
        [sys.executable, "-c", EXITING_PROBE, json.dumps(argv), json.dumps(names)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert json.loads(proc.stdout) == [code, [False] * len(names)]


@pytest.mark.parametrize("argv", [
    [],
    ["normalize", "s1^2 s2^2"],
    ["syllables", "a1^3 a2"],
    ["theta", "s1^2 s2^2"],
    ["verify", "--suite", "words"],
])
def test_commands_without_bound_columns_load_no_decimal_or_fractions(argv):
    # cli imports both only where a count renders its bound column
    code = None if not argv else 0
    assert loaded(argv, ("decimal", "fractions")) == (code, {"decimal": False, "fractions": False})


def top_level_imports(path: Path) -> set[str]:
    """The top-level package of every module that ``path`` imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
    return {name.split(".")[0] for name in imported}


MODULES = sorted((SRC / "braidcount").glob("*.py"))


def test_no_module_imports_mpmath():
    for path in MODULES:
        assert "mpmath" not in top_level_imports(path), path.name


def test_no_module_imports_dataclasses():
    for path in MODULES:
        assert "dataclasses" not in top_level_imports(path), path.name


def test_no_module_runs_generated_code():
    builtins = {"exec", "eval", "compile"}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in builtins, f"{path.name}:{node.lineno}"


def test_only_y_loads_exact_forms():
    # braidcount.exactlog and the interval layer it uses are loaded on first use
    code = (
        "import contextlib, io, sys, braidcount.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    braidcount.cli.main(['count', 'words', '--X', '1000'])\n"
        "    braidcount.cli.main(['bounds', '--word', 'a1^2 a2^2'])\n"
        "print({'braidcount.exactlog', 'braidcount.interval'} & set(sys.modules) != set())"
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


SUBMODULES = {"braid", "classes", "counting", "invariants", "oracle", "verify", "words"}

# runs one command line (none: import only) and reports which braidcount
# submodules are registered and which have executed; a registered module
# that has not run is still a lazy module, and type() tells without loading
EXECUTED = """
import contextlib, io, json, sys, types
import braidcount
argv = json.loads(sys.argv[1])
if argv:
    import braidcount.cli
    with contextlib.redirect_stdout(io.StringIO()):
        braidcount.cli.main(argv)
ours = {n[len("braidcount."):]: m for n, m in sys.modules.items() if n.startswith("braidcount.")}
print(json.dumps([sorted(ours), sorted(n for n, m in ours.items() if type(m) is types.ModuleType)]))
"""


def executed(argv):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED, json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    registered, ran = json.loads(proc.stdout)
    return set(registered), set(ran)


def test_import_registers_every_submodule_and_executes_none():
    # the private record base is imported by the submodules that define
    # records, so a bare import leaves it out of sys.modules
    assert executed([]) == (SUBMODULES, set())


@pytest.mark.parametrize("argv", [
    ["count", "words", "--X", "1000"],
    ["count", "tuples", "--X", "1000"],
])
def test_counts_execute_no_braid_or_word_module(argv):
    _, ran = executed(argv)
    assert "counting" in ran
    assert not ran & {"braid", "words", "classes", "oracle"}


@pytest.mark.parametrize("argv", [
    ["normalize", "s1^2 s2^2"],
    ["syllables", "a1^3 a2"],
])
def test_word_commands_execute_no_counting_module(argv):
    _, ran = executed(argv)
    assert "words" in ran
    assert not ran & {"counting", "classes"}


@pytest.mark.parametrize("argv", [
    ["count", "classes", "--pairs", "3"],
    ["count", "words", "--X", "1000"],
    ["count", "tuples", "--X", "1000"],
])
def test_counts_without_a_log_execute_no_invariants(argv):
    # their bound columns are exact fractions, rendered by cli itself
    _, ran = executed(argv)
    assert "invariants" not in ran


def test_report_executes_no_counting_module():
    _, ran = executed(["report", "lambda", "--Y", "600*log(8)"])
    assert "classes" in ran and "counting" not in ran


@pytest.mark.parametrize("argv", [
    ["normalize", "s1^2 s2^2"],
    ["count", "words", "--X", "1000"],
])
def test_only_verify_executes_the_verify_module(argv):
    _, ran = executed(argv)
    assert "verify" not in ran


def test_public_names_are_the_submodule_objects():
    star = {}
    exec("from braidcount import *", star)
    assert set(braidcount.__all__) <= set(dir(braidcount))
    for name in braidcount.__all__:
        held = getattr(sys.modules[f"braidcount.{braidcount._HOME[name]}"], name)
        assert getattr(braidcount, name) is held
        assert star[name] is held
    assert set(star) - {"__builtins__"} == set(braidcount.__all__)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(braidcount, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        braidcount.no_such_name
