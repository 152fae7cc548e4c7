"""The grammar-table reader of ``cli`` against the argparse parser it replaced.

``argparse_cli`` keeps that parser, with its ``--Y`` value shim, unchanged.
A seeded grammar draws command lines around every command: valid ones,
each option spelt ``--opt v``, ``--opt=v`` or as a prefix, and mutations
that insert, drop or repeat tokens (bad ints and choices, unknown options,
``--``, ``-h`` and values that start with ``-``).  On each, both readers
must exit with the same code and error line or give the same handler and
values.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import argparse_cli
from braidcount import cli

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = 2000
SEED = 20301

#: valid values of each option, then values that only some readers take
VALUES = {
    "--X": ["27", "1000", "0", "1_000", " 7", "-5", "+81"],
    "--Y": ["log(27)", "3*log(3)", "600*log(8)", "-log(2)", "-10**100", "nope(3)"],
    "--j": ["1", "3", "-2"],
    "--max-len": ["2", "5", "-1"],
    "--workers": ["1", "2", "0"],
    "--pairs": ["2", "3", "0"],
    "--word": ["a1^2 a2^2", "a1^4", "-a1"],
    "--braid": ["s1^2 s2^-3 s1", "D^2"],
    "--suite": ["words", "nosuch"],
    "--max-x": ["60", "-5"],
    "--conj-len": ["1", "5"],
    "--format": ["json", "csv", "plain"],
}
BAD = [
    "abc", "1.5", "", "9" * 5000, "json5", "-", "--", "-h", "-hh", "-x", "-1.5", "-.5",
    "-a b", "--a b", "-log(2)", "--X", "--Y", "٣", "-٣", "-5\n",
]
#: a valid command line of each command, as (command words, tokens after them)
BASES = [
    (["normalize"], ["s1^2 s2^2"]),
    (["syllables"], ["a1^3 a2"]),
    (["theta"], ["s1^2 s2^2"]),
    (["bounds"], ["--word", "a1^2 a2^2"]),
    (["bounds"], ["--braid", "s1^2 s2^-3 s1"]),
    (["count", "tuples"], ["--X", "27"]),
    (["count", "tuples"], ["--Y", "log(27)", "--j", "2"]),
    (["count", "words"], ["--X", "1000", "--max-len", "3", "--workers", "1"]),
    (["count", "words"], ["--Y", "3*log(3)"]),
    (["count", "classes"], ["--pairs", "3"]),
    (["report"], ["lambda", "--Y", "600*log(8)"]),
    (["report"], ["entropy", "--Y", "600*pi*log(8)"]),
    (["verify"], ["--suite", "words"]),
    (["verify"], ["--suite", "words", "--max-len", "2", "--conj-len", "1"]),
]
#: spellings of options beyond their names: unique and ambiguous prefixes,
#: help, and options no command has
SPELLINGS = [
    "--form", "--fo", "--f", "--wor", "--br", "--work", "--max", "--max-", "--max-l", "--ma",
    "--pa", "--su", "--conj", "--c", "--h", "--he", "--help", "-h", "-hh", "-hx", "-h=h",
    "--help=x", "--bogus", "--bogus=1", "-x", "--=x", "--", "---", "--j", "--X", "--Y",
]
WORDS = ["normalize", "count", "tuples", "words", "classes", "report", "lambda", "entropy",
         "verify", "bounds", "normalise", "nope"]


def spell(rng: random.Random, option: str, value: str) -> list[str]:
    """``option value`` as two tokens, one ``=`` token, or through a prefix;
    ``--opt=--`` is left to its own test, as the readers differ there."""
    name = option[: rng.randint(3, len(option))] if rng.random() < 0.2 else option
    return [f"{name}={value}"] if rng.random() < 0.3 and value != "--" else [name, value]


def draw(rng: random.Random) -> list[str]:
    words, tail = rng.choice(BASES)
    tokens: list[str] = []
    i = 0
    while i < len(tail):  # respell each option with its value
        if tail[i].startswith("--"):
            tokens += spell(rng, tail[i], tail[i + 1])
            i += 2
        else:
            tokens.append(tail[i])
            i += 1
    argv = [*words, *tokens]
    if rng.random() < 0.3:  # --format after any command word, or first
        at = rng.choice([0, *range(1, len(words) + 1), len(argv)])
        argv[at:at] = spell(rng, "--format", rng.choice(VALUES["--format"] + ["xml"]))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        mutation = rng.random()
        at = rng.randint(0, len(argv))
        if mutation < 0.25 and argv:
            del argv[rng.randrange(len(argv))]
        elif mutation < 0.5:
            option = rng.choice(list(VALUES))
            value = rng.choice(VALUES[option] + BAD)
            argv[at:at] = spell(rng, option, value)
        elif mutation < 0.7:
            argv.insert(at, rng.choice(SPELLINGS))
        elif mutation < 0.85:
            argv.insert(at, rng.choice(BAD + WORDS))
        elif argv:
            j = rng.randrange(len(argv))
            argv[j] = rng.choice(BAD + SPELLINGS + WORDS)
    if rng.random() < 0.1:  # argparse drops a final -- only after a positional
        argv.append("--")
    return argv


def outcome(parse, argv):
    """("exit", code, the last line on stderr) or the namespace ``parse``
    gives, and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(list(argv)), out.getvalue()
    except SystemExit as exc:
        return ("exit", exc.code, (err.getvalue().splitlines() or [""])[-1]), out.getvalue()


def agree(argv) -> bool:
    """Both readers exit with the same code and error line, or give the same
    handler and values.  argparse refused an ambiguous prefix before it read
    any token of its level, where the reader names the first fault it
    reaches, so there the codes alone must agree."""
    expected, _ = outcome(argparse_cli.parse_args, argv)
    got, _ = outcome(cli.parse_args, argv)
    if isinstance(expected, tuple) and "ambiguous option" in expected[2]:
        return expected[:2] == got[:2]
    if isinstance(expected, tuple) or isinstance(got, tuple):
        return expected == got
    names = set(vars(expected)) - {"command", "kind"}
    return all(getattr(got, name) == getattr(expected, name) for name in names)


CORPUS = [draw(random.Random(SEED + k)) for k in range(CASES)]


def test_corpus_covers_every_outcome():
    outcomes = [outcome(argparse_cli.parse_args, argv)[0] for argv in CORPUS]
    handlers = {o.handler for o in outcomes if not isinstance(o, tuple)}
    assert handlers == {row[0] for row in cli.GRAMMAR.values()} - {None}
    assert {("exit", 0), ("exit", 2)} <= {o[:2] for o in outcomes if isinstance(o, tuple)}
    assert sum(isinstance(o, tuple) for o in outcomes) < 0.8 * len(outcomes)


def test_reader_agrees_with_argparse():
    disagree = [argv for argv in CORPUS if not agree(argv)]
    assert disagree == []


@pytest.mark.parametrize("argv", [
    ["count", "words", "--Y", "--X", "5"],  # --X is no value, even of --Y
    ["normalize", "--", "--Y", "-x"],  # the shim joined these even after --
    ["bounds", "--word", "--Y", "-a b"],
    ["normalize", "s1", "--Y", "-hh"],  # joined, so no -h
    ["-h", "--=x"],  # an ambiguous prefix is refused before -h acts
    ["verify", "-h", "--max", "5"],
    ["--help", "verify", "--max", "5"],  # --max is no prefix at the top
    ["normalize", "s1", "-hh"], ["normalize", "s1", "-h=h"], ["normalize", "s1", "-hhx"],
    ["normalize", "s1", "--he=x"], ["normalize", "s1", "-h="],
    ["normalize", "-5"], ["normalize", "-a b"], ["normalize", "-x"], ["normalize", "--", "-x"],
    ["normalize", "--", "--"], ["normalize", "s1", "--", "--"], ["-- ", "normalize", "s1"],
    ["--", "normalize", "s1"], ["count", "--", "words", "--X", "5"],
    ["count", "words", "--X", "-5\n"], ["count", "words", "--X", "-٣"],
    ["count", "words", "--X", "9" * 5000], ["count", "words", "--X=", "--Y=x"],
    ["count", "words", "--Y="], ["verify", "--suite="], ["report", "--Y", "1", "lambda"],
    ["report", "--", "lambda", "--Y", "1"], ["count", "--format", "csv", "--X", "1", "words"],
    ["verify", "--"], ["normalize", "s1", "--format", "csv", "--"], ["normalize", "--"],
    ["report", "--Y", "1", "--", "lambda"], ["report", "lambda", "--Y", "1", "--"],
])
def test_edge_cases_agree(argv):
    assert agree(argv)


@pytest.mark.parametrize("argv, reference, message", [
    (["normalize", "--format=--", "s1"], [], "argument --format: invalid choice: '--' (choose"),
    (["count", "words", "--X=--"], [], "argument --X: invalid int value: '--'"),
])
def test_dashes_after_equals_are_the_value(capsys, argv, reference, message):
    # argparse drops a "--" from an option's values, so the reference read
    # --opt=-- as an empty list: json printed as plain, and --X, --Y and
    # --suite ended in a traceback; the reader takes "--" as the text
    expected, _ = outcome(argparse_cli.parse_args, argv)
    assert reference in vars(expected).values()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert cli.main(["count", "words", "--Y=--"]) == 2
    assert cli.main(["verify", "--suite=--"]) == 2


def cheap(argv) -> bool:
    """A command line whose handler returns at once, or a usage error."""
    got, _ = outcome(argparse_cli.parse_args, argv)
    if isinstance(got, tuple):
        return got[:2] == ("exit", 2)
    return got.handler is not cli.cmd_verify or got.suite == ["words"]


def test_end_to_end_exit_codes_and_stdout(capsys):
    # help text is the reader's own; every other stdout byte is the handler's
    sample = [argv for argv in CORPUS if cheap(argv)][::15][:100]
    assert len(sample) > 90
    for argv in sample:
        results = []
        for parse in (argparse_cli.parse_args, cli.parse_args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "parse_args", parse)
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1], argv


def level_names(words: list[str]) -> set[str]:
    """The command words, options and choices that the argparse parser took
    after ``words``."""
    parser = argparse_cli._PARSER
    for word in words:
        parser = next(a for a in parser._actions if a.choices and word in a.choices).choices[word]
    names = set()
    for action in parser._actions:
        names.update(action.option_strings)
        if not action.option_strings and action.choices:
            names.update(action.choices)
    return names


@pytest.mark.parametrize("argv", [
    ["--help"], ["count", "--help"], ["count", "words", "-h"], ["verify", "--help"],
    ["report", "-h"], ["bounds", "--he"],
])
def test_help_names_every_word_and_option_of_its_level(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "braidcount.cli", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: braidcount ")
    words = [word for word in argv if not word.startswith("-")]
    tokens = set(proc.stdout.translate(str.maketrans("|/()[]", "      ")).split())
    assert level_names(words) <= tokens, level_names(words) - tokens
