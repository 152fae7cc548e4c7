"""The argparse parser that ``braidcount.cli`` used before its grammar table.

Kept unchanged as the reference that ``test_cli_args`` checks the table
reader against: ``parse_args`` runs it as ``cli.main`` ran it.
"""

import argparse

from braidcount.cli import (
    cmd_bounds,
    cmd_count_classes,
    cmd_count_tuples,
    cmd_count_words,
    cmd_normalize,
    cmd_report,
    cmd_syllables,
    cmd_theta,
    cmd_verify,
)


def build_parser() -> argparse.ArgumentParser:
    # --format is accepted before or after each command word; the subparser
    # copies use SUPPRESS so an absent later flag keeps an earlier one.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default=argparse.SUPPRESS
    )
    parser = argparse.ArgumentParser(
        prog="braidcount",
        description="exact three-strand braid invariants and counting",
    )
    parser.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, handler, help: str) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "normalize", cmd_normalize, "canonical form of a braid word")
    p.add_argument("text")
    p = command(sub, "syllables", cmd_syllables, "syllable decomposition of a word")
    p.add_argument("text")
    p = command(sub, "theta", cmd_theta, "pure projection of a braid word")
    p.add_argument("text")

    p = command(sub, "bounds", cmd_bounds, "invariant bound intervals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--braid")

    count = sub.add_parser("count", parents=[common], help="exact counts with analytic bounds")
    kinds = count.add_subparsers(dest="kind", required=True)
    tuples = command(kinds, "tuples", cmd_count_tuples, "degree tuples with prod(3 d_k) <= X")
    reduced = command(kinds, "words", cmd_count_words, "reduced words with prod(3 d_k) <= X")
    for p in (tuples, reduced):
        threshold = p.add_mutually_exclusive_group(required=True)
        threshold.add_argument("--X", type=int)
        threshold.add_argument("--Y")
    tuples.add_argument("--j", type=int)
    reduced.add_argument("--max-len", type=int, dest="max_len")
    reduced.add_argument("--workers", type=int, default=1)
    p = command(kinds, "classes", cmd_count_classes, "conjugacy classes of index --pairs")
    p.add_argument("--pairs", type=int, required=True)

    p = command(sub, "report", cmd_report, "lower-bound report at scale Y")
    p.add_argument("variant", choices=("lambda", "entropy"))
    p.add_argument("--Y", required=True)

    p = command(sub, "verify", cmd_verify, "run the internal check suites")
    p.add_argument("--suite", action="append")
    p.add_argument("--max-x", type=int, dest="max_x")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--pairs", type=int)
    p.add_argument("--conj-len", type=int, dest="conj_len")

    return parser


def _attach_y_values(argv: list[str]) -> list[str]:
    """``--Y VALUE`` as ``--Y=VALUE`` where ``VALUE`` starts with ``-``.

    argparse reads such a token as an option unless it is a plain negative
    number, so ``--Y -log(2)`` would stop at "expected one argument" before
    the value is read.  A token that starts with ``--`` or is ``-h`` is an
    option of this parser and stays apart.
    """
    out: list[str] = []
    for token in argv:
        dashed_value = token.startswith("-") and not token.startswith("--") and token != "-h"
        if dashed_value and out and out[-1] == "--Y":
            out[-1] = f"--Y={token}"
        else:
            out.append(token)
    return out


_PARSER = build_parser()


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` read as ``cli.main`` read it, on one parser built once."""
    return _PARSER.parse_args(_attach_y_values(argv))
