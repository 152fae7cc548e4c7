"""Command-line front end.

Commands
--------
normalize TEXT        canonical form of a braid word modulo the center
syllables TEXT        syllable decomposition of a free-group word
theta TEXT            pure projection of a braid word
bounds --word/--braid extremal-length (and entropy) bound intervals
count tuples (--X N | --Y EXPR) [--j J]
count words (--X N | --Y EXPR) [--max-len L] [--workers W]
count classes --pairs J
                      exact counts next to their analytic bounds; an option
                      of another kind is refused with exit code 2
report lambda|entropy --Y EXPR
                      lower-bound report at scale parameter Y
verify                run the internal check suites

Output formats: ``json`` (default), ``csv`` with columns exactly the
json keys, and ``plain``.  Exit codes: 0 on success, 1 when ``verify``
finds a failing check, 2 on unusable input (a ``verify --suite`` name
too, refused by :func:`verify.run_suites`).  Bound columns are exact
integer arithmetic rounded outward to 12 digits, and a ``--Y`` is
certified on the integer intervals of :mod:`braidcount.interval`, which
``bounds`` and ``count --X`` never load.
``--format`` may follow any command word.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import braid, classes, counting, invariants, verify, words


class InputError(ValueError):
    """Input that parses nowhere or violates a command's contract."""


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        if not rows:
            return
        import csv  # only this format needs it

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        sys.stdout.write(buf.getvalue())
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))


def _fraction_decimal(value) -> str:
    """Round-up 12-digit decimal of a fraction, shared by the bound columns
    of ``count``, rendered here so that a count executes no :mod:`invariants`."""
    # only these columns need decimal: the other commands never load it
    from decimal import ROUND_CEILING, Context, Decimal

    # the 12 digits of invariants.DISPLAY_DIGITS, rounded up
    round_up = Context(prec=12, rounding=ROUND_CEILING)
    return str(round_up.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _parse_word_arg(text: str) -> words.FreeWord:
    try:
        return words.parse_word(text)
    except words.WordSyntaxError as exc:
        raise InputError(f"bad word {text!r}: {exc}") from exc


def _parse_braid_arg(text: str) -> braid.BraidWord:
    try:
        return braid.parse_braid(text)
    except braid.BraidSyntaxError as exc:
        raise InputError(f"bad braid {text!r}: {exc}") from exc


def _normal_form_arg(text: str) -> braid.NormalForm:
    return braid.normal_form(_parse_braid_arg(text))


def cmd_normalize(args) -> list[dict]:
    form = _normal_form_arg(args.text)
    delta = form.is_power_of_delta
    return [{
        "input": args.text,
        "kind": form.kind,
        "j": None if delta else form.j,
        "k": None if delta else form.k,
        "b1": None if delta else words.word_to_text(form.b1),
        "ell": form.ell,
    }]


def cmd_syllables(args) -> list[dict]:
    deco = words.syllable_decompose(_parse_word_arg(args.text))
    # merged exponents can outgrow the digits each token was checked for
    for s in deco.syllables:
        try:
            str(s.degree)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise InputError(f"syllable degree has more than {limit} digits") from None
    return [
        {
            "index": i,
            "kind": s.kind,
            "degree": s.degree,
            "sign": s.sign,
            "start": s.start,
        }
        for i, s in enumerate(deco.syllables)
    ]


def cmd_theta(args) -> list[dict]:
    form = _normal_form_arg(args.text)
    if form.is_power_of_delta:
        raise InputError("projection undefined for powers of the half twist")
    return [{"input": args.text, "theta": words.word_to_text(braid.pure_projection(form))}]


def _interval_row(kind: str, text: str, quantity: str, interval) -> dict:
    row = {"input_kind": kind, "input": text, "quantity": quantity}
    row.update(interval.to_json())
    return row


def cmd_bounds(args) -> list[dict]:
    # the entropy row appears only when its hypothesis holds; the reason
    # for omitting it goes to stderr so tabular stdout keeps one shape
    if args.word is not None:
        kind, text = "word", args.word
        pure = _parse_word_arg(text)
        extremal = invariants.extremal_length_bounds_word(pure)
    else:
        kind, text = "braid", args.braid
        form = _normal_form_arg(text)
        extremal = invariants.extremal_length_bounds_braid(form)
        pure = None if form.is_power_of_delta else braid.pure_projection(form)
    rows = [_interval_row(kind, text, "extremal_length", extremal)]
    try:
        if pure is None:
            raise ValueError("the braid has no pure part")
        ent = invariants.entropy_bounds(pure)
    except ValueError as exc:
        print(f"note: entropy omitted: {exc}", file=sys.stderr)
    else:
        rows.append(_interval_row(kind, text, "entropy", ent))
    return rows


#: Largest threshold ``count`` accepts.  At ``X = 10**11`` on a 2-core x86
#: host, ``count words`` (its exact count and the ``count_tuples`` of its
#: bound chain, from one joined pass) took about 10.5 s and 39.6 MB,
#: against 13.5-14.2 s and 45.5 MB for two separate passes in interleaved
#: runs, and ``count tuples --j 4``, the costliest length, 17 s and 32 MB;
#: past ``10**10`` the cost of ``count words`` grows about linearly in
#: ``X``, so ``10**12`` would take minutes.
MAX_X = 10**11
#: Largest threshold ``count words --max-len L`` accepts when the budget
#: binds (``L < X // 3``).  Its memoised recursion takes 1.3-1.8 s and
#: 14 MB at ``X = 10**6`` (``L`` from ``10**5`` to 333332) on the same
#: host, and 4.7-6.0 s and 16 MB at ``X = 10**7`` with ``L = 1000``.
MAX_BOUNDED_WORDS_X = 10**6


def _resolve_x(args) -> int:
    if args.X is not None:
        if args.X < 0:
            raise InputError("--X must be nonnegative")
        x = args.X
    else:
        from . import exactlog  # loaded on first use: only a Y needs it

        y = exactlog.parse(args.Y)
        # a Y that an enclosure proves far too large is rejected before the
        # floor of e^Y is certified; the exact X is checked against MAX_X below
        if exactlog.bounds(y)[0] > math.log(MAX_X) + 1:
            raise InputError(f"--Y {args.Y!r} gives X above the ceiling {MAX_X}")
        x = counting.threshold_from_y(y)
    if x > MAX_X:
        raise InputError(f"X = {x} is above the ceiling {MAX_X}")
    return x


def cmd_count_tuples(args) -> list[dict]:
    x = _resolve_x(args)
    if args.j is None:
        exact = counting.count_tuples(x)
        bound = counting.bound_tuples_total(x)
        return [{
            "function": "tuples",
            "X": x,
            "exact": str(exact),
            "bound": _fraction_decimal(bound),
            "satisfied": exact <= bound,
        }]
    if args.j < 1:
        raise InputError("--j must be positive")
    exact = counting.count_tuples_j(args.j, x)
    try:
        bound = counting.bound_tuples_j(args.j, x)
    except counting.BoundNotApplicable:
        bound = None
    return [{
        "function": "tuples_j",
        "j": args.j,
        "X": x,
        "exact": str(exact),
        "bound": None if bound is None else _fraction_decimal(bound),
        "satisfied": exact == 0 if bound is None else exact <= bound,
    }]


def cmd_count_words(args) -> list[dict]:
    if args.workers < 1:
        raise InputError("--workers must be positive")
    x = _resolve_x(args)
    if args.max_len is None or args.max_len >= x // 3:
        # no word has a total degree above X // 3, so the budget cannot bind:
        # the count and the tuples of its bound chain take one pass
        exact, chain = counting.count_words_with_bounds(x)
    elif x > MAX_BOUNDED_WORDS_X:
        raise InputError(
            f"X = {x} is above the ceiling {MAX_BOUNDED_WORDS_X} for --max-len below X // 3"
        )
    else:
        exact = counting.count_words_bounded(x, args.max_len)
        chain = counting.bound_words(x)
    return [{
        "function": "words",
        "X": x,
        "exact": str(exact),
        "bound": _fraction_decimal(chain.cube_half),
        "satisfied": exact <= chain.cube_half and exact <= chain.chain_value,
    }]


def cmd_count_classes(args) -> list[dict]:
    j = args.pairs
    if not 1 <= j <= classes.MAX_REPORT_INDEX:
        raise InputError(f"count classes requires --pairs from 1 to {classes.MAX_REPORT_INDEX}")
    from fractions import Fraction  # loaded on first use, like decimal above

    exact = classes.class_count(j)
    bound = Fraction(4**j, 2 * j)
    return [{
        "function": "classes",
        "j": j,
        "X": None,
        "exact": str(exact),
        "bound": _fraction_decimal(bound),
        "satisfied": exact >= bound,
    }]


def cmd_report(args) -> list[dict]:
    variant = classes.LAMBDA_VARIANT if args.variant == "lambda" else classes.ENTROPY_VARIANT
    return [classes.lower_bound_report(args.Y, variant).to_json()]


def cmd_verify(args) -> tuple[list[dict], bool]:
    limits = {
        name: value for name in verify.LIMITS if (value := getattr(args, name)) is not None
    }
    rows = verify.run_suites(args.suite or ["all"], **limits)
    return [r.to_json() for r in rows], all(r.passed for r in rows)


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


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_y_values(sys.argv[1:] if argv is None else argv))
    try:
        # a handler returns its rows; cmd_verify also whether every check passed
        result = args.handler(args)
    # InputError, a library function rejecting a value (exactlog raises
    # ValueError where it cannot certify), or an ArithmeticError from a
    # numeric library
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, passed = result if isinstance(result, tuple) else (result, True)
    try:
        _emit(rows, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so the
        # flush at shutdown raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
