from __future__ import annotations

# assigned, not a docstring, so that python -OO keeps the usage entries
__doc__ = _USAGE = """Command-line front end.

Usage::

    braidcount [-h | --help] [--format json|csv|plain] COMMAND ...
        -h, --help and --format may follow any command word
    braidcount normalize TEXT
        canonical form of a braid word modulo the center
    braidcount syllables TEXT
        syllable decomposition of a free-group word
    braidcount theta TEXT
        pure projection of a braid word
    braidcount bounds (--word TEXT | --braid TEXT)
        extremal-length (and entropy) bound intervals
    braidcount count tuples (--X N | --Y EXPR) [--j J]
    braidcount count words (--X N | --Y EXPR) [--max-len L] [--workers W]
    braidcount count classes --pairs J
        exact counts next to their analytic bounds; an option of another
        kind is refused with exit code 2
    braidcount report (lambda | entropy) --Y EXPR
        lower-bound report at scale parameter Y
    braidcount verify [--suite NAME]... [--max-x N] [--max-len L]
                      [--pairs J] [--conj-len C]
        run the internal check suites

Output formats: ``json`` (default), ``csv`` with columns exactly the
json keys, and ``plain``.  Exit codes: 0 on success, 1 when ``verify``
finds a failing check, 2 on unusable input (a ``verify --suite`` name
too, refused by :func:`verify.run_suites`).  Bound columns are exact
integer arithmetic rounded outward to 12 digits, and a ``--Y`` is
certified on the integer intervals of :mod:`braidcount.interval`, which
``bounds`` and ``count --X`` never load.

Options are read as argparse reads them: ``--opt VALUE`` or
``--opt=VALUE``, the last value winning (``--suite`` keeps them all), and
a unique prefix of a long option (``--form``).  A value starting with
``-`` is read for ``--Y`` always, and for other options only where it is
a negative number; ``--`` is never a value and, after the command words,
ends the options.
"""

import io
import json
import math
import os
import re
import sys
from types import SimpleNamespace

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


_COMMON = {"-h": None, "--help": None, "--format": ("json", "csv", "plain")}
#: Each run of command words: its handler (None until the command is
#: whole), its required positional (a name without dashes) and options,
#: and its groups of options, from each of which exactly one must be given
#: (a group of one is a required option; no command has both kinds).  A
#: reader is ``int``, ``str``, ``list`` (the values accumulate) or a tuple
#: of choices; every level also takes the options of ``_COMMON``, where
#: None marks help.  The command words are read as the positionals
#: ``command`` and ``kind``, the names argparse gave them.
GRAMMAR = {
    "normalize": (cmd_normalize, {"text": str}, ()),
    "syllables": (cmd_syllables, {"text": str}, ()),
    "theta": (cmd_theta, {"text": str}, ()),
    "bounds": (cmd_bounds, {"--word": str, "--braid": str}, (("--word", "--braid"),)),
    "count": (None, {"kind": ("tuples", "words", "classes")}, ()),
    "count tuples": (cmd_count_tuples, {"--X": int, "--Y": str, "--j": int}, (("--X", "--Y"),)),
    "count words": (cmd_count_words, {"--X": int, "--Y": str, "--max-len": int, "--workers": int},
                    (("--X", "--Y"),)),
    "count classes": (cmd_count_classes, {"--pairs": int}, (("--pairs",),)),
    "report": (cmd_report, {"variant": ("lambda", "entropy"), "--Y": str}, (("--Y",),)),
    "verify": (cmd_verify, {"--suite": list, "--max-x": int, "--max-len": int, "--pairs": int,
                            "--conj-len": int}, ()),
}
GRAMMAR[""] = (None, {"command": tuple(dict.fromkeys(k.split()[0] for k in GRAMMAR))}, ())
#: every attribute a handler reads, None where the command line omits it
_DEFAULTS = {n.lstrip("-").replace("-", "_"): None for _, own, _ in GRAMMAR.values() for n in own}


def _exit(words: list[str], error: str = ""):
    """Print the usage of the command words read, from the first entry of
    this module's usage block and those that begin with the words, as
    argparse did: on stdout with exit code 0, or with ``error`` on stderr
    and exit code 2."""
    head = " ".join(["braidcount", *words])
    entries = re.findall(rf"^ +((?:braidcount \[|{head}\b).*(?:\n {{5,}}.*)*)", _USAGE, re.M)
    print("usage: " + "\n       ".join(entries) + (error and f"\n{head}: error: {error}"),
          file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def _option(token: str, opts: dict, words: list[str]):
    """``token`` read among the options ``opts`` as argparse reads it: None
    for a value, else the option and its text after ``=`` (or None), where
    the option is "" for a token that names none of them.  Only a long
    option is matched by a prefix."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, text = token.partition("=")
    found = [name] if name in opts else [o for o in opts if token[1] == "-" and o.startswith(name)]
    if len(found) > 1:
        _exit(words, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], text if eq else None
    if token[1] == "h":  # -hh is -h twice: what follows the h's is refused
        return "-h", token[2:].lstrip("h") or None
    # a negative number or a value with a space in it, else an unknown option
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else ("", None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line ``argv`` read against :data:`GRAMMAR` in one walk."""
    for k in reversed(range(1, len(argv))):  # a value starting with "-" is --Y's always
        if argv[k - 1] == "--Y" and argv[k][:1] == "-" != argv[k][1:2] and argv[k] != "-h":
            argv = argv[: k - 1] + [f"--Y={argv[k]}"] + argv[k + 1 :]
    # given: the values read, by option or positional; after: the index
    # after the positional; rest: whether a "--" has ended the options
    given, stray, i, after, rest = {}, [], 0, None, False
    while True:
        words = [given[name] for name in ("command", "kind") if name in given]
        handler, own, groups = GRAMMAR[" ".join(words)]
        options = {**_COMMON, **own}
        unread = [name for name in own if name[0] != "-" and name not in given]
        if i == len(argv):
            break
        token, i = argv[i], i + 1
        found = None if rest or token == "--" else _option(token, options, words)
        # a "--" ends the options of a whole command, and argparse dropped it
        # next to the positional; before the command it is a command word,
        # but for a last "--", which argparse left for want of a command
        if token == "--" and (handler or i == len(argv)) and not rest:
            rest, stray = True, stray + [token] * (not unread and after != i - 1)
            continue
        if found is None:  # the positional, or a stray argument once it is read
            found, after = ((unread or [""])[0], token), i if unread and handler else after
        name, text = found
        if not name:
            stray.append(token)
        elif options[name] is None:  # -h or --help: argparse refused ambiguous prefixes first
            for later in argv[i : argv.index("--", i) if "--" in argv[i:] else None]:
                _option(later, options, words)
            bad = text is not None and (name != "-h" or not text or text.strip("h") != "")
            _exit(words, f"argument -h/--help: ignored explicit argument {text!r}" if bad else "")
        else:
            if text is None:  # the next token, unless it is "--" or an option
                if argv[i : i + 1] in ([], ["--"]) or _option(argv[i], options, words):
                    _exit(words, f"argument {name}: expected one argument")
                text, i = argv[i], i + 1
            reader = options[name]
            try:
                value = int(text) if reader is int else text
            except ValueError:
                _exit(words, f"argument {name}: invalid int value: {text!r}")
            if isinstance(reader, tuple) and text not in reader:
                choices = f"(choose from {str(reader)[1:-1]})"
                _exit(words, f"argument {name}: invalid choice: {text!r} {choices}")
            for other in {o for g in groups if name in g for o in g} & given.keys() - {name}:
                _exit(words, f"argument {name}: not allowed with argument {other}")
            given[name] = given.get(name, []) + [value] if reader is list else value
    missing = unread + [" ".join(group) for group in groups if not given.keys() & set(group)]
    if missing:  # an exclusive group is the one required input of its command
        _exit(words, f"one of the arguments {missing[0]} is required" if " " in missing[0] else
              f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _exit([], f"unrecognized arguments: {' '.join(stray)}")
    values = {name.lstrip("-").replace("-", "_"): value for name, value in given.items()}
    return SimpleNamespace(**_DEFAULTS | {"workers": 1, "format": "json"} | values, handler=handler)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
