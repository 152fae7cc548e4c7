"""A metamorphic oracle for the certificates of :mod:`braidcount.exactlog`.

Each case is a text whose value is known by construction, built around a
zero identity ``Z`` (one of ten templates over random expressions ``u``
and ``v``), and one question with a known answer:

* ``sign(Z)`` is 0, and ``sign``, ``floor`` and ``ceil_decimal`` of ``Z + q``
  are those of the rational ``q``;
* ``floor_exp(log n + Z)`` is ``n``;
* ``1/Z``, ``log(Z)``, ``log(Z - 1)`` and ``log(Z**2)`` are not defined,
  and neither is any of them minus itself, so each must be refused.

The template and the question go round with the seed: any ten seeds in a
row take each template once, any nine each question once, and any 90
every pair.  Zero equivalence of such texts is undecidable in general, so
a refusal (a ``ValueError``) is always allowed.  A certified answer that
is not the truth, any other exception, or a call that runs past its wall
budget is a failure.  For a longer sweep than the Tier-1 test::

    PYTHONPATH=src python tests/exactlog_oracle.py CASES [FIRST_SEED]
"""

from __future__ import annotations

import math
import random
import signal
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

from braidcount import exactlog

#: Seconds that one certificate may take.
BUDGET_S = 4

#: The precision cap of the certificates, in place of
#: :data:`exactlog.MAX_PRECISION` (2^15 bits).  A certified answer must be
#: the truth and a refusal is allowed under any cap.  Seeds 0-449 certify
#: the same cases under both caps, but on a 2-core x86 host a refusal
#: took 1.4 s on average and up to 8.3 s at 2^15 bits, and at most 0.12 s
#: at 2^12.
MAX_PRECISION = 1 << 12

#: ``(template, needs u and v positive)``: each is zero wherever it is defined.
TEMPLATES = (
    ("({u}+{v})**2 - ({u})**2 - 2*({u})*({v}) - ({v})**2", False),
    ("log(exp({u})) - ({u})", False),
    ("exp(log({u})) - ({u})", True),
    ("sqrt({u})**2 - ({u})", True),
    ("log(({u})*({v})) - log({u}) - log({v})", True),
    ("sqrt(({u})*({v})) - sqrt({u})*sqrt({v})", True),
    ("({u})/({v})*({v}) - ({u})", True),
    ("(({u})-({v}))*(({u})+({v})) - ({u})**2 + ({v})**2", False),
    ("({u})**3 - ({u})*({u})**2", False),
    ("1/({u}) - 1/({u})", True),
)

#: Texts around a zero identity ``{z}`` that are not real numbers.
UNDEFINED = ("1/{z}", "log({z})", "log({z} - 1)", "log({z}**2)")
#: The questions with a known answer, then the undefined texts.
QUESTIONS = ("sign", "sign_q", "floor_q", "floor_exp", "ceil_decimal", *UNDEFINED)


class Timeout(BaseException):
    """A certificate past :data:`BUDGET_S`; not an ``Exception``, so that no
    handler inside the module can take it for a refusal."""


def atom(rng: random.Random) -> str:
    """A positive atom."""
    kind = rng.randrange(7)
    if kind == 0:
        return "pi"
    if kind == 1:
        return "E"
    if kind == 2:
        return str(rng.randint(1, 12))
    if kind == 3:
        return f"{rng.randint(1, 12)}/{rng.randint(2, 9)}"
    if kind == 4:
        return f"log({rng.randint(2, 30)})"
    if kind == 5:
        return f"sqrt({rng.randint(2, 30)})"
    return f"exp({rng.randint(-6, 6)}/3)"


def positive(rng: random.Random, depth: int = 2) -> str:
    """A positive expression: an atom, or a sum or product of two such
    expressions, to ``depth`` levels."""
    if depth == 0 or rng.random() < 0.4:
        return atom(rng)
    left, right = positive(rng, depth - 1), positive(rng, depth - 1)
    return f"({left}{rng.choice('+*')}{right})"


def real(rng: random.Random, depth: int = 2) -> str:
    """A positive expression, its negation or a difference of two."""
    kind = rng.randrange(3)
    if kind == 0:
        return positive(rng, depth)
    if kind == 1:
        return f"-({positive(rng, depth)})"
    return f"({positive(rng, depth)}) - ({positive(rng, depth)})"


def zero_identity(rng: random.Random, template: str, needs_positive: bool, depth: int = 2) -> str:
    draw = positive if needs_positive else real
    return "(" + template.format(u=draw(rng, depth), v=draw(rng, depth)) + ")"


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 7, 10, 64)))


def case(seed: int, depth: int = 2) -> tuple[str, str, object]:
    """``(question, text, truth)`` of case ``seed``, over expressions of
    ``depth`` levels; the truth of a text that must be refused is None, and
    that of ``ceil_decimal`` the pair ``(q, digits)``."""
    rng = random.Random(seed)
    z = zero_identity(rng, *TEMPLATES[seed % len(TEMPLATES)], depth)
    q = rational(rng)
    question = QUESTIONS[seed % len(QUESTIONS)]
    if question in UNDEFINED:
        undefined = question.format(z=z)
        text = rng.choice((undefined, f"{undefined} - {undefined}", f"log(2) + {undefined} - {undefined}"))
        return rng.choice(("sign", "floor", "floor_exp")), text, None
    if question == "sign":
        return "sign", z, 0
    if question == "sign_q":
        return "sign", f"{z} + ({q})", (q > 0) - (q < 0)
    if question == "floor_q":
        return "floor", f"{z} + ({q})", math.floor(q)
    if question == "floor_exp":
        n = rng.randint(1, 10**6)
        return "floor_exp", f"log({n}) + {z}", n
    return "ceil_decimal", f"{z} + ({q})", (q, rng.randint(3, 15))


def is_decimal_ceiling(shown: str, q: Fraction, digits: int) -> bool:
    """Whether ``shown`` is 0 for a ``q`` of 0, and otherwise has ``digits``
    significant digits and is the least such decimal at or above ``q``."""
    value = Decimal(shown)
    if not q:
        return value == 0  # past 7 digits shown as 0E-7, 0E-8, ...
    negative, shown_digits, exponent = value.as_tuple()
    if len(shown_digits) != digits:
        return False
    # the next decimal below: one unit of the last digit, or a tenth of it
    # below a positive power of ten (0.999 below 1.00)
    step = Fraction(10) ** exponent
    if not negative and shown_digits == (1,) + (0,) * (digits - 1):
        step /= 10
    return Fraction(value) >= q and Fraction(value) - step < q


def answer(question: str, text: str, truth):
    """``(outcome, answer)``: ``certified``, ``refused`` or ``timeout``,
    under :data:`MAX_PRECISION`; any exception other than ``ValueError``
    propagates."""
    node = exactlog.parse(text)
    if question == "ceil_decimal":
        call = lambda: exactlog.ceil_decimal(node, truth[1])
    else:
        call = lambda: getattr(exactlog, question)(node)

    def alarm(signum, frame):
        raise Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    cap, exactlog.MAX_PRECISION = exactlog.MAX_PRECISION, MAX_PRECISION
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return "certified", call()
    except ValueError:
        return "refused", None
    except Timeout:
        return "timeout", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        exactlog.MAX_PRECISION = cap


def wrong(question: str, outcome: str, got, truth) -> bool:
    if outcome == "timeout":
        return True
    if outcome == "refused":
        return False
    if truth is None:
        return True
    if question == "ceil_decimal":
        return not is_decimal_ceiling(got, *truth)
    return got != truth


def run(cases: int, first: int = 0) -> tuple[list, Counter]:
    """The failures of the cases seeded ``first`` to ``first + cases - 1``,
    as ``(seed, question, text, outcome, answer, truth)``, and the count of
    each outcome of each of :data:`QUESTIONS`."""
    failures, outcomes = [], Counter()
    for seed in range(first, first + cases):
        question, text, truth = case(seed)
        outcome, got = answer(question, text, truth)
        outcomes[QUESTIONS[seed % len(QUESTIONS)], outcome] += 1
        if wrong(question, outcome, got, truth):
            failures.append((seed, question, text, outcome, got, truth))
    return failures, outcomes


if __name__ == "__main__":
    failures, outcomes = run(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 0)
    for failure in failures:
        print("WRONG", *failure, sep="\t")
    for (question, outcome), count in sorted(outcomes.items()):
        print(question, outcome, count, sep="\t")
    sys.exit(1 if failures else 0)
