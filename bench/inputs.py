"""Seeded input generators shared by the workloads and by ``pin.py``.

Everything here is a pure function of its random generator, so the same
seed always yields the same inputs.  The command-line corpus is indexed:
``cli_argv(kind, index)`` seeds its own generator from the pair, which
lets ``pin.py`` record the expected stdout of every corpus entry once and
lets a run pick entries from its ``--seed``.
"""

from __future__ import annotations

import math
import random

#: One round of the ``cli`` workload runs each kind once.
CLI_KINDS = (
    "normalize",
    "syllables",
    "theta",
    "bounds_word",
    "bounds_braid",
    "count_tuples_y",
    "count_words_x",
    "count_classes",
    "report",
    "verify_words",
)
CLI_CORPUS_SIZE = 24

#: The three calls of the ``count_large`` workload.
LARGE_KINDS = ("count_words", "count_tuples", "count_words_w2")

#: Thresholds of the large cold counts.  They lie within 1e-6 of each other,
#: so every choice costs the same while the printed outputs differ.  Near 3e7
#: a call takes about 3 s, so a run holds enough calls for a steady median.
LARGE_X = tuple(3 * 10**7 - d for d in (0, 1, 2, 3, 5, 8, 13, 21))

#: Thresholds whose ``count_words`` value is pinned for ``many_small``.
SMALL_WORDS_X = tuple(
    sorted({59049} | {int(10 ** (3 + 2 * i / 47)) for i in range(48)})
)


def braid_text(rng: random.Random, letters: int) -> str:
    """A braid word of exactly ``letters`` letters after exponent expansion.

    Tokens are ``s1``/``s2`` and their uppercase inverses with exponents
    up to 4, plus an occasional half twist ``D`` (three letters).
    """
    tokens = []
    count = 0
    while count < letters:
        left = letters - count
        if left >= 3 and rng.random() < 0.02:
            tokens.append(rng.choice(("D", "D^-1")))
            count += 3
            continue
        exp = min(rng.choice((1, 1, 1, 2, 3, 4)), left)
        name = rng.choice("sS") + rng.choice("12")
        tokens.append(name if exp == 1 else f"{name}^{exp}")
        count += exp
    return " ".join(tokens)


def word_text(rng: random.Random, terms: int) -> str:
    """A reduced free word of ``terms`` terms with exponents in -3..3."""
    tokens = []
    gen = rng.choice((1, 2))
    for _ in range(terms):
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        if exp == 1:
            tokens.append(f"a{gen}")
        elif exp == -1:
            tokens.append(f"A{gen}")
        else:
            tokens.append(f"a{gen}^{exp}")
        gen = 3 - gen
    return " ".join(tokens)


def log_uniform_int(rng: random.Random, low: float, high: float) -> int:
    return int(math.exp(rng.uniform(math.log(low), math.log(high))))


def _y_expression(rng: random.Random) -> str:
    # closed forms whose threshold floor(exp(Y)) stays within 27..1e5
    if rng.random() < 0.5:
        return f"log({log_uniform_int(rng, 27, 10**5)})"
    base = rng.randint(3, 40)
    power = rng.randint(1, int(math.log(10**5) / math.log(base)))
    return f"{power}*log({base})" if power > 1 else f"log({base})"


def cli_argv(kind: str, index: int) -> list[str]:
    """Arguments of corpus entry ``index`` of one ``cli`` kind."""
    rng = random.Random(f"cli:{kind}:{index}")
    if kind == "normalize":
        return ["normalize", braid_text(rng, 200)]
    if kind == "syllables":
        return ["syllables", word_text(rng, rng.randint(10, 60))]
    if kind == "theta":
        return ["theta", braid_text(rng, 200)]
    if kind == "bounds_word":
        return ["bounds", "--word", word_text(rng, rng.randint(10, 200))]
    if kind == "bounds_braid":
        return ["bounds", "--braid", braid_text(rng, 200)]
    if kind == "count_tuples_y":
        y = "log(27)" if index == 0 else _y_expression(rng)
        return ["count", "tuples", "--Y", y]
    if kind == "count_words_x":
        x = 59049 if index == 0 else log_uniform_int(rng, 10**3, 10**5)
        return ["count", "words", "--X", str(x)]
    if kind == "count_classes":
        return ["count", "classes", "--pairs", str(rng.randint(1, 12))]
    if kind == "report":
        k = rng.randint(600, 20000)
        if index % 2:
            return ["report", "entropy", "--Y", f"{k}*pi*log(8)"]
        return ["report", "lambda", "--Y", f"{k}*log(8)"]
    if kind == "verify_words":
        return ["verify", "--suite", "words"]
    raise ValueError(f"unknown cli kind {kind!r}")


def large_argv(kind: str, x: int) -> list[str]:
    """Arguments of one cold large-X count call."""
    if kind == "count_words":
        return ["count", "words", "--X", str(x)]
    if kind == "count_tuples":
        return ["count", "tuples", "--X", str(x)]
    if kind == "count_words_w2":
        return ["count", "words", "--X", str(x), "--workers", "2"]
    raise ValueError(f"unknown large count {kind!r}")
