"""Exact word algebra for the free group on two generators.

Words are kept in run-length form: a :class:`FreeWord` is a tuple of
terms ``(generator, exponent)`` with ``generator`` in ``{1, 2}``,
nonzero integer exponents, and no two adjacent terms sharing a
generator.  The empty tuple is the identity.  Run-length terms make
exponent merging O(1) per join and let the syllable scan run in one
left-to-right pass.

A syllable is either a single term with ``|exponent| >= 2`` (first
kind) or a maximal run of consecutive terms whose exponents are all
``+1`` or all ``-1`` (second kind).  The degree of a syllable is the
sum of ``|exponent|`` over its terms.  The identity has no syllables.

Text syntax (shared with the command line): whitespace-separated
tokens ``a1`` and ``a2`` with optional caret exponents (``a1^-3``);
uppercase ``A1``/``A2`` denote inverses of single letters; the empty
string is the identity.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import starmap
from typing import Iterable, Iterator

from ._record import Record

GENERATORS = (1, 2)


def other_generator(gen: int) -> int:
    return 3 - gen


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


def reduce_terms(raw: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Collapse a raw term sequence into the unique reduced form."""
    stack: list[tuple[int, int]] = []
    for gen, exp in raw:
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return tuple(stack)


class FreeWord(Record):
    """A reduced word in the free group on generators 1 and 2."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(raw: Iterable[tuple[int, int]]) -> "FreeWord":
        return FreeWord(reduce_terms(raw))

    @property
    def is_identity(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def total_degree(self) -> int:
        """Sum of |exponent| over all terms (letter length of the word)."""
        return sum(abs(e) for _, e in self.terms)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(reduce_terms(self.terms + other.terms))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.terms)))

    def __str__(self) -> str:
        return word_to_text(self)


_WORD_TOKEN = re.compile(r"(?P<shift>[aA])(?P<gen>[12])(?:\^(?P<exp>-?\d+))?\Z")

#: Entries that each memo of decoded tokens and syllables keeps across calls,
#: the most recently used.
MEMO_SIZE = 512


def token_exponent(match: re.Match, pos: int, error: type[ValueError]) -> int:
    """A token's caret exponent (1 if none); ``error`` past ``int``'s digit limit."""
    digits = match.group("exp")
    try:
        return 1 if digits is None else int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter sets it
        raise error(f"exponent has more than {limit} digits", pos) from None


def _token_term(token: str, pos: int = -1) -> tuple[int, int]:
    """The term of one word token; ``pos`` places a syntax error."""
    match = _WORD_TOKEN.match(token)
    if match is None:
        raise WordSyntaxError(f"bad word token {token!r}", pos)
    exp = token_exponent(match, pos, WordSyntaxError)
    return int(match.group("gen")), -exp if match.group("shift") == "A" else exp


_decoded_term = lru_cache(maxsize=MEMO_SIZE)(_token_term)


def parse_word(text: str) -> FreeWord:
    """Parse word text syntax; raises :class:`WordSyntaxError` on bad tokens."""
    # decode each distinct token once; a bad one raises again at its position
    tokens = text.split()
    terms: dict[str, tuple[int, int]] = {}
    for token in dict.fromkeys(tokens):
        try:
            terms[token] = _decoded_term(token)
        except WordSyntaxError:
            _token_term(token, tokens.index(token))
    return FreeWord.from_terms(map(terms.__getitem__, tokens))


def word_to_text(w: FreeWord) -> str:
    if w.is_identity:
        return ""
    return " ".join(
        f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in w.terms
    )


FIRST_KIND = "first"
SECOND_KIND = "second"


class Syllable(Record):
    """One syllable: kind, degree, common sign, and starting generator."""

    __slots__ = ("kind", "degree", "sign", "start")

    def __init__(self, kind: str, degree: int, sign: int, start: int):
        if kind not in (FIRST_KIND, SECOND_KIND):
            raise ValueError(f"unknown syllable kind {kind!r}")
        if kind == FIRST_KIND and degree < 2:
            raise ValueError("first-kind syllables have degree >= 2")
        if degree < 1 or sign not in (1, -1) or start not in GENERATORS:
            raise ValueError("malformed syllable")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "start", start)

    def expand(self) -> tuple[tuple[int, int], ...]:
        """The term run this syllable stands for."""
        if self.kind == FIRST_KIND:
            return ((self.start, self.sign * self.degree),)
        gen = self.start
        out = []
        for _ in range(self.degree):
            out.append((gen, self.sign))
            gen = other_generator(gen)
        return tuple(out)


_syllable = lru_cache(maxsize=MEMO_SIZE)(Syllable)


class SyllableDecomposition(Record):
    __slots__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...]):
        object.__setattr__(self, "syllables", syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def degrees(self) -> tuple[int, ...]:
        return tuple(s.degree for s in self.syllables)

    def expand(self) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for s in self.syllables:
            out.extend(s.expand())
        return tuple(out)


def _syllable_runs(
    terms: Iterable[tuple[int, int]],
) -> Iterator[tuple[str, int, int, int]]:
    """``(kind, degree, sign, start)`` of each syllable, in one pass over the
    terms; like :class:`Syllable`, refuses a syllable that starts with a
    generator outside {1, 2} or with exponent 0."""
    run_start = run_sign = run_len = 0
    for gen, exp in terms:
        if abs(exp) >= 2:
            if gen not in GENERATORS:
                raise ValueError("malformed syllable")
            if run_len:
                yield SECOND_KIND, run_len, run_sign, run_start
                run_len = 0
            yield FIRST_KIND, abs(exp), 1 if exp > 0 else -1, gen
        elif run_len and run_sign == exp:
            run_len += 1
        else:
            if gen not in GENERATORS or not exp:
                raise ValueError("malformed syllable")
            if run_len:
                yield SECOND_KIND, run_len, run_sign, run_start
            run_start, run_sign, run_len = gen, exp, 1
    if run_len:
        yield SECOND_KIND, run_len, run_sign, run_start


def syllable_decompose(w: FreeWord) -> SyllableDecomposition:
    """Split a reduced word into its unique syllable sequence."""
    return SyllableDecomposition(tuple(starmap(_syllable, _syllable_runs(w.terms))))


def syllable_degrees(w: FreeWord) -> tuple[int, ...]:
    """The syllable degrees of a reduced word, without building syllables;
    refuses what :func:`_syllable_runs` refuses."""
    degrees: list[int] = []
    append = degrees.append
    run_sign = run_len = 0
    for gen, exp in w.terms:
        if exp > 1 or exp < -1:
            if gen not in GENERATORS:
                raise ValueError("malformed syllable")
            if run_len:
                append(run_len)
                run_len = 0
            append(exp if exp > 0 else -exp)
        elif run_len and run_sign == exp:
            run_len += 1
        else:
            if gen not in GENERATORS or not exp:
                raise ValueError("malformed syllable")
            if run_len:
                append(run_len)
            run_sign, run_len = exp, 1
    if run_len:
        append(run_len)
    return tuple(degrees)


def is_cyclically_reduced(w: FreeWord) -> bool:
    """True when the first and last terms use different generators."""
    if len(w.terms) <= 1:
        return True
    return w.terms[0][0] != w.terms[-1][0]


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Return ``(core, c)`` with ``w = c * core * c^-1`` and core cyclically reduced."""
    terms = w.terms
    # strip matching ends inward: terms[:i] is the conjugator, terms[i:j+1] the core
    i, j = 0, len(terms) - 1
    while i < j and terms[i][0] == terms[j][0]:
        gen, head = terms[i]
        tail = terms[j][1]
        if head + tail != 0:
            # conjugating by the full head term leaves a cyclically reduced word
            core = terms[i + 1 : j] + ((gen, head + tail),)
            return FreeWord(core), FreeWord.from_terms(terms[: i + 1])
        i += 1
        j -= 1
    return FreeWord(terms[i : j + 1]), FreeWord.from_terms(terms[:i])


def is_cyclically_syllable_reduced(w: FreeWord) -> bool:
    """Decide whether the cyclic word of ``w`` splits cleanly into syllables.

    Requires ``w`` cyclically reduced and not the identity.  True when the
    word is a single term, or all terms enter with exponent +1 (or all with
    -1), or the first and last terms do not both enter with the same
    exponent +1 or -1.  Equivalently, the wrap-around of ``w * w`` does not
    merge the last syllable into the first.
    """
    if w.is_identity:
        raise ValueError("the identity has no syllable structure")
    if not is_cyclically_reduced(w):
        raise ValueError("word is not cyclically reduced")
    if len(w.terms) == 1:
        return True
    exps = [e for _, e in w.terms]
    if all(e == 1 for e in exps) or all(e == -1 for e in exps):
        return True
    first, last = exps[0], exps[-1]
    return not (abs(first) == 1 and first == last)


def _rotation_offsets(core1: FreeWord, core2: FreeWord) -> Iterator[int]:
    n = len(core1.terms)
    if n != len(core2.terms):
        return
    if n == 0:
        yield 0
        return
    doubled = core1.terms + core1.terms
    for r in range(n):
        if doubled[r : r + n] == core2.terms:
            yield r


def free_conjugator(w1: FreeWord, w2: FreeWord) -> FreeWord | None:
    """A witness ``g`` with ``g^-1 * w1 * g == w2``, or None.

    Conjugacy of cyclically reduced words is cyclic rotation of their term
    sequences, so the search reduces to a rotation match of the cores.
    """
    core1, c1 = cyclic_reduce(w1)
    core2, c2 = cyclic_reduce(w2)
    for r in _rotation_offsets(core1, core2):
        u = FreeWord(core1.terms[:r])
        g = c1 * u * c2.inverse()
        return g
    return None


def are_conjugate_free(w1: FreeWord, w2: FreeWord) -> bool:
    return free_conjugator(w1, w2) is not None
