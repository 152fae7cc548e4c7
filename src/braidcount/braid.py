"""Arithmetic in the 3-strand braid group modulo its center.

The quotient is a free product of a cyclic group of order 2, generated
by the image ``a`` of the half twist ``sigma1 sigma2 sigma1``, and a
cyclic group of order 3, generated by the image ``t`` of
``sigma1 sigma2``.  Every element has a unique alternating word over the
two factors, written with the letters ``0`` (for ``a``), ``1`` (for
``t``) and ``2`` (for ``t^2``).  A :class:`CosetElement` stores that
word in runs: a run ``(e, n)`` is the ``t``-letter ``e`` repeated ``n``
times with one ``a`` between neighbours, neighbouring runs differ in
``e`` and have one ``a`` between them, and two flags say whether an
``a`` leads or trails the word.  The stored form is unique, so field
equality decides equality.  A :class:`BraidWord` is stored the same
way, as maximal runs ``(generator, exponent)`` of one letter.

Generator images, pinned down by the relation tests:

    sigma1 -> t^2 a      sigma1^-1 -> a t
    sigma2 -> a t^2      sigma2^-1 -> t a
    half twist -> a

So ``sigma1^k`` is the run ``(2, k)`` followed by an ``a``: the image of a
braid run is one coset run and at most two ``a`` letters.  Two words
cancel (``a*a -> 1``) or merge (``t^i * t^j -> t^(i+j mod 3)``) only at
their junction, where opposite runs cancel ``min(n, m)`` of their
``t``-letters at once, so :func:`evaluate` folds a braid word onto a
stack of runs in O(1) per run, and a coset ``x`` is the product
``[a] * (t^e1 a)^n1 * ... * (t^ek a)^nk * [a]``, whose factors
``t^e a`` are the images of ``sigma1`` and ``sigma2^-1``.

The strand permutation maps the quotient onto ``S_3``; its kernel, the
pure braids modulo the center, is free on ``sigma1^2, sigma2^2``.  One
table, indexed by the permutation of a prefix and the next letter, steps
the permutation; a second table indexed the same way holds the
Reidemeister-Schreier rewriting over the transversal
``1, a, t, t^2, a t, a t^2``.  The unit ``t^e a`` is an odd permutation,
so a run of ``n`` units alternates between two states: it steps the
permutation once or not at all (:func:`s3_image`) and spells its pure
terms in one piece (:func:`unembed`).  Rewriting is a homomorphism, so
the walk may run over several factors in turn and read the pure word of
their product without building it.

Every element that is not a power of the half twist factors uniquely
as ``sigma_j^k  b1  delta^ell`` with ``k != 0``, ``ell`` in ``{0, 1}``
and ``b1`` a reduced word in ``sigma1^2, sigma2^2`` whose first term,
if any, uses the generator other than ``j``.  :func:`normal_form` reads
it off in one pass: exactly one ``ell`` puts the strand permutation of
``y = x delta^ell`` in ``{id, s1, s2}``; ``s_j`` means ``k`` is odd, and
one :func:`unembed` walk over the factors ``sigma_j^-1``, ``x`` and
``delta^ell`` (no ``sigma_j^-1`` for ``id``) gives the pure word of
``sigma_j^-1 y``, whose first term joins the leading power if it uses
``j``.
:func:`pure_projection` maps the factorization to the reduced pure word
obtained by rounding the leading exponent to the nearest even integer
toward zero.

Text syntax (shared with the command line): whitespace-separated
tokens ``s1``, ``s2`` with optional caret exponents (``s1^-4``);
uppercase ``S1``/``S2`` denote single inverse letters; ``D`` is the
half twist (``D^-2`` allowed); the empty string is the identity braid.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import accumulate, chain, cycle, groupby, islice, permutations
from typing import Iterable

from ._record import Record
from .words import MEMO_SIZE, FreeWord, other_generator, token_exponent

A_LETTER = 0
T_LETTER = 1
TT_LETTER = 2


class BraidSyntaxError(ValueError):
    """Raised on malformed braid text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


def _merged(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """``runs`` with each stretch of one letter joined into one run; a run
    ``(3, e)`` stands for the runs of ``D^e``."""
    out: list[tuple[int, int]] = []
    append = out.append
    prev = (0, 0)  # the run being joined; the first is dropped at the end
    for run in runs:
        # x ^ y >= 0 when the exponents x and y have one sign
        if run[0] == prev[0] and run[1] ^ prev[1] >= 0:
            prev = (prev[0], prev[1] + run[1])
        elif run[0] != 3:
            append(prev)
            prev = run
        elif run[1]:  # D^e = s1 s2 s1^2 s2 ... s1^2 s2 s1, each letter signed like e
            s = 1 if run[1] > 0 else -1
            if prev[0] == 1 and prev[1] ^ s >= 0:
                append((1, prev[1] + s))
            else:
                append(prev)
                append((1, s))
            out.extend(((2, s), (1, 2 * s)) * (abs(run[1]) - 1))
            append((2, s))
            prev = (1, s)
    append(prev)
    del out[0]
    return tuple(out)


class BraidWord(Record):
    """A word in the braid generators as maximal runs ``(generator, exponent)``.

    Any ``(generator, exponent)`` pairs are accepted and joined into runs,
    so a tuple of letters ``(generator, +-1)`` is a valid argument and
    equal letters give equal words.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[int, int]] = ()):
        runs = tuple(runs)
        for gen, exp in runs:
            if gen not in (1, 2) or not exp:
                raise ValueError(f"bad braid letter ({gen}, {(exp > 0) - (exp < 0)})")
        object.__setattr__(self, "runs", _merged(runs))

    @staticmethod
    def from_letters(raw: Iterable[tuple[int, int]]) -> "BraidWord":
        letters = tuple(raw)
        for gen, sign in letters:
            if gen not in (1, 2) or sign not in (1, -1):
                raise ValueError(f"bad braid letter ({gen}, {sign})")
        return BraidWord(letters)

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """One ``(generator, sign)`` pair per letter."""
        return tuple(chain.from_iterable(
            ((g, 1),) * e if e > 0 else ((g, -1),) * -e for g, e in self.runs
        ))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        left, right = self.runs, other.runs
        if left and right:  # the runs at the junction join if they spell one letter
            return BraidWord._of(left[:-1] + _merged((left[-1], right[0])) + right[1:])
        return BraidWord._of(left + right)

    def inverse(self) -> "BraidWord":
        return BraidWord._of(tuple((g, -e) for g, e in reversed(self.runs)))

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def __str__(self) -> str:
        return braid_to_text(self)


def sigma_word(gen: int, exp: int) -> BraidWord:
    """The braid word ``sigma_gen^exp``."""
    return BraidWord(((gen, exp),) if exp else ())


def half_twist_word(exp: int = 1) -> BraidWord:
    """The braid word for the half twist to the given power."""
    return BraidWord._of(_merged(((3, exp),)))


_BRAID_TOKEN = re.compile(r"(?P<shift>[sS])(?P<gen>[12])(?:\^(?P<exp>-?\d+))?\Z")
_DELTA_TOKEN = re.compile(r"D(?:\^(?P<exp>-?\d+))?\Z")


#: Most letters a parsed braid may expand to: ``|e|`` for each ``s`` token
#: and ``3|e|`` for each ``D`` token.  Words are kept in runs, so what the
#: ceiling bounds are the runs of ``D^e`` and the coset and pure word of a
#: text of many short runs.  At the ceiling on a shared 2-core x86 host,
#: ``normalize "s1^1000000"`` took 0.06 s and 16 MB (as ``normalize "s1"``),
#: and a text of 2000 random exponents from 1 to 999 0.12 s and 34 MB.
MAX_BRAID_LETTERS = 10**6


def _token_run(token: str, pos: int = -1) -> tuple[int, int]:
    """A braid token's run ``(generator, exponent)``, or ``(3, e)`` for ``D^e``;
    an exponent 0 gives ``(3, 0)``, which spells nothing either."""
    match = _BRAID_TOKEN.match(token)
    if match is None:
        match = _DELTA_TOKEN.match(token)
        if match is None:
            raise BraidSyntaxError(f"bad braid token {token!r}", pos)
        return 3, token_exponent(match, pos, BraidSyntaxError)
    exp = token_exponent(match, pos, BraidSyntaxError)
    if not exp:
        return 3, 0
    return int(match.group("gen")), -exp if match.group("shift") == "S" else exp


@lru_cache(maxsize=MEMO_SIZE)
def _decoded_run(token: str) -> tuple[tuple[int, int], int]:
    """A braid token's run and its size in letters, kept across calls."""
    gen, exp = _token_run(token)
    return (gen, exp), 3 * abs(exp) if gen == 3 else abs(exp)


def _refuse_overflow(sizes: dict[str, int], tokens: Iterable[str]) -> None:
    """Raise at the first of ``tokens`` past :data:`MAX_BRAID_LETTERS` letters."""
    for pos, total in enumerate(accumulate(map(sizes.__getitem__, tokens))):
        if total > MAX_BRAID_LETTERS:
            raise BraidSyntaxError(f"more than {MAX_BRAID_LETTERS} letters", pos)


def parse_braid(text: str) -> BraidWord:
    """Parse braid text syntax; raises :class:`BraidSyntaxError` on bad tokens
    and on words of more than :data:`MAX_BRAID_LETTERS` letters."""
    # decode each distinct token once, in order of first appearance, and
    # size the word before any run is built
    tokens = text.split()
    runs: dict[str, tuple[int, int]] = {}
    sizes: dict[str, int] = {}
    for token in dict.fromkeys(tokens):
        try:
            runs[token], sizes[token] = _decoded_run(token)
        except BraidSyntaxError:  # raised again at its position, unless an overflow comes first
            pos = tokens.index(token)
            _refuse_overflow(sizes, islice(tokens, pos))
            _token_run(token, pos)
    # no token is larger than the largest, so most texts need no sum
    if tokens and len(tokens) * max(sizes.values()) > MAX_BRAID_LETTERS:
        if sum(map(sizes.__getitem__, tokens)) > MAX_BRAID_LETTERS:
            _refuse_overflow(sizes, tokens)
    return BraidWord._of(_merged(map(runs.__getitem__, tokens)))


def braid_to_text(b: BraidWord) -> str:
    return " ".join(f"s{g}" if e == 1 else f"s{g}^{e}" for g, e in b.runs)


_LETTER_NAMES = ("a", "t", "t2")


class CosetElement(Record):
    """Canonical alternating word over the two free-product factors, in runs.

    ``runs`` holds ``(e, n)``: the letter ``t^e`` ``n`` times with one ``a``
    between neighbours; neighbouring runs differ in ``e`` and have one
    ``a`` between them.  ``lead`` and ``trail`` say whether an ``a`` comes
    first or last; the word ``a`` alone has ``lead`` set and no runs.  The
    constructor takes the letters of the word.
    """

    __slots__ = ("runs", "lead", "trail")

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        lead = letters[:1] == (A_LETTER,)
        ts = letters[lead::2]  # the a letters are the others
        if set(letters[1 - lead :: 2]) - {A_LETTER} or set(ts) - {T_LETTER, TT_LETTER}:
            raise ValueError(f"not an alternating coset word: {letters!r}")
        object.__setattr__(self, "runs", tuple((e, len(list(g))) for e, g in groupby(ts)))
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "trail", len(letters) > 1 and letters[-1] == A_LETTER)

    def __reduce__(self):
        return CosetElement, (self.letters,)

    @property
    def letters(self) -> tuple[int, ...]:
        """The canonical word, one letter ``0`` (``a``), ``1`` or ``2`` each."""
        if not self.runs:
            return (A_LETTER,) if self.lead else ()
        word = (A_LETTER,) * self.lead + tuple(
            chain.from_iterable((e, A_LETTER) * n for e, n in self.runs)
        )
        return word if self.trail else word[:-1]

    def __mul__(self, other: "CosetElement") -> "CosetElement":
        # a factor without runs is e or a: an a at the junction comes or goes
        runs = self.runs
        if not other.runs:
            if runs:
                return CosetElement._of(runs, self.lead, self.trail ^ other.lead)
            return HALF_TWIST if self.lead ^ other.lead else IDENTITY
        if not runs:
            return CosetElement._of(other.runs, self.lead ^ other.lead, other.trail)
        # other is [a] (t^e1 a)^n1 ... (t^ek a)^nk, then one more a unless it
        # trails, and (t^2 a)^n, (t a)^n are the images of sigma1^n, sigma2^-n
        ns = [n for _, n in runs]
        units = ((1, n) if t == TT_LETTER else (2, -n) for t, n in other.runs)
        e, a, lead = _fold(units, ns, runs[-1][0], self.trail ^ other.lead, self.lead)
        return _coset(ns, e, a ^ (not other.trail), lead)

    def inverse(self) -> "CosetElement":
        if not self.runs:
            return self
        runs = tuple((3 - e, n) for e, n in reversed(self.runs))
        return CosetElement._of(runs, self.trail, self.lead)

    @property
    def is_identity(self) -> bool:
        return not self.runs and not self.lead

    def __str__(self) -> str:
        if self.is_identity:
            return "e"
        return " ".join(_LETTER_NAMES[l] for l in self.letters)


IDENTITY = CosetElement()
HALF_TWIST = CosetElement((A_LETTER,))

#: The image of a braid letter as ``(leading a, t-letter, trailing a)``, indexed
#: by the generator for a positive exponent and by its negative otherwise:
#: ``sigma1 -> t^2 a``, ``sigma2 -> a t^2``, ``sigma2^-1 -> t a``, ``sigma1^-1 -> a t``.
_IMAGE = (None, (0, TT_LETTER, 1), (1, TT_LETTER, 0), (0, T_LETTER, 1), (1, T_LETTER, 0))


def _fold(
    runs: Iterable[tuple[int, int]], ns: list[int], e: int, a: int, lead: int
) -> tuple[int, int, int]:
    """Multiply a coset in runs by the images of the braid runs ``runs``.

    The coset is ``ns``, the lengths of its runs from the bottom, whose
    letters alternate and end with ``t^e``; ``a`` is 1 when its last letter
    is ``a`` (with no runs, when it is the word ``a``) and ``lead`` when its
    first is.  Updates ``ns`` in place and returns the new ``(e, a, lead)``.
    """
    image = _IMAGE
    for gen, exp in runs:
        if exp > 0:
            first, te, last = image[gen]
            n = exp
        else:
            first, te, last = image[-gen]
            n = -exp
        a ^= first
        if a or not ns:  # after an a, or on nothing but an a: the run goes on
            if not ns:
                lead = a
                ns.append(n)
            elif te == e:
                ns[-1] += n
            else:
                ns.append(n)
            e, a = te, 0
        else:
            if te != e:  # t^-e against t^e: min(n, top) pairs cancel at once
                top = ns[-1]
                if top > n:
                    ns[-1] = top - n
                    a, n = 1, 0  # the a below the cancelled letters is on top
                else:
                    ns.pop()
                    n -= top
                    e = te
                    if not ns:  # down to the leading a, if any, then a t^e run
                        a = lead ^ (n > 0)
                        if n:
                            lead, a = a, 0
                            ns.append(n)
                        n = 0
                    elif not n:
                        a = 1
                    # else the a's cancel too, and t^e meets the run below
            if n:  # t^e t^e = t^(3-e) takes the place of the top letter
                top = ns[-1]
                if top > 1:
                    ns[-1] = top - 1
                    ns.append(1)
                elif len(ns) > 1:
                    ns.pop()
                    ns[-1] += 1
                e = 3 - e
                if n > 1:
                    ns.append(n - 1)
                    e = te
        a ^= last
    return e, a, lead


def _coset(ns: list[int], e: int, a: int, lead: int) -> CosetElement:
    """The coset that :func:`_fold` leaves."""
    if not ns:
        return HALF_TWIST if a else IDENTITY
    bottom = e if len(ns) % 2 else 3 - e
    return CosetElement._of(tuple(zip(cycle((bottom, 3 - bottom)), ns)), bool(lead), bool(a))


def evaluate(b: BraidWord) -> CosetElement:
    """The canonical coset of a braid word."""
    ns: list[int] = []
    return _coset(ns, *_fold(b.runs, ns, 0, 0, 0))


def sigma_power(gen: int, exp: int) -> CosetElement:
    """Canonical coset of ``sigma_gen^exp``."""
    return evaluate(sigma_word(gen, exp))


def embed_pure(w: FreeWord) -> CosetElement:
    """Coset of a pure word, sending generator ``i`` to ``sigma_i^2``."""
    return evaluate(BraidWord((gen, 2 * e) for gen, e in w.terms))


def conjugate(g: CosetElement, x: CosetElement) -> CosetElement:
    return g * x * g.inverse()


def swap_generators(w: FreeWord) -> FreeWord:
    """Exchange the two generators; on pure words this is half-twist conjugation."""
    return FreeWord(tuple((other_generator(g), e) for g, e in w.terms))


# --- strand permutations -------------------------------------------------

PERM_ID = (0, 1, 2)
PERM_S1 = (1, 0, 2)
PERM_S2 = (0, 2, 1)
_PERM_LETTER = {
    A_LETTER: (2, 1, 0),
    T_LETTER: (2, 0, 1),
    TT_LETTER: (1, 2, 0),
}


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return (q[p[0]], q[p[1]], q[p[2]])


_PERMS = tuple(permutations(range(3)))
#: ``_PERM_STEP[3 * i + letter]`` is ``3 * m`` for the permutation ``_PERMS[m]``
#: of ``_PERMS[i]`` followed by ``letter``: one lookup per letter.
_PERM_STEP = tuple(
    3 * _PERMS.index(_compose(p, _PERM_LETTER[letter]))
    for p in _PERMS
    for letter in (A_LETTER, T_LETTER, TT_LETTER)
)
_ID_CODE = 3 * _PERMS.index(PERM_ID)

# --- pure words -----------------------------------------------------------

#: The nontrivial Schreier generators ``T(p) a T(p a)^-1`` of the transversal
#: ``T = 1, a, t, t^2, a t, a t^2``, keyed by the representative they are read
#: after; every other step by one coset letter stays inside the transversal.
_SCHREIER = {
    (TT_LETTER,): (1, 1),
    (A_LETTER, TT_LETTER): (2, 1),
    (T_LETTER,): (2, -1),
    (A_LETTER, T_LETTER): (1, -1),
}
_A_TERM_AT = {
    reduce(_compose, map(_PERM_LETTER.__getitem__, rep), PERM_ID): term
    for rep, term in _SCHREIER.items()
}
#: ``_PERM_SPELL[3 * i + letter]`` is the pure term spelled by ``letter`` read
#: after a prefix of strand permutation ``_PERMS[i]``, or None: indexed like
#: :data:`_PERM_STEP`.
_PERM_SPELL = tuple(
    _A_TERM_AT.get(p) if letter == A_LETTER else None
    for p in _PERMS
    for letter in (A_LETTER, T_LETTER, TT_LETTER)
)


def _unit(code: int, e: int) -> tuple[int, tuple | None, tuple | None]:
    """The unit ``t^e a`` read after ``code``: where it leads, what it spells,
    and what the next one spells; the one after that spells the first again."""
    after = _PERM_STEP[_PERM_STEP[code + e]]
    return after, _PERM_SPELL[_PERM_STEP[code + e]], _PERM_SPELL[_PERM_STEP[after + e]]


#: ``_UNITS[3 * i + e]`` is :func:`_unit` of ``3 * i`` and ``e`` in {1, 2}:
#: a unit is an odd permutation, so a run of units alternates two states.
_UNITS = tuple(
    _unit(3 * i, e) if e else None for i in range(len(_PERMS)) for e in range(3)
)


def s3_image(x: CosetElement) -> tuple[int, ...]:
    """The strand permutation of a coset element."""
    code = _PERM_STEP[_ID_CODE] if x.lead else _ID_CODE
    units = _UNITS
    for e, n in x.runs:
        if n & 1:
            code = units[code + e][0]
    if x.runs and not x.trail:  # the word lacks the last unit's a
        code = _PERM_STEP[code]
    return _PERMS[code // 3]


def _extend(terms: list, block: tuple[tuple[int, int], ...]) -> None:
    """Append the reduced ``block`` to the reduced ``terms``: terms cancel or
    merge only until the junction settles."""
    i = 0
    for gen, exp in block:
        if not terms or terms[-1][0] != gen:
            break
        exp += terms.pop()[1]
        i += 1
        if exp:
            terms.append((gen, exp))
            break
    terms.extend(block[i:] if i else block)


def _walk_a(code: int, terms: list) -> int:
    """Step ``code`` by one ``a``, appending the pure term it spells, if any."""
    if _PERM_SPELL[code]:
        _extend(terms, (_PERM_SPELL[code],))
    return _PERM_STEP[code]


def unembed(*factors: CosetElement) -> FreeWord | None:
    """Invert :func:`embed_pure` on the product of ``factors``, or return None
    when that product is not a pure word.

    The pure words are the kernel of the strand permutation, free on
    ``sigma1^2, sigma2^2``.  Reidemeister-Schreier rewriting reads the
    product as a word in them: a walk over the factors, one after another,
    steps the strand permutation of the prefix, and each ``a`` read after a
    prefix in the coset of ``t^2``, ``a t^2``, ``t`` or ``a t`` spells
    ``a1``, ``a2``, ``a2^-1`` or ``a1^-1``.  Each factor is walked as
    ``[a] (t^e1 a)^n1 ... (t^ek a)^nk`` and one more ``a`` unless it ends
    with one; a run of ``n`` units spells ``n`` terms that alternate
    between two, which make one power when one of them is empty.  The
    rewriting is a homomorphism, so terms that cancel across a junction
    cancel as they are appended.  The product is pure exactly when the
    walk ends at the identity.
    """
    code = _ID_CODE
    units = _UNITS
    terms: list[tuple[int, int]] = []
    for x in factors:
        if x.lead:
            code = _walk_a(code, terms)
        for e, n in x.runs:
            after, first, second = units[code + e]
            if first and second:
                _extend(terms, (first, second) * (n >> 1) + (first,) * (n & 1))
            else:
                gen, exp = first or second
                exp *= (n + 1) >> 1 if first else n >> 1
                if exp and terms and terms[-1][0] == gen:
                    exp += terms.pop()[1]
                if exp:
                    terms.append((gen, exp))
            if n & 1:
                code = after
        if x.runs and not x.trail:  # walking the a the word lacks undoes it
            code = _walk_a(code, terms)
    return FreeWord(tuple(terms)) if code == _ID_CODE else None


# --- normal form ----------------------------------------------------------


def even_toward_zero(k: int) -> int:
    """The nearest even integer between ``k`` and zero; ``k`` must be nonzero."""
    if k == 0:
        raise ValueError("leading exponent must be nonzero")
    if k % 2 == 0:
        return k
    return k - (1 if k > 0 else -1)


POWER_OF_DELTA = "power_of_delta"
GENERAL = "general"


class NormalForm(Record):
    """The unique factorization ``sigma_j^k b1 delta^ell`` of a coset.

    ``kind`` is :data:`POWER_OF_DELTA` (then only ``ell`` is meaningful) or
    :data:`GENERAL` (then ``j`` in {1, 2}, ``k != 0``, ``b1`` is a reduced
    pure word whose first term, if any, uses the other generator, and
    ``ell`` in {0, 1}).
    """

    __slots__ = ("kind", "j", "k", "b1", "ell")

    def __init__(
        self, kind: str, j: int = 0, k: int = 0, b1: FreeWord = FreeWord(), ell: int = 0
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "ell", ell)

    @staticmethod
    def power_of_delta(ell: int) -> "NormalForm":
        return NormalForm(POWER_OF_DELTA, ell=ell % 2)

    @staticmethod
    def general(j: int, k: int, b1: FreeWord, ell: int) -> "NormalForm":
        if j not in (1, 2) or k == 0:
            raise ValueError("malformed leading power")
        if b1.terms and b1.terms[0][0] == j:
            raise ValueError("first term of b1 must use the other generator")
        return NormalForm(GENERAL, j=j, k=k, b1=b1, ell=ell % 2)

    @property
    def is_power_of_delta(self) -> bool:
        return self.kind == POWER_OF_DELTA

    def __str__(self) -> str:
        if self.is_power_of_delta:
            return f"D^{self.ell}"
        body = f"s{self.j}^{self.k}"
        if not self.b1.is_identity:
            body += " " + " ".join(f"s{g}^{2 * e}" for g, e in self.b1.terms)
        return body + (f" D^{self.ell}" if self.ell else "")


_PERM_GEN = {PERM_ID: 0, PERM_S1: 1, PERM_S2: 2}
_STRIPPED = (IDENTITY, sigma_power(1, -1), sigma_power(2, -1))  # sigma_j^-1 by j


def normal_form(b: BraidWord | CosetElement) -> NormalForm:
    """The factorization ``sigma_j^k b1 delta^ell`` of a braid or coset."""
    x = evaluate(b) if isinstance(b, BraidWord) else b
    perm = s3_image(x)
    ell = int(perm not in _PERM_GEN)
    if ell:
        perm = _compose(perm, _PERM_LETTER[A_LETTER])
    # a transposition s_j leaves k odd: strip one sigma_j before unembedding
    j = _PERM_GEN[perm]
    w = unembed(_STRIPPED[j], x, HALF_TWIST if ell else IDENTITY)
    if w is None:
        raise ArithmeticError("canonical coset word did not parse; invariant violated")
    if j and (not w.terms or w.terms[0][0] != j):
        return NormalForm.general(j, 1, w, ell)
    if not w.terms:
        return NormalForm.power_of_delta(ell)
    # k = 2e, plus the stripped sigma_j when the pure word opens with sigma_j^(2e)
    (g, e), rest = w.terms[0], FreeWord(w.terms[1:])
    return NormalForm.general(g, 2 * e + (1 if j else 0), rest, ell)


def remultiply(form: NormalForm) -> CosetElement:
    """Re-evaluate a normal form back to its coset element."""
    # a power of the half twist has k = 0 and an empty b1
    head = ((form.j, form.k),) if form.k else ()
    x = evaluate(BraidWord(head + tuple((gen, 2 * e) for gen, e in form.b1.terms)))
    return x * HALF_TWIST if form.ell else x


def pure_projection(form: NormalForm | BraidWord | CosetElement) -> FreeWord:
    """Round the leading exponent to even toward zero and drop the half twist.

    The result is the reduced pure word ``sigma_j^q(k) b1`` shared by the
    whole fiber of braids that differ by a single leading letter or a half
    twist.  Defined only for general forms; powers of the half twist raise
    :class:`ValueError`.
    """
    if not isinstance(form, NormalForm):
        form = normal_form(form)
    if form.is_power_of_delta:
        raise ValueError("projection is defined only away from half-twist powers")
    q = even_toward_zero(form.k)
    head = ((form.j, q // 2),) if q else ()
    return FreeWord(head + form.b1.terms)
