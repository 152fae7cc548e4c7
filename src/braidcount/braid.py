"""Arithmetic in the 3-strand braid group modulo its center.

The quotient is a free product of a cyclic group of order 2, generated
by the image ``a`` of the half twist ``sigma1 sigma2 sigma1``, and a
cyclic group of order 3, generated by the image ``t`` of
``sigma1 sigma2``.  A :class:`CosetElement` stores the unique
alternating word over the two factors as a tuple of letters ``0`` (for
``a``), ``1`` (for ``t``) and ``2`` (for ``t^2``); canonical words
never place two letters of the same factor side by side, so tuple
equality decides equality.  Two canonical words cancel (``a*a -> 1``) or
merge (``t^i * t^j -> t^(i+j mod 3)``) only at their junction, so a
product joins the right factor there and appends the rest.  Braid letters
are read in blocks of four through a table, built at import, of the
cosets of all words of at most four letters; each block is joined onto a
stack, so the walk is linear.

Generator images, pinned down by the relation tests:

    sigma1 -> t^2 a      sigma1^-1 -> a t
    sigma2 -> a t^2      sigma2^-1 -> t a
    half twist -> a

The strand permutation maps the quotient onto ``S_3``; its kernel, the
pure braids modulo the center, is free on ``sigma1^2, sigma2^2``.  One
table, indexed by the permutation of a prefix and the next letter, steps
the permutation (:func:`s3_image`); a second table indexed the same way
holds the Reidemeister-Schreier rewriting over the transversal
``1, a, t, t^2, a t, a t^2``, so :func:`unembed` reads a pure word off
the same walk.  Rewriting is a homomorphism, so the walk may run over
the letters of several factors in turn and read the pure word of their
product without building it.

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
from itertools import accumulate, chain, islice, permutations, product
from typing import Iterable

from ._record import Record
from .words import FreeWord, other_generator, token_exponent

A_LETTER = 0
T_LETTER = 1
TT_LETTER = 2


class BraidSyntaxError(ValueError):
    """Raised on malformed braid text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


class BraidWord(Record):
    """A word in the braid generators, one ``(generator, sign)`` letter each."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def from_letters(raw: Iterable[tuple[int, int]]) -> "BraidWord":
        letters = tuple(raw)
        for gen, sign in letters:
            if gen not in (1, 2) or sign not in (1, -1):
                raise ValueError(f"bad braid letter ({gen}, {sign})")
        return BraidWord(letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return braid_to_text(self)


def _sigma_letters(gen: int, exp: int) -> tuple[tuple[int, int], ...]:
    return ((gen, 1 if exp > 0 else -1),) * abs(exp)


def sigma_word(gen: int, exp: int) -> BraidWord:
    """The braid word ``sigma_gen^exp``."""
    return BraidWord.from_letters(_sigma_letters(gen, exp))


def half_twist_word(exp: int = 1) -> BraidWord:
    """The braid word for the half twist to the given power."""
    if exp >= 0:
        block = ((1, 1), (2, 1), (1, 1))
    else:
        block = ((1, -1), (2, -1), (1, -1))
    return BraidWord(block * abs(exp))


_BRAID_TOKEN = re.compile(r"(?P<shift>[sS])(?P<gen>[12])(?:\^(?P<exp>-?\d+))?\Z")
_DELTA_TOKEN = re.compile(r"D(?:\^(?P<exp>-?\d+))?\Z")


#: Most letters a parsed braid may expand to: ``|e|`` for each ``s`` token
#: and ``3|e|`` for each ``D`` token.  At the ceiling on a 2-core x86 host,
#: ``normalize "s1^1000000"`` took 0.45 s and 64-68 MB, and a text of 2000
#: random ``s1``/``s2`` exponents from 1 to 999 (998 341 letters) 0.8 s and
#: 75 MB.
MAX_BRAID_LETTERS = 10**6

#: Decoded braid tokens kept across calls, no bad one and no entry past the cap:
#: ``(letters, count, size)`` with _BLOCKS's key letters, never the run.
_DECODED: dict[str, tuple] = {}
_DECODED_CAP = 512


def _token_run(token: str, pos: int = -1) -> tuple[tuple[tuple[int, int], ...], int]:
    """A braid token's letters as ``(block, count)``, meaning ``block * count``."""
    match = _BRAID_TOKEN.match(token)
    delta = match is None
    if delta:
        match = _DELTA_TOKEN.match(token)
        if match is None:
            raise BraidSyntaxError(f"bad braid token {token!r}", pos)
    exp = token_exponent(match, pos, BraidSyntaxError)
    if delta:
        return half_twist_word(1 if exp > 0 else -1).letters, abs(exp)
    if match.group("shift") == "S":
        exp = -exp
    return _sigma_letters(int(match.group("gen")), 1 if exp > 0 else -1), abs(exp)


def _refuse_overflow(sizes: dict[str, int], tokens: Iterable[str]) -> None:
    """Raise at the first of ``tokens`` past :data:`MAX_BRAID_LETTERS` letters."""
    for pos, total in enumerate(accumulate(map(sizes.__getitem__, tokens))):
        if total > MAX_BRAID_LETTERS:
            raise BraidSyntaxError(f"more than {MAX_BRAID_LETTERS} letters", pos)


def parse_braid(text: str) -> BraidWord:
    """Parse braid text syntax; raises :class:`BraidSyntaxError` on bad tokens
    and on words of more than :data:`MAX_BRAID_LETTERS` letters."""
    # take each distinct token from _DECODED or decode it, in order of first
    # appearance, and size the word before any run is built
    tokens = text.split()
    decoded: dict[str, tuple] = {}
    sizes: dict[str, int] = {}
    for token in dict.fromkeys(tokens):
        entry = _DECODED.get(token)
        if entry is None:
            try:
                block, count = _token_run(token)
            except BraidSyntaxError:  # raised again at its position, unless an overflow comes first
                pos = tokens.index(token)
                _refuse_overflow(sizes, islice(tokens, pos))
                _token_run(token, pos)
            entry = tuple(map(_LETTER.__getitem__, block)), count, len(block) * count
            if len(_DECODED) < _DECODED_CAP:
                _DECODED[token] = entry
        decoded[token], sizes[token] = entry, entry[2]
    if sum(map(sizes.__getitem__, tokens)) > MAX_BRAID_LETTERS:
        _refuse_overflow(sizes, tokens)
    runs = {t: letters * count for t, (letters, count, _) in decoded.items()}
    return BraidWord(tuple(chain.from_iterable(map(runs.__getitem__, tokens))))


def braid_to_text(b: BraidWord) -> str:
    if not b.letters:
        return ""
    chunks: list[str] = []
    i = 0
    letters = b.letters
    while i < len(letters):
        gen, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (gen, sign):
            j += 1
        exp = sign * (j - i)
        chunks.append(f"s{gen}" if exp == 1 else f"s{gen}^{exp}")
        i = j
    return " ".join(chunks)


#: Each letter's inverse, indexed by the letter.
_INVERSE_LETTER = (A_LETTER, TT_LETTER, T_LETTER)
_LETTER_NAMES = ("a", "t", "t2")


def _join(stack: list, word: tuple[int, ...]) -> None:
    """Append the canonical ``word`` to ``stack``, a canonical word above a
    ``None`` sentinel: letters cancel (``a*a -> 1``) or merge (``t^i * t^j ->
    t^(i+j mod 3)``) only until the junction settles, then the rest goes on."""
    i = 0
    for letter in word:
        top = stack[-1]
        if letter and top:  # two powers of t; A_LETTER is 0 and the sentinel is falsy
            power = (top + letter) % 3
            if power:
                stack[-1] = power
                i += 1
                break
        elif letter or top != A_LETTER:
            break
        stack.pop()
        i += 1
    stack.extend(word[i:] if i else word)  # most junctions take no letter


class CosetElement(Record):
    """Canonical alternating word over the two free-product factors."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "CosetElement") -> "CosetElement":
        stack = [None, *self.letters]
        _join(stack, other.letters)
        del stack[0]
        return CosetElement(tuple(stack))

    def inverse(self) -> "CosetElement":
        return CosetElement(tuple(_INVERSE_LETTER[l] for l in reversed(self.letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(_LETTER_NAMES[l] for l in self.letters)


IDENTITY = CosetElement()
HALF_TWIST = CosetElement((A_LETTER,))

_SIGMA_LETTERS = {
    (1, 1): (TT_LETTER, A_LETTER),
    (1, -1): (A_LETTER, T_LETTER),
    (2, 1): (A_LETTER, TT_LETTER),
    (2, -1): (T_LETTER, A_LETTER),
}
_LETTER = {letter: letter for letter in _SIGMA_LETTERS}  # one shared object per letter


_BLOCK = 4  # braid letters per lookup in _BLOCKS


def _block_table() -> dict[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The canonical coset of every word of at most :data:`_BLOCK` letters."""
    table = {(): ()}
    for size in range(1, _BLOCK + 1):
        for word in product(_SIGMA_LETTERS, repeat=size):  # after all its prefixes
            stack = [None, *table[word[:-1]]]
            _join(stack, _SIGMA_LETTERS[word[-1]])
            table[word] = tuple(stack[1:])
    return table


_BLOCKS = _block_table()


def _coset(letters: Iterable[tuple[int, int]]) -> CosetElement:
    """The canonical coset of ``(generator, sign)`` letters, joined
    :data:`_BLOCK` at a time; any other letter raises ValueError."""
    letters = tuple(letters)  # a tuple is not copied
    tail = letters[len(letters) - len(letters) % _BLOCK:]
    stack = [None]
    try:
        for word in map(_BLOCKS.__getitem__, chain(zip(*[iter(letters)] * _BLOCK), (tail,))):
            _join(stack, word)
    except KeyError as missing:
        bad = next(letter for letter in missing.args[0] if letter not in _SIGMA_LETTERS)
        raise ValueError(f"bad braid letter {bad}") from None
    del stack[0]
    return CosetElement(tuple(stack))


def evaluate(b: BraidWord) -> CosetElement:
    """The canonical coset of a braid word."""
    return _coset(b.letters)


def sigma_power(gen: int, exp: int) -> CosetElement:
    """Canonical coset of ``sigma_gen^exp``."""
    return _coset(_sigma_letters(gen, exp))


def _pure_letters(w: FreeWord) -> Iterable[tuple[int, int]]:
    return chain.from_iterable(_sigma_letters(gen, 2 * e) for gen, e in w.terms)


def embed_pure(w: FreeWord) -> CosetElement:
    """Coset of a pure word, sending generator ``i`` to ``sigma_i^2``."""
    return _coset(_pure_letters(w))


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


def s3_image(x: CosetElement) -> tuple[int, ...]:
    """The strand permutation of a coset element."""
    code = _ID_CODE
    step = _PERM_STEP
    for letter in x.letters:
        code = step[code + letter]
    return _PERMS[code // 3]


# --- pure words -----------------------------------------------------------

#: The nontrivial Schreier generators ``T(p) a T(p a)^-1`` of the transversal
#: ``T = 1, a, t, t^2, a t, a t^2``, keyed by the representative they are read
#: after; every other step by one coset letter stays inside the transversal.
_A_TERMS = {
    (TT_LETTER,): (1, 1),
    (A_LETTER, TT_LETTER): (2, 1),
    (T_LETTER,): (2, -1),
    (A_LETTER, T_LETTER): (1, -1),
}
_A_TERM_AT = {s3_image(CosetElement(rep)): term for rep, term in _A_TERMS.items()}
#: ``_PERM_SPELL[3 * i + letter]`` is the pure term spelled by ``letter`` read
#: after a prefix of strand permutation ``_PERMS[i]``, or None: indexed like
#: :data:`_PERM_STEP`.
_PERM_SPELL = tuple(
    _A_TERM_AT.get(p) if letter == A_LETTER else None
    for p in _PERMS
    for letter in (A_LETTER, T_LETTER, TT_LETTER)
)


def unembed(*factors: CosetElement) -> FreeWord | None:
    """Invert :func:`embed_pure` on the product of ``factors``, or return None
    when that product is not a pure word.

    The pure words are the kernel of the strand permutation, free on
    ``sigma1^2, sigma2^2``.  Reidemeister-Schreier rewriting reads the
    product as a word in them: one walk over the letters of the factors,
    one factor after another, steps the strand permutation of the prefix,
    and each ``a`` read after a prefix in the coset of ``t^2``, ``a t^2``,
    ``t`` or ``a t`` spells ``a1``, ``a2``, ``a2^-1`` or ``a1^-1``.  The
    rewriting is a homomorphism, so letters that cancel across a junction
    spell terms that cancel in the free word.  The product is pure exactly
    when the walk ends at the identity.
    """
    code = _ID_CODE
    step, spell = _PERM_STEP, _PERM_SPELL
    terms = []
    append = terms.append
    for letter in chain.from_iterable(f.letters for f in factors):
        code += letter
        if spell[code]:
            append(spell[code])
        code = step[code]
    return FreeWord.from_terms(terms) if code == _ID_CODE else None


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
    head = _sigma_letters(form.j, form.k)
    return _coset(chain(head, _pure_letters(form.b1), half_twist_word(form.ell).letters))


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
