"""Arithmetic in the 3-strand braid group modulo its center.

The quotient is a free product of a cyclic group of order 2, generated
by the image ``a`` of the half twist ``sigma1 sigma2 sigma1``, and a
cyclic group of order 3, generated by the image ``t`` of
``sigma1 sigma2``.  A :class:`CosetElement` stores the unique
alternating word over the two factors as a tuple of letters ``0`` (for
``a``), ``1`` (for ``t``) and ``2`` (for ``t^2``); canonical words
never place two letters of the same factor side by side.
Multiplication pushes letters onto a stack and resolves ``a*a -> 1``
and ``t^i * t^j -> t^(i+j mod 3)`` locally, so canonicalization is
linear and tuple equality decides equality in the quotient; words of
``(generator, sign)`` letters become cosets in one such stack walk.

Generator images, pinned down by the relation tests:

    sigma1 -> t^2 a      sigma1^-1 -> a t
    sigma2 -> a t^2      sigma2^-1 -> t a
    half twist -> a

Every element that is not a power of the half twist factors uniquely
as ``sigma_j^k  b1  delta^ell`` with ``k != 0``, ``ell`` in ``{0, 1}``
and ``b1`` a reduced word in ``sigma1^2, sigma2^2`` whose first term,
if any, uses the generator other than ``j``.  :func:`normal_form` reads
it off in one pass: exactly one ``ell`` puts the strand permutation of
``y = x delta^ell`` in ``{id, s1, s2}``; ``s_j`` means ``k`` is odd, and
one :func:`unembed` of ``sigma_j^-1 y`` (of ``y`` for ``id``) gives the
pure word, whose first term joins the leading power if it uses ``j``.
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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .words import FreeWord, other_generator, token_exponent

A_LETTER = 0
T_LETTER = 1
TT_LETTER = 2


class BraidSyntaxError(ValueError):
    """Raised on malformed braid text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators, one ``(generator, sign)`` letter each."""

    letters: tuple[tuple[int, int], ...] = ()

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
#: and ``3|e|`` for each ``D`` token.  ``normalize`` of a word of 2*10^6
#: letters took 1.6 s and 170 MB on a 2-core x86 host.
MAX_BRAID_LETTERS = 10**6


def parse_braid(text: str) -> BraidWord:
    """Parse braid text syntax; raises :class:`BraidSyntaxError` on bad tokens
    and on words of more than :data:`MAX_BRAID_LETTERS` letters."""
    letters: list[tuple[int, int]] = []
    size = 0
    for pos, token in enumerate(text.split()):
        match = _BRAID_TOKEN.match(token)
        if match is not None:
            gen = int(match.group("gen"))
            exp = token_exponent(match, pos, BraidSyntaxError)
            if match.group("shift") == "S":
                exp = -exp
            size += abs(exp)
            if size > MAX_BRAID_LETTERS:
                raise BraidSyntaxError(f"more than {MAX_BRAID_LETTERS} letters", pos)
            letters.extend(sigma_word(gen, exp).letters if exp else ())
            continue
        match = _DELTA_TOKEN.match(token)
        if match is not None:
            exp = token_exponent(match, pos, BraidSyntaxError)
            size += 3 * abs(exp)
            if size > MAX_BRAID_LETTERS:
                raise BraidSyntaxError(f"more than {MAX_BRAID_LETTERS} letters", pos)
            letters.extend(half_twist_word(exp).letters if exp else ())
            continue
        raise BraidSyntaxError(f"bad braid token {token!r}", pos)
    return BraidWord(tuple(letters))


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


def _push_letter(stack: list[int], letter: int) -> None:
    if letter == A_LETTER:
        if stack and stack[-1] == A_LETTER:
            stack.pop()
        else:
            stack.append(A_LETTER)
    else:
        if stack and stack[-1] != A_LETTER:
            power = (stack[-1] + letter) % 3
            stack.pop()
            if power:
                stack.append(power)
        else:
            stack.append(letter)


@dataclass(frozen=True)
class CosetElement:
    """Canonical alternating word over the two free-product factors."""

    letters: tuple[int, ...] = ()

    def __mul__(self, other: "CosetElement") -> "CosetElement":
        stack = list(self.letters)
        for letter in other.letters:
            _push_letter(stack, letter)
        return CosetElement(tuple(stack))

    def inverse(self) -> "CosetElement":
        inv = {A_LETTER: A_LETTER, T_LETTER: TT_LETTER, TT_LETTER: T_LETTER}
        return CosetElement(tuple(inv[l] for l in reversed(self.letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        names = {A_LETTER: "a", T_LETTER: "t", TT_LETTER: "t2"}
        return " ".join(names[l] for l in self.letters)


IDENTITY = CosetElement()
HALF_TWIST = CosetElement((A_LETTER,))

_SIGMA_LETTERS = {
    (1, 1): (TT_LETTER, A_LETTER),
    (1, -1): (A_LETTER, T_LETTER),
    (2, 1): (A_LETTER, TT_LETTER),
    (2, -1): (T_LETTER, A_LETTER),
}


def _coset(letters: Iterable[tuple[int, int]]) -> CosetElement:
    """The canonical coset of ``(generator, sign)`` letters, in one stack walk."""
    stack: list[int] = []
    for gen_sign in letters:
        for letter in _SIGMA_LETTERS[gen_sign]:
            _push_letter(stack, letter)
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


def s3_image(x: CosetElement) -> tuple[int, ...]:
    """The strand permutation of a coset element."""
    perm = PERM_ID
    for letter in x.letters:
        perm = _compose(perm, _PERM_LETTER[letter])
    return perm


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


@dataclass(frozen=True)
class NormalForm:
    """The unique factorization ``sigma_j^k b1 delta^ell`` of a coset.

    ``kind`` is :data:`POWER_OF_DELTA` (then only ``ell`` is meaningful) or
    :data:`GENERAL` (then ``j`` in {1, 2}, ``k != 0``, ``b1`` is a reduced
    pure word whose first term, if any, uses the other generator, and
    ``ell`` in {0, 1}).
    """

    kind: str
    j: int = 0
    k: int = 0
    b1: FreeWord = FreeWord()
    ell: int = 0

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


def unembed(x: CosetElement) -> FreeWord | None:
    """Invert :func:`embed_pure`, or return None when ``x`` is not a pure word.

    The canonical word of an embedded pure word is a chain of blocks, one
    per term, whose interior letters are ``t^2`` for positive terms and
    ``t`` for negative ones; adjacent same-sign blocks fuse at a single
    joint letter of the opposite value.  Every block covers an even number
    of units, so the parity of each interior run decides whether the run
    ends at a joint, which makes the left-to-right parse deterministic.
    """
    letters = x.letters
    if not letters:
        return FreeWord()
    ts = [l for l in letters if l != A_LETTER]
    if not ts:
        return None
    lead = letters[0] == A_LETTER
    trail = letters[-1] == A_LETTER

    first = ts[0]
    if not lead and first == TT_LETTER:
        gen, sign = 1, 1
    elif lead and first == TT_LETTER:
        gen, sign = 2, 1
    elif lead and first == T_LETTER:
        gen, sign = 1, -1
    else:
        gen, sign = 2, -1
    interior = TT_LETTER if sign > 0 else T_LETTER
    joint = T_LETTER if sign > 0 else TT_LETTER

    terms: list[tuple[int, int]] = []
    i = 0
    n = len(ts)
    joint_on_left = 0
    while True:
        run = 0
        while i < n and ts[i] == interior:
            run += 1
            i += 1
        joint_on_right = (run + joint_on_left) % 2
        if joint_on_right:
            if i >= n or ts[i] != joint:
                return None
            i += 1
        units = run + joint_on_left + joint_on_right
        if units == 0 or units % 2:
            return None
        terms.append((gen, sign * (units // 2)))
        if i >= n:
            if joint_on_right:
                return None
            break
        gen = other_generator(gen)
        if joint_on_right:
            joint_on_left = 1
        else:
            sign = -sign
            interior, joint = joint, interior
            joint_on_left = 0

    expected_trail = (gen, sign) in ((1, 1), (2, -1))
    if expected_trail != trail:
        return None
    return FreeWord(tuple(terms))


_PERM_GEN = {PERM_ID: 0, PERM_S1: 1, PERM_S2: 2}


def normal_form(b: BraidWord | CosetElement) -> NormalForm:
    """The factorization ``sigma_j^k b1 delta^ell`` of a braid or coset."""
    x = evaluate(b) if isinstance(b, BraidWord) else b
    perm = s3_image(x)
    ell = int(perm not in _PERM_GEN)
    if ell:
        x = x * HALF_TWIST
        perm = _compose(perm, _PERM_LETTER[A_LETTER])
    # a transposition s_j leaves k odd: strip one sigma_j before unembedding
    j = _PERM_GEN[perm]
    w = unembed(sigma_power(j, -1) * x if j else x)
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
