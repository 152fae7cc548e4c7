"""Sign-vector word families, conjugacy-orbit counting, and lower-bound reports.

A family word is a sign vector ``(e_1, ..., e_2j)`` standing for the
reduced pure word ``a1^(2 e_1) a2^(2 e_2) ... a1^(2 e_{2j-1}) a2^(2 e_{2j})``:
an alternating product of squared generators, cyclically syllable
reduced with ``2j`` first-kind syllables of degree 2.  Conjugation in
the braid quotient acts on these vectors through the cyclic shift that
moves every term one slot left while swapping the two generators (the
half twist realizes the swap), so counting conjugacy classes within a
family reduces to counting rotation orbits of sign vectors; the count
comes from Burnside's lemma and is cross-checked by direct orbit
enumeration at small sizes.

The lower-bound reports instantiate the family at the largest index
whose upper weight fits under a budget ``Y`` and compare the resulting
word or class count against the matching exponential floor; every
comparison is decided exactly by :mod:`braidcount.exactlog`: the sign of
an interval enclosure at doubling precision, and an exact form where the
two sides are equal.

``search_forbidden_conjugations`` is the falsification half: it
exhaustively conjugates family words by braids of the shape
``sigma_i * (pure word) * half_twist^ell`` and reports any conjugate
that lands back in the alternating form with at least four terms.
No such hit should exist; an empty result at a given search depth is
evidence, not proof.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Iterator

from ._record import Record
from .braid import (
    BraidWord,
    CosetElement,
    HALF_TWIST,
    embed_pure,
    evaluate,
    half_twist_word,
    sigma_word,
    swap_generators,
    unembed,
)
from .words import FreeWord

ENUMERATION_LIMIT = 10  # 2^(2j) direct orbit walk stays desk-scale up to here
#: Largest family index a lower-bound report takes (``Y`` up to about
#: 4.4e6 for lambda and 1.4e7 for entropy).  The entropy family size
#: ``4^index`` then has at most 4215 digits, within Python's 4300-digit
#: limit for printing an int, and a report at the ceiling takes about
#: 0.02 s on a 2-core x86 host.
MAX_REPORT_INDEX = 7000


class FamilyWord(Record):
    """A sign vector in {+1, -1}^(2j) naming one alternating-form word."""

    __slots__ = ("signs",)

    def __init__(self, signs: tuple[int, ...]):
        if len(signs) < 2 or len(signs) % 2:
            raise ValueError("sign vector length must be even and at least 2")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    @property
    def pairs(self) -> int:
        return len(self.signs) // 2

    def expand(self) -> FreeWord:
        terms = tuple(
            (1 if i % 2 == 0 else 2, 2 * s) for i, s in enumerate(self.signs)
        )
        return FreeWord(terms)

    def rotate(self, steps: int = 1) -> "FamilyWord":
        n = len(self.signs)
        k = steps % n
        return FamilyWord(self.signs[k:] + self.signs[:k])


def enumerate_family(j: int) -> list[FamilyWord]:
    """All 2^(2j) family words at index j, in a fixed order."""
    if j < 1:
        raise ValueError("family index must be at least 1")
    return [FamilyWord(signs) for signs in product((1, -1), repeat=2 * j)]


def orbit_of(w: FamilyWord) -> set[FamilyWord]:
    """The rotation orbit of a family word; its size divides 2j."""
    return {w.rotate(s) for s in range(len(w.signs))}


def rotation_conjugator(w: FamilyWord) -> CosetElement:
    """A braid-quotient witness g with g * expand(w) * g^-1 = expand(rotate(w)).

    One rotation step is conjugation by the half twist (which swaps the
    generators) followed by cancelling the then-leading term, so
    ``g = a2^(-2 e_1) * half_twist``.
    """
    head = FreeWord(((2, -2 * w.signs[0]),))
    return embed_pure(head) * HALF_TWIST


def class_count(j: int) -> int:
    """Exact number of rotation orbits on {+1,-1}^(2j), by Burnside's lemma."""
    if j < 1:
        raise ValueError("family index must be at least 1")
    n = 2 * j
    return sum(2 ** gcd(s, n) for s in range(n)) // n


def class_count_by_enumeration(j: int) -> int:
    """Orbit count by direct walk over all 2^(2j) vectors; independent of Burnside."""
    if j < 1:
        raise ValueError("family index must be at least 1")
    if j > ENUMERATION_LIMIT:
        raise ValueError(f"direct enumeration is limited to j <= {ENUMERATION_LIMIT}")
    n = 2 * j
    size = 1 << n
    low_mask = size - 1
    seen = bytearray(size)
    orbits = 0
    for start in range(size):
        if seen[start]:
            continue
        orbits += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            v = ((v << 1) & low_mask) | (v >> (n - 1))
    return orbits


# --- lower-bound reports ----------------------------------------------------

LAMBDA_VARIANT = "lambda"
ENTROPY_VARIANT = "entropy"


class LowerBoundReport(Record):
    """Family-versus-floor comparison at budget Y, all checks exact."""

    __slots__ = (
        "variant", "y_text", "index", "family_size", "class_count", "paper_bound", "satisfied"
    )

    def __init__(
        self,
        variant: str,
        y_text: str,
        index: int,
        family_size: int,
        class_count: int | None,
        paper_bound: str,
        satisfied: bool,
    ):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "y_text", y_text)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "family_size", family_size)
        object.__setattr__(self, "class_count", class_count)
        object.__setattr__(self, "paper_bound", paper_bound)
        object.__setattr__(self, "satisfied", satisfied)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "Y": self.y_text,
            "index": self.index,
            "family_size": self.family_size,
            "class_count": self.class_count,
            "paper_bound": self.paper_bound,
            "satisfied": self.satisfied,
        }


def lower_bound_report(y, variant: str) -> LowerBoundReport:
    """Instantiate the largest family fitting under Y and compare to its floor.

    The lambda variant counts the 2^j0 words with j0 degree-2 syllables
    (upper bound 300 j0 log 8 <= Y) against exp(Y/900)/2; the entropy
    variant counts rotation orbits of the 2^(2j0) words with 2 j0
    syllables (upper bound 300 pi j0 log 8 <= Y) against
    exp(Y/(900 pi))/2.  Rejects Y with an index below 2 or above
    :data:`MAX_REPORT_INDEX`.
    """
    from . import exactlog  # loaded on first use: only the reports need it
    from .invariants import DISPLAY_DIGITS

    y_text = str(y)
    expr = exactlog.from_value(y)
    if variant == LAMBDA_VARIANT:
        scale = exactlog.number(900)
    elif variant == ENTROPY_VARIANT:
        scale = 900 * exactlog.constant("pi")
    else:
        raise ValueError(f"unknown report variant {variant!r}")
    unit = scale / 3 * exactlog.call("log", 8)  # 300 log 8, or 300 pi log 8
    exactlog.bounds(expr)  # a Y that is not real is refused by name
    # an enclosure that proves the ratio far out of range spares certifying
    # its floor; any other ratio goes on to the certified floor
    ratio = expr / unit
    low, high = exactlog.bounds(ratio)
    far = low > MAX_REPORT_INDEX + 1 or high < -(MAX_REPORT_INDEX + 1)
    index = None if far else exactlog.floor(ratio)
    if far or index > MAX_REPORT_INDEX:
        raise ValueError(
            f"Y = {y_text} is out of range for the {variant} report: "
            f"its index must lie in 2..{MAX_REPORT_INDEX}"
        )
    if index < 2:
        raise ValueError(
            f"budget too small for the {variant} report: index {index} < 2"
        )
    weight_ok = exactlog.sign(expr - index * unit) >= 0
    if variant == LAMBDA_VARIANT:
        family_size = 2 ** index
        orbit_count = None
        achieved = family_size
    else:
        family_size = 2 ** (2 * index)
        orbit_count = class_count(index)
        achieved = orbit_count
    floor_expr = exactlog.call("exp", expr / scale) / 2
    satisfied = weight_ok and exactlog.sign(achieved - floor_expr) >= 0
    return LowerBoundReport(
        variant=variant,
        y_text=y_text,
        index=index,
        family_size=family_size,
        class_count=orbit_count,
        # display only; the satisfied flag never reads this
        paper_bound=exactlog.ceil_decimal(floor_expr, DISPLAY_DIGITS),
        satisfied=satisfied,
    )


# --- forbidden-conjugation search -------------------------------------------


def is_alternating_form(w: FreeWord, min_terms: int = 2) -> bool:
    """Whether w is a1^(+-2) a2^(+-2) ... or a2^(+-2) a1^(+-2) ... shaped."""
    if w.num_terms < min_terms or w.num_terms % 2:
        return False
    return all(abs(e) == 2 for _, e in w.terms)


def _pure_words_up_to_degree(max_degree: int) -> Iterator[FreeWord]:
    """All reduced words with total degree <= max_degree, identity included."""

    def extend(terms: list[tuple[int, int]], budget: int) -> Iterator[FreeWord]:
        yield FreeWord(tuple(terms))
        gens = (1, 2) if not terms else (3 - terms[-1][0],)
        for gen in gens:
            for mag in range(1, budget + 1):
                for exp in (mag, -mag):
                    terms.append((gen, exp))
                    yield from extend(terms, budget - mag)
                    terms.pop()

    yield from extend([], max_degree)


class ForbiddenConjugation(Record):
    """A would-be counterexample: source conjugated into the alternating form."""

    __slots__ = ("source", "target", "conjugator")

    def __init__(self, source: FreeWord, target: FreeWord, conjugator: BraidWord):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "conjugator", conjugator)

    def to_json(self) -> dict:
        return {
            "source": str(self.source),
            "target": str(self.target),
            "conjugator": str(self.conjugator),
        }


def search_forbidden_conjugations(
    j: int, max_conj_len: int
) -> list[ForbiddenConjugation]:
    """Exhaustive search for conjugations that should not exist.

    Sources are all alternating-form words with 2j terms (both the
    a1-first and a2-first shapes); conjugators are all braids
    ``sigma_i * (pure word of total degree <= max_conj_len) * half_twist^ell``.
    A hit is a conjugate ``beta^-1 * source * beta`` landing back in the
    alternating form with at least four terms.  Expected empty.
    """
    if j < 2:
        raise ValueError("sources must have at least four terms, so j >= 2")
    sources: list[FreeWord] = []
    for fam in enumerate_family(j):
        expansion = fam.expand()
        sources.append(expansion)
        sources.append(swap_generators(expansion))
    conjugators: list[tuple[BraidWord, CosetElement, CosetElement]] = []
    for gen in (1, 2):
        for pure in _pure_words_up_to_degree(max_conj_len):
            for ell in (0, 1):
                spelling = sigma_word(gen, 1)
                for g, e in pure.terms:
                    spelling = spelling * sigma_word(g, 2 * e)
                spelling = spelling * half_twist_word(ell)
                beta = evaluate(spelling)
                conjugators.append((spelling, beta, beta.inverse()))
    hits = []
    for source in sources:
        x = embed_pure(source)
        for spelling, beta, beta_inv in conjugators:
            target = unembed(beta_inv, x, beta)
            if target is not None and is_alternating_form(target, min_terms=4):
                hits.append(ForbiddenConjugation(source, target, spelling))
    return hits
