"""Brute-force reference implementations for the counting and conjugacy kernels.

Everything here is written in the most naive way that can possibly
work: plain depth-first enumeration with no memoization, no quotient
grouping, no transfer rules.  The only code shared with the fast
kernels is the data types and the syllable pass (the oracle for word
counting is the *enumeration*; the per-word weight reads its degrees with
``syllable_degrees``, the pass that ``syllable_decompose`` and the
counters are defined through).  Slowness is the point: agreement between
these and the kernels is the main evidence the kernels are right.
"""

from __future__ import annotations

from typing import Iterator

from .braid import BraidWord, CosetElement, evaluate
from .words import FreeWord, syllable_degrees

_LETTERS = ((1, 1), (1, -1), (2, 1), (2, -1))


def enumerate_reduced_words(max_len: int) -> Iterator[FreeWord]:
    """All reduced words of letter length 1..max_len, each exactly once.

    A letter sequence is reduced when no letter is followed by its
    inverse; there are 4 * 3^(l-1) such sequences of length l.  Raises
    ``ValueError`` for a negative ``max_len``.
    """
    if max_len < 0:
        raise ValueError("word length must be nonnegative")

    def walk(letters: list[tuple[int, int]]) -> Iterator[FreeWord]:
        if letters:
            yield _word_from_letters(letters)
        if len(letters) == max_len:
            return
        for gen, sign in _LETTERS:
            if letters and letters[-1] == (gen, -sign):
                continue
            letters.append((gen, sign))
            yield from walk(letters)
            letters.pop()

    return walk([])


def _word_from_letters(letters: list[tuple[int, int]]) -> FreeWord:
    terms: list[tuple[int, int]] = []
    for gen, sign in letters:
        if terms and terms[-1][0] == gen:
            terms[-1] = (gen, terms[-1][1] + sign)
        else:
            terms.append((gen, sign))
    return FreeWord(tuple(terms))


def brute_count_tuples(x: int) -> int:
    """Number of nonempty tuples (d_1..d_j) with prod(3 d_k) <= x, by plain DFS."""

    def count_from(budget: int) -> int:
        total = 0
        d = 1
        while 3 * d <= budget:
            total += 1 + count_from(budget // (3 * d))
            d += 1
        return total

    return count_from(x)


def tuple_product_histogram(max_x: int) -> dict[int, int]:
    """How many tuples have prod(3 d_k) equal to each value up to max_x."""
    hist: dict[int, int] = {}

    def walk(product: int) -> None:
        d = 1
        while product * 3 * d <= max_x:
            p = product * 3 * d
            hist[p] = hist.get(p, 0) + 1
            walk(p)
            d += 1

    walk(1)
    return hist


def word_weight(w: FreeWord) -> int:
    """The exact weight prod(3 d_k) over the word's syllable degrees."""
    product = 1
    for d in syllable_degrees(w):
        product *= 3 * d
    return product


def brute_count_words(x: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len with weight <= x."""
    if not 0 <= max_len <= 14:
        raise ValueError("brute word enumeration needs a length from 0 to 14")
    return sum(1 for w in enumerate_reduced_words(max_len) if word_weight(w) <= x)


def word_product_histogram(max_len: int) -> dict[tuple[int, int], int]:
    """Counts of reduced words by (letter length, weight), one enumeration pass."""
    if not 0 <= max_len <= 14:
        raise ValueError("brute word enumeration needs a length from 0 to 14")
    hist: dict[tuple[int, int], int] = {}
    for w in enumerate_reduced_words(max_len):
        key = (w.total_degree, word_weight(w))
        hist[key] = hist.get(key, 0) + 1
    return hist


def brute_conjugator_search(
    x: CosetElement, y: CosetElement, max_len: int
) -> BraidWord | None:
    """Some braid word g of length <= max_len with g x g^-1 = y, or None."""
    if max_len > 10:
        raise ValueError("conjugator search is limited to length 10")

    def walk(letters: list[tuple[int, int]], g: CosetElement) -> BraidWord | None:
        if g * x * g.inverse() == y:
            return BraidWord(tuple(letters))
        if len(letters) == max_len:
            return None
        for gen, sign in _LETTERS:
            letters.append((gen, sign))
            found = walk(letters, g * evaluate(BraidWord(((gen, sign),))))
            if found is not None:
                return found
            letters.pop()
        return None

    return walk([], CosetElement(()))
