"""Exact counting of degree tuples and reduced words under a weight threshold.

A threshold is an integer ``X >= 0`` encoding the exact constraint
``prod(3 d_k) <= X`` on the syllable degrees ``d_k`` of a word, which is
the same as a lower weight of at most ``log X``.  Keeping the threshold
integral makes every counter exact:

* ``count_tuples_j(j, X)``: ordered degree tuples of length ``j``;
* ``count_tuples(X)``: tuples of any length (empty for ``X < 3``), by its
  own recursion ``T(X) = sum_{d <= X/3} (1 + T(X // 3d))``;
* ``count_words(X)``: nonidentity reduced words in two generators whose
  degree product passes the threshold, via a syllable-transfer DP;
* ``count_words_bounded(X, L)``: the same with total degree at most
  ``L``, the shape the brute-force oracle can cross-check.

The unbounded recursions sum over ``d`` in runs that share the quotient
``X // (3d)`` (``_quotient_groups``) and are memoized on those
quotients, which form a divisor-summatory family of roughly square-root
size, so thresholds far beyond enumeration range stay exact and fast.  The
analytic companions (``bound_tuples_j``, ``bound_tuples_total``,
``bound_words``) are evaluated with interval arithmetic and rounded up,
so a reported violation of ``exact <= bound`` is always genuine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath
import sympy
from sympy.parsing.sympy_parser import parse_expr

from .invariants import working_precision

FIRST = 0
SECOND = 1

_TUPLE_MEMO: dict[tuple[int, int], int] = {}
_TUPLE_TOTAL_MEMO: dict[int, int] = {}
_WORD_MEMO: dict[tuple[int, int], int] = {}
_WORD_BOUNDED_MEMO: dict[tuple[int, int, int], int] = {}


class BoundNotApplicable(ValueError):
    """The analytic tuple bound assumes X >= 3^j; outside that the count is 0."""


def max_tuple_length(x: int) -> int:
    """Largest j with 3^j <= x (0 for x < 3): the longest feasible tuple."""
    j = 0
    p = 3
    while p <= x:
        j += 1
        p *= 3
    return j


def _quotient_groups(m: int) -> Iterator[tuple[int, int, int]]:
    """Maximal runs of ``d`` in ``1..m`` sharing ``q = m // d``, as ``(d, size, q)``."""
    d = 1
    while d <= m:
        q = m // d
        d_last = m // q
        yield d, d_last - d + 1, q
        d = d_last + 1


def _count_tuples_j(j: int, x: int) -> int:
    if x < 3 ** j:
        return 0
    if j == 1:
        return x // 3
    key = (j, x)
    cached = _TUPLE_MEMO.get(key)
    if cached is not None:
        return cached
    # a length-j tuple is a first degree d and a length-(j-1) tuple under x // 3d
    total = 0
    for _, size, q in _quotient_groups(x // 3):
        total += size * _count_tuples_j(j - 1, q)
    _TUPLE_MEMO[key] = total
    return total


def count_tuples_j(j: int, x: int) -> int:
    """Exact number of ordered tuples (d_1..d_j), d_k >= 1, with prod(3 d_k) <= x."""
    if j < 1:
        raise ValueError("tuple length must be at least 1")
    return _count_tuples_j(j, x)


def _count_tuples_total(x: int) -> int:
    if x < 3:
        return 0
    cached = _TUPLE_TOTAL_MEMO.get(x)
    if cached is not None:
        return cached
    # a nonempty tuple is a first degree d followed by a possibly empty tuple
    # under x // 3d; recursion stays on the private name so that rebinding
    # the public one (as a tracer does) wraps only the outer call
    total = 0
    for _, size, q in _quotient_groups(x // 3):
        total += size * (1 + _count_tuples_total(q))
    _TUPLE_TOTAL_MEMO[x] = total
    return total


def count_tuples(x: int) -> int:
    """Exact number of nonempty ordered degree tuples with prod(3 d_k) <= x."""
    return _count_tuples_total(x)


# --- word counting ----------------------------------------------------------
#
# A reduced word is a chain of syllables.  Given the degree sequence, the
# number of spellings factors over adjacent pairs: the first syllable has 4
# spellings for either kind (start generator x sign); afterwards the start
# generator is forced by the previous syllable's last term, leaving 2
# spellings per kind except second kind after second kind, where the sign is
# also forced (equal signs would merge the runs), leaving 1.


def _transition(prev_kind: int, kind: int) -> int:
    if prev_kind == SECOND and kind == SECOND:
        return 1
    return 2


def _word_suffixes(x: int, prev_kind: int) -> int:
    """Continuations (including stopping) with budget x after a prev_kind syllable."""
    key = (x, prev_kind)
    cached = _WORD_MEMO.get(key)
    if cached is not None:
        return cached
    to_second = _transition(prev_kind, SECOND)
    to_first = _transition(prev_kind, FIRST)
    total = 1
    for d, size, q in _quotient_groups(x // 3):
        total += size * to_second * _word_suffixes(q, SECOND)
        # first-kind syllables need degree >= 2
        size_first = size - (1 if d == 1 else 0)
        if size_first:
            total += size_first * to_first * _word_suffixes(q, FIRST)
    _WORD_MEMO[key] = total
    return total


def count_words(x: int, workers: int = 1) -> int:
    """Exact number of nonidentity reduced words with prod(3 d_k) <= x.

    The first syllable has 4 spellings of either kind, twice the 2 that
    follow a first-kind syllable, so the count is twice the nonempty
    continuations after a first-kind syllable with the whole budget.
    ``workers`` is accepted for compatibility and has no effect: the
    count is computed in this process and is the same for every value.
    """
    return 2 * (_word_suffixes(x, FIRST) - 1)


def _word_suffixes_bounded(x: int, prev_kind: int, degree_left: int) -> int:
    key = (x, prev_kind, degree_left)
    cached = _WORD_BOUNDED_MEMO.get(key)
    if cached is not None:
        return cached
    total = 1
    top = min(x // 3, degree_left)
    for d in range(1, top + 1):
        q = (x // 3) // d
        total += _transition(prev_kind, SECOND) * _word_suffixes_bounded(
            q, SECOND, degree_left - d
        )
        if d >= 2:
            total += _transition(prev_kind, FIRST) * _word_suffixes_bounded(
                q, FIRST, degree_left - d
            )
    _WORD_BOUNDED_MEMO[key] = total
    return total


def count_words_bounded(x: int, max_degree: int) -> int:
    """As count_words with the extra constraint sum(d_k) <= max_degree."""
    if max_degree < 0:
        raise ValueError("degree budget must be nonnegative")
    total = 0
    top = min(x // 3, max_degree)
    for d in range(1, top + 1):
        q = (x // 3) // d
        total += 4 * _word_suffixes_bounded(q, SECOND, max_degree - d)
        if d >= 2:
            total += 4 * _word_suffixes_bounded(q, FIRST, max_degree - d)
    return total


# --- analytic bounds --------------------------------------------------------


def _iv_fraction(ctx, value: Fraction):
    return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)


def _upper_fraction(value) -> Fraction:
    sign, man, exp, _ = value._mpi_[1]
    out = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -out if sign else out


def bound_tuples_j(j: int, x: int) -> Fraction:
    """Round-up value of the length-j tuple bound, valid for x >= 3^j.

    The bound is ``(1/(j-1)!) (1/3) (2/3)^(j-1) x log((1/3)(2/3)^(j-1) x)^(j-1)``;
    below ``3^j`` it raises :class:`BoundNotApplicable` (the count is 0 there).
    """
    if j < 1:
        raise ValueError("tuple length must be at least 1")
    if x < 3 ** j:
        raise BoundNotApplicable(f"bound needs x >= 3^{j}")
    scale = Fraction(2 ** (j - 1) * x, 3 ** j)
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = working_precision()
        value = _iv_fraction(iv, scale / factorial(j - 1))
        if j > 1:
            value *= iv.log(_iv_fraction(iv, scale)) ** (j - 1)
        return _upper_fraction(value)
    finally:
        iv.prec = old


def bound_tuples_total(x: int) -> Fraction:
    """Round-up value of (x/3)^(5/3), the any-length tuple bound."""
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    if x == 0:
        return Fraction(0)
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = working_precision()
        value = (iv.mpf(x) / iv.mpf(3)) ** (iv.mpf(5) / iv.mpf(3))
        return _upper_fraction(value)
    finally:
        iv.prec = old


@dataclass(frozen=True)
class WordBoundChain:
    """The two word-count majorants: X^3/2 and 2*4^j0*count_tuples(X)."""

    cube_half: Fraction
    chain_index: int
    chain_value: int


def bound_words(x: int) -> WordBoundChain:
    """Exact values of both word-count bounds at threshold x."""
    j0 = max_tuple_length(x)
    return WordBoundChain(
        cube_half=Fraction(x ** 3, 2),
        chain_index=j0,
        chain_value=2 * 4 ** j0 * count_tuples(x),
    )


# --- thresholds from exponential form ---------------------------------------

_Y_LOCALS = {
    "log": sympy.log,
    "exp": sympy.exp,
    "sqrt": sympy.sqrt,
    "pi": sympy.pi,
    "E": sympy.E,
}
# names the parser's generated code itself relies on; anything else stays out
_Y_GLOBALS = {
    "Integer": sympy.Integer,
    "Float": sympy.Float,
    "Rational": sympy.Rational,
    "Symbol": sympy.Symbol,
}


def parse_y_expression(text: str) -> sympy.Expr:
    """Parse a closed-form nonnegative expression like ``600*log(8)`` or ``2``."""
    try:
        expr = parse_expr(text, local_dict=_Y_LOCALS, global_dict=_Y_GLOBALS, evaluate=True)
    except Exception as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    if not isinstance(expr, sympy.Expr) or expr.free_symbols:
        raise ValueError(f"expression {text!r} is not a closed-form number")
    return expr


def threshold_from_y(y) -> int:
    """The exact integer floor of e^y, for y given exactly.

    Accepts a string in the closed-form syntax, an int, a Fraction, or a
    sympy expression; floats go through their shortest decimal spelling.
    The floor is certified by symbolic evaluation, which refines its
    working precision until the integer part is unambiguous.
    """
    if isinstance(y, str):
        expr = parse_y_expression(y)
    elif isinstance(y, float):
        expr = sympy.Rational(str(y))
    elif isinstance(y, Fraction):
        expr = sympy.Rational(y.numerator, y.denominator)
    elif isinstance(y, sympy.Expr):
        expr = y
    else:
        expr = sympy.Integer(y)
    if expr.is_negative:
        raise ValueError("exponent must be nonnegative")
    return int(sympy.floor(sympy.exp(expr)))
