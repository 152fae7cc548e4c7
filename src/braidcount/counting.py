"""Exact counting of degree tuples and reduced words under a weight threshold.

A threshold is an integer ``X >= 0`` encoding the exact constraint
``prod(3 d_k) <= X`` on the syllable degrees ``d_k`` of a word, which is
the same as a lower weight of at most ``log X``.  Keeping the threshold
integral makes every counter exact:

* ``count_tuples_j(j, X)``: ordered degree tuples of length ``j``;
* ``count_tuples(X)``: tuples of any length (empty for ``X < 3``);
* ``count_words(X)``: nonidentity reduced words in two generators whose
  degree product passes the threshold;
* ``count_words_bounded(X, L)``: the same with total degree at most
  ``L``, the shape the brute-force oracle can cross-check;
* ``count_words_with_bounds(X)``: ``count_words(X)`` with the
  ``bound_words(X)`` that ``count words`` prints beside it, from one pass.

``count_tuples`` and ``count_words`` are summatory functions of Dirichlet
series over the products ``3d``, each set by one *series* (``_TUPLES``,
``_WORDS``): the syllable factor ``3`` and two spelling tables.  One
engine reads either, with the factor from the series: each call sieves the
coefficients up to ``N``, about ``X^(2/3) / 2`` and at most ``2*10^6``,
takes prefix sums, and recurses only on the quotients ``X // k`` above
``N``, summing each by the hyperbola split.  The sieve pushes its sources
in blocks whose own sources all lie below them, one slice per stride and
block: about ``2.5 sqrt(N / 9)`` slices per table in place of one per
source.  That costs about ``X^(2/3)`` steps per series until ``N`` reaches
its cap near ``X = 10^10``, and grows about linearly beyond.  A
block-diagonal join of series (``_join``) runs the same engine over the
tables of each in turn; no table reads another's coefficients, so each
count is the one its series gives alone, while one sieve schedule, one
quotient recursion and one list of table indices per quotient serve all
of them.  ``count_words_with_bounds`` counts the words and the tuples of
their bound chain so, in one pass over ``_WORDS_AND_TUPLES``.
``count_words_bounded`` reads the word series in a memoised recursion over
the degree left.  A tuple of length ``j`` passes exactly when
``prod d_k <= X // 3^j``, so ``count_tuples_j(j, X)`` is the Piltz divisor
function ``D_j(X // 3^j)`` (Titchmarsh, *The Theory of the Riemann
Zeta-Function*, ch. 12), a recursion on ``j`` over the quotients of ``X // 3^j``.
Nothing is kept between calls.  The analytic companions
(``bound_tuples_j``, ``bound_tuples_total``, ``bound_words``) are exact
rationals at or above their value, computed in integers: ``bound_words``
exactly, ``bound_tuples_total`` by an integer cube root and
``bound_tuples_j`` from the fixed-point ``log`` of
:func:`braidcount.invariants.log_bounds`, so a reported violation of
``exact <= bound`` is always genuine.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, isqrt
from operator import add, mul, sub

from ._record import Record

FIRST = 0
SECOND = 1


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


# --- series -----------------------------------------------------------------
#
# Tuples and reduced words are chains of syllables, each of degree d >= 1
# and contributing the factor c d to the product.  A series is the triple
# (c, one, more) of that syllable factor and two tables: one[prev][kind]
# spellings for the next syllable of degree 1, more[prev][kind] for degree
# 2 and up, given the kind of the syllable before it.  The tables do not
# depend on c, and both counters here take c = 3.  The first syllable is
# left to each counter.
#
# A reduced word's first syllable has 4 spellings of either kind (start
# generator x sign).  Afterwards the start generator is forced by the
# previous syllable's last term, leaving 2 spellings per kind, except a
# second-kind syllable after a second-kind one, whose sign is also forced
# (equal signs would merge the runs), leaving 1.  First-kind syllables
# have degree at least 2.  Rows and columns run FIRST, SECOND.
_WORDS = (3, ((0, 2), (0, 1)), ((2, 2), (2, 1)))
# a degree tuple is a chain of one kind, one spelling per degree
_TUPLES = (3, ((1,),), ((1,),))


def _join(*series):
    """The block-diagonal join of ``series`` that share one syllable factor:
    the tables of each series in turn, each row padded with zero columns for
    the kinds of the others, so that no table reads another's coefficients
    and each ``F_k`` is the one its own series gives."""
    c = series[0][0]
    width = sum(len(one) for _, one, _ in series)
    one, more = [], []
    before = 0
    for _, s_one, s_more in series:
        after = width - before - len(s_one)
        for rows, s_rows in ((one, s_one), (more, s_more)):
            rows.extend((0,) * before + row + (0,) * after for row in s_rows)
        before += len(s_one)
    return (c, tuple(one), tuple(more))


# count words prints the word count beside 2 4^j0 count_tuples, and both
# come from one pass over this join: word tables FIRST, SECOND, then the
# tuple table
_WORDS_AND_TUPLES = _join(_WORDS, _TUPLES)

# --- sieve plus recursion ---------------------------------------------------
#
# A series has one table per row.  Table k holds the Dirichlet coefficients
# f_k(n) of the continuations after a syllable of kind k by product n:
# f_k(1) = 1 for the empty one, and f_k(c i) counts a next syllable of
# degree d with the continuation of product c i / c d after it (1 for
# d = i, c j for i = c j d), weighted by one[k] for d = 1 and more[k] for
# d >= 2.  So with y = q // c and the quotient sums
# S(y) = sum_{d <= y} F(y // d) of the summatory functions
# F(q) = sum_{n <= q} f(n), whose d = 1 term is F(y),
#
#     F_k(q) = 1 + more[k] . S(y) + (one[k] - more[k]) . F(y).
#
# A push sieve gives f(c i) for every c i <= N, about x^(2/3) / 2, and
# prefix sums replace the coefficients, so that F(q) = 1 + table[q // c]
# for q <= N.  Above N the kernels recurse on the quotients q = x // k,
# about x / N of them, each summing about sqrt(q) table reads in
# _quotient_sums; both halves then take about x^(2/3) steps.  This is the
# split of Lagarias-Miller-Odlyzko (Math. Comp. 44, 1985) and
# Deleglise-Rivat (Exp. Math. 5, 1996).  The tables live for one call.
#
# Entry i of table k holds f_k(c i).  The push sieve over i <= m = N // c
# seeds each entry with a single syllable of degree i: the row sum of
# one[k] at i = 1 and of more[k] above.  Each source j <= m // c then adds
# one[k] . f(c j) to entry c j of table k and more[k] . f(c j) to entry
# c j t for every t >= 2, so f(c j) is final once every j' <= j / c has
# pushed.  Each j up to low = isqrt(m // c) pushes on its own, one strided
# slice over all its multiples.  Above low the sources come in blocks
# [b, e) with e <= c b, at most _BLOCK_CAP wide: every source of a block
# has its own sources below j / c < b, so all are final when the block
# starts, and its targets lie at c b >= e or beyond.  One slice per stride
# c t then adds the block's weighted vector to the entries c t b, ...,
# c t (e - 1).  A block from b takes about m / c b slices, so at c = 3 the
# geometric blocks take about 1.5 low and the sieve about 2.5 low slices
# per table instead of m // 3: 179 instead of 5363 at x = 3*10^7, 1319
# instead of 222222 at the cap.  _quotient_sums reads the raw coefficients
# f(c i) only for i <= isqrt(x // c) // c, so only that head of them
# outlives the sieve.
#
# Tables and heads are array('q').  The largest entry of any table is the
# words' F_FIRST(N) - 1: a row SECOND of spellings is at most the row FIRST,
# and a degree tuple continues a first-kind syllable as a chain of
# second-kind ones.  The cube majorant count_words(n) <= n^3 / 2 gives
# F_FIRST(n) <= n^3 / 4 + 1, so the cap N <= 2*10^6 keeps every entry below
# 2*10^18 < 2^63.  That majorant is the factor 3's, and it bounds every
# series with c >= 3 and these tables: a larger factor raises every
# product, so F(n) counts a subset of the chains it counts at c = 3.
# Every raw entry, head entries included, is a partial sum of nonnegative
# terms of one f(c i) <= F(c i), so it meets the same bound.  The block
# vectors are lists of Python ints, and each adds into an entry that stays
# below its final f(c i).  A store that did overflow would raise
# OverflowError, never wrap.  The argument holds for each table of a
# block-diagonal join such as _WORDS_AND_TUPLES as well: no table reads
# another's coefficients, so each holds the entries of its own series.
# The prefix sums are taken in place, chunk by chunk, and every value
# stored on the way is a final prefix sum.

_SIEVE_CAP = 2 * 10**6
#: Widest source block of a sieve, and most quotient indices listed at once
#: in _quotient_sums, so that their lists stay small at the sieve cap.
_BLOCK_CAP = 2**12


def _sieve_limit(x: int, c: int) -> int:
    # at least c - 1, so that every q above the limit has q // c >= 1
    if x >= _SIEVE_CAP**2:
        return _SIEVE_CAP
    return min(x, _SIEVE_CAP, max(c - 1, int(x ** (2 / 3)) // 2))


def _quotient_sums(
    y: int, n: int, c: int, tables: list[array], heads: list[array], values
) -> list[int]:
    """``sum(F(y // d) for d in 1..y)`` for the ``F`` of each table.

    ``F(q)`` is ``1 + table[q // c]`` for ``q <= n``, and ``values(q)`` holds
    one ``F(q)`` per table above that.  The terms with ``d <= split`` (at
    least ``sqrt(y)``) are read one by one; the rest regroup by coefficient,
    as ``f(m)`` for ``m <= y // (split + 1)``, read from the table's raw
    ``head`` (``f(c i)`` at ``head[i - 1]``), appears in ``y // m - split``
    of them.
    """
    deep = y // (n + 1)  # d <= deep leaves y // d above the sieve
    split = max(isqrt(y), deep)
    top = y // (split + 1) // c
    # the 1 in F(y // d) for deep < d <= split, and f(1) = 1 for d > split
    sums = [y - deep] * len(tables)
    for d in range(1, deep + 1):
        sums = [s + v for s, v in zip(sums, values(y // d))]
    # the indices y // c d for deep < d <= split, computed once for all
    # tables, _BLOCK_CAP at a time
    near = range(c * deep + c, c * split + 1, c)
    for start in range(0, len(near), _BLOCK_CAP):
        indices = list(map(y.__floordiv__, near[start : start + _BLOCK_CAP]))
        sums = [s + sum(map(table.__getitem__, indices)) for s, table in zip(sums, tables)]
    weights = list(map(y.__floordiv__, range(c, c * top + 1, c)))
    # map stops at the end of weights, at f(c top)
    return [
        s + sum(map(mul, head, weights)) - split * table[top]
        for s, table, head in zip(sums, tables, heads)
    ]


def _summatory(x: int, series) -> list[int]:
    """``F_k(x)`` for each table ``k`` of ``series``."""
    c, one, more = series
    # each F_k(q) as 1 plus this row times S(y) followed by F(y)
    rows = [r_more + tuple(map(sub, r_one, r_more)) for r_one, r_more in zip(one, more)]
    n = _sieve_limit(x, c)
    # every y = q // c is at most x // c, so _quotient_sums reads f(c i)
    # only for i <= isqrt(x // c) // c
    tables, heads = _sieve(n // c, isqrt(x // c) // c + 2, series)
    memo: dict[int, list[int]] = {}

    def values(q: int) -> list[int]:
        if q <= n:
            return [1 + table[q // c] for table in tables]
        got = memo.get(q)
        if got is None:
            y = q // c
            terms = _quotient_sums(y, n, c, tables, heads, values) + values(y)
            got = memo[q] = [sum(map(mul, row, terms), 1) for row in rows]
        return got

    return values(x)


def _sieve_schedule(m: int, c: int) -> tuple[int, list[tuple[int, int]]]:
    """The sources ``j`` of a push sieve over ``1..m``, in the order it takes them.

    Each ``j <= low`` is pushed on its own; the rest come as blocks
    ``[b, e)`` with ``e <= c b``, each pushed whole, one stride at a time.
    """
    last = m // c  # a source j pushes to multiples of c j up to m
    low = isqrt(last)
    blocks = []
    b = low + 1
    while b <= last:
        e = min(c * b, b + _BLOCK_CAP, last + 1)
        blocks.append((b, e))
        b = e
    return low, blocks


def _push(table: array, targets: slice, source: list[int]) -> None:
    """Add ``source`` elementwise to the entries of ``table`` at ``targets``;
    ``map`` stops at the end of the slice, which may be the shorter.  An
    array fills faster from a list than from an iterator, and a block holds
    at most ``_BLOCK_CAP`` sources, so the list stays small."""
    table[targets] = array("q", list(map(add, table[targets], source)))


def _weighted(row: tuple[int, ...], sources: list[list[int]], scaled: dict) -> list[int]:
    """``row . sources``, elementwise over a block; ``scaled`` keeps each
    ``w * sources[k]`` it builds for the other rows of the block."""
    total = None
    for k, w in enumerate(row):
        if w:
            term = scaled.get((w, k))
            if term is None:
                term = scaled[w, k] = sources[k] if w == 1 else [w * v for v in sources[k]]
            total = term if total is None else list(map(add, total, term))
    return total


def _sieve(m: int, head: int, series) -> tuple[list[array], list[array]]:
    """Prefix sums over ``i <= m`` of ``f_k(c i)`` for each table ``k`` of
    ``series``, and the raw ``f_k(c i)`` for ``1 <= i < head``."""
    c, one, more = series
    tables = []
    for r_one, r_more in zip(one, more):
        table = array("q", [sum(r_more)]) * (m + 1)
        table[0] = 0
        if m >= 1:
            table[1] = sum(r_one)
        tables.append(table)
    low, blocks = _sieve_schedule(m, c)
    for j in range(1, low + 1):
        at_j = [table[j] for table in tables]
        step = c * j
        targets = slice(2 * step, None, step)
        for table, r_one, r_more in zip(tables, one, more):
            table[step] += sum(map(mul, r_one, at_j))
            add_more = sum(map(mul, r_more, at_j))
            table[targets] = array("q", map(add, table[targets], repeat(add_more)))
    for b, e in blocks:
        sources = [table[b:e].tolist() for table in tables]
        scaled: dict[tuple[int, int], list[int]] = {}
        for table, r_one in zip(tables, one):
            _push(table, slice(c * b, c * e, c), _weighted(r_one, sources, scaled))
        pushes = [_weighted(r_more, sources, scaled) for r_more in more]
        for step in range(2 * c, m // b + 1, c):
            targets = slice(step * b, step * e, step)
            for table, source in zip(tables, pushes):
                _push(table, targets, source)
    # each head is a copy, taken before its table turns into prefix sums
    heads = [raw[1:head] for raw in tables]
    for raw in tables:
        _prefix_sums(raw)
    return tables, heads


def _prefix_sums(raw: array) -> None:
    """Turn ``raw`` into its prefix sums in place, ``_BLOCK_CAP`` entries at
    a time, so that one chunk's list of Python ints is the only transient.
    A chunk starts from the sum before it, which it writes back unchanged."""
    for start in range(1, len(raw), _BLOCK_CAP):
        stop = start + _BLOCK_CAP
        sums = list(accumulate(raw[start:stop], initial=raw[start - 1]))
        raw[start - 1 : stop] = array("q", sums)


def count_tuples(x: int) -> int:
    """Exact number of nonempty ordered degree tuples with prod(3 d_k) <= x."""
    if x < 3:
        return 0
    # a tuple is a first degree followed by a continuation, one spelling each
    return _summatory(x, _TUPLES)[0] - 1


def _divisor_summatory(j: int, y: int) -> int:
    """The Piltz function ``D_j(y)``: ordered ``j``-tuples of positive
    integers with product at most ``y``."""
    memo: list[dict[int, int]] = [{} for _ in range(j + 1)]  # D_k(v) at memo[k][v]

    def piltz(k: int, v: int) -> int:
        if k == 1 or v <= 1:
            return v
        got = memo[k].get(v)
        if got is None:
            root = isqrt(v)
            if k == 2:
                # Dirichlet's hyperbola method
                got = 2 * sum(map(v.__floordiv__, range(1, root + 1))) - root * root
            else:
                # D_k(v) = sum of D_{k-1}(v // d) over d <= v: the d <= root
                # one by one; each larger d has v // d = q <= top, taken by
                # the d in (v // (q + 1), v // q], and v // (top + 1) = root
                top = v // (root + 1)
                got = sum(piltz(k - 1, v // d) for d in range(1, root + 1))
                got += sum(piltz(k - 1, q) * (v // q - v // (q + 1)) for q in range(1, top + 1))
            memo[k][v] = got
        return got

    return piltz(j, y)


def count_tuples_j(j: int, x: int) -> int:
    """Exact number of ordered tuples (d_1..d_j), d_k >= 1, with prod(3 d_k) <= x."""
    if j < 1:
        raise ValueError("tuple length must be at least 1")
    if j > max_tuple_length(x):  # before 3^j, which a huge j makes costly
        return 0
    return _divisor_summatory(j, x // 3**j)


# --- word counting ----------------------------------------------------------


def count_words(x: int, workers: int = 1) -> int:
    """Exact number of nonidentity reduced words with prod(3 d_k) <= x.

    The first syllable has 4 spellings of either kind, twice the 2 that
    follow a first-kind syllable, so the count is twice the nonempty
    continuations after a first-kind syllable with the whole budget.
    This runs the word series alone; :func:`count_words_with_bounds`
    gives the same count together with :func:`bound_words` in one pass.
    ``workers`` is accepted for compatibility and has no effect: the
    count is computed in this process and is the same for every value.
    """
    if x < 3:
        return 0
    return 2 * (_summatory(x, _WORDS)[FIRST] - 1)


def _word_suffixes_bounded(x: int, prev_kind: int, degree_left: int, memo: dict) -> int:
    c, one, more = _WORDS
    degree_left = min(degree_left, x // c)  # more cannot bind, as in count_words_bounded
    key = (x, prev_kind, degree_left)
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = 1
    row = one[prev_kind]  # and more[prev_kind] from degree 2 on
    for d in range(1, degree_left + 1):
        q = (x // c) // d
        kind = FIRST  # the kinds are the column indices
        for spellings in row:
            if spellings:
                total += spellings * _word_suffixes_bounded(q, kind, degree_left - d, memo)
            kind += 1
        row = more[prev_kind]
    memo[key] = total
    return total


def count_words_bounded(x: int, max_degree: int) -> int:
    """As count_words with the extra constraint sum(d_k) <= max_degree."""
    if max_degree < 0:
        raise ValueError("degree budget must be nonnegative")
    if max_degree >= x // _WORDS[0]:
        # the budget cannot bind: sum(d_k) <= prod(c d_k) / c <= x / c, by
        # induction on the syllables, as d + s <= c d s for d, s >= 1 where
        # s is prod(c d_k) / c over the syllables after the first
        return count_words(x)
    # as in count_words: twice the nonempty continuations after FIRST, with
    # a memo of suffix counts for this call alone
    return 2 * (_word_suffixes_bounded(x, FIRST, max_degree, {}) - 1)


# --- analytic bounds --------------------------------------------------------


def bound_tuples_j(j: int, x: int) -> Fraction:
    """Round-up value of the length-j tuple bound, valid for x >= 3^j.

    The bound is ``(1/(j-1)!) (1/3) (2/3)^(j-1) x log((1/3)(2/3)^(j-1) x)^(j-1)``;
    below ``3^j`` it raises :class:`BoundNotApplicable` (the count is 0 there).
    """
    if j < 1:
        raise ValueError("tuple length must be at least 1")
    if j > max_tuple_length(x):  # before 3^j, which a huge j makes costly
        raise BoundNotApplicable(f"bound needs x >= 3^{j}")
    scale = Fraction(2 ** (j - 1) * x, 3 ** j)
    if j == 1:
        return scale
    from .invariants import LOG_BITS, log_bounds

    # 2^LOG_BITS log(scale) from above, and its power rounded up at every step
    log = log_bounds(scale.numerator)[1] - log_bounds(scale.denominator)[0]
    power = 1 << LOG_BITS
    for _ in range(j - 1):
        power = -(-power * log >> LOG_BITS)
    return Fraction(scale.numerator * power, scale.denominator * factorial(j - 1) << LOG_BITS)


def _cube_root(n: int) -> int:
    """``floor(n^(1/3))`` for ``n >= 1``, by Newton's method from above."""
    c = 1 << -(-n.bit_length() // 3)
    while (d := (2 * c + n // (c * c)) // 3) < c:
        c = d
    return c


#: Fraction bits of :func:`bound_tuples_total`.
_TOTAL_BITS = 128


def bound_tuples_total(x: int) -> Fraction:
    """Round-up value of (x/3)^(5/3), the any-length tuple bound, as
    ``N / 2^128`` with the least ``N`` such that ``243 N^3 >= x^5 2^384``;
    exactly ``c^5`` at ``x = 3 c^3``."""
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    if x == 0:
        return Fraction(0)
    cube = x**5 << 3 * _TOTAL_BITS
    n = _cube_root(cube // 243)  # floor((x^5 2^384 / 243)^(1/3))
    if 243 * n**3 < cube:
        n += 1
    return Fraction(n, 1 << _TOTAL_BITS)


class WordBoundChain(Record):
    """The two word-count majorants: X^3/2 and 2*4^j0*count_tuples(X)."""

    __slots__ = ("cube_half", "chain_index", "chain_value")

    def __init__(self, cube_half: Fraction, chain_index: int, chain_value: int):
        object.__setattr__(self, "cube_half", cube_half)
        object.__setattr__(self, "chain_index", chain_index)
        object.__setattr__(self, "chain_value", chain_value)


def _word_bound_chain(x: int, tuples: int) -> WordBoundChain:
    j0 = max_tuple_length(x)
    return WordBoundChain(
        cube_half=Fraction(x ** 3, 2),
        chain_index=j0,
        chain_value=2 * 4 ** j0 * tuples,
    )


def bound_words(x: int) -> WordBoundChain:
    """Exact values of both word-count bounds at threshold x >= 0."""
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    return _word_bound_chain(x, count_tuples(x))


def count_words_with_bounds(x: int) -> tuple[int, WordBoundChain]:
    """``(count_words(x), bound_words(x))`` from one counting pass.

    The word and tuple series run as one block-diagonal join: one sieve,
    one quotient recursion and one set of index lists serve both, where
    the two counters alone would each build their own.
    """
    if x < 0:
        raise ValueError("threshold must be nonnegative")
    if x < 3:
        return 0, _word_bound_chain(x, 0)
    first, _, tuples = _summatory(x, _WORDS_AND_TUPLES)
    return 2 * (first - 1), _word_bound_chain(x, tuples - 1)


# --- thresholds from exponential form ---------------------------------------


def threshold_from_y(y) -> int:
    """The exact integer floor of e^y, for any y that :func:`exactlog.from_value` takes.

    The floor is certified by :mod:`braidcount.exactlog`: interval
    enclosures at doubling precision, and an exact form where ``e^y`` is
    an integer, or the exact value where that is rational.  A ``y`` that
    an enclosure proves above :data:`exactlog.MAX_THRESHOLD_Y` (about
    6931.5) or below its negative, and a negative ``y``, raise ValueError
    before ``e^y`` is evaluated; a ``y`` that no certificate settles raises
    ValueError with "cannot certify".
    """
    from . import exactlog

    node = exactlog.from_value(y)
    low, high = exactlog.bounds(node)
    if low > exactlog.MAX_THRESHOLD_Y or high < -exactlog.MAX_THRESHOLD_Y:
        raise ValueError(
            f"Y = {y} is out of range: e^Y must stay within {exactlog.MAX_POWER_BITS} bits "
            f"(Y at most {exactlog.MAX_THRESHOLD_Y:.1f})"
        )
    if exactlog.sign(node) < 0:
        raise ValueError("exponent must be nonnegative")
    return exactlog.floor_exp(node)
