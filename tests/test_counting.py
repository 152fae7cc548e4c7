"""Exact counting functions, analytic bounds, and threshold certification."""

import ast
import json
import math
import operator
import random
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from braidcount import cli, counting, exactlog, words
from braidcount.counting import (
    FIRST,
    SECOND,
    BoundNotApplicable,
    bound_tuples_j,
    bound_tuples_total,
    bound_words,
    count_tuples,
    count_tuples_j,
    count_words,
    count_words_bounded,
    count_words_with_bounds,
    max_tuple_length,
    threshold_from_y,
)
from braidcount.oracle import (
    brute_count_tuples,
    enumerate_reduced_words,
    word_product_histogram,
)


class TestTupleCounts:
    def test_length_one_is_floor(self):
        for x in (0, 1, 2, 3, 4, 8, 9, 100, 12345):
            assert count_tuples_j(1, x) == x // 3

    def test_small_values(self):
        assert count_tuples(2) == 0
        assert count_tuples(3) == 1
        assert count_tuples(9) == 4
        assert count_tuples_j(2, 9) == 1
        # 9*d1*d2 <= 18: (1,1), (1,2), (2,1)
        assert count_tuples_j(2, 18) == 3

    def test_zero_exactly_below_power(self):
        for j in range(1, 9):
            assert count_tuples_j(j, 3**j - 1) == 0
            assert count_tuples_j(j, 3**j) == 1

    def test_max_tuple_length(self):
        assert max_tuple_length(2) == 0
        assert max_tuple_length(3) == 1
        assert max_tuple_length(27) == 3
        assert max_tuple_length(28) == 3

    def test_total_sums_lengths(self):
        for x in (1, 3, 10, 81, 500, 3**13, 10**6, 10**8):
            total = sum(
                count_tuples_j(j, x) for j in range(1, max_tuple_length(x) + 1)
            )
            assert count_tuples(x) == total

    def test_pinned_large_values(self):
        # computed earlier as the sum of count_tuples_j over every length
        assert count_tuples(10**6) == 9821112
        assert count_tuples(3**14) == 73469460

    @given(st.integers(min_value=0, max_value=800))
    def test_matches_oracle(self, x):
        assert count_tuples(x) == brute_count_tuples(x)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=600))
    def test_monotone_in_x(self, j, x):
        assert count_tuples_j(j, x) <= count_tuples_j(j, x + 1)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            count_tuples_j(0, 10)

    def test_no_fitting_tuple_is_zero_at_once(self):
        # j is compared with max_tuple_length(x) before 3^j is built
        start = time.perf_counter()
        for x in (-10**12, -1, 0, 5):
            assert count_tuples_j(10**9, x) == 0
            with pytest.raises(BoundNotApplicable):
                bound_tuples_j(10**9, x)
        assert count_tuples_j(3, -5) == 0
        assert time.perf_counter() - start < 1.0


def _fraction(value) -> Fraction:
    """An mpmath number, exactly."""
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


class TestTupleBounds:
    def test_not_applicable_below_power(self):
        with pytest.raises(BoundNotApplicable):
            bound_tuples_j(2, 8)

    def test_exact_at_small_arguments(self):
        assert bound_tuples_j(1, 9) == Fraction(3)

    def test_second_length_value(self):
        # (2/9) * 9 * log(2*9/9) = 2 log 2 = 1.386...
        got = bound_tuples_j(2, 9)
        with mpmath.workprec(128):
            truth = Fraction(mpmath.nstr(2 * mpmath.log(2), 40))
        assert truth <= got <= truth + Fraction(1, 10**20)

    def test_total_bound_at_three(self):
        assert bound_tuples_total(3) == 1

    def test_total_bound_exact_at_cube_thresholds(self):
        # (3 c^3 / 3)^(5/3) = c^5, which the widened exp would round up
        assert (bound_tuples_total(3), bound_tuples_total(24), bound_tuples_total(81)) == (1, 32, 243)
        for c in [*range(1, 60), 10**4, 3**40, 2**200 + 1]:
            assert bound_tuples_total(3 * c**3) == c**5, c

    def test_total_bound_beside_cube_thresholds(self):
        # one above or below 3 c^3 the widened enclosure still lies above
        for c in [*range(1, 30), 10**3, 4641, 10**5]:
            for x in (3 * c**3 - 1, 3 * c**3 + 1):
                got = bound_tuples_total(x)
                with mpmath.workprec(1000):
                    truth = (mpmath.mpf(x) / 3) ** (mpmath.mpf(5) / 3)
                assert got > _fraction(truth), x
                assert (got < c**5) == (x < 3 * c**3), x

    def test_cube_root(self):
        for n in [*range(1, 3000), 10**30 - 1, 10**30, 10**30 + 1, 2**3001]:
            c = counting._cube_root(n)
            assert c**3 <= n < (c + 1) ** 3, n

    def test_upper_ends_lie_above_a_1000_bit_value(self):
        # each bound lies above the value, the any-length one exactly
        # (N / 2^s)^3 >= (x / 3)^5, and within a relative 2^-120 of it
        rng = random.Random(2101)
        xs = [rng.randrange(4, 10 ** rng.randint(1, 11)) for _ in range(24)] + [10**11]
        tight = 1 + Fraction(1, 2**120)
        for x in xs:
            got = bound_tuples_total(x)
            with mpmath.workprec(1000):
                truth = _fraction((mpmath.mpf(x) / 3) ** (mpmath.mpf(5) / 3))
            assert got**3 >= Fraction(x, 3) ** 5 and got < truth * tight, x
            for j in range(1, max_tuple_length(x) + 1):
                got = bound_tuples_j(j, x)
                scale = Fraction(2 ** (j - 1) * x, 3**j)
                if j == 1:
                    assert got == scale
                    continue
                with mpmath.workprec(1000):
                    ratio = mpmath.mpf(scale.numerator) / scale.denominator
                    truth = _fraction(ratio / math.factorial(j - 1) * mpmath.log(ratio) ** (j - 1))
                assert truth < got < truth * tight, (j, x)

    def test_total_bound_cubed_covers_every_small_threshold(self):
        # the least N / 2^s whose cube reaches (x / 3)^5, and nothing below it
        unit = Fraction(1, 2**counting._TOTAL_BITS)
        for x in range(0, 3000):
            got = bound_tuples_total(x)
            assert got**3 >= Fraction(x, 3) ** 5 > (got - unit) ** 3, x

    @given(st.integers(min_value=1, max_value=2000))
    def test_exact_below_bounds(self, x):
        if x >= 3:
            assert count_tuples(x) <= bound_tuples_total(x)
        for j in range(1, max_tuple_length(x) + 1):
            assert count_tuples_j(j, x) <= bound_tuples_j(j, x)


class TestWordCounts:
    def test_small_values(self):
        assert count_words(0) == 0
        assert count_words(2) == 0
        assert count_words(3) == 4
        assert count_words(6) == 12
        assert count_words(9) == 24
        assert count_words(27) == 124

    def test_frozen_large_value(self):
        assert count_words(3**10) == 24553292

    def test_matches_oracle(self):
        # one enumeration pass; degree 10 covers every word of weight <= 30
        hist = word_product_histogram(10)
        for x in range(31):
            brute = sum(c for (_, p), c in hist.items() if p <= x)
            assert count_words(x) == brute

    def test_bounded_matches_oracle(self):
        hist = word_product_histogram(8)
        for limit in range(9):
            for x in (5, 9, 27, 100, 3**8):
                brute = sum(
                    c for (l, p), c in hist.items() if l <= limit and p <= x
                )
                assert count_words_bounded(x, limit) == brute

    def test_bounded_agrees_when_slack(self):
        for x in (3, 9, 27, 81):
            assert count_words_bounded(x, 10**6) == count_words(x)

    def test_bounded_monotone_in_degree(self):
        # weight 27 caps the degree at 9, so the limits exhaust the count
        prev = 0
        for limit in range(0, 10):
            n = count_words_bounded(27, limit)
            assert n >= prev
            prev = n
        assert prev == count_words(27)

    def test_bounded_slack_budget_is_unbounded_count(self):
        # from L = X // 3 on the budget cannot bind; one below it excludes
        # the single syllable of degree X // 3
        for x in (0, 2, 3, 8, 9, 26, 27, 100, 3**7, 12345):
            third = x // 3
            for limit in (third - 1, third, third + 1):
                if limit < 0:
                    continue
                recursion = _bounded_by_recursion(x, limit)
                assert count_words_bounded(x, limit) == recursion
                if limit >= third:
                    assert recursion == count_words(x)
                elif x >= 3:
                    assert recursion < count_words(x)

    def test_bounded_matches_unclamped_recursion(self):
        # the memo keys clamp each budget to x // 3; keyed on the whole
        # budget, the recursion counts the same at every binding budget
        memo = {}
        for x in range(301):
            for limit in range(x // 3):
                unclamped = 2 * (_unclamped_suffixes(x, FIRST, limit, memo) - 1)
                assert count_words_bounded(x, limit) == unclamped, (x, limit)

    def test_bounded_memo_keeps_no_slack(self):
        # states that differ only in a budget above x // 3 share one entry
        memo, unclamped = {}, {}
        counting._word_suffixes_bounded(10**4, FIRST, 3000, memo)
        _unclamped_suffixes(10**4, FIRST, 3000, unclamped)
        assert all(left <= x // 3 for x, _, left in memo)
        assert len(memo) < len(unclamped) // 10

    def test_bounded_slack_budget_is_fast(self):
        start = time.perf_counter()
        assert count_words_bounded(10**6, 333333) == count_words(10**6)
        assert time.perf_counter() - start < 1.0

    def test_bounded_rejects_negative(self):
        with pytest.raises(ValueError):
            count_words_bounded(9, -1)

    def test_pinned_large_values(self):
        # computed earlier as a sum over the first syllable's quotient groups
        assert count_words(10**6) == 2265097728
        assert count_words(3**14) == 27978681272

    def test_worker_partitions_agree(self):
        x = 3**8
        base = count_words(x)
        for workers in (2, 3, 8):
            assert count_words(x, workers=workers) == base

    @given(st.integers(min_value=0, max_value=1500))
    def test_cube_inequality(self, x):
        assert 2 * count_words(x) <= x**3

    def test_spelling_table_against_enumeration(self):
        # every reduced word of at most 8 letters by its (kind, degree)
        # sequence; a syllable of degree d has d letters, so each sequence
        # of total degree at most 8 is counted whole, and absent ones are 0
        groups = Counter(
            tuple(
                (SECOND if s.kind == words.SECOND_KIND else FIRST, s.degree)
                for s in words.syllable_decompose(w)
            )
            for w in enumerate_reduced_words(8)
        )
        _, one, more = counting._WORDS

        def sequences(budget):
            yield ()
            for d in range(1, budget + 1):
                for kind in (FIRST, SECOND):
                    for rest in sequences(budget - d):
                        yield ((kind, d),) + rest

        checked = 0
        for sequence in sequences(8):
            if not sequence:
                continue
            # the first syllable's 4 spellings of either kind are twice those
            # after a first-kind syllable, as count_words takes them, so a
            # group is 4 times the entries along its sequence
            spellings, prev = 2, FIRST
            for kind, d in sequence:
                spellings *= (one if d == 1 else more)[prev][kind]
                prev = kind
            assert groups.get(sequence, 0) == spellings, sequence
            checked += groups.get(sequence, 0)
        assert checked == sum(groups.values())


class TestWordBounds:
    def test_chain_at_three(self):
        chain = bound_words(3)
        assert chain.cube_half == Fraction(27, 2)
        assert chain.chain_index == 1
        assert chain.chain_value == 8

    def test_chain_at_nine(self):
        chain = bound_words(9)
        assert chain.cube_half == Fraction(729, 2)
        assert chain.chain_value == 2 * 4**chain.chain_index * count_tuples(9)

    @given(st.integers(min_value=3, max_value=2000))
    def test_count_below_chain(self, x):
        chain = bound_words(x)
        n = count_words(x)
        assert n <= chain.chain_value
        assert n <= chain.cube_half

    @pytest.mark.parametrize("x", [-1, -8, -10**12])
    def test_negative_threshold_is_refused(self, x):
        # X^3 / 2 is negative there, below count_words(x) = 0: a false violation
        for bound in (bound_words, count_words_with_bounds):
            with pytest.raises(ValueError, match="threshold must be nonnegative"):
                bound(x)


# The memoized quotient-group recursions that count_tuples, count_words and
# count_tuples_j used before the sieve-plus-recursion engine, kept as
# references.


def _reference_groups(m):
    d = 1
    while d <= m:
        q = m // d
        d_last = m // q
        yield d, d_last - d + 1, q
        d = d_last + 1


def _reference_tuples(x, memo):
    if x < 3:
        return 0
    if x not in memo:
        memo[x] = sum(
            size * (1 + _reference_tuples(q, memo))
            for _, size, q in _reference_groups(x // 3)
        )
    return memo[x]


def _reference_tuples_j(j, x, memo):
    if x < 3**j:
        return 0
    if j == 1:
        return x // 3
    if (j, x) not in memo:
        # a first degree d and a tuple of length j - 1 under x // 3d
        memo[j, x] = sum(
            size * _reference_tuples_j(j - 1, q, memo)
            for _, size, q in _reference_groups(x // 3)
        )
    return memo[j, x]


def _reference_suffixes(x, prev_kind, memo):
    key = (x, prev_kind)
    if key not in memo:
        to_second = 1 if prev_kind == SECOND else 2
        total = 1
        for d, size, q in _reference_groups(x // 3):
            total += size * to_second * _reference_suffixes(q, SECOND, memo)
            size_first = size - (1 if d == 1 else 0)
            if size_first:
                total += size_first * 2 * _reference_suffixes(q, FIRST, memo)
        memo[key] = total
    return memo[key]


def _reference_words(x, memo):
    return 2 * (_reference_suffixes(x, FIRST, memo) - 1)


class TestSieveEngine:
    def test_matches_replaced_kernels(self):
        rng = random.Random(20260101)
        grid = list(range(-3, 3000))
        grid += [3**k - e for k in range(1, 16) for e in (0, 1)]
        grid += [rng.randrange(10**8) for _ in range(6)]
        tuple_memo, word_memo = {}, {}
        for x in grid:
            assert count_tuples(x) == _reference_tuples(x, tuple_memo), x
            assert count_words(x) == _reference_words(x, word_memo), x

    def test_tuples_j_matches_replaced_kernel(self):
        grid = list(range(3000))
        grid += [3**k - e for k in range(1, 16) for e in (0, 1)]
        grid.append(10**6 + 7)
        memo = {}
        for x in grid:
            for j in range(1, max_tuple_length(x) + 2):
                assert count_tuples_j(j, x) == _reference_tuples_j(j, x, memo), (j, x)

    def test_pinned_large_values(self):
        # values of the replaced kernels
        assert count_words(10**8) == 3631813354452
        assert count_tuples(10**8) == 3649790245
        assert count_words(10**9) == 146067466598256
        assert count_tuples(10**9) == 70392958006
        assert count_tuples_j(3, 10**9) == 6114626109
        # values of the length-graded sieve that count_tuples_j replaced
        assert count_tuples_j(3, 10**10) == 77614265755
        assert count_tuples_j(5, 10**10) == 243879693643
        assert count_tuples_j(9, 10**10) == 95494523809

    @pytest.mark.parametrize("cap", [2, 3, 40, 700])
    def test_sieve_cap_does_not_change_counts(self, monkeypatch, cap):
        # large thresholds meet the cap; small caps push the same regime
        # (many quotients above the sieve) down to thresholds cheap to check
        xs = (10**5, 3**10 - 1, 123457)

        def counts(x):
            return count_tuples(x), count_words(x)

        expected = [counts(x) for x in xs]
        monkeypatch.setattr(counting, "_SIEVE_CAP", cap)
        assert [counts(x) for x in xs] == expected


def _with_factor(series, c):
    """``series`` with the syllable factor ``c`` in place of its own."""
    return (c,) + series[1:]


# The one-slice-per-source push sieves that the blocked sieves replaced,
# kept as references with the syllable factor c; each returns its raw
# coefficient arrays.


def _reference_tuple_sieve(m, c):
    counts = array("q", [1]) * (m + 1)
    counts[0] = 0
    for j in range(1, m // c + 1):
        step = c * j
        counts[step::step] = array("q", map(counts[j].__add__, counts[step::step]))
    return [counts]


def _reference_word_sieve(m, c):
    first = array("q", [4]) * (m + 1)
    second = array("q", [3]) * (m + 1)
    first[0] = second[0] = 0
    if m >= 1:
        first[1], second[1] = 2, 1
    for j in range(1, m // c + 1):
        after_first, after_second = first[j], second[j]
        step = c * j
        first[step] += 2 * after_second
        second[step] += after_second
        add = 2 * after_second + 2 * after_first
        first[2 * step :: step] = array("q", map(add.__add__, first[2 * step :: step]))
        add = after_second + 2 * after_first
        second[2 * step :: step] = array("q", map(add.__add__, second[2 * step :: step]))
    return [first, second]


def _block_edge_sizes(c):
    """Sieve sizes m at which the low bound or a block boundary moves."""
    sizes = set()
    for b in (1, 2, 5, 17, 40, 100):
        sizes.update({c * b * b - 1, c * b * b, c * b * b + 1})
    # at 3 * 10^4 _BLOCK_CAP cuts a block short: the fourth at c = 3
    for m in (10**3, 3 * 10**4):
        for _, e in counting._sieve_schedule(m, c)[1]:
            # the last source is e - 1 or e: a block ends at, or one past, it
            sizes.update({c * e - 1, c * e, c * e + c - 1, c * e + c})
    return sorted(sizes)


def _sieve_sizes_of(*xs):
    return [counting._sieve_limit(x, 3) // 3 for x in xs]


class TestBlockedSieves:
    # a coefficient does not depend on the sieve size, so one reference run
    # at the largest size serves every smaller one
    @staticmethod
    def _assert_matches_reference(sizes, head=None, c=3):
        for series, reference in (
            (_with_factor(counting._TUPLES, c), _reference_tuple_sieve),
            (_with_factor(counting._WORDS, c), _reference_word_sieve),
        ):
            raws = reference(max(sizes), c)
            sums = [array("q", accumulate(r)) for r in raws]
            for m in sizes:
                size_head = m + 1 if head is None else head
                tables, heads = counting._sieve(m, size_head, series)
                assert tables == [t[: m + 1] for t in sums], m
                assert heads == [r[1 : min(m + 1, size_head)] for r in raws], m

    def test_every_small_size(self):
        self._assert_matches_reference(range(3001))

    def test_low_bound_and_block_edges(self):
        self._assert_matches_reference(_block_edge_sizes(3))

    def test_small_sizes_and_block_edges_at_factor_four(self):
        self._assert_matches_reference(range(1201), c=4)
        self._assert_matches_reference(_block_edge_sizes(4), c=4)

    def test_sizes_of_large_thresholds(self):
        for x, m in zip((29999987, 10**8, 10**9), _sieve_sizes_of(29999987, 10**8, 10**9)):
            self._assert_matches_reference([m], math.isqrt(x // 3) // 3 + 2)

    def test_block_cap_binds_at_large_thresholds(self):
        m = _sieve_sizes_of(10**9)[0]
        widths = [e - b for b, e in counting._sieve_schedule(m, 3)[1]]
        assert max(widths) == counting._BLOCK_CAP

    @given(st.integers(min_value=0, max_value=10**9))
    def test_schedule_covers_each_source_once(self, m):
        low, blocks = counting._sieve_schedule(m, 3)
        assert low == math.isqrt(m // 3)
        # the sources 1..low one by one, then blocks, each starting where
        # the last ended, up to m // 3
        starts = [low + 1] + [e for _, e in blocks]
        assert [b for b, _ in blocks] == starts[:-1]
        assert starts[-1] == m // 3 + 1
        for b, e in blocks:
            # every source of a block is final when the block starts: its
            # own sources lie at <= j / 3 < b
            assert b < e <= 3 * b
            assert e - b <= counting._BLOCK_CAP

    @given(st.integers(min_value=0, max_value=2000))
    def test_schedule_lists_each_source_once(self, m):
        low, blocks = counting._sieve_schedule(m, 3)
        sources = list(range(1, low + 1)) + [j for b, e in blocks for j in range(b, e)]
        assert sources == list(range(1, m // 3 + 1))


# The engine reads the syllable factor c from the series.  At c = 3, the
# factor of both counters, a site that still assumed 3 would change no
# count, so these take c = 4 against counts that share no code with the
# engine: Piltz sums for the tuples, one enumeration for the words.


@pytest.fixture(scope="class")
def factor_four_histogram():
    """Reduced words of at most 10 letters by (total degree, prod(4 d_k))."""
    hist = Counter()
    for w in enumerate_reduced_words(10):
        hist[w.total_degree, math.prod(4 * d for d in words.syllable_degrees(w))] += 1
    return hist


class TestFactorFour:
    def test_tuples_are_piltz_sums(self):
        # a tuple of length j passes prod(4 d_k) <= X exactly when
        # prod d_k <= X // 4^j
        series = _with_factor(counting._TUPLES, 4)

        def piltz_sum(x):
            total, j = 0, 1
            while 4**j <= x:
                total += counting._divisor_summatory(j, x // 4**j)
                j += 1
            return total

        for x in [*range(2000), 10**5, 10**6, 10**7, 12345678]:
            assert counting._summatory(x, series)[0] - 1 == piltz_sum(x), x

    def test_words_match_enumeration(self, factor_four_histogram):
        # sum(d_k) <= prod(4 d_k) / 4, so the words of at most 10 letters
        # hold every word of weight at most 43
        series = _with_factor(counting._WORDS, 4)
        hist = factor_four_histogram
        counts = [2 * (counting._summatory(x, series)[FIRST] - 1) for x in range(44)]
        for x, count in enumerate(counts):
            assert count == sum(n for (_, p), n in hist.items() if p <= x), x
        assert [counts[x] for x in (4, 8, 12, 20, 40)] == [4, 12, 20, 40, 104]

    def test_bounded_words_match_enumeration(self, monkeypatch, factor_four_histogram):
        # the bounded recursion and its slack-budget exit read the word series
        monkeypatch.setattr(counting, "_WORDS", _with_factor(counting._WORDS, 4))
        hist = factor_four_histogram
        for limit in range(11):
            for x in (3, 4, 7, 8, 40, 44, 100, 4**5):
                brute = sum(n for (l, p), n in hist.items() if l <= limit and p <= x)
                assert count_words_bounded(x, limit) == brute, (x, limit)


class TestJoinedPass:
    """count_words_with_bounds runs the word and tuple series as one join."""

    def test_matches_separate_counters_at_small_thresholds(self):
        for x in range(3001):
            assert count_words_with_bounds(x) == (count_words(x), bound_words(x)), x

    def test_matches_separate_counters_at_seeded_thresholds(self):
        rng = random.Random(2904)
        xs = [rng.randrange(10 ** rng.randint(4, 8)) for _ in range(8)] + [10**8]
        for x in xs:
            exact, chain = count_words_with_bounds(x)
            assert exact == count_words(x), x
            assert chain == bound_words(x), x
            assert chain.chain_value == 2 * 4**chain.chain_index * count_tuples(x), x

    def test_join_is_block_diagonal(self):
        c, one, more = counting._WORDS_AND_TUPLES
        assert c == 3
        assert one == ((0, 2, 0), (0, 1, 0), (0, 0, 1))
        assert more == ((2, 2, 0), (2, 1, 0), (0, 0, 1))

    def test_factor_four_join_matches_separate_passes(self):
        # a site that read a table of the other series, or the factor 3,
        # would show here, where no factor of the join is 3
        words_4 = _with_factor(counting._WORDS, 4)
        tuples_4 = _with_factor(counting._TUPLES, 4)
        joined = counting._join(words_4, tuples_4)
        flipped = counting._join(tuples_4, words_4)
        rng = random.Random(2905)
        xs = [*range(600), *(rng.randrange(10**rng.randint(4, 8)) for _ in range(6))]
        for x in xs:
            separate = counting._summatory(x, words_4) + counting._summatory(x, tuples_4)
            assert counting._summatory(x, joined) == separate, x
            assert counting._summatory(x, flipped) == separate[2:] + separate[:2], x

    def test_cli_prints_the_pinned_large_count(self, capsys):
        # the stdout that bench/expected.json pins for the count_large workload
        expected = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
        pinned = json.loads(expected.read_text())
        assert cli.main(["count", "words", "--X", "29999999"]) == 0
        assert capsys.readouterr().out == pinned["large"]["count_words"]["29999999"]


_CHUNK = counting._BLOCK_CAP


class TestPrefixSums:
    # chunks start at entry 1: chunk + 1 entries fill one chunk exactly,
    # and chunk + 2 leave a last chunk of one entry
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2, 3 * _CHUNK + 5])
    def test_matches_accumulate(self, n):
        rng = random.Random(n)
        raw = array("q", [rng.randrange(2**40) for _ in range(n)])
        want = array("q", accumulate(raw))
        counting._prefix_sums(raw)
        assert raw == want


def _bounded_by_recursion(x, limit):
    """count_words_bounded's own recursion, without the slack-budget shortcut."""
    total = 0
    memo = {}
    for d in range(1, min(x // 3, limit) + 1):
        q = (x // 3) // d
        total += 4 * counting._word_suffixes_bounded(q, SECOND, limit - d, memo)
        if d >= 2:
            total += 4 * counting._word_suffixes_bounded(q, FIRST, limit - d, memo)
    return total


def _unclamped_suffixes(x, prev_kind, degree_left, memo):
    """The bounded suffix recursion keyed on the whole degree budget."""
    key = (x, prev_kind, degree_left)
    if key not in memo:
        c, one, more = counting._WORDS
        total = 1
        row = one[prev_kind]
        for d in range(1, min(x // c, degree_left) + 1):
            for kind, spellings in enumerate(row):
                if spellings:
                    q = (x // c) // d
                    total += spellings * _unclamped_suffixes(q, kind, degree_left - d, memo)
            row = more[prev_kind]
        memo[key] = total
    return memo[key]


def _assert_floor_of_exp(x, text):
    # independent check: X <= e^Y < X + 1, by mpmath at ample precision
    names = {"log": mpmath.log, "exp": mpmath.exp, "pi": mpmath.pi, "__builtins__": {}}
    with mpmath.workdps(x.bit_length() // 3 + 60):
        value = mpmath.exp(eval(text, names))
        assert x <= value < x + 1


class TestThresholds:
    def test_spot_values(self):
        assert threshold_from_y("log(3)") == 3
        assert threshold_from_y(0) == 1
        assert threshold_from_y(2) == 7
        assert threshold_from_y("pi") == 23

    def test_anchor_value_is_exact_power(self):
        assert threshold_from_y("600*log(8)") == 8**600

    def test_accepts_many_input_types(self):
        assert threshold_from_y(sympy.log(3)) == 3
        assert threshold_from_y(Fraction(1, 2)) == 1
        assert threshold_from_y(0.5) == 1
        assert threshold_from_y(1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            threshold_from_y(-1)

    @pytest.mark.parametrize("text", [
        "10**10**10",
        "(2*pi)**(10**9)",
        "(lambda: 5)()",
        "[1,2][0]",
        "2 if 1 else 3",
        "2^3",
        "log(8, 2)",
        "True",
        "-" * 100000 + "1",
        "x + 1",
        "oops(2)",
        "import os",
    ])
    def test_parser_refuses_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            exactlog.parse(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("y", [
        "10**1000",
        "10**4",
        "3340*log(8)",
        "exp(exp(exp(exp(10))))",
        "-exp(exp(exp(exp(10))))",
        10**4,
    ])
    def test_rejects_huge_y_quickly(self, y):
        # e^Y above 10^4 bits; unchecked, mpmath overflows on 10**1000 and
        # 10**4 hits the 4300-digit limit of int-to-str conversion
        start = time.perf_counter()
        with pytest.raises(ValueError, match="out of range"):
            threshold_from_y(y)
        assert time.perf_counter() - start < 1.0

    def test_out_of_range_node_is_named_by_its_text(self):
        with pytest.raises(ValueError, match=r"^Y = 8000 is out of range"):
            threshold_from_y(exactlog.parse("8000"))

    def test_accepts_y_below_the_bit_limit(self):
        assert exactlog.MAX_THRESHOLD_Y > 3300 * math.log(8)
        assert threshold_from_y("3300*log(8)") == 8**3300

    @pytest.mark.parametrize("y", ["log(-1)", "1/0", "sqrt(-2)", sympy.log(-1), float("nan")])
    def test_rejects_non_real(self, y):
        with pytest.raises(ValueError, match="not a real number"):
            threshold_from_y(y)

    @pytest.mark.parametrize("y", [
        "243",
        "244",
        "1000",
        "6931",
        "600*pi*log(8)",
        "10**6*log(9)-10**6*log(8)-117760",
    ])
    def test_large_and_cancelling_y_certified_quickly(self, y):
        # sympy raised PrecisionExhausted on the first five and stalled on
        # the last; intervals at doubling precision settle all of them
        start = time.perf_counter()
        x = threshold_from_y(y)
        assert time.perf_counter() - start < 1.0
        _assert_floor_of_exp(x, y)

    @pytest.mark.parametrize("y, x", [
        ("log(27)", 27),
        ("3*log(3)", 27),
        ("log(3) + 2*log(3)", 27),
        ("log(9)*3/2", 27),
        ("log(1193)", 1193),
        ("3*log(25)", 25**3),
        ("8*log(4)", 4**8),
        ("log(6) + log(10) - log(4)", 15),
        ("2*log(sqrt(12)) - log(3)", 4),
        ("log(8)/log(2)*log(5)", 125),
        ("log(2)*(pi + 1) - pi*log(2)", 2),
        ("sqrt(E) - exp(1/2)", 1),
        ("exp(log(5*log(38)))", 38**5),
        ("0.5*log(16)", 4),
    ])
    def test_integer_thresholds_settled_exactly(self, y, x):
        # e^Y is an integer here, which no enclosure can separate
        assert threshold_from_y(y) == x

    def test_certificate_never_guesses(self, monkeypatch):
        # e^Y is 4, but exact forms keep a power of a sum unexpanded, so no
        # form settles the tie and no precision separates it: refused
        monkeypatch.setattr(exactlog, "MAX_PRECISION", 256)
        with pytest.raises(ValueError, match="cannot certify"):
            threshold_from_y("log((1 + pi)**2 - pi**2 - 2*pi + 3)")

    def test_differential_fuzz_against_sympy(self):
        # seeded random grammar expressions; wherever sympy gives a floor of
        # e^Y whose every subexpression it evaluates to a finite real, the
        # certified floor equals it, and otherwise it is an answer or a
        # ValueError.  sympy reads each float literal as its decimal rational.
        rng = random.Random(20260418)
        agreed = 0
        certifying = 0.0  # sympy's floors take most of the test's time
        for _ in range(80):
            text = _random_y(rng, 3)
            expected = _sympy_floor_of_exp(text)
            start = time.perf_counter()
            try:
                got = threshold_from_y(text)
            except ValueError:
                got = None
            certifying += time.perf_counter() - start
            if expected is not None:
                assert got == expected, text
                agreed += 1
        assert agreed >= 40
        assert certifying < 0.5

    @given(st.fractions(min_value=0, max_value=30))
    def test_floor_certificate(self, y):
        # independent numeric check: X <= e^y < X + 1
        x = threshold_from_y(y)
        with mpmath.workprec(200):
            val = mpmath.exp(mpmath.mpf(y.numerator) / y.denominator)
            assert x <= val < x + 1


# --- differential fuzz helpers ------------------------------------------------


def _random_leaf(rng):
    r = rng.random()
    if r < 0.25:
        return str(rng.randint(0, 9))
    if r < 0.35:
        return rng.choice(["pi", "E"])
    if r < 0.45:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    if r < 0.5:
        return rng.choice(["0.5", "1.25", "2.0"])
    return f"log({rng.randint(1, 40)})"


def _random_y(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _random_leaf(rng)
    a = _random_y(rng, depth - 1)
    r = rng.random()
    if r < 0.65:
        op = "+" if r < 0.2 else "-" if r < 0.4 else "*" if r < 0.55 else "/"
        return f"({a}){op}({_random_y(rng, depth - 1)})"
    if r < 0.88:
        return f"{'log' if r < 0.75 else 'exp' if r < 0.8 else 'sqrt'}({a})"
    return f"({a})**({rng.choice(['2', '3', '-1', '1/2', '2/3', '-2'])})"


_SYMPY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _sympy_value(node, text):
    if isinstance(node, ast.Constant):
        value = sympy.Rational(ast.get_source_segment(text, node))
    elif isinstance(node, ast.Name):
        value = getattr(sympy, node.id)
    elif isinstance(node, ast.UnaryOp):
        value = -_sympy_value(node.operand, text)
    elif isinstance(node, ast.BinOp):
        left, right = _sympy_value(node.left, text), _sympy_value(node.right, text)
        value = _SYMPY_OPS[type(node.op)](left, right)
    else:
        value = getattr(sympy, node.func.id)(_sympy_value(node.args[0], text))
    if not (value.is_real and value.is_finite):
        raise ArithmeticError("undefined over the reals")
    return value


def _sympy_floor_of_exp(text):
    """sympy's floor of e^Y, or None where it has no finite real answer."""
    try:
        y = _sympy_value(ast.parse(text, mode="eval").body, text)
        if not y.is_nonnegative or y > 60:
            return None
        return int(sympy.floor(sympy.exp(y)))
    except (ArithmeticError, TypeError, ValueError):
        return None
