"""Brute-force enumeration oracles: small, obviously-correct reference code."""

import pytest
from hypothesis import given, strategies as st

from braidcount.braid import conjugate, evaluate, sigma_power
from braidcount.oracle import (
    brute_conjugator_search,
    brute_count_tuples,
    brute_count_words,
    enumerate_reduced_words,
    tuple_product_histogram,
    word_product_histogram,
    word_weight,
)
from braidcount.words import parse_word, syllable_decompose


class TestEnumeration:
    def test_counts_per_length(self):
        words = list(enumerate_reduced_words(5))
        by_len = {}
        for w in words:
            by_len[w.total_degree] = by_len.get(w.total_degree, 0) + 1
        assert by_len == {n: 4 * 3 ** (n - 1) for n in range(1, 6)}

    def test_zero_length_is_empty(self):
        assert list(enumerate_reduced_words(0)) == []

    def test_rejects_negative_length(self):
        # raised at the call, before any word is generated
        with pytest.raises(ValueError):
            enumerate_reduced_words(-1)

    def test_all_reduced_and_distinct(self):
        words = list(enumerate_reduced_words(6))
        assert len(set(words)) == len(words)
        for w in words:
            gens = [g for g, _ in w.terms]
            assert all(a != b for a, b in zip(gens, gens[1:]))


class TestWeights:
    def test_weight_examples(self):
        assert word_weight(parse_word("a1")) == 3
        assert word_weight(parse_word("a1 a2")) == 6
        assert word_weight(parse_word("a1^2 a2^2")) == 36
        assert word_weight(parse_word("a1 a2^-1")) == 9

    @given(st.integers(min_value=1, max_value=8))
    def test_weight_is_degree_product(self, n):
        w = parse_word(" ".join(f"a{1 + i % 2}^2" for i in range(n)))
        degrees = syllable_decompose(w).degrees()
        prod = 1
        for d in degrees:
            prod *= 3 * d
        assert word_weight(w) == prod


class TestBruteCounts:
    def test_tuples_by_hand(self):
        # products 3d1*...*3dj <= x
        assert brute_count_tuples(2) == 0
        assert brute_count_tuples(3) == 1  # (1,)
        assert brute_count_tuples(6) == 2  # (1,), (2,)
        assert brute_count_tuples(9) == 4  # (1,), (2,), (3,), (1,1)

    def test_histogram_consistent(self):
        hist = tuple_product_histogram(200)
        assert min(hist) == 3
        assert max(hist) <= 200
        assert sum(hist.values()) == brute_count_tuples(200)

    def test_words_by_hand(self):
        # weight 3: the four one-letter words
        assert brute_count_words(3, 6) == 4
        # weight 6: adds a1^2 and friends plus unit pairs of equal sign
        assert brute_count_words(6, 6) == 12

    def test_word_histogram_matches_direct_count(self):
        hist = word_product_histogram(7)
        for x in (3, 9, 20, 100):
            direct = brute_count_words(x, 7)
            assert direct == sum(
                c for (l, p), c in hist.items() if p <= x
            )

    def test_length_guard(self):
        with pytest.raises(ValueError):
            brute_count_words(9, 15)
        with pytest.raises(ValueError):
            word_product_histogram(15)


class TestConjugatorSearch:
    def test_finds_identity_first(self):
        x = sigma_power(1, 2)
        g = brute_conjugator_search(x, x, 3)
        assert g is not None and len(g) == 0

    def test_finds_witness(self):
        x, y = sigma_power(1, 2), sigma_power(2, 2)
        g = brute_conjugator_search(x, y, 4)
        assert g is not None
        assert conjugate(evaluate(g), x) == y

    def test_returns_none_when_no_witness(self):
        x, y = sigma_power(1, 2), sigma_power(2, 4)
        assert brute_conjugator_search(x, y, 3) is None

    def test_length_guard(self):
        with pytest.raises(ValueError):
            brute_conjugator_search(sigma_power(1, 1), sigma_power(2, 1), 11)
