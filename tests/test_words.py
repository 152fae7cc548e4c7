"""Free-group word algebra: parsing, reduction, syllables, conjugacy."""

import sys

import pytest
from hypothesis import given, strategies as st

from braidcount.words import (
    FIRST_KIND,
    SECOND_KIND,
    FreeWord,
    WordSyntaxError,
    cyclic_reduce,
    free_conjugator,
    is_cyclically_reduced,
    is_cyclically_syllable_reduced,
    other_generator,
    parse_word,
    syllable_decompose,
    word_to_text,
)


def reduced_words(max_terms=8, max_exp=4):
    """Strategy over reduced words: alternating generators, nonzero exponents."""
    exps = st.integers(min_value=-max_exp, max_value=max_exp).filter(bool)

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_terms))
        gen = draw(st.sampled_from((1, 2)))
        terms = []
        for _ in range(n):
            terms.append((gen, draw(exps)))
            gen = other_generator(gen)
        return FreeWord(tuple(terms))

    return build()


class TestParsing:
    def test_round_trip_examples(self):
        for text in ("", "a1", "a2^-3", "a1^2 a2^2", "a1 a2^-1 a1^4"):
            assert word_to_text(parse_word(text)) == text

    def test_uppercase_is_inverse(self):
        assert parse_word("A1") == parse_word("a1^-1")
        assert parse_word("A2^3") == parse_word("a2^-3")

    def test_adjacent_same_generator_merges(self):
        assert parse_word("a1 a1") == parse_word("a1^2")
        assert parse_word("a1 A1").is_identity

    def test_rejects_garbage(self):
        for text in ("a3", "b1", "a1^", "a1**2", "a1 x"):
            with pytest.raises(WordSyntaxError):
                parse_word(text)

    @pytest.mark.parametrize("token", ["a1^", "A2^-"])
    def test_exponent_past_int_digit_limit_is_a_syntax_error(self, token):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(WordSyntaxError) as err:
            parse_word("a2 a1 " + token + "9" * (limit + 1))
        assert err.value.position == 2
        assert str(err.value) == f"exponent has more than {limit} digits (at token 2)"

    def test_exponent_at_int_digit_limit_parses(self):
        digits = "9" * sys.get_int_max_str_digits()
        assert parse_word("a1^" + digits).terms == ((1, int(digits)),)

    def test_zero_exponent_folds_away(self):
        assert parse_word("a1^0").is_identity
        assert parse_word("a1^0 a2") == parse_word("a2")

    @given(reduced_words())
    def test_round_trip_random(self, w):
        assert parse_word(word_to_text(w)) == w


class TestGroupOps:
    @given(reduced_words(), reduced_words())
    def test_product_reduces(self, u, v):
        prod = u * v
        gens = [g for g, _ in prod.terms]
        assert all(a != b for a, b in zip(gens, gens[1:]))
        assert all(e != 0 for _, e in prod.terms)

    @given(reduced_words())
    def test_inverse_cancels(self, w):
        assert (w * w.inverse()).is_identity
        assert (w.inverse() * w).is_identity

    @given(reduced_words(), reduced_words(), reduced_words())
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(reduced_words())
    def test_total_degree(self, w):
        assert w.total_degree == sum(abs(e) for _, e in w.terms)


class TestSyllables:
    def test_first_kind_needs_degree_two(self):
        deco = syllable_decompose(parse_word("a1^3"))
        assert [s.kind for s in deco] == [FIRST_KIND]
        assert deco.degrees() == (3,)

    def test_unit_run_is_one_syllable(self):
        # a1 a2: two unit exponents of equal sign form a single syllable
        deco = syllable_decompose(parse_word("a1 a2"))
        assert [s.kind for s in deco] == [SECOND_KIND]
        assert deco.degrees() == (2,)

    def test_sign_change_splits_run(self):
        deco = syllable_decompose(parse_word("a1 a2^-1"))
        assert deco.degrees() == (1, 1)
        assert [s.sign for s in deco] == [1, -1]

    def test_mixed_example(self):
        deco = syllable_decompose(parse_word("a1^2 a2 a1 a2^-1 a1^-1 a2^3"))
        assert [(s.kind, s.degree) for s in deco] == [
            (FIRST_KIND, 2),
            (SECOND_KIND, 2),
            (SECOND_KIND, 2),
            (FIRST_KIND, 3),
        ]

    @given(reduced_words())
    def test_expansion_reproduces_word(self, w):
        deco = syllable_decompose(w)
        assert FreeWord(deco.expand()) == w
        assert sum(deco.degrees()) == w.total_degree

    @given(reduced_words())
    def test_degrees_positive(self, w):
        assert all(d >= 1 for d in syllable_decompose(w).degrees())


class TestCyclicReduction:
    def test_examples(self):
        assert is_cyclically_reduced(parse_word("a1 a2"))
        assert not is_cyclically_reduced(parse_word("a1 a2 a1^-1"))

    @given(reduced_words())
    def test_reduce_invariants(self, w):
        core, conj = cyclic_reduce(w)
        assert is_cyclically_reduced(core)
        assert conj * core * conj.inverse() == w

    def test_syllable_reduced_rejects_identity(self):
        with pytest.raises(ValueError):
            is_cyclically_syllable_reduced(FreeWord(()))

    def test_syllable_reduced_examples(self):
        assert is_cyclically_syllable_reduced(parse_word("a1^2 a2^2"))
        assert is_cyclically_syllable_reduced(parse_word("a1 a2 a1 a2"))
        # unit exponents at both ends with matching sign merge cyclically
        assert not is_cyclically_syllable_reduced(parse_word("a1 a2^2 a1^2 a2"))


class TestFreeConjugacy:
    @given(reduced_words(max_terms=5), reduced_words(max_terms=4))
    def test_witness_on_conjugates(self, w, g):
        conj = g.inverse() * w * g
        witness = free_conjugator(w, conj)
        assert witness is not None
        assert witness.inverse() * w * witness == conj

    def test_rejects_non_conjugates(self):
        assert free_conjugator(parse_word("a1"), parse_word("a1^2")) is None
        assert free_conjugator(parse_word("a1"), parse_word("a2^-1")) is None

    def test_identity_only_conjugate_to_itself(self):
        assert free_conjugator(FreeWord(()), FreeWord(())) is not None
        assert free_conjugator(FreeWord(()), parse_word("a1")) is None
