"""Free-group word algebra: parsing, reduction, syllables, conjugacy."""

import random
import sys
import threading
import time
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from braidcount import braid, words
from braidcount.braid import parse_braid
from braidcount.invariants import extremal_length_bounds_word
from braidcount.words import (
    FIRST_KIND,
    SECOND_KIND,
    FreeWord,
    Syllable,
    WordSyntaxError,
    cyclic_reduce,
    free_conjugator,
    is_cyclically_reduced,
    is_cyclically_syllable_reduced,
    other_generator,
    parse_word,
    syllable_decompose,
    syllable_degrees,
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


#: words with long unit runs as well as first-kind terms
run_words = reduced_words(max_terms=40, max_exp=2)

#: tokens of every shape, each drawn repeatedly into a text
word_tokens = st.sampled_from(
    ["a1", "a2", "A1", "A2", "a1^2", "a2^-3", "A1^2", "A2^-1", "a1^0", "a2^1", "a1^-1"]
)


def reference_parse(text):
    """The token-by-token parser: every token decoded where it stands."""
    raw = []
    for token in text.split():
        sign = -1 if token[0] == "A" else 1
        exp = int(token[3:]) if "^" in token else 1
        raw.append((int(token[1]), sign * exp))
    return FreeWord.from_terms(raw)


def reference_decompose(w):
    """One validated Syllable per syllable, built where it closes."""
    syllables = []
    run_start = run_sign = run_len = 0

    def close_run():
        nonlocal run_len
        if run_len:
            syllables.append(Syllable(SECOND_KIND, run_len, run_sign, run_start))
            run_len = 0

    for gen, exp in w.terms:
        if abs(exp) >= 2:
            close_run()
            syllables.append(Syllable(FIRST_KIND, abs(exp), 1 if exp > 0 else -1, gen))
        elif run_len and run_sign == exp:
            run_len += 1
        else:
            close_run()
            run_start, run_sign, run_len = gen, exp, 1
    close_run()
    return tuple(syllables)


def reference_cyclic_reduce(w):
    """Strip one matching end pair per step, copying the rest of the terms."""
    terms = list(w.terms)
    conj = []
    while len(terms) >= 2 and terms[0][0] == terms[-1][0]:
        gen, head = terms[0]
        tail = terms[-1][1]
        conj.append((gen, head))
        if head + tail == 0:
            terms = terms[1:-1]
        else:
            terms = terms[1:-1] + [(gen, head + tail)]
            break
    return FreeWord(tuple(terms)), FreeWord.from_terms(conj)


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

    @given(st.lists(word_tokens, max_size=60))
    def test_matches_token_by_token_reference(self, tokens):
        text = " ".join(tokens)
        assert parse_word(text) == reference_parse(text)

    def test_bad_token_after_repeated_good_tokens_raises_at_its_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("a1 a2 a1 a2 a1 a2^3 a1 x1 a1 x1")
        assert err.value.position == 7
        assert str(err.value) == "bad word token 'x1' (at token 7)"

    def test_repeated_long_exponent_raises_at_its_first_token(self):
        limit = sys.get_int_max_str_digits()
        token = "a1^" + "9" * (limit + 1)
        with pytest.raises(WordSyntaxError) as err:
            parse_word(f"a2 a2 {token} a2 {token}")
        assert err.value.position == 2
        assert str(err.value) == f"exponent has more than {limit} digits (at token 2)"


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


def seeded_word_text(rng, terms):
    """Word text with repeated and single-use tokens, exponents up to 40."""
    tokens = []
    for _ in range(terms):
        exp = rng.choice((None, 1, -1, 2, -3, rng.randint(-40, 40)))
        head = rng.choice("aA") + rng.choice("12")
        tokens.append(head if exp is None else f"{head}^{exp}")
    return " ".join(tokens)


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty token and syllable caches of the same sizes for this test; the
    process's own come back after."""
    monkeypatch.setattr(words, "_decoded_term", fresh_cache(words._decoded_term))
    monkeypatch.setattr(words, "_syllable", fresh_cache(words._syllable))


def fresh_cache(cached, maxsize=None, function=None):
    """A new, empty ``lru_cache`` of ``function``, by default the one that
    ``cached`` wraps."""
    return lru_cache(maxsize=maxsize or cached.cache_info().maxsize)(function or cached.__wrapped__)


def hits_and_misses():
    return words._decoded_term.cache_info()[:2], words._syllable.cache_info()[:2]


@pytest.mark.usefixtures("cold_memos")
class TestMemos:
    def test_cold_and_warm_agree(self):
        rng = random.Random(1312)
        texts = [seeded_word_text(rng, rng.randint(0, 60)) for _ in range(200)]
        cold = []
        for text in texts:
            words._decoded_term.cache_clear()
            words._syllable.cache_clear()
            w = parse_word(text)
            cold.append((w, tuple(syllable_decompose(w))))
        for _ in range(2):
            warm = [(parse_word(t), tuple(syllable_decompose(parse_word(t)))) for t in texts]
            assert warm == cold
        expected = [reference_parse(t) for t in texts]
        assert [w for w, _ in cold] == expected
        assert [d for _, d in cold] == [reference_decompose(w) for w in expected]

    def test_bad_token_raises_at_its_position_on_every_call(self):
        cases = [("a1 x1", 1), ("x1 a1 a2", 0), ("a1 a2 A1^3 x1 x1", 3), ("a1 a1^x", 1)]
        for _ in range(2):
            for text, pos in cases:
                with pytest.raises(WordSyntaxError) as err:
                    parse_word(text)
                assert err.value.position == pos, text
        # the good tokens are kept, and only those
        (hits, misses), _ = hits_and_misses()
        assert words._decoded_term.cache_info().currsize == 3
        parse_word("a1 a2 A1^3")
        assert hits_and_misses()[0] == (hits + 3, misses)

    def test_malformed_syllable_is_never_kept(self):
        # the syllables before it are
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed syllable"):
                syllable_decompose(FreeWord(((1, 2), (2, 1), (1, 0), (2, 1))))
        info = words._syllable.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert words._syllable(FIRST_KIND, 2, 1, 1) == Syllable(FIRST_KIND, 2, 1, 1)
        assert words._syllable.cache_info()[:2] == (2, 1)

    def test_stops_at_the_token_cap(self, monkeypatch):
        decoded = Counter()
        term = words._token_term
        monkeypatch.setattr(words, "_decoded_term", fresh_cache(
            words._decoded_term, 6, lambda token: decoded.update([token]) or term(token)
        ))
        tokens = [f"a{1 + k % 2}^{k}" for k in range(1, 16)]
        text = " ".join(tokens * 3)
        # each distinct token once per call; read in turn, 15 of them evict
        # one another from a cache of 6 before they come round again
        assert parse_word(text) == reference_parse(text)
        assert decoded == dict.fromkeys(tokens, 1)
        assert parse_word(text) == reference_parse(text)
        assert decoded == dict.fromkeys(tokens, 2)
        # the 6 most recently used are kept
        (hits, misses), _ = hits_and_misses()
        assert words._decoded_term.cache_info().currsize == 6
        assert parse_word(" ".join(tokens[-6:])) == reference_parse(" ".join(tokens[-6:]))
        assert hits_and_misses()[0] == (hits + 6, misses)

    def test_stops_at_the_syllable_cap(self, monkeypatch):
        built = Counter()
        monkeypatch.setattr(words, "_syllable", fresh_cache(
            words._syllable, 6, lambda *run: built.update([run]) or Syllable(*run)
        ))
        w = parse_word(" ".join([f"a{1 + k % 2}^{k}" for k in range(2, 16)] * 2))
        # read in turn, 14 syllables evict one another from a cache of 6, so
        # each is built at each of its two places
        deco = tuple(syllable_decompose(w))
        assert deco == reference_decompose(w)
        assert list(built.values()) == [2] * 14
        assert syllable_decompose(w).syllables == deco
        assert list(built.values()) == [4] * 14
        # the 6 most recently used are kept
        assert words._syllable.cache_info().currsize == 6
        tail = parse_word(" ".join(f"a{1 + k % 2}^{k}" for k in range(10, 16)))
        assert syllable_decompose(tail).syllables == deco[-6:]
        assert list(built.values()) == [4] * 14

    def test_real_caps_hold(self):
        # each token a syllable of its own
        assert words._decoded_term.cache_info().maxsize == words.MEMO_SIZE
        assert words._syllable.cache_info().maxsize == words.MEMO_SIZE
        text = " ".join(f"a1^{k} a2^{k}" for k in range(2, 2 + words.MEMO_SIZE))
        first = parse_word(text), syllable_decompose(parse_word(text))
        assert (parse_word(text), syllable_decompose(parse_word(text))) == first
        assert words._decoded_term.cache_info().currsize == words.MEMO_SIZE
        assert words._syllable.cache_info().currsize == words.MEMO_SIZE

    def test_recently_used_tokens_and_syllables_are_hits(self):
        # each token a syllable of its own
        tokens = [f"a{1 + k % 2}^{k}" for k in range(2, 2 + words.MEMO_SIZE + 50)]
        syllable_decompose(parse_word(" ".join(tokens)))
        before = hits_and_misses()
        assert [misses for _, misses in before] == [words.MEMO_SIZE + 50] * 2
        syllable_decompose(parse_word(" ".join(tokens[-50:])))
        assert hits_and_misses() == tuple((hits + 50, misses) for hits, misses in before)

    def test_threads_parse_past_the_caps(self, monkeypatch):
        # eight threads, each over more distinct braid and word tokens and
        # syllables than the caches keep and sharing most of them, while the
        # sizes of the caches are sampled
        monkeypatch.setattr(braid, "_decoded_run", fresh_cache(braid._decoded_run))
        caches = [braid._decoded_run, words._decoded_term, words._syllable]
        spans = [range(2 + 40 * t, 2 + 40 * t + words.MEMO_SIZE + 100) for t in range(8)]
        texts = [
            (" ".join(f"s{1 + k % 2}^{k - 300}" for k in span), " ".join(f"a{1 + k % 2}^{k}" for k in span))
            for span in spans
        ]

        def parse(texts):
            w = parse_word(texts[1])
            return parse_braid(texts[0]), w, syllable_decompose(w)

        cold = []
        for pair in texts:
            for cache in caches:
                cache.cache_clear()
            cold.append(parse(pair))
        for cache in caches:
            cache.cache_clear()
        got, peak = parse_in_threads(parse, texts, caches)
        assert got == [[result] * 3 for result in cold]
        assert peak <= words.MEMO_SIZE


def parse_in_threads(parse, texts, caches, rounds=3, timeout=60):
    """``rounds`` parses of each text in a thread of its own, all at once,
    switching threads often: the results per text, and the largest
    ``currsize`` of any of ``caches`` sampled meanwhile and after."""
    results = [[] for _ in texts]
    start = threading.Barrier(len(texts), timeout=timeout)

    def work(i):
        start.wait()
        results[i].extend(parse(texts[i]) for _ in range(rounds))

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(texts))]
    peak = 0
    deadline = time.monotonic() + timeout
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads) and time.monotonic() < deadline:
            peak = max(peak, *(cache.cache_info().currsize for cache in caches))
        for thread in threads:
            thread.join(max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, max(peak, *(cache.cache_info().currsize for cache in caches))


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

    @given(run_words)
    def test_matches_per_syllable_reference(self, w):
        assert tuple(syllable_decompose(w)) == reference_decompose(w)

    @given(run_words)
    def test_degrees_match_decomposition(self, w):
        assert syllable_degrees(w) == syllable_decompose(w).degrees()

    @pytest.mark.parametrize("terms", [
        ((1, 1), (3, 2), (2, 1), (3, 2)),
        ((1, 1), (2, 0), (1, 1)),
        ((3, -1), (2, -1)),
    ])
    @pytest.mark.parametrize("f", [syllable_decompose, syllable_degrees, extremal_length_bounds_word])
    def test_malformed_syllable_is_refused(self, f, terms):
        # a FreeWord built directly is not reduced; a syllable starting with
        # a bad generator or exponent 0 raises, also where no Syllable is built
        with pytest.raises(ValueError, match="malformed syllable"):
            f(FreeWord(terms))


class TestCyclicReduction:
    def test_examples(self):
        assert is_cyclically_reduced(parse_word("a1 a2"))
        assert not is_cyclically_reduced(parse_word("a1 a2 a1^-1"))

    @given(reduced_words())
    def test_reduce_invariants(self, w):
        core, conj = cyclic_reduce(w)
        assert is_cyclically_reduced(core)
        assert conj * core * conj.inverse() == w

    @given(run_words, reduced_words(max_terms=12))
    def test_matches_reference_loop(self, w, g):
        for word in (w, g * w * g.inverse()):
            assert cyclic_reduce(word) == reference_cyclic_reduce(word)

    def test_long_conjugate(self):
        g = FreeWord(tuple((1 + i % 2, 1 + i % 3) for i in range(4000)))
        w = g * parse_word("a1^2 a2 a1^-3 a2") * g.inverse()
        core, conj = cyclic_reduce(w)
        assert (core, conj) == reference_cyclic_reduce(w)
        assert core.num_terms == 4 and conj * core * conj.inverse() == w

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
