"""Braid words modulo the center: coset algebra, normal form, projection."""

import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from braidcount import braid
from braidcount.braid import (
    GENERAL,
    HALF_TWIST,
    IDENTITY,
    PERM_ID,
    PERM_S1,
    PERM_S2,
    POWER_OF_DELTA,
    BraidSyntaxError,
    BraidWord,
    CosetElement,
    NormalForm,
    braid_to_text,
    conjugate,
    embed_pure,
    evaluate,
    even_toward_zero,
    half_twist_word,
    normal_form,
    parse_braid,
    pure_projection,
    remultiply,
    s3_image,
    sigma_power,
    sigma_word,
    swap_generators,
    unembed,
)
from braidcount.words import MEMO_SIZE, FreeWord, parse_word

braid_letters = st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1)))
braid_words = st.lists(braid_letters, max_size=10).map(
    lambda ls: BraidWord(tuple(ls))
)


@st.composite
def pure_words(draw, max_terms=6):
    """Reduced free-group words: generators alternate, exponents nonzero."""
    n = draw(st.integers(min_value=0, max_value=max_terms))
    gen = draw(st.sampled_from((1, 2)))
    terms = []
    for _ in range(n):
        terms.append((gen, draw(st.integers(-3, 3).filter(bool))))
        gen = 3 - gen
    return FreeWord(tuple(terms))


def coset(text: str) -> CosetElement:
    return evaluate(parse_braid(text))


def random_tokens(rng: random.Random, count: int) -> list[tuple[str, int, int]]:
    """Braid tokens as ``(name, gen, exp)``; ``name`` is s, S or D (gen 0)."""
    tokens = []
    for _ in range(count):
        name = rng.choice("sSsSD")
        exp = rng.choice((None, 0, 1, -1, 2, -3, 4, -5))
        tokens.append((name, 0 if name == "D" else rng.choice((1, 2)), exp))
    return tokens


def token_text(name: str, gen: int, exp: int | None) -> str:
    head = "D" if name == "D" else f"{name}{gen}"
    return head if exp is None else f"{head}^{exp}"


def per_token_letters(tokens) -> tuple[tuple[int, int], ...]:
    """One ``sigma_word``/``half_twist_word`` per token, concatenated."""
    word = BraidWord()
    for name, gen, exp in tokens:
        exp = 1 if exp is None else exp
        if name == "D":
            word = word * half_twist_word(exp)
        else:
            word = word * sigma_word(gen, -exp if name == "S" else exp)
    return word.letters


def random_canonical(rng: random.Random, size: int) -> CosetElement:
    """An alternating word of ``size`` letters, starting with either factor."""
    letters = []
    a_next = rng.random() < 0.5
    for _ in range(size):
        letters.append(0 if a_next else rng.choice((1, 2)))
        a_next = not a_next
    return CosetElement(tuple(letters))


def canonical_words(max_size: int):
    """Every canonical coset word of at most ``max_size`` letters."""
    yield IDENTITY
    for size in range(1, max_size + 1):
        for a_first in (True, False):
            t_count = size // 2 if a_first else (size + 1) // 2
            for powers in product((1, 2), repeat=t_count):
                t_letters = iter(powers)
                yield CosetElement(tuple(
                    0 if (i % 2 == 0) == a_first else next(t_letters) for i in range(size)
                ))


def push_one_at_a_time(x: CosetElement, y: CosetElement) -> CosetElement:
    """The product that pushes every letter of ``y`` onto ``x`` by the rules."""
    stack = list(x.letters)
    for letter in y.letters:
        if stack and letter == 0 and stack[-1] == 0:
            stack.pop()
        elif stack and letter != 0 and stack[-1] != 0:
            power = (stack[-1] + letter) % 3
            stack.pop()
            if power:
                stack.append(power)
        else:
            stack.append(letter)
    return CosetElement(tuple(stack))


#: The generator images of the module docstring, as coset letters.
IMAGES = {(1, 1): (2, 0), (1, -1): (0, 1), (2, 1): (0, 2), (2, -1): (1, 0)}


def reference_push(stack: list, letters) -> None:
    """The one-letter-at-a-time stack walk that the block walk replaced."""
    append, pop = stack.append, stack.pop
    for letter in letters:
        top = stack[-1]
        if letter:  # a power of t; a is 0 and the sentinel is falsy
            if top:
                power = (top + letter) % 3
                if power:
                    stack[-1] = power
                else:
                    pop()
                continue
        elif top == 0:
            pop()
            continue
        append(letter)


def reference_evaluate(letters) -> CosetElement:
    """The coset of braid letters, pushed two coset letters per braid letter."""
    stack = [None]
    for letter in letters:
        reference_push(stack, IMAGES[letter])
    return CosetElement(tuple(stack[1:]))


def reference_s3_image(letters) -> tuple[int, ...]:
    """The strand permutation of coset letters, composed one letter at a time."""
    perm = PERM_ID
    for letter in letters:
        perm = braid._compose(perm, braid._PERM_LETTER[letter])
    return perm


def reference_unembed(*factors: CosetElement) -> FreeWord | None:
    """The one-letter-at-a-time Reidemeister-Schreier walk that the run walk
    replaced: a term per spelling letter, freely reduced at the end."""
    code, terms = braid._ID_CODE, []
    for letter in chain.from_iterable(f.letters for f in factors):
        code += letter
        if braid._PERM_SPELL[code]:
            terms.append(braid._PERM_SPELL[code])
        code = braid._PERM_STEP[code]
    return FreeWord.from_terms(terms) if code == braid._ID_CODE else None


def reference_text(letters) -> str:
    """Braid text with one token per maximal stretch of equal letters."""
    return " ".join(
        f"s{gen}" if count == 1 and sign > 0 else f"s{gen}^{sign * count}"
        for (gen, sign), count in ((letter, len(list(g))) for letter, g in groupby(letters))
    )


def token_letters(name: str, gen: int, exp: int | None) -> tuple[tuple[int, int], ...]:
    """The letters of one braid token, spelled out."""
    exp = 1 if exp is None else exp
    sign = 1 if exp > 0 else -1
    if name == "D":
        return ((1, sign), (2, sign), (1, sign)) * abs(exp)
    return ((gen, -sign if name == "S" else sign),) * abs(exp)


def form_letters(form: NormalForm) -> tuple[tuple[int, int], ...]:
    """The letters of ``sigma_j^k``, of ``sigma_g^(2e)`` for each term of ``b1``
    and of ``delta^ell``."""
    letters = list(token_letters("s", form.j, form.k) if form.k else ())
    for gen, exp in form.b1.terms:
        letters += token_letters("s", gen, 2 * exp)
    return tuple(letters) + token_letters("D", 0, 1) * form.ell


def check_against_letter_walks(b: BraidWord, letters) -> CosetElement:
    """Every run-level result on ``b``, whose letters are ``letters``, against
    the letter walks; returns the coset."""
    assert b.letters == letters and len(b) == len(letters)
    assert str(b) == braid_to_text(b) == reference_text(letters)
    x = evaluate(b)
    assert x == reference_evaluate(letters)
    assert s3_image(x) == reference_s3_image(x.letters)
    assert unembed(x) == reference_unembed(x)
    form = normal_form(b)
    assert form == normal_form(x)
    assert reference_evaluate(form_letters(form)) == x == remultiply(form)
    if form.kind == GENERAL and form.b1.terms:
        assert form.b1.terms[0][0] != form.j
    return x


def junction_text(rng: random.Random, big: bool) -> tuple[str, tuple]:
    """Seeded braid text and its letters: D^k tokens, runs that cancel whole
    runs at a junction (``s1^k S1^m``, ``s1^k s2^m S1^k``), and with ``big``
    exponents up to 10^5."""
    top = 10**5 if big else 9
    tokens = []
    for _ in range(rng.randint(0, 8)):
        gen, other = rng.choice(((1, 2), (2, 1)))
        k = rng.randint(1, top)
        shape = rng.randrange(4)
        if shape == 0:
            tokens.append(("D", 0, rng.randint(-6, 6)))
        elif shape == 1:
            tokens.append((rng.choice("sS"), gen, rng.choice((k, -k, 0))))
        elif shape == 2:
            m = rng.choice((k, k - 1, k + 1, rng.randint(1, top)))
            tokens += [("s", gen, k), ("S", gen, m)]
        else:
            m = rng.choice((1, 2, rng.randint(1, top)))
            tokens += [("s", gen, k), ("s", other, rng.choice((m, -m))), ("S", gen, k)]
    text = " ".join(token_text(*t) for t in tokens)
    return text, tuple(chain.from_iterable(token_letters(*t) for t in tokens))


def reference_refusal(tokens, ceiling: int) -> tuple[str, int] | None:
    """The first refusal of the parser that sized each token as it came:
    ``("bad", pos)`` for a token that does not decode, ``("over", pos)`` where
    the running size passes ``ceiling``, or None."""
    size = 0
    for pos, token in enumerate(tokens):
        match = re.fullmatch(r"([sS][12]|D)(?:\^(-?\d+))?", token)
        if match is None:
            return ("bad", pos)
        size += (3 if match[1] == "D" else 1) * abs(int(match[2] or 1))
        if size > ceiling:
            return ("over", pos)
    return None


def reference_normal_forms(x: CosetElement) -> list[NormalForm]:
    """Every factorization found by trying each leading letter and ``ell``.

    This is the branch-trial parser that :func:`normal_form` replaced: for
    each ``ell`` whose permutation fits, it strips each candidate leading
    letter ``sigma_j^eps`` and keeps the results that unembed.
    """
    forms = []
    for ell in (0, 1):
        y = x * HALF_TWIST if ell else x
        perm = s3_image(y)
        if perm == PERM_ID:
            prefixes = [None]
        elif perm in (PERM_S1, PERM_S2):
            j = 1 if perm == PERM_S1 else 2
            prefixes = [(j, 1), (j, -1)]
        else:
            continue
        for prefix in prefixes:
            w = unembed(sigma_power(*prefix).inverse() * y if prefix else y)
            if w is None:
                continue
            if prefix is None:
                if w.is_identity:
                    forms.append(NormalForm.power_of_delta(ell))
                else:
                    g1, e1 = w.terms[0]
                    forms.append(NormalForm.general(g1, 2 * e1, FreeWord(w.terms[1:]), ell))
                continue
            j, eps = prefix
            if w.terms and w.terms[0][0] == j:
                e1 = w.terms[0][1]
                if (1 if e1 > 0 else -1) == eps:
                    forms.append(
                        NormalForm.general(j, 2 * e1 + eps, FreeWord(w.terms[1:]), ell)
                    )
            else:
                forms.append(NormalForm.general(j, eps, w, ell))
    return forms


class TestParsing:
    def test_round_trip(self):
        for text in ("", "s1", "s2^-3", "s1^2 s2^2", "s1 s2 s1"):
            assert braid_to_text(parse_braid(text)) == text

    def test_half_twist_token_expands(self):
        # D is sugar: the stored word uses sigma letters only
        assert parse_braid("D") == parse_braid("s1 s2 s1")
        assert parse_braid("D^-2 s1") == half_twist_word(-2) * sigma_word(1, 1)

    def test_uppercase_inverse(self):
        assert parse_braid("S1") == parse_braid("s1^-1")

    def test_rejects_garbage(self):
        for text in ("s3", "d", "s1^", "q2"):
            with pytest.raises(BraidSyntaxError):
                parse_braid(text)

    def test_letter_ceiling(self, monkeypatch):
        # exponents count before they expand: |e| per s token, 3|e| per D
        monkeypatch.setattr(braid, "MAX_BRAID_LETTERS", 10)
        assert len(parse_braid("s1^4 D^2")) == 10
        assert len(parse_braid("S2^-10")) == 10
        for text in ("s1^5 D^2", "D^-4", "s2^11", "s1^10 s2"):
            with pytest.raises(BraidSyntaxError, match="more than 10 letters"):
                parse_braid(text)

    def test_matches_per_token_expansion(self):
        rng = random.Random(1301)
        for _ in range(300):
            tokens = random_tokens(rng, rng.randint(0, 40))
            text = " ".join(token_text(*t) for t in tokens)
            assert parse_braid(text).letters == per_token_letters(tokens)

    def test_zero_exponents_and_negative_half_twists(self):
        assert parse_braid("s1^0 S2^0 D^0") == BraidWord()
        for k in range(1, 5):
            assert parse_braid(f"D^-{k}") == half_twist_word(-k)
            assert parse_braid(f"s2 D^-{k} s2").letters == (
                ((2, 1),) + half_twist_word(-k).letters + ((2, 1),)
            )

    def test_bad_token_position_after_repeated_tokens(self):
        rng = random.Random(1302)
        for _ in range(50):
            tokens = [token_text(*t) for t in random_tokens(rng, rng.randint(1, 20))]
            pos = rng.randint(0, len(tokens))
            bad = rng.choice(("s3", "d", "s1^", "q2", "D1", "S1^x"))
            tokens.insert(pos, bad)
            with pytest.raises(BraidSyntaxError) as err:
                parse_braid(" ".join(tokens))
            assert err.value.position == pos
            assert str(err.value) == f"bad braid token {bad!r} (at token {pos})"

    @pytest.mark.parametrize(
        "text, fits",
        [
            ("s1^1000000", True),
            ("S2^1000001", False),
            ("s1^500000 S2^-500000", True),
            ("s1^500000 s1^500000 s2", False),
            ("D^333333 s1", True),
            ("D^333333 s1^2", False),
            (" ".join(["s1^250000"] * 4), True),
            (" ".join(["s1^250000"] * 5), False),
            (" ".join(["D^-1"] * 333333 + ["s2"]), True),
            (" ".join(["D^-1"] * 333334), False),
        ],
    )
    def test_letter_ceiling_at_the_limit(self, text, fits):
        # at the real ceiling, in one token and spread over repeated tokens
        assert braid.MAX_BRAID_LETTERS == 10**6
        if fits:
            assert len(parse_braid(text)) == 10**6
            return
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(text)
        assert err.value.position == len(text.split()) - 1
        assert str(err.value).startswith("more than 1000000 letters")

    def test_huge_exponent_refused_before_expanding(self):
        start = time.perf_counter()
        with pytest.raises(BraidSyntaxError):
            parse_braid("s1^1000000000000")
        with pytest.raises(BraidSyntaxError):
            parse_braid("D^400000")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("token", ["s1^", "S2^-", "D^", "D^-"])
    def test_exponent_past_int_digit_limit_is_a_syntax_error(self, token):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid("s2 " + token + "9" * (limit + 1))
        assert err.value.position == 1
        assert str(err.value) == f"exponent has more than {limit} digits (at token 1)"

    def test_delta_expands_to_three_letters(self):
        assert len(half_twist_word(1)) == 3
        assert evaluate(half_twist_word(1)) == HALF_TWIST


    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("s1^4 q2 s1^7", "bad braid token 'q2' (at token 1)"),
            ("s1^10 q2", "bad braid token 'q2' (at token 1)"),
            ("s1^4 s1^7 q2", "more than 10 letters (at token 1)"),
            ("s1^10 s2 q2 s2", "more than 10 letters (at token 1)"),
            ("q2 s1^11", "bad braid token 'q2' (at token 0)"),
            ("s1 s1 D^3 q2 s1 q2", "more than 10 letters (at token 2)"),
            ("s1 q2 D^3 q2", "bad braid token 'q2' (at token 1)"),
        ],
    )
    def test_bad_token_against_overflow(self, monkeypatch, text, refusal):
        # a bad token before the overflow raises at its own position; one
        # after it loses to the overflow
        monkeypatch.setattr(braid, "MAX_BRAID_LETTERS", 10)
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(text)
        assert str(err.value) == refusal

    def test_refusals_match_sizing_token_by_token(self, monkeypatch):
        monkeypatch.setattr(braid, "MAX_BRAID_LETTERS", 40)
        rng = random.Random(1309)
        seen = set()
        for _ in range(600):
            tokens = [token_text(*t) for t in random_tokens(rng, rng.randint(0, 30))]
            tokens = [t.replace("^-5", "^-15") for t in tokens]
            for _ in range(rng.randint(0, 2)):
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(("s3", "d", "D1", "S1^x")))
            refusal = reference_refusal(tokens, 40)
            seen.add(refusal and refusal[0])
            if refusal is None:
                assert len(parse_braid(" ".join(tokens))) <= 40
                continue
            with pytest.raises(BraidSyntaxError) as err:
                parse_braid(" ".join(tokens))
            assert err.value.position == refusal[1]
            assert str(err.value).startswith(
                "bad braid token" if refusal[0] == "bad" else "more than 40 letters"
            )
        assert seen == {None, "bad", "over"}

    def test_exponent_digit_limit_against_overflow(self, monkeypatch):
        monkeypatch.setattr(braid, "MAX_BRAID_LETTERS", 10)
        limit = sys.get_int_max_str_digits()
        huge = "s1^" + "9" * (limit + 1)
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(f"s1^10 {huge} s2")
        assert str(err.value) == f"exponent has more than {limit} digits (at token 1)"
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(f"s1^10 s2 {huge}")
        assert str(err.value) == "more than 10 letters (at token 1)"

    def test_sized_before_any_run_is_built(self):
        # each token fits on its own; built, the first two would take 16 MB
        text = " ".join(f"s1^{999000 + i}" for i in range(300))
        tracemalloc.start()
        try:
            with pytest.raises(BraidSyntaxError) as err:
                parse_braid(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "more than 1000000 letters (at token 1)"
        assert peak < 10 * 2**20


@pytest.fixture
def cold_tokens(monkeypatch):
    """An empty token cache of the same size for this test; the process's own
    comes back after."""
    monkeypatch.setattr(braid, "_decoded_run", fresh_cache(braid._decoded_run))


def fresh_cache(cached, maxsize=None):
    """A new, empty ``lru_cache`` of the function that ``cached`` wraps."""
    return lru_cache(maxsize=maxsize or cached.cache_info().maxsize)(cached.__wrapped__)


@pytest.mark.usefixtures("cold_tokens")
class TestTokenMemo:
    def test_cold_and_warm_parses_agree(self):
        rng = random.Random(1310)
        cases = [random_tokens(rng, rng.randint(0, 40)) for _ in range(200)]
        texts = [" ".join(token_text(*t) for t in tokens) for tokens in cases]
        cold = []
        for text in texts:
            braid._decoded_run.cache_clear()
            cold.append(parse_braid(text))
        warm = [parse_braid(text) for text in texts]
        again = [parse_braid(text) for text in texts]
        assert cold == warm == again == [BraidWord(per_token_letters(t)) for t in cases]
        # stored in maximal runs, so equal letters make equal words
        for word in again:
            assert all(exp for _, exp in word.runs)
            for (g, e), (h, f) in zip(word.runs, word.runs[1:]):
                assert g != h or (e > 0) != (f > 0), word

    def test_bad_token_raises_at_its_position_on_every_call(self):
        cases = [("s1 q2", 1), ("q2 s1 s2", 0), ("s1 s2 S1^3 D q2 q2", 4), ("s1 s1^x", 1)]
        for _ in range(2):
            for text, pos in cases:
                with pytest.raises(BraidSyntaxError) as err:
                    parse_braid(text)
                assert err.value.position == pos, text
        # the good tokens are kept, and only those
        info = braid._decoded_run.cache_info()
        assert info.currsize == 4
        parse_braid("s1 s2 S1^3 D")
        assert braid._decoded_run.cache_info()[:2] == (info.hits + 4, info.misses)

    def test_refusals_match_sizing_token_by_token_when_warm(self, monkeypatch):
        # each text cold, then again after every text has warmed the memo
        monkeypatch.setattr(braid, "MAX_BRAID_LETTERS", 40)
        rng = random.Random(1311)
        texts = []
        for _ in range(300):
            tokens = [token_text(*t) for t in random_tokens(rng, rng.randint(0, 30))]
            tokens = [t.replace("^-5", "^-15") for t in tokens]
            for _ in range(rng.randint(0, 2)):
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(("s3", "d", "D1", "S1^x")))
            texts.append(tokens)

        def refusal(tokens):
            try:
                return len(parse_braid(" ".join(tokens)))
            except BraidSyntaxError as err:
                return str(err)

        cold = []
        for tokens in texts:
            braid._decoded_run.cache_clear()
            cold.append(refusal(tokens))
        warm = [refusal(tokens) for tokens in texts]
        assert cold == warm
        for tokens, got in zip(texts, warm):
            expected = reference_refusal(tokens, 40)
            if expected is None:
                assert got <= 40
            else:
                assert got.endswith(f"(at token {expected[1]})")
        # no bad token is kept: each lookup of one misses
        misses = braid._decoded_run.cache_info().misses
        for token in ("s3", "d", "D1", "S1^x"):
            with pytest.raises(BraidSyntaxError):
                braid._decoded_run(token)
        assert braid._decoded_run.cache_info().misses == misses + 4

    def test_repeated_token_past_the_ceiling(self):
        for _ in range(2):
            with pytest.raises(BraidSyntaxError) as err:
                parse_braid("s1^600000 s1^600000")
            assert str(err.value) == "more than 1000000 letters (at token 1)"
        # kept as one run and its size: looked up once per call, decoded once
        assert braid._decoded_run.cache_info()[:2] == (1, 1)
        assert braid._decoded_run.cache_info().currsize == 1
        assert braid._decoded_run("s1^600000") == ((1, 600000), 600000)

    def test_stops_at_its_cap(self, monkeypatch):
        decoded = Counter()

        def counted(token, pos=-1):
            decoded[token] += 1
            return run(token, pos)

        run = braid._token_run
        monkeypatch.setattr(braid, "_token_run", counted)
        monkeypatch.setattr(braid, "_decoded_run", fresh_cache(braid._decoded_run, 8))
        specs = [("sS"[k % 2], 1 + k % 3 % 2, k) for k in range(1, 21)] + [("D", 0, -2)]
        tokens = [token_text(*spec) for spec in specs]
        text = " ".join(tokens * 3)
        expected = BraidWord(per_token_letters(specs * 3))
        # each distinct token once per call; read in turn, 21 of them evict
        # one another from a cache of 8 before they come round again
        assert parse_braid(text) == expected
        assert decoded == dict.fromkeys(tokens, 1)
        assert parse_braid(text) == expected
        assert decoded == dict.fromkeys(tokens, 2)
        # the 8 most recently used are kept
        info = braid._decoded_run.cache_info()
        assert info.currsize == 8
        assert parse_braid(" ".join(tokens[-8:])) == BraidWord(per_token_letters(specs[-8:]))
        assert braid._decoded_run.cache_info()[:2] == (info.hits + 8, info.misses)
        assert decoded == dict.fromkeys(tokens, 2)

    def test_real_cap_holds(self):
        cap = braid._decoded_run.cache_info().maxsize
        assert cap == MEMO_SIZE
        tokens = [f"s{1 + k % 2}^{k - cap}" for k in range(2 * cap + 50)]
        text = " ".join(tokens)
        first = parse_braid(text)
        assert braid._decoded_run.cache_info().currsize == cap
        assert parse_braid(text) == first
        assert len(first) == sum(abs(k - cap) for k in range(2 * cap + 50))
        assert braid._decoded_run.cache_info().currsize == cap

    def test_recently_used_tokens_are_hits(self):
        cap = braid._decoded_run.cache_info().maxsize
        tokens = [f"s{1 + k % 2}^{k + 1}" for k in range(cap + 50)]
        parse_braid(" ".join(tokens))
        info = braid._decoded_run.cache_info()
        assert info.misses == cap + 50
        parse_braid(" ".join(tokens[-50:]))
        assert braid._decoded_run.cache_info()[:2] == (info.hits + 50, info.misses)


class TestCosetAlgebra:
    def test_defining_relations(self):
        assert coset("s1 s2 s1") == coset("s2 s1 s2")
        assert coset("D^2").is_identity
        assert coset("s1 s2 s1 s2 s1 s2").is_identity

    def test_generator_images(self):
        assert coset("s1 s2 s1") == HALF_TWIST
        assert coset("s1^2 s2^2") == CosetElement((2, 0, 1, 0, 2))

    @given(braid_words)
    def test_inverse(self, b):
        x = evaluate(b)
        assert (x * x.inverse()) == IDENTITY
        assert evaluate(b.inverse()) == x.inverse()

    @given(braid_words, braid_words)
    def test_evaluate_is_homomorphism(self, a, b):
        assert evaluate(a * b) == evaluate(a) * evaluate(b)

    @given(braid_words)
    def test_canonical_letters(self, b):
        # alternation: no two adjacent letters from the same free factor
        ls = evaluate(b).letters
        for u, v in zip(ls, ls[1:]):
            assert (u == 0) != (v == 0)

    def test_product_matches_pushing_one_letter_at_a_time(self):
        rng = random.Random(1303)
        for _ in range(2000):
            x = random_canonical(rng, rng.randint(0, 12))
            y = random_canonical(rng, rng.randint(0, 12))
            assert x * y == push_one_at_a_time(x, y)
            # cancel a random suffix of x before y goes on
            cut = CosetElement(x.letters[rng.randint(0, len(x.letters)):]).inverse()
            z = cut * y
            assert x * z == push_one_at_a_time(x, z)

    def test_stored_in_runs(self):
        b = BraidWord(((1, 2), (1, 3), (2, -1), (2, 1)))
        assert b.runs == ((1, 5), (2, -1), (2, 1))
        assert b == BraidWord(((1, 1),) * 5 + ((2, -1), (2, 1)))
        x = CosetElement((0, 2, 0, 2, 0, 1, 0))
        assert (x.runs, x.lead, x.trail) == (((2, 2), (1, 1)), True, True)
        assert (HALF_TWIST.runs, HALF_TWIST.lead, HALF_TWIST.trail) == ((), True, False)
        for letters in ((0, 0), (1, 1), (1, 2), (0, 1, 0, 0), (1, 0, 0, 1), (3,), (0, 2, 2)):
            with pytest.raises(ValueError, match="not an alternating coset word"):
                CosetElement(letters)

    def test_product_full_cancellation_and_merges(self):
        rng = random.Random(1304)
        for size in range(12):
            x = random_canonical(rng, size)
            assert x * x.inverse() == IDENTITY == x.inverse() * x
        t, tt = CosetElement((1,)), CosetElement((2,))
        assert t * t == tt and tt * tt == t and t * tt == IDENTITY
        # two pairs cancel, then t^2 t^2 merges: (a t^2 a t)(t^2 a t^2 a) = a t a
        x = CosetElement((0, 2, 0, 1))
        y = CosetElement((2, 0, 2, 0))
        assert x * y == CosetElement((0, 1, 0)) == push_one_at_a_time(x, y)

    @pytest.mark.parametrize(
        "call, letter",
        [
            (lambda: evaluate(BraidWord(((3, 1),))), "(3, 1)"),
            (lambda: normal_form(BraidWord(((1, 0),))), "(1, 0)"),
            (lambda: embed_pure(FreeWord(((3, 2),))), "(3, 1)"),
        ],
        ids=["evaluate", "normal_form", "embed_pure"],
    )
    def test_malformed_letter_is_a_value_error(self, call, letter):
        # the text BraidWord.from_letters raises for the same letter
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"bad braid letter {letter}"

    def test_random_words_match_one_letter_walk(self):
        rng = random.Random(1310)
        letters = tuple(IMAGES)
        for n in range(14):
            for _ in range(200):
                word = tuple(rng.choice(letters) for _ in range(n))
                assert evaluate(BraidWord(word)) == reference_evaluate(word), word

    def test_every_short_word_matches_letter_walks(self):
        count = 0
        for n in range(7):
            for word in product(IMAGES, repeat=n):
                check_against_letter_walks(BraidWord(word), word)
                count += 1
        assert count == 5461

    def test_runs_cancel_across_junctions(self):
        # opposite runs cancel min(n, m) letters at once, then the junction
        # merges at most once with the run below
        rng = random.Random(1311)
        for k in [*range(1, 40), 100000]:
            for gen in (1, 2):
                for m in (k - 1, k, k + 1, 2 * k) if k < 40 else (k - 1, k + 1):
                    b = sigma_word(gen, k) * sigma_word(gen, -m)
                    assert evaluate(b) == reference_evaluate(b.letters), (gen, k, m)
                    b = sigma_word(gen, k) * sigma_word(3 - gen, m) * sigma_word(gen, -k)
                    assert evaluate(b) == reference_evaluate(b.letters), (gen, k, m)
            if k < 40:
                x = BraidWord(tuple(rng.choice(tuple(IMAGES)) for _ in range(k)))
                for b in (x * x.inverse(), x * x * x.inverse(), sigma_word(1, 1) * x * x.inverse()):
                    assert evaluate(b) == reference_evaluate(b.letters), b

    def test_seeded_texts_match_letter_walks(self):
        rng = random.Random(1314)
        cosets = []
        for i in range(300):
            text, letters = junction_text(rng, big=i % 50 == 0)
            cosets.append(check_against_letter_walks(parse_braid(text), letters))
        assert max(len(x.letters) for x in cosets) > 10**5
        # unembed of 1 to 4 factors against the letter walk over all of them
        pure = 0
        for _ in range(300):
            fs = [rng.choice(cosets) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                fs.append(reduce(push_one_at_a_time, fs, IDENTITY).inverse())
            else:
                fs.append(rng.choice(cosets).inverse())
            fs = fs[: rng.randint(1, 4)]
            w = unembed(*fs)
            assert w == reference_unembed(*fs), fs
            pure += w is not None
        assert 75 < pure < 260

    def test_sigma_powers_and_pure_words_match_letter_walk(self):
        exps = [*range(-30, 31), -100000, -99999, 99999, 100000]
        for gen in (1, 2):
            for exp in exps:
                letters = token_letters("s", gen, exp) if exp else ()
                assert sigma_power(gen, exp) == reference_evaluate(letters), (gen, exp)
        rng = random.Random(1315)
        for _ in range(300):
            gen, terms = rng.choice((1, 2)), []
            for _ in range(rng.randint(0, 8)):
                exp = rng.choice((rng.randint(1, 5), rng.randint(1, 500)))
                terms.append((gen, rng.choice((exp, -exp))))
                gen = 3 - gen
            w = FreeWord(tuple(terms))
            letters = tuple(chain.from_iterable(token_letters("s", g, 2 * e) for g, e in terms))
            assert embed_pure(w) == reference_evaluate(letters), w
            assert unembed(embed_pure(w)) == w

    def test_half_twists_among_sigma_runs(self):
        rng = random.Random(1312)
        for _ in range(400):
            parts = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.4:
                    parts.append(f"D^{rng.randint(-7, 7)}")
                else:
                    parts.append(f"{rng.choice('sS')}{rng.randint(1, 2)}^{rng.randint(-9, 9)}")
            b = parse_braid(" ".join(parts))
            assert evaluate(b) == reference_evaluate(b.letters), parts

    @pytest.mark.parametrize("head", range(9))
    def test_malformed_letter_inside_a_block(self, head):
        # the first bad letter is named, wherever it falls in the word
        word = ((1, 1),) * head + ((2, 0),) + ((1, -1), (3, 1)) + ((2, -1),) * 5
        with pytest.raises(ValueError) as raised:
            evaluate(BraidWord(word))
        assert str(raised.value) == "bad braid letter (2, 0)"

    def test_sigma_power_matches_iteration(self):
        for gen in (1, 2):
            for exp in range(-6, 7):
                assert sigma_power(gen, exp) == evaluate(sigma_word(gen, exp))

    def test_half_twist_conjugation_identities(self):
        assert coset("D s1") == coset("s2 D")
        assert coset("D s2") == coset("s1 D")
        assert coset("S1 S2^4 D^4 s1") == coset("s2^2 s1^2 s2^2 s1^2")
        assert coset("S2 S1^4 D^4 s2") == coset("s1^2 s2^2 s1^2 s2^2")


class TestSymmetricImage:
    @given(braid_words, braid_words)
    def test_homomorphism(self, a, b):
        pa, pb = s3_image(evaluate(a)), s3_image(evaluate(b))
        composed = tuple(pb[pa[i]] for i in range(3))
        assert s3_image(evaluate(a * b)) == composed

    def test_generator_images(self):
        assert s3_image(coset("s1")) == (1, 0, 2)
        assert s3_image(coset("s2")) == (0, 2, 1)
        assert s3_image(coset("s1^2")) == (0, 1, 2)

    def test_table_matches_composition_fold(self):
        rng = random.Random(1305)
        for _ in range(500):
            x = random_canonical(rng, rng.randint(0, 40))
            perm = PERM_ID
            for letter in x.letters:
                perm = braid._compose(perm, braid._PERM_LETTER[letter])
            assert s3_image(x) == perm


class TestPureEmbedding:
    @given(pure_words())
    def test_unembed_round_trip(self, w):
        assert unembed(embed_pure(w)) == w

    @given(braid_words)
    def test_unembed_none_iff_not_pure(self, b):
        x = evaluate(b)
        pure = s3_image(x) == (0, 1, 2)
        assert (unembed(x) is not None) == pure

    def test_generator_squares_embed(self):
        assert embed_pure(parse_word("a1")) == coset("s1^2")
        assert embed_pure(parse_word("a2")) == coset("s2^2")

    @given(pure_words(), pure_words())
    def test_embedding_is_homomorphism(self, u, v):
        assert embed_pure(u) * embed_pure(v) == embed_pure(u * v)

    def test_swap_generators(self):
        w = parse_word("a1^2 a2^-1")
        assert swap_generators(w) == parse_word("a2^2 a1^-1")

    def test_every_short_coset(self):
        words = list(canonical_words(20))
        assert len(words) == 7162
        for x in words:
            assert CosetElement(x.letters) == x and x.inverse().letters == tuple(
                (3 - l) % 3 for l in reversed(x.letters)
            )
            assert s3_image(x) == reference_s3_image(x.letters), x
            w = unembed(x)
            assert w == reference_unembed(x), x
            assert (w is None) == (s3_image(x) != PERM_ID), x
            if w is not None:
                assert embed_pure(w) == x, x
            form = normal_form(x)
            assert reference_evaluate(form_letters(form)) == x == remultiply(form), x

    def test_factors_walk_like_their_product(self):
        # rewriting is a homomorphism: walking the factors one after another
        # reads the pure word of their product, or None when it is not pure
        assert unembed() == FreeWord() == unembed(IDENTITY)
        rng = random.Random(1307)
        pure = 0
        for _ in range(3000):
            fs = [random_canonical(rng, rng.randint(0, 12)) for _ in range(rng.randint(0, 4))]
            if fs and rng.random() < 0.5:
                # close the list with the inverse of the rest, so the product is pure
                fs.append(reduce(push_one_at_a_time, fs, IDENTITY).inverse())
            w = unembed(reduce(push_one_at_a_time, fs, IDENTITY))
            assert unembed(*fs) == w, fs
            pure += w is not None
        assert 1000 < pure < 2500

    def test_unit_runs_spell_one_power_or_two_generators(self):
        # a run of n units t^e a spells n terms alternating between two; the
        # walk relies on these never being two terms of one generator
        for code in range(0, 18, 3):
            for e in (1, 2):
                after, first, second = braid._UNITS[code + e]
                assert braid._UNITS[after + e][0] == code
                assert (first is None) != (second is None) or first[0] != second[0]

    def test_spelling_table_from_its_definition(self):
        # T(p) a T(p a)^-1 for each representative T(p) of the transversal
        transversal = [CosetElement(rep) for rep in ((), (0,), (1,), (2,), (0, 1), (0, 2))]
        rep_of = {s3_image(r): r for r in transversal}
        assert len(rep_of) == 6
        spelled = 0
        for p, rep in rep_of.items():
            for letter in (0, 1, 2):
                step = rep * CosetElement((letter,))
                generator = step * rep_of[s3_image(step)].inverse()
                term = braid._PERM_SPELL[3 * braid._PERMS.index(p) + letter]
                if term is None:
                    assert generator.is_identity, (rep, letter)
                else:
                    spelled += 1
                    assert generator == embed_pure(FreeWord((term,))), (rep, letter)
        assert spelled == 4


class TestNormalForm:
    def test_power_of_delta(self):
        for text, ell in (("", 0), ("D", 1), ("D^2", 0), ("D^-1", 1)):
            form = normal_form(coset(text))
            assert form.kind == POWER_OF_DELTA
            assert form.ell == ell

    def test_square_pair_form(self):
        form = normal_form(coset("s1^2 s2^2"))
        assert (form.j, form.k, form.ell) == (1, 2, 0)
        assert form.b1 == parse_word("a2")

    def test_two_generator_example(self):
        form = normal_form(coset("s1 s2"))
        assert (form.j, form.k, form.ell) == (2, -1, 1)
        assert form.b1.is_identity

    @given(braid_words)
    @settings(max_examples=300)
    def test_round_trip_and_uniqueness(self, b):
        x = evaluate(b)
        forms = reference_normal_forms(x)
        assert forms == [normal_form(x)]
        assert remultiply(forms[0]) == x

    def test_matches_reference_on_all_short_words(self):
        letters = ((1, 1), (1, -1), (2, 1), (2, -1))
        for n in range(8):
            for combo in product(letters, repeat=n):
                x = evaluate(BraidWord(combo))
                assert reference_normal_forms(x) == [normal_form(x)], combo

    def test_one_unembed_per_call(self, monkeypatch):
        calls = []

        def counted(*factors):
            calls.append(factors)
            return unembed(*factors)

        monkeypatch.setattr(braid, "unembed", counted)
        rng = random.Random(11)
        texts = ["", "D", "s1", "S2", "s1^2 s2^2", "s1 s2", "S1^3 s2^4 D"]
        texts += [" ".join(rng.choice(("s1", "s2", "S1", "S2")) for _ in range(40))
                  for _ in range(20)]
        for text in texts:
            calls.clear()
            normal_form(coset(text))
            assert len(calls) == 1, text

    def test_stripped_factors(self):
        # sigma_j^-1, or nothing for the identity permutation, by _PERM_GEN
        assert braid._STRIPPED == (IDENTITY, sigma_power(1, -1), sigma_power(2, -1))
        for perm, j in braid._PERM_GEN.items():
            assert s3_image(braid._STRIPPED[j]) == perm

    def test_takes_no_coset_product(self, monkeypatch):
        # the half twist and the stripped sigma_j are walked as factors
        rng = random.Random(1308)
        letters = ((1, 1), (1, -1), (2, 1), (2, -1))
        xs = [evaluate(BraidWord(tuple(rng.choice(letters) for _ in range(rng.randint(1, 30)))))
              for _ in range(300)]
        forms = [normal_form(x) for x in xs]

        def refuse(self, other):
            raise AssertionError("coset product taken")

        monkeypatch.setattr(CosetElement, "__mul__", refuse)
        assert [normal_form(x) for x in xs] == forms
        assert any(f.ell == 1 and f.j != 0 and f.k % 2 for f in forms)

    def test_long_word_round_trip(self):
        # 20 000 letters, where a coset build that copies its stack per term is quadratic
        rng = random.Random(2020)
        letters = ((1, 1), (1, -1), (2, 1), (2, -1))
        x = evaluate(BraidWord(tuple(rng.choice(letters) for _ in range(20000))))
        form = normal_form(x)
        assert len(form.b1.terms) > 1000
        assert remultiply(form) == x

    @given(braid_words)
    def test_first_term_constraint(self, b):
        form = normal_form(evaluate(b))
        if form.kind == GENERAL and form.b1.terms:
            assert form.b1.terms[0][0] != form.j

    def test_even_toward_zero(self):
        assert even_toward_zero(2) == 2
        assert even_toward_zero(3) == 2
        assert even_toward_zero(-3) == -2
        assert even_toward_zero(1) == 0
        with pytest.raises(ValueError):
            even_toward_zero(0)


class TestPureProjection:
    def test_undefined_on_delta_powers(self):
        with pytest.raises(ValueError):
            pure_projection(normal_form(coset("D")))

    def test_square_pair_projection(self):
        assert pure_projection(normal_form(coset("s1^2 s2^2"))) == parse_word("a1 a2")

    @given(braid_words)
    def test_invariant_under_half_twist(self, b):
        x = evaluate(b)
        form = normal_form(x)
        if form.kind != GENERAL:
            return
        shifted = normal_form(x * HALF_TWIST)
        assert pure_projection(shifted) == pure_projection(form)

    @given(pure_words(), pure_words())
    def test_pure_subgroup_is_normal(self, w, v):
        # conjugating an embedded word by an embedded word stays embedded
        x = conjugate(embed_pure(v), embed_pure(w))
        assert unembed(x) == v * w * v.inverse()

    @given(pure_words())
    def test_half_twist_conjugation_swaps_generators(self, w):
        x = conjugate(HALF_TWIST, embed_pure(w))
        assert unembed(x) == swap_generators(w)


class TestConjugation:
    @given(braid_words, braid_words)
    def test_conjugate_is_action(self, a, b):
        g, x = evaluate(a), evaluate(b)
        assert conjugate(g, x) == g * x * g.inverse()
        assert conjugate(IDENTITY, x) == x
