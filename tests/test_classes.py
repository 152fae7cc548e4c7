"""Sign families, rotation orbits, lower-bound reports, conjugation search."""

import time
from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

from braidcount import classes, exactlog
from braidcount.braid import (
    CosetElement,
    conjugate,
    embed_pure,
    evaluate,
    parse_braid,
    unembed,
)
from braidcount.classes import (
    ENTROPY_VARIANT,
    ENUMERATION_LIMIT,
    LAMBDA_VARIANT,
    MAX_REPORT_INDEX,
    FamilyWord,
    class_count,
    class_count_by_enumeration,
    enumerate_family,
    is_alternating_form,
    lower_bound_report,
    orbit_of,
    rotation_conjugator,
    search_forbidden_conjugations,
)
from braidcount.oracle import brute_conjugator_search
from braidcount.words import parse_word


@st.composite
def family_words(draw, max_pairs=6):
    j = draw(st.integers(min_value=1, max_value=max_pairs))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(2 * j))
    return FamilyWord(signs)


class TestFamilyWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyWord((1,))
        with pytest.raises(ValueError):
            FamilyWord((1, 0))
        with pytest.raises(ValueError):
            FamilyWord(())

    def test_expand_example(self):
        w = FamilyWord((1, -1))
        assert w.expand() == parse_word("a1^2 a2^-2")
        w = FamilyWord((1, 1, -1, 1))
        assert w.expand() == parse_word("a1^2 a2^2 a1^-2 a2^2")

    @given(family_words())
    def test_expand_shape(self, w):
        terms = w.expand().terms
        assert len(terms) == 2 * w.pairs
        assert [g for g, _ in terms] == [1, 2] * w.pairs
        assert all(abs(e) == 2 for _, e in terms)

    @given(family_words())
    def test_rotation_order(self, w):
        n = 2 * w.pairs
        out = w
        for _ in range(n):
            out = out.rotate()
        assert out == w

    def test_family_sizes(self):
        assert len(enumerate_family(1)) == 4
        assert len(enumerate_family(2)) == 16
        assert len(set(enumerate_family(3))) == 64


class TestOrbits:
    @given(family_words())
    def test_orbit_contains_word_and_divides(self, w):
        orbit = orbit_of(w)
        assert w in orbit
        assert (2 * w.pairs) % len(orbit) == 0

    def test_orbit_partition(self):
        for j in (1, 2, 3):
            family = enumerate_family(j)
            seen = set()
            total = 0
            for w in family:
                if w in seen:
                    continue
                orbit = orbit_of(w)
                assert not (orbit & seen)
                seen |= orbit
                total += len(orbit)
            assert total == 4**j

    def test_spot_counts(self):
        assert class_count(1) == 3
        assert class_count(2) == 6

    def test_burnside_matches_enumeration(self):
        for j in range(1, 9):
            assert class_count(j) == class_count_by_enumeration(j)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            class_count_by_enumeration(ENUMERATION_LIMIT + 1)

    def test_burnside_formula_shape(self):
        # direct Burnside evaluation over rotation amounts
        for j in range(1, 12):
            n = 2 * j
            expected = sum(2 ** gcd(s, n) for s in range(n)) // n
            assert class_count(j) == expected

    @given(st.integers(min_value=1, max_value=30))
    def test_at_least_average_orbit_bound(self, j):
        assert 2 * j * class_count(j) >= 4**j


class TestRotationConjugator:
    @given(family_words(max_pairs=3))
    def test_realizes_rotation(self, w):
        g = rotation_conjugator(w)
        x = embed_pure(w.expand())
        y = embed_pure(w.rotate().expand())
        assert conjugate(g, x) == y


class TestConjugacyAgainstOracle:
    def test_conjugate_exactly_within_an_orbit(self):
        # index 1: some braid of at most 6 letters conjugates f to g exactly
        # when g lies in the rotation orbit of f
        family = enumerate_family(1)
        for f in family:
            x = embed_pure(f.expand())
            for g in family:
                found = brute_conjugator_search(x, embed_pure(g.expand()), 6)
                assert (found is not None) == (g in orbit_of(f)), (f, g)

    def test_every_rotation_step_has_a_short_conjugator(self):
        for w in enumerate_family(2):
            x, y = embed_pure(w.expand()), embed_pure(w.rotate().expand())
            g = brute_conjugator_search(x, y, 5)
            assert g is not None and conjugate(evaluate(g), x) == y, w


class TestReports:
    def test_lambda_anchor(self):
        rep = lower_bound_report("600*log(8)", LAMBDA_VARIANT)
        assert rep.variant == LAMBDA_VARIANT
        assert rep.index == 2
        assert rep.family_size == 4
        assert rep.class_count is None
        assert rep.satisfied
        assert rep.paper_bound == "2.00000000000"

    def test_entropy_anchor(self):
        rep = lower_bound_report("600*pi*log(8)", ENTROPY_VARIANT)
        assert rep.index == 2
        assert rep.family_size == 16
        assert rep.class_count == 6
        assert rep.satisfied

    def test_small_y_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_report("log(2)", LAMBDA_VARIANT)

    @pytest.mark.parametrize("y", ["1/0", sympy.log(-1)])
    def test_non_real_y_rejected(self, y):
        with pytest.raises(ValueError, match="not a real number"):
            lower_bound_report(y, LAMBDA_VARIANT)

    @pytest.mark.parametrize("variant, unit", [
        (LAMBDA_VARIANT, "300*log(8)"),
        (ENTROPY_VARIANT, "300*pi*log(8)"),
    ])
    def test_index_ceiling(self, variant, unit):
        rep = lower_bound_report(f"{MAX_REPORT_INDEX}*{unit}", variant)
        assert rep.index == MAX_REPORT_INDEX
        assert rep.satisfied
        # printable: Python refuses to convert an int of more than 4300 digits
        assert len(str(rep.family_size)) < 4300
        with pytest.raises(ValueError, match="index must lie in"):
            lower_bound_report(f"{MAX_REPORT_INDEX + 1}*{unit}", variant)

    @pytest.mark.parametrize("y", [
        "10**3000",
        "-10**1000",
        "exp(exp(exp(exp(10))))",
        "-exp(exp(exp(exp(10))))",
    ])
    def test_far_out_of_range_y_refused_quickly(self, y):
        # unchecked, flooring -10**1000 / (300 log 8) ran out of memory
        start = time.perf_counter()
        with pytest.raises(ValueError, match="out of range"):
            lower_bound_report(y, LAMBDA_VARIANT)
        assert time.perf_counter() - start < 1.0

    def test_weight_check_avoids_expanding_logs(self):
        # simplify would rewrite Y - 300*index*log(8) as one log of a power
        # of 10^6 digits, so the numeric sign test has to settle it first
        start = time.perf_counter()
        rep = lower_bound_report("10**6*log(9) - 10**6*log(8)", LAMBDA_VARIANT)
        assert rep.index == 188 and rep.satisfied
        assert time.perf_counter() - start < 5.0

    def test_node_y_is_named_by_its_text(self):
        rep = lower_bound_report(exactlog.parse("600*log(8)"), LAMBDA_VARIANT)
        assert rep.to_json()["Y"] == "600*log(8)"
        with pytest.raises(ValueError, match=r"^Y = 10\*\*9 is out of range"):
            lower_bound_report(exactlog.parse("10**9"), LAMBDA_VARIANT)

    def test_json_keys(self):
        rep = lower_bound_report("600*log(8)", LAMBDA_VARIANT)
        assert list(rep.to_json()) == [
            "variant",
            "Y",
            "index",
            "family_size",
            "class_count",
            "paper_bound",
            "satisfied",
        ]

    def test_larger_y_grows_family(self):
        small = lower_bound_report("600*log(8)", LAMBDA_VARIANT)
        large = lower_bound_report("2400*log(8)", LAMBDA_VARIANT)
        assert large.index > small.index
        assert large.family_size > small.family_size


class TestAlternatingForm:
    def test_positive(self):
        assert is_alternating_form(parse_word("a1^2 a2^-2"))
        assert is_alternating_form(parse_word("a1^2 a2^2 a1^2 a2^2"), min_terms=4)

    def test_negative(self):
        assert not is_alternating_form(parse_word("a1^2"))
        assert not is_alternating_form(parse_word("a1^2 a2^3"))
        assert not is_alternating_form(parse_word("a1 a2"))
        assert not is_alternating_form(
            parse_word("a1^2 a2^2"), min_terms=4
        )


class TestForbiddenSearch:
    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            search_forbidden_conjugations(1, 2)

    def test_empty_at_desk_scale(self):
        assert search_forbidden_conjugations(2, 2) == []

    def test_takes_no_coset_product(self, monkeypatch):
        # each conjugate is unembedded as three factors, never multiplied out
        def refuse(self, other):
            raise AssertionError("coset product taken")

        monkeypatch.setattr(CosetElement, "__mul__", refuse)
        assert search_forbidden_conjugations(2, 2) == []

    def test_every_hit_is_witnessed_by_its_reported_conjugator(self, monkeypatch):
        # accepting every pure conjugate forces hits; each reported spelling
        # must itself carry its source to its target
        monkeypatch.setattr(classes, "is_alternating_form", lambda w, min_terms=2: True)
        hits = search_forbidden_conjugations(2, 2)
        # pure braids form a normal subgroup, so each of the 32 sources and
        # 2 * 17 * 2 conjugators (17 pure words of degree <= 2) gives a hit
        assert len(hits) == 32 * 68
        for hit in hits:
            beta = evaluate(hit.conjugator)
            assert unembed(beta.inverse() * embed_pure(hit.source) * beta) == hit.target

    def test_positive_control(self):
        # the identities guarantee one conjugation landing in the family shape
        x = evaluate(parse_braid("S1^4 D^4"))
        beta = evaluate(parse_braid("s2"))
        z = unembed(beta.inverse() * x * beta)
        assert z == parse_word("a1 a2 a1 a2")
        x = evaluate(parse_braid("S2^4 D^4"))
        beta = evaluate(parse_braid("s1"))
        z = unembed(beta.inverse() * x * beta)
        assert z == parse_word("a2 a1 a2 a1")
