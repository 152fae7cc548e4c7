"""Bound intervals: weights, scales, rigorous decimal endpoints."""

import hashlib
import math
import os
import random
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from braidcount.braid import (
    HALF_TWIST,
    BraidWord,
    evaluate,
    normal_form,
    parse_braid,
    pure_projection,
)
from braidcount.invariants import (
    DISPLAY_DIGITS,
    ENTROPY_LOWER_SCALE,
    ENTROPY_PER_EXTREMAL_LENGTH,
    ENTROPY_UPPER_SCALE,
    EXTREMAL_LOWER_SCALE,
    EXTREMAL_UPPER_SCALE,
    LOG_BITS,
    BoundInterval,
    LogInteger,
    Scale,
    _directed_decimal,
    _scaled_log_end,
    entropy_bounds,
    extremal_length_bounds_braid,
    extremal_length_bounds_word,
    ln2_bounds,
    log_bounds,
    lower_weight,
    pi_bounds,
    scaled_log_decimal,
    upper_weight,
)
from braidcount.words import FreeWord, cyclic_reduce, parse_word, syllable_decompose

degree_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)

#: term lists with long unit runs; FreeWord.from_terms reduces them
term_lists = st.lists(
    st.tuples(st.sampled_from((1, 2)), st.sampled_from((-3, -2, -1, -1, 1, 1, 2, 3))),
    max_size=50,
)
braid_letters = st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1))), max_size=80)


class TestLogInteger:
    def test_ordering(self):
        assert LogInteger(1) < LogInteger(2) < LogInteger(10)
        assert LogInteger(1).is_zero
        assert not LogInteger(2).is_zero

    def test_multiplication_by_count(self):
        assert LogInteger(2) * 3 == LogInteger(8)

    def test_addition_multiplies_arguments(self):
        assert LogInteger(6) + LogInteger(4) == LogInteger(24)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LogInteger(0)


class TestWeights:
    @given(degree_lists)
    def test_weight_products(self, degrees):
        terms = []
        gen = 1
        for d in degrees:
            terms.append((gen, 2 * d))
            gen = 3 - gen
        w = parse_word(" ".join(f"a{g}^{e}" for g, e in terms))
        lo, hi = 1, 1
        for d in syllable_decompose(w).degrees():
            lo *= 3 * d
            hi *= 4 * d
        assert lower_weight(w) == LogInteger(lo)
        assert upper_weight(w) == LogInteger(hi)

    @given(term_lists)
    def test_weights_match_built_syllables(self, raw):
        w = FreeWord.from_terms(raw)
        degrees = syllable_decompose(w).degrees()
        assert lower_weight(w) == LogInteger(math.prod(3 * d for d in degrees))
        assert upper_weight(w) == LogInteger(math.prod(4 * d for d in degrees))

    @pytest.mark.parametrize("terms", [((3, 2),), ((1, 0),), ((1, 2), (0, -1))])
    @pytest.mark.parametrize("weight", [lower_weight, upper_weight])
    def test_malformed_word_is_a_value_error(self, weight, terms):
        with pytest.raises(ValueError):
            weight(FreeWord(terms))

    def test_scales(self):
        assert EXTREMAL_LOWER_SCALE == Scale(Fraction(1, 2), -1)
        assert EXTREMAL_UPPER_SCALE == Scale(Fraction(300), 0)
        assert ENTROPY_LOWER_SCALE == Scale(Fraction(1, 4), 0)
        assert ENTROPY_UPPER_SCALE == Scale(Fraction(150), 1)
        assert ENTROPY_PER_EXTREMAL_LENGTH == Scale(Fraction(1, 2), 1)


class TestLogArguments:
    """Every bound takes its log arguments from one syllable pass; they must
    equal the public ``lower_weight``/``upper_weight`` of the same word."""

    @staticmethod
    def random_word(rng: random.Random, terms: int):
        gen = rng.choice((1, 2))
        raw = []
        for _ in range(terms):
            raw.append((gen, rng.choice((-4, -3, -2, -1, -1, 1, 1, 2, 3, 4))))
            gen = 3 - gen
        return FreeWord(tuple(raw))

    def test_word_bounds(self):
        rng = random.Random(1306)
        for _ in range(300):
            w = self.random_word(rng, rng.randint(2, 60))
            iv = extremal_length_bounds_word(w)
            assert (iv.lower_log_arg, iv.upper_log_arg) == (lower_weight(w), upper_weight(w))

    def test_entropy_bounds(self):
        rng = random.Random(1307)
        checked = 0
        for _ in range(300):
            core, _ = cyclic_reduce(self.random_word(rng, rng.randint(2, 60)))
            try:
                iv = entropy_bounds(core)
            except ValueError:
                continue
            checked += 1
            assert (iv.lower_log_arg, iv.upper_log_arg) == (
                lower_weight(core), upper_weight(core)
            )
        assert checked > 100

    def test_braid_bounds(self):
        rng = random.Random(1308)
        for _ in range(300):
            size = rng.randint(0, 80)
            letters = [(rng.choice((1, 2)), rng.choice((1, -1))) for _ in range(size)]
            form = normal_form(BraidWord(tuple(letters)))
            iv = extremal_length_bounds_braid(form)
            if iv.exact_zero:
                continue
            w = pure_projection(form)
            assert (iv.lower_log_arg, iv.upper_log_arg) == (lower_weight(w), upper_weight(w))


    @given(term_lists)
    def test_word_bounds_random(self, raw):
        w = FreeWord.from_terms(raw)
        iv = extremal_length_bounds_word(w)
        if w.num_terms > 1:
            assert (iv.lower_log_arg, iv.upper_log_arg) == (lower_weight(w), upper_weight(w))

    @given(term_lists)
    def test_entropy_bounds_random(self, raw):
        core, _ = cyclic_reduce(FreeWord.from_terms(raw))
        try:
            iv = entropy_bounds(core)
        except ValueError:
            return
        assert (iv.lower_log_arg, iv.upper_log_arg) == (lower_weight(core), upper_weight(core))

    @given(braid_letters)
    def test_braid_bounds_random(self, letters):
        form = normal_form(BraidWord(tuple(letters)))
        iv = extremal_length_bounds_braid(form)
        if not iv.exact_zero:
            w = pure_projection(form)
            assert (iv.lower_log_arg, iv.upper_log_arg) == (lower_weight(w), upper_weight(w))


class TestWordBounds:
    def test_zero_iff_single_syllable_word(self):
        for text in ("", "a1", "a1^5", "a2^-3"):
            assert extremal_length_bounds_word(parse_word(text)).exact_zero

    def test_unit_pair_example(self):
        iv = extremal_length_bounds_word(parse_word("a1 a2"))
        assert not iv.exact_zero
        assert iv.lower_log_arg == LogInteger(6)
        assert iv.upper_log_arg == LogInteger(8)

    def test_two_syllable_example(self):
        iv = extremal_length_bounds_word(parse_word("a1^2 a2^2"))
        assert iv.lower_log_arg == LogInteger(36)
        assert iv.upper_log_arg == LogInteger(64)

    def test_opposite_signs_split(self):
        iv = extremal_length_bounds_word(parse_word("a1 a2^-1"))
        assert iv.lower_log_arg == LogInteger(9)
        assert iv.upper_log_arg == LogInteger(16)

    @given(degree_lists)
    def test_interval_is_ordered(self, degrees):
        terms = " ".join(
            f"a{1 + i % 2}^{2 * d}" for i, d in enumerate(degrees)
        )
        iv = extremal_length_bounds_word(parse_word(terms))
        if iv.exact_zero:
            return
        assert Decimal(iv.lower_decimal()) < Decimal(iv.upper_decimal())


class TestBraidBounds:
    def test_zero_cases(self):
        for text in ("", "D", "D^2", "s1^4", "s2^-2"):
            assert extremal_length_bounds_braid(evaluate(parse_braid(text))).exact_zero

    def test_matches_projected_word(self):
        x = evaluate(parse_braid("s1^2 s2^2"))
        got = extremal_length_bounds_braid(x)
        assert not got.exact_zero
        assert got.lower_log_arg == LogInteger(6)
        assert got.upper_log_arg == LogInteger(8)

    def test_accepts_multiple_input_types(self):
        b = parse_braid("s1^2 s2^2")
        x = evaluate(b)
        form = normal_form(x)
        assert (
            extremal_length_bounds_braid(b)
            == extremal_length_bounds_braid(x)
            == extremal_length_bounds_braid(form)
        )

    def test_invariant_under_half_twist(self):
        x = evaluate(parse_braid("s1^3 s2^-2 s1"))
        assert extremal_length_bounds_braid(x) == extremal_length_bounds_braid(
            x * HALF_TWIST
        )

    def test_single_power_with_nontrivial_tail_is_positive(self):
        # sigma_1 sigma_2^2 projects to a one-term word but has a tail,
        # so the interval comes from the normal-form weights directly
        x = evaluate(parse_braid("s1 s2^2"))
        assert not extremal_length_bounds_braid(x).exact_zero


class TestEntropy:
    def test_requires_syllable_reduced(self):
        with pytest.raises(ValueError):
            entropy_bounds(parse_word("a1 a2 a1^-1"))

    def test_requires_multiple_syllables(self):
        with pytest.raises(ValueError):
            entropy_bounds(parse_word("a1^4"))

    def test_example(self):
        ent = entropy_bounds(parse_word("a1^2 a2^2"))
        assert ent.lower_log_arg == LogInteger(36)
        assert ent.upper_log_arg == LogInteger(64)
        assert ent.lower_scale == ENTROPY_LOWER_SCALE
        assert ent.upper_scale == ENTROPY_UPPER_SCALE

    def test_scaling_against_extremal_length(self):
        # entropy lower endpoint = (pi/2) * extremal lower endpoint
        w = parse_word("a1^2 a2^2")
        ext = extremal_length_bounds_word(w)
        ent = entropy_bounds(w)
        ratio = (
            ENTROPY_PER_EXTREMAL_LENGTH.rational
            * ext.lower_scale.rational
            / ent.lower_scale.rational
        )
        assert ratio == 1
        assert (
            ENTROPY_PER_EXTREMAL_LENGTH.pi_power
            + ext.lower_scale.pi_power
            - ent.lower_scale.pi_power
            == 0
        )


class TestDecimals:
    def test_directed_rounding(self):
        third = Fraction(1, 3)
        lo = _directed_decimal(1, 3, "lower")
        hi = _directed_decimal(1, 3, "upper")
        assert Fraction(lo) < third < Fraction(hi)
        assert _directed_decimal(27, 2, "upper") == "13.5"

    @given(st.integers(min_value=2, max_value=10**6))
    def test_enclosure(self, arg):
        log_arg = LogInteger(arg)
        lo = Fraction(scaled_log_decimal(EXTREMAL_LOWER_SCALE, log_arg, "lower"))
        hi = Fraction(scaled_log_decimal(EXTREMAL_LOWER_SCALE, log_arg, "upper"))
        with mpmath.workprec(256):
            truth = mpmath.log(arg) / (2 * mpmath.pi)
            assert lo <= Fraction(mpmath.nstr(truth, 40)) <= hi
        assert (hi - lo) / hi < Fraction(1, 10**9)

    def test_interval_json_keys(self):
        iv = extremal_length_bounds_word(parse_word("a1 a2"))
        assert list(iv.to_json()) == [
            "exact_zero",
            "lower_log_arg",
            "upper_log_arg",
            "lower_value",
            "upper_value",
        ]

    def test_zero_interval_renders_zero(self):
        iv = extremal_length_bounds_word(parse_word("a1"))
        assert iv.lower_decimal() == "0"
        assert iv.upper_decimal() == "0"

    def test_json_log_args_past_int_str_limit(self):
        # 8**6000 has 5419 digits, past the default 4300-digit str(int) limit
        iv = extremal_length_bounds_word(parse_word(" ".join(["a1^2 a2^2"] * 3000)))
        row = iv.to_json()
        assert Decimal(row["upper_log_arg"]) == Decimal(8**6000)
        assert Decimal(row["lower_log_arg"]) == Decimal(6**6000)


# The interval decimal path, kept as the reference for the directed ends:
# both ends of an unwidened ``mpmath.iv`` enclosure at 128 bits, one kept
# as a fraction and divided out in a new context.


def _reference_scaled_log_decimal(scale: Scale, argument: int, direction: str) -> str:
    iv = mpmath.iv
    old, iv.prec = iv.prec, 128
    try:
        value = iv.log(iv.mpf(argument))
        value *= iv.mpf(scale.rational.numerator)
        value /= iv.mpf(scale.rational.denominator)
        if scale.pi_power:
            value *= iv.pi ** scale.pi_power
    finally:
        iv.prec = old
    end = _raw_fraction(value._mpi_[0 if direction == "lower" else 1])
    rounding = ROUND_FLOOR if direction == "lower" else ROUND_CEILING
    ctx = Context(prec=DISPLAY_DIGITS, rounding=rounding)
    return str(ctx.divide(Decimal(end.numerator), Decimal(end.denominator)))


def _raw_fraction(raw: tuple) -> Fraction:
    """A raw mpmath number (sign, mantissa, exponent, bit count), exactly."""
    sign, man, exp, _ = raw
    out = Fraction(man) * Fraction(2) ** exp
    return -out if sign else out


SCALES = (EXTREMAL_LOWER_SCALE, EXTREMAL_UPPER_SCALE, ENTROPY_LOWER_SCALE, ENTROPY_UPPER_SCALE)
#: seeded log arguments of up to 2300 digits, and those of the bound word
#: a1^2 a2^2 repeated 3000 times, past the int-to-str limit
_rng = random.Random(124)
LOG_ARGUMENTS = [_rng.randrange(2, 10 ** _rng.randint(1, 2300)) for _ in range(4000)]
LOG_ARGUMENTS += [8**6000, 6**6000]


class TestDirectedEnds:
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("scale", SCALES, ids=str)
    def test_decimals_match_the_interval_reference(self, scale, direction):
        for argument in LOG_ARGUMENTS:
            got = scaled_log_decimal(scale, LogInteger(argument), direction)
            assert got == _reference_scaled_log_decimal(scale, argument, direction), argument

    def test_end_lies_on_its_side_and_close_to_the_value(self):
        # each end lies beyond a 1000-bit value on its own side, within
        # 2^-120 of it, and the kernel's integer ends hold the 1000-bit log
        with mpmath.workprec(1000):
            logs = [_raw_fraction(mpmath.log(argument)._mpf_) for argument in LOG_ARGUMENTS]
            pi = _raw_fraction(mpmath.pi._mpf_)
        for argument, log in zip(LOG_ARGUMENTS, logs):
            lo, hi = log_bounds(argument)
            assert lo <= log * 2**LOG_BITS <= hi, argument
        for direction, side in (("lower", -1), ("upper", 1)):
            for scale in SCALES:
                value_factor = scale.rational * pi**scale.pi_power
                for argument, log in zip(LOG_ARGUMENTS, logs):
                    end = Fraction(*_scaled_log_end(scale, argument, direction))
                    value = log * value_factor
                    assert side * (end - value) > 0, (argument, scale, direction)
                    assert abs(end - value) < value / 2**120, (argument, scale, direction)

    def test_log_of_one_is_zero(self):
        for direction in ("lower", "upper"):
            assert scaled_log_decimal(EXTREMAL_LOWER_SCALE, LogInteger(1), direction) == "0"

    def test_rejects_a_nonpositive_scale(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            scaled_log_decimal(Scale(Fraction(-1)), LogInteger(3), "lower")


def _log_1000(argument: int) -> Fraction:
    """``2^LOG_BITS * ln(argument)`` to 1000 bits, exactly as a fraction."""
    with mpmath.workprec(1000):
        return _raw_fraction(mpmath.log(argument)._mpf_) * 2**LOG_BITS


#: edge cases of the kernel: the smallest arguments, powers of two and their
#: neighbours, where the reduction to the top bits is exact or just not, and
#: arguments of 10^4 bits
KERNEL_EDGES = [2, 3, 4, 5, 7, 8, 9, 1023, 1025]
KERNEL_EDGES += [2**k + d for k in (10, 63, 64, 159, 160, 161, 162, 1000) for d in (-1, 0, 1)]
KERNEL_EDGES += [2**10000 - 1, 2**10000 + 1, 3**6309, 10**3010 + 7]


class TestLogKernel:
    @pytest.mark.parametrize("argument", KERNEL_EDGES)
    def test_ends_hold_the_log_at_edge_arguments(self, argument):
        lo, hi = log_bounds(argument)
        assert lo <= _log_1000(argument) <= hi
        assert hi - lo < 2**11 * argument.bit_length()

    def test_ends_hold_the_log_at_seeded_arguments(self):
        rng = random.Random(2376)
        arguments = [rng.randrange(2, 2 ** rng.randint(2, 400)) for _ in range(1500)]
        arguments += [rng.randrange(2, 2 ** rng.randint(400, 15000)) for _ in range(100)]
        for argument in arguments:
            lo, hi = log_bounds(argument)
            assert lo <= _log_1000(argument) <= hi, argument
            assert hi - lo < 2**11 * argument.bit_length(), argument

    def test_log_of_one_is_exactly_zero(self):
        assert log_bounds(1) == (0, 0)

    def test_constants_hold_ln2_and_pi(self):
        (ln2_lo, ln2_hi), (pi_lo, pi_hi) = ln2_bounds(), pi_bounds()
        with mpmath.workprec(1000):
            ln2 = _raw_fraction(mpmath.ln2._mpf_) * 2**LOG_BITS
            pi = _raw_fraction(mpmath.pi._mpf_) * 2**LOG_BITS
        assert ln2_lo <= ln2 <= ln2_hi and ln2_hi - ln2_lo < 2**10
        assert pi_lo <= pi <= pi_hi and pi_hi - pi_lo < 2**10

    @pytest.mark.parametrize("bits", [64, 161, 1000, 4096, 16448])
    def test_ends_hold_the_log_at_other_precisions(self, bits):
        # the interval layer takes the kernel and its constants at any precision,
        # where the number of square roots grows like sqrt(bits)
        rng = random.Random(bits)
        arguments = [2, 3, 2**bits - 1, 2**bits + 1]
        arguments += [rng.randrange(2, 2 ** rng.randint(2, 2 * bits)) for _ in range(20)]
        with mpmath.workprec(bits + 4000):
            for argument in arguments:
                lo, hi = log_bounds(argument, bits)
                value = mpmath.log(argument) * mpmath.mpf(2) ** bits
                assert lo <= value <= hi and hi - lo < 2 ** (2 * bits.bit_length() + 20), argument
            for (lo, hi), value in ((ln2_bounds(bits), mpmath.ln2), (pi_bounds(bits), mpmath.pi)):
                assert lo <= value * mpmath.mpf(2) ** bits <= hi and hi - lo < 4 * bits

    def test_ends_at_log_bits_are_the_pinned_integers(self):
        # the printed digits of bounds, many_small and bench/expected.json rest
        # on these integers; the digest is that of the kernel before it took a
        # precision argument
        rng = random.Random(2028)
        arguments = [rng.randrange(2, 2 ** rng.randint(2, 12000)) for _ in range(300)]
        arguments += [2, 3, 2**160, 2**160 + 1, 6**6000, 8**6000]
        ends = [log_bounds(argument) for argument in arguments]
        digest = hashlib.sha256(repr((ends, ln2_bounds(), pi_bounds())).encode()).hexdigest()
        assert digest == "cd8b1efb738196d3602e35727aa2f11526fa2b2a8b10665bdfc73971b9f2cffa"
