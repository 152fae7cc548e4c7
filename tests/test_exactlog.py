"""Certified signs, floors and decimals of Y expressions, without sympy."""

import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from braidcount import exactlog, interval
from braidcount.exactlog import bounds, ceil_decimal, floor, floor_exp, parse, sign

#: exactly 0, but the exponent of exp(exp(exp(20))) passes the cap of
#: interval.EXPONENT_BITS bits, so the enclosure of LOOSE is the whole line
LOOSE = "exp(exp(exp(20))) - exp(exp(exp(20)))"


class TestExactForms:
    def test_perfect_root(self):
        for n, root in [
            (2, 2), (4, 2), (8, 2), (36, 6), (3**1000, 3), (10**100, 10),
            (2**9 * 3**9, 6), (65537**2, 65537), ((2**31 - 1) ** 31, 2**31 - 1),
            (2**61 - 1, 2**61 - 1), (7**3000 * 11 + 1, 7**3000 * 11 + 1),
        ]:
            assert exactlog._perfect_root(n) == root

    def test_coprime_base_factors_every_input(self):
        # coprime, not prime: 143 = 11 * 13 shares no factor with the rest
        numbers = [12, 18, 8, 10**6, 2**10 * 7, 49, 1001]
        base = exactlog._coprime_base(numbers)
        assert base == [2, 3, 5, 7, 143]
        base = exactlog._coprime_base([6, 10**100 + 267])
        assert base == [6, 10**100 + 267]

    @pytest.mark.parametrize("left, right", [
        ("log(8)", "3*log(2)"),
        ("log(12) - log(3)", "2*log(2)"),
        ("600*pi*log(8)/(900*pi)", "2*log(2)"),
        ("sqrt(E)", "exp(1/2)"),
        ("sqrt(12)", "2*sqrt(3)"),
        ("8**(1/3)", "2"),
        ("exp(2*log(3))", "9"),
        ("log(sqrt(8))", "3*log(2)/2"),
        ("8**(log(3)/log(2))", "27"),
        ("(pi*log(4))**2", "4*pi**2*log(2)**2"),
        ("1/(log(6) - log(3))", "1/log(2)"),
        ("sqrt(((log(34) + log(6))**3)**(2/3))", "log(204)"),
        ("-2**2 + 1/2", "-7/2"),
        (" sqrt(E) - exp(1/2) ", "0"),
        ("0.5", "1/2"),
        ("2**-1", "1/2"),
        ("(2*pi)**3", "8*pi**3"),
        ("600*pi*log(8)", "1800*pi*log(2)"),
    ])
    def test_equal_values_have_equal_forms(self, left, right):
        assert sign(parse(f"({left}) - ({right})")) == 0

    def test_float_literal_is_its_decimal_rational(self):
        # sympy's 53-bit Float put 2.5*4 just below 10
        assert floor_exp(parse("log(2.5*4)")) == 10
        assert floor(parse("0.1*30")) == 3
        assert exactlog.from_value(0.1).args[0] == Fraction(1, 10)


class TestCertificates:
    def test_sign(self):
        assert sign(parse("pi - 22/7")) == -1
        assert sign(parse("E - 2")) == 1
        assert sign(parse("log(1)")) == 0

    def test_floor_of_exact_integer(self):
        assert floor(parse("600*log(8)/(300*log(8))")) == 2
        assert floor(parse("-600*log(8)/(300*log(8))")) == -2
        assert floor(parse("(600*log(8) - 1/10**40)/(300*log(8))")) == 1

    def test_floor_exp_near_an_integer(self):
        # e^Y is 27 minus about 27/10^30; the exact form alone cannot say
        assert floor_exp(parse("log(27) - 1/10**30")) == 26
        assert floor_exp(parse("log(27) + 1/10**30")) == 27

    def test_ceil_decimal_shows_every_digit(self):
        assert ceil_decimal(parse("exp(600*log(8)/900)/2"), 12) == "2.00000000000"
        assert ceil_decimal(parse("pi"), 12) == "3.14159265359"
        assert ceil_decimal(parse("-pi"), 12) == "-3.14159265358"
        assert ceil_decimal(parse("10**13"), 12) == "1.00000000000E+13"

    @pytest.mark.parametrize("text", [
        "log(-1)", "1/0", "sqrt(-2)", "log(0)", "0**-1", "(-8)**(1/3)",
        "(-2)**pi", "log(log(1))", "1/(sqrt(E) - exp(1/2))",
    ])
    def test_not_real(self, text):
        with pytest.raises(ValueError, match="not a real number"):
            sign(parse(text))

    def test_real_powers_of_negative_numbers(self):
        assert floor(parse("(-2)**3")) == -8
        assert floor(parse("(-2)**(log(4)/log(2))")) == 4

    def test_beyond_range_estimates_inf(self):
        assert bounds(parse("exp(exp(exp(exp(10))))")) == (sys.float_info.max, math.inf)
        assert bounds(parse("-exp(exp(exp(exp(10))))")) == (-math.inf, -sys.float_info.max)
        low, high = bounds(parse("exp(-10**7)"))
        assert low <= 0 < high < 1e-300
        assert sign(parse("exp(-10**7)")) == 1

    @pytest.mark.parametrize("text, value", [(LOOSE + " + 10", 10), (LOOSE + " - 10", -10)])
    def test_loose_enclosure_of_an_exact_rational(self, text, value):
        # the enclosure of Y is unbounded although Y is the integer value:
        # bounds stay sound, and the certificates enclose the rational exact
        # form instead
        low, high = bounds(parse(text))
        assert low <= value <= high and high - low > 10**6
        assert sign(parse(text)) == (1 if value > 0 else -1)
        assert floor(parse(text)) == value
        assert floor_exp(parse(text)) == math.floor(math.exp(value))

    def test_loose_enclosure_hits_the_exponent_cap(self):
        # e^(e^(e^20)) has an exponent of about 7*10^8 bits: the upper end reads
        # as +inf, the lower end as the largest finite power of two
        x = exactlog._enclose(parse("exp(exp(exp(20)))"), 64)
        assert x.hi is None and x.lo[0] == 1
        assert x.lo[1] == 2**interval.EXPONENT_BITS - 1

    @pytest.mark.parametrize("text, value_floor, exp_floor", [
        ("exp(-E**40)", 0, 1),  # an enclosure end near 2^(-3.4*10^17)
        ("-exp(-E**40)", -1, None),  # e^Y just below 1 cannot be separated
        ("2 + 7*exp(-E**7000)", 2, 7),
    ])
    def test_floors_of_far_tiny_values_are_quick(self, text, value_floor, exp_floor):
        # floors are read off the enclosure, never off an exact fraction of it
        start = time.perf_counter()
        assert floor(parse(text)) == value_floor
        if exp_floor is not None:
            assert floor_exp(parse(text)) == exp_floor
        assert time.perf_counter() - start < 1.0

    def test_exp_of_a_tiny_negative_value_stays_at_most_one(self):
        # e^a <= 1 for a <= 0, as e^a >= 1 for a >= 0, survives the rounding
        # of the exp enclosure, which would put its upper end above 1
        assert ceil_decimal(parse("exp(-exp(-E**40))"), 12) == "1.00000000000"

    def test_tiny_value_of_an_exponent_of_a_million_bits_is_positive(self):
        # -E**800000 has about 1.15*10^6 bits, so e^a has an exponent of as
        # many bits, within the cap: e^a keeps a positive lower end
        start = time.perf_counter()
        assert sign(parse("exp(-E**(800000))")) == 1
        assert floor_exp(parse("exp(-E**(800000))")) == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", [
        "exp(-2**21)", "exp(-2**21 - 1/2)", "exp(-(3*2**40 + 7))", "exp(-E**(2**18))",
    ])
    def test_exp_of_a_far_negative_value_is_positive(self, text):
        start = time.perf_counter()
        assert sign(parse(text)) == 1
        assert floor(parse(text)) == 0 and floor_exp(parse(text)) == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", ["E**(2**40)", "pi**(10**100)", "exp(exp(exp(exp(10))))"])
    def test_floor_of_a_far_huge_value_is_refused_quickly(self, text):
        # an end past 2^(2^15) never becomes an int: its floor is not built
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot certify"):
            floor(parse(text))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("text", ["exp(-E**40)", "-exp(-E**40)", "E**(2**40)"])
    def test_ceil_decimal_of_a_far_end_is_refused_quickly(self, text):
        # an end near 2^(-3.4*10^17) or 2^(1.6*10^12) never becomes a fraction
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot certify"):
            ceil_decimal(parse(text), 12)
        assert time.perf_counter() - start < 1.0

    def test_exp_2101_is_certified(self):
        # at 256 bits mpmath's interval exp gives both ends of e^2101 as one
        # number below the value, so its floor looked certified and was wrong
        old, mpmath.iv.prec = mpmath.iv.prec, 256
        try:
            raw = mpmath.iv.exp(2101)
        finally:
            mpmath.iv.prec = old
        x = interval.exp(interval.number(2101, 256))
        with mpmath.workprec(4000):
            value = mpmath.exp(2101)
            assert mpmath.mpf(raw.b) < value
            assert mpmath.mpf(x.lo) < value < mpmath.mpf(x.hi)
            expected = int(mpmath.floor(value))
        assert floor(parse("exp(2101)")) == floor_exp(parse("2101")) == expected

    def test_floor_exp_past_the_precision_ceiling_is_refused(self):
        # e^30000 has 43281 bits, more than a certificate's precision reaches
        with pytest.raises(ValueError, match="cannot certify Y = 30000 within 32768 bits"):
            floor_exp(parse("30000"))

    def test_unsettled_tie_is_refused_quickly(self):
        # (1 + pi)^2 stays one opaque atom, so log(4) in disguise never settles
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot certify"):
            floor_exp(parse("log((1 + pi)**2 - pi**2 - 2*pi + 3)"))
        assert time.perf_counter() - start < 2.0


class TestValues:
    def test_sympy_objects_go_through_the_grammar(self):
        assert floor_exp(exactlog.from_value(sympy.log(27))) == 27
        assert floor_exp(exactlog.from_value(3 * sympy.log(3))) == 27
        with pytest.raises(ValueError, match="not a real number"):
            exactlog.from_value(sympy.log(-1))
        with pytest.raises(ValueError, match="cannot parse"):
            exactlog.from_value(sympy.Symbol("x"))

    def test_a_node_reads_as_its_source(self):
        assert str(parse("600*log(8)")) == "600*log(8)"
        assert str(exactlog.from_value(Fraction(1, 3))) == "1/3"
        assert str(parse("log(8)") * 600) == "the expression"

    def test_non_finite_float(self):
        for y in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not a real number"):
                exactlog.from_value(y)

    @pytest.mark.parametrize("text", ["1e-5000", "2**(1/2)**(10**6)", "10**10**10"])
    def test_refused_when_parsed(self, text):
        with pytest.raises(ValueError):
            parse(text)


#: exactly 10: e^(-e^(e^20)) lies below every interval end, so the enclosure
#: of its logarithm touches zero, while the exact form reads log(e^u) as u
FAR_LOG = "log(exp(-exp(exp(20)))) + exp(exp(20)) + 10"
#: log(a) - log(a) with a = e^(-e^(e^21)) - e^(-e^(e^20)) < 0: not a real
#: number, though the exact forms of the two logarithms cancel
NEGATIVE_LOG = "log({a}) - log({a})".format(a="exp(-exp(exp(21))) - exp(-exp(exp(20)))")
#: exactly 0, though its exact form is not empty: the square of a sum of
#: atoms stays an opaque atom, so no divisor can be proven nonzero by it
ZERO = "((1+pi)**2 - pi**2 - 2*pi - 1)"


class TestLogOfAFarExp:
    @pytest.mark.parametrize("text", [
        FAR_LOG,
        "2*log(sqrt(exp(-exp(exp(20))))) + exp(exp(20)) + 10",  # log((e^u)^(1/2))
        "log(exp(-exp(exp(20)))**3) + 3*exp(exp(20)) + 10",
    ])
    def test_bounds_and_floor_exp(self, text):
        start = time.perf_counter()
        low, high = bounds(parse(text))
        assert low <= 10 <= high and high - low < 1e-9
        assert floor_exp(parse(text)) == math.floor(math.exp(10)) == 22026
        assert time.perf_counter() - start < 0.5

    def test_count_words(self, capsys):
        from braidcount.cli import main

        assert main(["count", "words", "--Y", FAR_LOG]) == 0
        by_y = capsys.readouterr().out
        assert main(["count", "words", "--X", "22026"]) == 0
        assert by_y == capsys.readouterr().out

    def test_logarithm_of_a_negative_far_difference_is_not_certified(self):
        # only an argument whose exact form is a positive sum is known positive
        with pytest.raises(ValueError, match="cannot certify"):
            bounds(parse(NEGATIVE_LOG))

    @pytest.mark.parametrize("text", [
        f"0/{ZERO}", f"1/{ZERO} - 1/{ZERO}", f"{ZERO}**-1 - {ZERO}**-1",
        f"3 + 1/{ZERO} - 1/{ZERO}",
    ])
    def test_division_by_an_unproven_nonzero_is_not_certified(self, text):
        # a divisor is known nonzero only where its exact form's terms are
        # all positive or all negative
        for certify in (bounds, sign, floor, floor_exp):
            with pytest.raises(ValueError, match="cannot certify"):
                certify(parse(text))

    def test_count_words_refuses_an_undefined_y(self, capsys):
        from braidcount.cli import main

        assert main(["count", "words", "--Y", f"3 + 1/{ZERO} - 1/{ZERO}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot certify" in captured.err
