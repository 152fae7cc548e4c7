"""Each kernel of the integer intervals against mpmath far past its precision.

Every end must lie on its side of the value, which ``mpmath`` computes at
4000 bits more than the interval's precision, for seeded arguments with
negative, tiny and huge exponents at 64 to 16384 bits.  Where the value is
the whole image of an argument interval, every corner of it must lie
between the ends.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from braidcount import interval
from braidcount.interval import EXPONENT_BITS, Interval

PRECISIONS = [64, 113, 1024, 4096, 16384]
#: guard bits only sharpen the ends: with none, an end that a truncation
#: error puts on the wrong side shows at the last bit
GUARDS = [0, interval._GUARD]


def mp(end, up):
    """An end as an exact mpmath number; an infinite end as an infinity."""
    if end is None:
        return mpmath.inf if up else -mpmath.inf
    return mpmath.mpf(end)


def holds(x: Interval, *values) -> bool:
    low, high = mp(x.lo, False), mp(x.hi, True)
    return all(low <= v <= high for v in values)


def dyadic(rng: random.Random, prec: int, exponents: str):
    """A signed end of up to ``prec`` bits whose exponent is small, tiny or huge."""
    bits = rng.randint(1, prec)
    m = rng.getrandbits(bits) | 1 << (bits - 1)
    ranges = {"small": (-bits - 40, 40), "tiny": (-10**5, -10**4), "huge": (10**4, 10**5)}
    low, high = ranges[exponents]
    return (m if rng.random() < 0.5 else -m), rng.randint(low, high)


def point(end, prec):
    return Interval(end, end, prec)


def span(rng, prec, exponents):
    a, b = sorted((dyadic(rng, prec, exponents) for _ in range(2)), key=mpmath.mpf)
    return Interval(a, b, prec)


def corners(x: Interval):
    return [mpmath.mpf(x.lo), mpmath.mpf(x.hi)]


def work(prec):
    return mpmath.workprec(prec + 4000)


def cases(prec):
    # the reference is slow at high precision: 16 cases at 4096 bits, 4 at 16384
    return max(4, min(60, 2**16 // prec))


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("exponents", ["small", "tiny", "huge"])
def test_arithmetic_ends_hold_every_corner(prec, exponents):
    rng = random.Random(f"arith:{prec}:{exponents}")
    for _ in range(cases(prec)):
        x = span(rng, prec, exponents)
        y = span(rng, prec, rng.choice(["small", exponents]))
        with work(prec):
            xs, ys = corners(x), corners(y)
            assert holds(x + y, *(a + b for a in xs for b in ys))
            assert holds(x - y, *(a - b for a in xs for b in ys))
            assert holds(x * y, *(a * b for a in xs for b in ys))
            assert holds(-x, *(-a for a in xs))
            if y.signs()[0] == y.signs()[1]:  # y excludes 0
                assert holds(x / y, *(a / b for a in xs for b in ys))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_point_arithmetic_is_sharp(prec):
    rng = random.Random(f"sharp:{prec}")
    for _ in range(cases(prec)):
        a, b = dyadic(rng, prec, "small"), dyadic(rng, prec, "small")
        x, y = point(a, prec), point(b, prec)
        with work(prec):
            u, v = mpmath.mpf(a), mpmath.mpf(b)
            for got, value in ((x + y, u + v), (x * y, u * v), (x / y, u / v)):
                assert holds(got, value)
                width = mp(got.hi, True) - mp(got.lo, False)
                assert width <= abs(value) * mpmath.mpf(2) ** (3 - prec)


@pytest.mark.parametrize("guard", GUARDS)
@pytest.mark.parametrize("prec", PRECISIONS)
def test_numbers_and_constants(prec, guard, monkeypatch):
    monkeypatch.setattr(interval, "_GUARD", guard)
    rng = random.Random(f"const:{prec}")
    with work(prec):
        assert holds(interval.pi(prec), +mpmath.pi)
        assert holds(interval.exp(interval.number(1, prec)), mpmath.e)
        assert holds(interval.log(interval.number(2, prec)), mpmath.ln2)
        for _ in range(cases(prec)):
            q = Fraction(rng.randrange(-10**40, 10**40), rng.randrange(1, 10**30))
            got = interval.number(q, prec)
            assert holds(got, mpmath.mpf(q.numerator) / q.denominator)
    # an integer of at most prec bits is exact
    assert interval.number(2**prec - 1, prec).lo == interval.number(2**prec - 1, prec).hi


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("exponents", ["small", "tiny", "huge"])
def test_powers_hold_every_corner(prec, exponents):
    rng = random.Random(f"pow:{prec}:{exponents}")
    for _ in range(cases(prec) // 2):
        x = span(rng, prec, "small" if exponents == "huge" else exponents)
        n = rng.choice([0, 1, 2, 3, 7, 10, 31, 64])
        with work(prec):
            values = [a**n for a in corners(x)]
            if x.signs()[0] < 0 < x.signs()[1]:
                values.append(mpmath.mpf(0) ** n)
            assert holds(x**n, *values)


@pytest.mark.parametrize("guard", GUARDS)
@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("exponents", ["small", "tiny", "huge"])
def test_sqrt_and_log_hold_both_ends(prec, exponents, guard, monkeypatch):
    monkeypatch.setattr(interval, "_GUARD", guard)
    rng = random.Random(f"sqrtlog:{prec}:{exponents}")
    for _ in range(cases(prec) // 2):
        x = span(rng, prec, exponents)
        if x.signs()[1] < 0:
            x = -x
        elif x.signs()[0] <= 0:  # the point of the upper end
            x = point(x.hi, prec)
        with work(prec):
            ends = corners(x)
            assert holds(interval.sqrt(x), *(mpmath.sqrt(a) for a in ends))
            assert holds(interval.log(x), *(mpmath.log(a) for a in ends))
            if x.lo == x.hi and guard:
                got, value = interval.log(x), abs(mpmath.log(ends[0]))
                width = mp(got.hi, True) - mp(got.lo, False)
                assert width <= max(value, 1) * mpmath.mpf(2) ** (40 - prec)


@pytest.mark.parametrize("guard", GUARDS)
@pytest.mark.parametrize("prec", PRECISIONS)
def test_exp_holds_both_ends(prec, guard, monkeypatch):
    monkeypatch.setattr(interval, "_GUARD", guard)
    # arguments below 2^prec take the reduction by ln 2; those above it, up
    # to 2^(prec + 100), bound e^a by a power of two (up to 1024 bits, where
    # mpmath's reduction of them stays quick)
    rng = random.Random(f"exp:{prec}")
    for _ in range(cases(prec)):
        bits = rng.randint(1, prec)
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        m = m if rng.random() < 0.5 else -m
        far = rng.randint(0, 100) if prec <= 1024 else rng.randint(-bits, 0)
        e = rng.choice([rng.randint(-bits - 100, -bits), rng.randint(-bits - 20, 20 - bits), far])
        x = point((m, e), prec)
        with work(prec):
            value = mpmath.exp(mpmath.mpf((m, e)))
            got = interval.exp(x)
            assert holds(got, value)
            if e + bits <= prec and got.lo[0] and guard:
                # ln 2 is taken to 64 bits past prec, and k ln 2 has a
                # multiple k below 2^(e + bits + 1) of its error
                ratio = mp(got.hi, True) / mp(got.lo, False)
                two = mpmath.mpf(2)
                assert ratio - 1 <= two ** (8 - prec) + two ** (e + bits + 20 - prec - 64)


def test_exp_is_monotone_at_zero():
    # e^a >= 1 for a >= 0 and e^a <= 1 for a <= 0 hold at the rounded ends
    for prec in PRECISIONS:
        for e in (-prec - 1, -10**6):
            below = interval.exp(point((-1, e), prec))
            above = interval.exp(point((1, e), prec))
            assert mp(below.hi, True) <= 1 <= mp(above.lo, False)


def test_far_ends_read_as_zero_or_infinite():
    limit = 2**EXPONENT_BITS - 1
    huge = interval.exp(point((1, EXPONENT_BITS + 10), 64))
    assert huge.lo == (1, limit) and huge.hi is None
    tiny = interval.exp(point((-1, EXPONENT_BITS + 10), 64))
    assert tiny.lo == (0, 0) and tiny.hi == (1, -limit)
    # an exponent of fewer bits than the cap stays exact in its int
    within = interval.exp(point((-1, 2 * 10**6), 64))
    assert within.lo[0] > 0 and within.lo[1].bit_length() <= EXPONENT_BITS


def test_infinite_ends():
    x = Interval(None, (3, 0), 64)
    y = Interval((2, 0), (5, 0), 64)
    assert (x * y).lo is None and mp((x * y).hi, True) == 15
    assert (x + y).lo is None and mp((x + y).hi, True) == 8
    assert (-x).hi is None and (x - y).lo is None
    assert (Interval((0, 0), (0, 0), 64) * x).lo == (0, 0)
    assert interval.exp(x).lo == (0, 0)
    assert (y / Interval((1, 0), None, 64)).lo == (0, 0)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_floats_and_floor_hold_the_ends(prec):
    rng = random.Random(f"float:{prec}")
    for _ in range(cases(prec)):
        x = span(rng, prec, rng.choice(["small", "tiny", "huge"]))
        low, high = x.floats()
        with work(prec):
            assert mpmath.mpf(low) <= mpmath.mpf(x.lo) and mpmath.mpf(x.hi) <= mpmath.mpf(high)
            floors = {int(mpmath.floor(a)) for a in corners(x)}
        if x.floor() is not None:
            assert floors == {x.floor()}
    assert Interval((1, 5000), None, 64).floats() == (sys_max(), math.inf)


def sys_max():
    return math.nextafter(math.inf, 0)
