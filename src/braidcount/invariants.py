"""Two-sided conformal-invariant bounds from syllable decompositions.

For a reduced word with syllable degrees ``d_1, ..., d_m`` the lower
weight is ``sum log(3 d_k)`` and the upper weight is ``sum log(4 d_k)``.
Both are stored exactly as :class:`LogInteger`, the logarithm of the
integer product ``prod 3 d_k`` resp. ``prod 4 d_k``, so comparisons and
thresholds never touch floating point.

The bounds exposed here:

* extremal length of a braid with totally real horizontal boundary
  values lies in ``[lower_weight/(2 pi), 300 * upper_weight]``, and it
  vanishes exactly for (conjugates of) powers of a single generator
  times a half-twist power;
* the topological entropy of a conjugacy class, represented by a
  cyclically syllable reduced word with more than one syllable, lies in
  ``[lower_weight/4, 150 pi * upper_weight]``.

The entropy of a conjugacy class equals pi/2 times its extremal
length; :data:`ENTROPY_PER_EXTREMAL_LENGTH` records the conversion.

Decimal rendering of interval endpoints is rigorous and uses integer
arithmetic only.  :func:`log_bounds` encloses ``2^P log a`` between two
integers, by argument reduction with square roots and an ``atanh`` series
(Brent, "Fast multiple-precision evaluation of elementary functions",
J. ACM 23, 1976), with ``ln 2`` and ``pi`` summed once per precision by
integer series; the decimals take ``P = 160``, and the intervals of
:mod:`braidcount.interval` any ``P``.
Each endpoint is computed alone: the log end on its side times the
scale's rational and ``pi``'s end that keeps it there is an exact
fraction, which the printed 12-digit decimal rounds outward, floor on
lower endpoints and ceiling on upper ones.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction
from functools import cache, total_ordering
from math import isqrt

from . import braid, words
from ._record import Record

DISPLAY_DIGITS = 12
#: Fraction bits of the fixed-point logarithm :func:`log_bounds`: its ends lie
#: within ``2^-147 log a`` of the value, so 12 printed digits stay sharp.
LOG_BITS = 160
#: Fewest square roots taken before the ``atanh`` series of :func:`log_bounds`.
_ROOTS = 4


@total_ordering
class LogInteger(Record):
    """The exact value ``log(argument)`` for an integer argument >= 1."""

    __slots__ = ("argument",)

    def __init__(self, argument: int = 1):
        if argument < 1:
            raise ValueError("argument must be a positive integer")
        object.__setattr__(self, "argument", argument)

    def __mul__(self, count: int) -> "LogInteger":
        # scaling: n * log P = log(P**n)
        if count < 0:
            raise ValueError("count must be nonnegative")
        return LogInteger(self.argument**count)

    __rmul__ = __mul__

    def __add__(self, other: "LogInteger") -> "LogInteger":
        # value addition: log P + log Q = log(P*Q)
        return LogInteger(self.argument * other.argument)

    def __lt__(self, other: "LogInteger") -> bool:
        return self.argument < other.argument

    @property
    def is_zero(self) -> bool:
        return self.argument == 1

    def __str__(self) -> str:
        return f"log({self.argument})"


class Scale(Record):
    """An exact constant ``rational * pi**pi_power`` multiplying a log value."""

    __slots__ = ("rational", "pi_power")

    def __init__(self, rational: Fraction, pi_power: int = 0):
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "pi_power", pi_power)

    def __str__(self) -> str:
        body = str(self.rational)
        if self.pi_power == 0:
            return body
        pi = "pi" if self.pi_power in (1, -1) else f"pi^{abs(self.pi_power)}"
        return f"{body}*{pi}" if self.pi_power > 0 else f"{body}/{pi}"


EXTREMAL_LOWER_SCALE = Scale(Fraction(1, 2), -1)  # 1/(2 pi)
EXTREMAL_UPPER_SCALE = Scale(Fraction(300))
ENTROPY_LOWER_SCALE = Scale(Fraction(1, 4))
ENTROPY_UPPER_SCALE = Scale(Fraction(150), 1)  # 150 pi

#: Entropy of a conjugacy class per unit of its extremal length: pi/2.
ENTROPY_PER_EXTREMAL_LENGTH = Scale(Fraction(1, 2), 1)


def lower_weight(w: words.FreeWord) -> LogInteger:
    """``log prod(3 d_k)`` over the syllable degrees; identity gives log 1."""
    return LogInteger(math.prod(3 * d for d in words.syllable_degrees(w)))


def upper_weight(w: words.FreeWord) -> LogInteger:
    """``log prod(4 d_k)`` over the syllable degrees; identity gives log 1."""
    return LogInteger(math.prod(4 * d for d in words.syllable_degrees(w)))


class BoundInterval(Record):
    """A two-sided enclosure ``[lower_scale*log(P-), upper_scale*log(P+)]``.

    It pins the invariant to exactly zero when both log arguments are 1.
    """

    __slots__ = ("lower_log_arg", "upper_log_arg", "lower_scale", "upper_scale")

    def __init__(
        self,
        lower_log_arg: LogInteger,
        upper_log_arg: LogInteger,
        lower_scale: Scale,
        upper_scale: Scale,
    ):
        object.__setattr__(self, "lower_log_arg", lower_log_arg)
        object.__setattr__(self, "upper_log_arg", upper_log_arg)
        object.__setattr__(self, "lower_scale", lower_scale)
        object.__setattr__(self, "upper_scale", upper_scale)

    @property
    def exact_zero(self) -> bool:
        return self.lower_log_arg.is_zero and self.upper_log_arg.is_zero

    def lower_decimal(self) -> str:
        if self.lower_log_arg.is_zero:
            return "0"
        return scaled_log_decimal(self.lower_scale, self.lower_log_arg, "lower")

    def upper_decimal(self) -> str:
        if self.upper_log_arg.is_zero:
            return "0"
        return scaled_log_decimal(self.upper_scale, self.upper_log_arg, "upper")

    def to_json(self) -> dict:
        return {
            "exact_zero": self.exact_zero,
            # Decimal renders an int exactly and past the int-to-str digit limit
            "lower_log_arg": str(Decimal(self.lower_log_arg.argument)),
            "upper_log_arg": str(Decimal(self.upper_log_arg.argument)),
            "lower_value": self.lower_decimal(),
            "upper_value": self.upper_decimal(),
        }

    def __str__(self) -> str:
        if self.exact_zero:
            return "0 (exact)"
        return f"[{self.lower_decimal()}, {self.upper_decimal()}]"


def _zero_interval(lower_scale: Scale, upper_scale: Scale) -> BoundInterval:
    return BoundInterval(LogInteger(1), LogInteger(1), lower_scale, upper_scale)


def _weight_interval(
    degrees: tuple[int, ...], lower_scale: Scale, upper_scale: Scale
) -> BoundInterval:
    # lower_weight and upper_weight of one syllable pass: prod(c d_k) = c^n prod(d_k)
    product = math.prod(degrees)
    return BoundInterval(
        LogInteger(3 ** len(degrees) * product),
        LogInteger(4 ** len(degrees) * product),
        lower_scale,
        upper_scale,
    )


def extremal_length_bounds_word(w: words.FreeWord) -> BoundInterval:
    """Extremal-length enclosure for a reduced pure word.

    Exactly zero iff the word is the identity or a power of a single
    generator; otherwise ``[log(P-)/(2 pi), 300 log(P+)]``.
    """
    if w.num_terms <= 1:
        return _zero_interval(EXTREMAL_LOWER_SCALE, EXTREMAL_UPPER_SCALE)
    degrees = words.syllable_degrees(w)
    return _weight_interval(degrees, EXTREMAL_LOWER_SCALE, EXTREMAL_UPPER_SCALE)


def extremal_length_bounds_braid(
    b: braid.BraidWord | braid.CosetElement | braid.NormalForm,
) -> BoundInterval:
    """Extremal-length enclosure for any braid, via its normal form.

    Exactly zero iff the braid is ``sigma_j^k`` times a half-twist power;
    otherwise the word enclosure applied to the even-rounded projection.
    The projection may itself be a single generator power (for instance
    when the leading exponent rounds to zero) and still receive a
    positive lower bound, which is why this does not delegate the zero
    test to the word-level rule.
    """
    form = b if isinstance(b, braid.NormalForm) else braid.normal_form(b)
    if form.is_power_of_delta or form.b1.is_identity:
        return _zero_interval(EXTREMAL_LOWER_SCALE, EXTREMAL_UPPER_SCALE)
    degrees = words.syllable_degrees(braid.pure_projection(form))
    return _weight_interval(degrees, EXTREMAL_LOWER_SCALE, EXTREMAL_UPPER_SCALE)


def entropy_bounds(w: words.FreeWord) -> BoundInterval:
    """Entropy enclosure ``[log(P-)/4, 150 pi log(P+)]`` for a conjugacy class.

    Requires a cyclically syllable reduced representative with more than
    one syllable; anything else raises :class:`ValueError`.
    """
    if not words.is_cyclically_syllable_reduced(w):
        raise ValueError("word is not cyclically syllable reduced")
    degrees = words.syllable_degrees(w)
    if len(degrees) <= 1:
        raise ValueError("entropy bounds require more than one syllable")
    return _weight_interval(degrees, ENTROPY_LOWER_SCALE, ENTROPY_UPPER_SCALE)


# --- rigorous decimal rendering -------------------------------------------

_CONTEXTS = {
    "lower": Context(prec=DISPLAY_DIGITS, rounding=ROUND_FLOOR),
    "upper": Context(prec=DISPLAY_DIGITS, rounding=ROUND_CEILING),
}


def _directed_decimal(numerator: int, denominator: int, direction: str) -> str:
    return str(_CONTEXTS[direction].divide(Decimal(numerator), Decimal(denominator)))


@cache
def ln2_bounds(bits: int = LOG_BITS) -> tuple[int, int]:
    """Integers ``lo <= 2^bits * ln 2 <= hi``."""
    # P is bits and an ulp is 2^-P.  ln 2 = 2 atanh(1/3) =
    # 2 sum 3^-(2i+1) / (2i+1).  Each power floor(2^P / 3^(2i+1)) is exact,
    # as a floor divided by 9 and floored is the floor of the quotient;
    # flooring each term again leaves it less than 2 ulp short, and the tail
    # after the first zero power is below 9/8 ulp
    power, total, i = (1 << bits) // 3, 0, 0
    while power:
        total += power // (2 * i + 1)
        power //= 9
        i += 1
    return 2 * total, 2 * (total + 2 * i + 2)


@cache
def pi_bounds(bits: int = LOG_BITS) -> tuple[int, int]:
    """Integers ``lo <= 2^bits * pi <= hi``."""
    # pi = 2 sum t_k with t_0 = 1 and t_(k+1) = t_k (k+1) / (2k+3) (Euler):
    # positive terms, each at most half the one before.  Flooring each step
    # of t_k 2^P leaves it e_k ulp short with e_(k+1) < e_k / 2 + 1, so
    # e_k < 2, and the tail after the first zero term is below 4 ulp
    power, total, k = 1 << bits, 0, 0
    while power:
        total += power
        power = power * (k + 1) // (2 * k + 3)
        k += 1
    return 2 * total, 2 * (total + 2 * k + 4)


def log_bounds(a: int, bits: int = LOG_BITS) -> tuple[int, int]:
    """Integers ``lo <= 2^bits * ln(a) <= hi`` for an integer ``a >= 1``.

    Fixed-point integer arithmetic: the top bits of ``a``, square roots to
    bring them near 1, and an ``atanh`` series; at :data:`LOG_BITS`,
    ``hi - lo`` is below ``2^11 (1 + log2 a)``.
    """
    if a == 1:
        return 0, 0
    # P is bits, an ulp is 2^-P and r is the number of roots, which grows
    # like sqrt(P) so that the series stays short.  With k + 1 the bit
    # length of a, a = (m + rho) 2^(k - P) with 2^P <= m < 2^(P+1) and
    # 0 <= rho < 1, so ln a = k ln 2 + ln(z_0) + ln(1 + rho / m) with
    # z_0 = m / 2^P in [1, 2), and the last term lies in [0, 1 ulp)
    one, roots = 1 << bits, max(_ROOTS, isqrt(bits) // 4)
    k = a.bit_length() - 1
    z = a >> (k - bits) if k >= bits else a << (bits - k)
    # z_(j+1) = sqrt(z_j): each isqrt floors, and sqrt is 1/2-Lipschitz on
    # [1, oo), so the computed Z / 2^P lies in (z_r - 2 ulp, z_r]; ln is
    # 1-Lipschitz there, so ln(Z / 2^P) is less than 2 ulp short of
    # ln(z_r) = ln(z_0) / 2^r
    for _ in range(roots):
        z = isqrt(z << bits)
    # ln(Z / 2^P) = 2 atanh(t) with t = (Z - 2^P) / (Z + 2^P) < 1/3.  t
    # floored is less than 1 ulp short, and atanh(t) less than 2 ulp, as
    # atanh' <= 2 there.  The floored powers of t are e_j ulp short with
    # e_(j+1) < e_j / 4 + 3/2, so e_j < 2; each term floors once more and is
    # less than 3 ulp short, and the tail after the first zero power is
    # below 3 ulp.  So total is at most atanh(t) and less than 3i + 5 ulp
    # below it, over its i terms
    t = ((z - one) << bits) // (z + one)
    t2 = t * t >> bits
    total, power, i = 0, t, 0
    while power:
        total += power // (2 * i + 1)
        power = power * t2 >> bits
        i += 1
    # so ln(z_0) lies in [2^(r+1) total, 2^(r+1) (total + 3i + 6)) ulp, and
    # rho adds less than 1 ulp
    ln2_lo, ln2_hi = ln2_bounds(bits)
    return (
        k * ln2_lo + (total << (roots + 1)),
        k * ln2_hi + ((total + 3 * i + 6) << (roots + 1)) + 1,
    )


def _scaled_log_end(scale: Scale, argument: int, direction: str) -> tuple[int, int]:
    """``scale * log(argument)`` rounded toward ``direction``, as an exact
    fraction ``(numerator, denominator)``: below the value for ``"lower"`` and
    above it for ``"upper"``; needs a positive ``scale.rational``."""
    upper = direction == "upper"
    numerator = log_bounds(argument)[upper] * scale.rational.numerator
    denominator = scale.rational.denominator << LOG_BITS
    k = scale.pi_power
    if k:
        # a product takes pi's end on the value's side, a quotient the other
        pi = pi_bounds()[upper == (k > 0)] ** abs(k)
        if k > 0:
            numerator *= pi
            denominator <<= LOG_BITS * k
        else:
            numerator <<= LOG_BITS * -k
            denominator *= pi
    return numerator, denominator


def scaled_log_decimal(scale: Scale, log_arg: LogInteger, direction: str) -> str:
    """Render ``scale * log(argument)`` to 12 digits, rounded outward.

    ``direction`` is ``"lower"`` (round down) or ``"upper"`` (round up).
    Only that end is computed, from the end of :func:`log_bounds` on its
    side and ``pi``'s end that keeps it there, so the result is a true bound
    of the exact value in that direction.  The scale's rational must be
    positive.
    """
    if direction not in _CONTEXTS:
        raise ValueError("direction must be 'lower' or 'upper'")
    if scale.rational <= 0:
        raise ValueError("scale must be positive")
    return _directed_decimal(*_scaled_log_end(scale, log_arg.argument, direction), direction)
