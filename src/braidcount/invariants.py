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

Decimal rendering of interval endpoints is rigorous: evaluation uses
interval arithmetic at a fixed 128 bits and the printed 12-digit
decimals are rounded outward, floor on lower endpoints and ceiling on
upper ones.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction
from functools import total_ordering

from . import braid, words

DISPLAY_DIGITS = 12


@contextmanager
def interval_precision(bits: int = 128):
    """``mpmath.iv`` at ``bits``, restored on exit.

    The default serves the bound columns and analytic bounds: outward
    rounding makes every printed decimal a true bound, and 128 bits keep
    its 12 digits sharp.
    """
    import mpmath  # loaded on first use: bounds and certificates need it, parsing not

    old, mpmath.iv.prec = mpmath.iv.prec, bits
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.prec = old


@total_ordering
@dataclass(frozen=True)
class LogInteger:
    """The exact value ``log(argument)`` for an integer argument >= 1."""

    argument: int = 1

    def __post_init__(self):
        if self.argument < 1:
            raise ValueError("argument must be a positive integer")

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


@dataclass(frozen=True)
class Scale:
    """An exact constant ``rational * pi**pi_power`` multiplying a log value."""

    rational: Fraction
    pi_power: int = 0

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


@dataclass(frozen=True)
class BoundInterval:
    """A two-sided enclosure ``[lower_scale*log(P-), upper_scale*log(P+)]``.

    It pins the invariant to exactly zero when both log arguments are 1.
    """

    lower_log_arg: LogInteger
    upper_log_arg: LogInteger
    lower_scale: Scale
    upper_scale: Scale

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


def endpoint_fraction(value, direction: str) -> Fraction:
    """The lower or upper endpoint of an ``mpmath.iv`` interval, exactly."""
    # raw libmp tuple (sign, mantissa, exponent, bitcount): a binary rational
    sign, man, exp, _ = value._mpi_[0 if direction == "lower" else 1]
    out = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -out if sign else out


def directed_fraction_decimal(value: Fraction, direction: str) -> str:
    rounding = ROUND_FLOOR if direction == "lower" else ROUND_CEILING
    ctx = Context(prec=DISPLAY_DIGITS, rounding=rounding)
    return str(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)))


def scaled_log_decimal(scale: Scale, log_arg: LogInteger, direction: str) -> str:
    """Render ``scale * log(argument)`` to 12 digits, rounded outward.

    ``direction`` is ``"lower"`` (round down) or ``"upper"`` (round up);
    the result is a true bound of the exact value in that direction.
    """
    if direction not in ("lower", "upper"):
        raise ValueError("direction must be 'lower' or 'upper'")
    with interval_precision() as iv:
        value = iv.log(iv.mpf(log_arg.argument))
        value *= iv.mpf(scale.rational.numerator)
        value /= iv.mpf(scale.rational.denominator)
        if scale.pi_power:
            value *= iv.pi ** scale.pi_power
    return directed_fraction_decimal(endpoint_fraction(value, direction), direction)
