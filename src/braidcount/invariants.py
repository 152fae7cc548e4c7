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

Decimal rendering of interval endpoints is rigorous.  Each endpoint is
computed alone, as one directed end at a fixed 128 bits: every step
rounds toward its side, and mpmath's ``log`` and ``pi`` are widened by a
relative ``2^-124``.  The printed 12-digit decimals are rounded outward,
floor on lower endpoints and ceiling on upper ones.
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
#: Working precision of the bound columns and analytic bounds: 128 bits keep
#: 12 printed digits sharp.
BITS = 128


@contextmanager
def interval_precision(bits: int = BITS):
    """``mpmath.iv`` at ``bits``, restored on exit.

    The default serves the analytic bounds: outward rounding makes every
    printed decimal a true bound, and :data:`BITS` keeps its 12 digits sharp.
    """
    import mpmath  # loaded on first use: bounds and certificates need it, parsing not

    old, mpmath.iv.prec = mpmath.iv.prec, bits
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.prec = old


def widening(bits: int) -> tuple[tuple, tuple]:
    """The raw mpmath numbers ``1 - 2^-bits`` and ``1 + 2^-bits``.

    mpmath rounds ``exp``, ``log`` and ``pi`` once from a few guard bits, so
    an end can miss the value (both ends of e^2101 at 256 bits); an end at
    ``prec`` bits times the factor on its side, with ``bits = prec - 4``,
    holds it.
    """
    return (0, (1 << bits) - 1, -bits, bits), (0, (1 << bits) + 1, -bits, bits + 1)


def outward(y):
    """An ``mpmath.iv`` interval widened by the :func:`widening` of its context."""
    from mpmath.libmp import mpi_mul

    k = y.ctx.prec - 4
    return y.ctx.make_mpf(mpi_mul(y._mpi_, widening(k), k + 4))


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

_CONTEXTS = {
    "lower": Context(prec=DISPLAY_DIGITS, rounding=ROUND_FLOOR),
    "upper": Context(prec=DISPLAY_DIGITS, rounding=ROUND_CEILING),
}


def endpoint_fraction(value, direction: str) -> Fraction:
    """The lower or upper endpoint of an ``mpmath.iv`` interval, exactly."""
    # raw libmp tuple (sign, mantissa, exponent, bitcount): a binary rational
    sign, man, exp, _ = value._mpi_[0 if direction == "lower" else 1]
    out = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -out if sign else out


def _directed_decimal(numerator: int, denominator: int, direction: str) -> str:
    return str(_CONTEXTS[direction].divide(Decimal(numerator), Decimal(denominator)))


def directed_fraction_decimal(value: Fraction, direction: str) -> str:
    return _directed_decimal(value.numerator, value.denominator, direction)


def _scaled_log_end(scale: Scale, argument: int, direction: str) -> tuple:
    """``scale * log(argument)`` rounded toward ``direction``: a raw mpmath
    number at :data:`BITS` bits, below the value for ``"lower"`` and above it
    for ``"upper"``; needs a positive ``scale.rational``."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_mul, mpf_pi, round_ceiling, round_floor

    upper = direction == "upper"
    rnd = round_ceiling if upper else round_floor
    widen = widening(BITS - 4)
    # the argument rounded first: its exact mantissa would make log slower
    value = mpf_log(from_int(argument, BITS, rnd), BITS, rnd)
    value = mpf_mul(value, widen[upper], BITS, rnd)
    value = mpf_mul(value, from_int(scale.rational.numerator), BITS, rnd)
    value = mpf_div(value, from_int(scale.rational.denominator), BITS, rnd)
    if scale.pi_power:
        # a product takes pi's end on the value's side, a quotient the other
        pi_upper = upper == (scale.pi_power > 0)
        pi_rnd = round_ceiling if pi_upper else round_floor
        pi = mpf_mul(mpf_pi(BITS, pi_rnd), widen[pi_upper], BITS, pi_rnd)
        step = mpf_mul if scale.pi_power > 0 else mpf_div
        for _ in range(abs(scale.pi_power)):
            value = step(value, pi, BITS, rnd)
    return value


def scaled_log_decimal(scale: Scale, log_arg: LogInteger, direction: str) -> str:
    """Render ``scale * log(argument)`` to 12 digits, rounded outward.

    ``direction`` is ``"lower"`` (round down) or ``"upper"`` (round up).
    Only that end is computed, from one directed ``log`` widened by
    :func:`widening`, so the result is a true bound of the exact value in
    that direction.  The scale's rational must be positive.
    """
    if direction not in _CONTEXTS:
        raise ValueError("direction must be 'lower' or 'upper'")
    if scale.rational <= 0:
        raise ValueError("scale must be positive")
    _, man, exp, _ = _scaled_log_end(scale, log_arg.argument, direction)  # >= 0
    if exp >= 0:
        return _directed_decimal(man << exp, 1, direction)
    return _directed_decimal(man, 1 << -exp, direction)
