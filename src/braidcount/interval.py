"""Outward-rounded intervals with integer ends.

An :class:`Interval` holds a lower and an upper end at a precision of
``prec`` bits.  An end is an exact binary number ``(m, e)``, the value
``m * 2^e`` with integers ``m`` and ``e``, or ``None``: -inf as a lower end
and +inf as an upper one.  Every operation computes each end exactly, or
bounds it by integer arithmetic whose truncation errors are stated beside the
code, and rounds it away from the value to at most ``prec`` bits of ``m``.
An end whose exponent ``e`` would pass :data:`EXPONENT_BITS` bits reads as 0
or an infinity on its outward side and as ``2^(+-(2^EXPONENT_BITS - 1))`` on
its inward side, so no end holds an unbounded int.

``log`` is :func:`invariants.log_bounds` at ``prec`` plus guard bits, ``ln 2``
and ``pi`` are its integer series, and ``exp`` reduces ``x = k ln 2 + r`` with
``r >= 0``, sums the Taylor series of ``e^(r / 2^s)`` with an explicit tail
bound and squares ``s`` times (Brent, J. ACM 23, 1976; Brent and Zimmermann,
*Modern Computer Arithmetic*, 2010, ch. 4).
"""

from __future__ import annotations

import math
from math import isqrt

from .invariants import ln2_bounds, log_bounds, pi_bounds

#: Bit size past which an end's exponent reads as 0 or an infinity: e^a keeps
#: a positive lower end for an ``a`` of up to about this many bits.
EXPONENT_BITS = 1 << 24
_GUARD = 64  # bits past prec at which the constants, log and exp are taken


def _round(m: int, e: int, up: bool, prec: int):
    """``m 2^e`` rounded down, or up, to at most ``prec`` bits of ``m``."""
    if not m:
        return 0, 0
    s = abs(m).bit_length() - prec
    if s > 0:  # a floor of m / 2^s, or a ceiling
        m, e = (-(-m >> s) if up else m >> s), e + s
    return (m, e) if e.bit_length() <= EXPONENT_BITS else _far(m > 0, e > 0, up)


def _far(positive: bool, huge: bool, up: bool):
    """The end of a value whose exponent has passed :data:`EXPONENT_BITS`."""
    limit, sign = (1 << EXPONENT_BITS) - 1, 1 if positive else -1
    if positive == up:  # away from zero
        return None if huge else (sign, -limit)
    return (sign, limit) if huge else (0, 0)


def _neg(a):
    return None if a is None else (-a[0], a[1])


def _add(a, b, up: bool, prec: int):
    if a is None or b is None:
        return None
    if a[1] < b[1]:
        a, b = b, a
    (m1, e1), (m2, e2) = a, b
    if not m1 or not m2:
        return _round(m1 or m2, e1 if m1 else e2, up, prec)
    g = e1 + abs(m1).bit_length() - prec - 2
    if e2 + abs(m2).bit_length() < g:
        # |b| < 2^g lies below the last bit of the rounded sum: b becomes 0 or
        # +-2^g, whichever lies beyond it on this end's side, so no shift is
        # longer than about 2 prec
        m2, e2 = (1 if up else -1) if (m2 > 0) == up else 0, g
    return _round((m1 << (e1 - e2)) + m2, e2, up, prec)


def _mul(a, b, up: bool, prec: int):
    if (a is not None and not a[0]) or (b is not None and not b[0]):
        return 0, 0  # zero times an infinity is zero
    if a is None or b is None:
        return None
    return _round(a[0] * b[0], a[1] + b[1], up, prec)


def _quotient(n: int, d: int, e: int, up: bool, prec: int):
    """``n / d * 2^e`` for ``d != 0``, rounded."""
    if d < 0:
        n, d = -n, -d
    s = max(prec + d.bit_length() - abs(n).bit_length() + 1, 0)
    return _round(-(-(n << s) // d) if up else (n << s) // d, e - s, up, prec)


def _power(a, up: bool, prec: int, n: int):
    """``a^n`` for an end that is nonnegative or an odd ``n``."""
    if a is None:
        return None if n else (1, 0)
    if a[0] < 0:
        return _neg(_power(_neg(a), not up, prec, n))
    out = (1, 0)
    while n:  # products of ends of one side stay on it, as all are >= 0
        if n & 1:
            out = _mul(out, a, up, prec)
        n >>= 1
        a = _mul(a, a, up, prec) if n else a
    return out


def _monotone(x, f, *args):
    """The image of ``x`` under an increasing ``f(end, up, prec, *args)``."""
    return Interval(f(x.lo, False, x.prec, *args), f(x.hi, True, x.prec, *args), x.prec)


class Interval:
    """The closed interval between the ends ``lo`` and ``hi`` at ``prec`` bits."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int):
        self.lo, self.hi, self.prec = lo, hi, prec

    def signs(self) -> tuple[int, int]:
        """The signs -1, 0 or 1 of the lower and the upper end."""
        lo, hi = self.lo, self.hi
        return (
            -1 if lo is None else (lo[0] > 0) - (lo[0] < 0),
            1 if hi is None else (hi[0] > 0) - (hi[0] < 0),
        )

    def __neg__(self):
        return Interval(_neg(self.hi), _neg(self.lo), self.prec)

    def __add__(self, other):
        p = self.prec
        return Interval(_add(self.lo, other.lo, False, p), _add(self.hi, other.hi, True, p), p)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, y):
        x, p = self, self.prec
        (xl, xh), (yl, yh) = x.signs(), y.signs()
        if xl == xh == 0 or yl == yh == 0:
            return number(0, p)
        if xh <= 0:
            return -(-x * y)
        if yh <= 0:
            return -(x * -y)
        # both upper ends are now positive.  The lower end is a product of
        # unlike signs, or bounded by the sum of both, and the upper end by the
        # sum of the products of like signs; 0 stands in for a missing product
        zero = (0, 0)
        if xl >= 0 <= yl:
            lo = _mul(x.lo, y.lo, False, p)
        else:
            unlike_x = _mul(x.lo, y.hi, False, p) if xl < 0 else zero
            lo = _add(_mul(x.hi, y.lo, False, p) if yl < 0 else zero, unlike_x, False, p)
        like = _mul(x.lo, y.lo, True, p) if xl < 0 and yl < 0 else zero
        return Interval(lo, _add(_mul(x.hi, y.hi, True, p), like, True, p), p)

    def __truediv__(self, other):
        """``self / other`` for an ``other`` that does not contain 0 inside."""
        p = self.prec

        def inverse(a, up):
            if a is None:
                return 0, 0
            return _quotient(1, a[0], -a[1], up, p) if a[0] else None

        return self * Interval(inverse(other.hi, False), inverse(other.lo, True), p)

    def __pow__(self, n: int):
        """``self ** n`` for an integer ``n >= 0``."""
        x, p = self, self.prec
        xl, xh = x.signs()
        if n % 2 == 0 and xh <= 0:
            x = -x
        elif n % 2 == 0 and xl < 0:  # an even power of |x| <= hi - lo
            x = Interval((0, 0), _add(x.hi, _neg(x.lo), True, p), p)
        return _monotone(x, _power, n)

    def floats(self) -> tuple[float, float]:
        """Floats below and above the ends: an end beyond the float range, or
        infinite, reads as an infinity."""

        def near(a, up):
            if a is None:
                return math.inf if up else -math.inf
            m, e = a
            s = max(abs(m).bit_length() - 64, 0)
            try:  # within 2^-63 of the end, then the nearest float
                f = math.ldexp(m >> s, e + s)
            except OverflowError:
                f = math.inf if m > 0 else -math.inf
            # so within one unit in the last place: one step outward holds it
            return math.nextafter(f, math.inf if up else -math.inf)

        return near(self.lo, False), near(self.hi, True)

    def floor(self) -> int | None:
        """The floor of every point, None where the ends differ in floor.  Ends
        past ``2^prec`` are spaced more than 1 apart, so only a point interval
        there has one floor, and it is not built."""
        floors = {
            None if a is None or a[1] > self.prec else a[0] >> -a[1] if a[1] < 0 else a[0] << a[1]
            for a in (self.lo, self.hi)
        }
        return floors.pop() if len(floors) == 1 else None


def number(q, prec: int) -> Interval:
    """An int or Fraction ``q``, exact where it has at most ``prec`` bits."""
    n, d = q.numerator, q.denominator
    return Interval(_quotient(n, d, 0, False, prec), _quotient(n, d, 0, True, prec), prec)


def pi(prec: int) -> Interval:
    w = prec + _GUARD
    lo, hi = pi_bounds(w)
    return Interval(_round(lo, -w, False, prec), _round(hi, -w, True, prec), prec)


def sqrt(x: Interval) -> Interval:
    """``sqrt(x)`` for an ``x`` whose lower end is positive."""
    return _monotone(x, _sqrt)


def log(x: Interval) -> Interval:
    """``log(x)`` for an ``x`` whose lower end is positive."""
    return _monotone(x, _log)


def exp(x: Interval) -> Interval:
    return _monotone(x, _exp)


def _sqrt(a, up: bool, prec: int):
    if a is None:
        return None
    m, e = a
    s = max(2 * prec - m.bit_length(), 0)
    s += (e - s) % 2
    m <<= s
    r = isqrt(m)  # the floor of sqrt(m), exact where r * r == m
    return _round(r + (up and r * r < m), (e - s) // 2, up, prec)


def _log(a, up: bool, prec: int):
    if a is None:
        return None
    # ln(m 2^e) = ln m + e ln 2, each from its integer enclosure at w bits on
    # this end's side: ln 2's upper end moves e ln 2 up for e > 0
    (m, e), w = a, prec + _GUARD
    return _round(log_bounds(m, w)[up] + e * ln2_bounds(w)[(e > 0) == up], -w, up, prec)


def _exp(a, up: bool, prec: int):
    if a is None or not a[0]:
        return (None if up else (0, 0)) if a is None else (1, 0)
    m, e = a
    w = prec + _GUARD
    ln2 = ln2_bounds(w)  # L_0 <= 2^w ln 2 <= L_1
    top = e + abs(m).bit_length()  # |a| < 2^top
    if top > prec:
        # e^a = 2^(a / ln 2), whose exponent a 2^w / L bounds with the end L
        # that keeps it on this side; it has top or top + 1 bits
        if top > EXPONENT_BITS + 1:
            return _far(True, m > 0, up)
        n, ln2_end = m << (e + w), ln2[(m > 0) != up]
        return _round(1, -(-n // ln2_end) if up else n // ln2_end, up, prec)
    # X <= 2^w a < X + 1, and k = floor(X / L) with the end L of ln 2 that
    # makes a - k ln 2 >= 0; then R / 2^w bounds r = a - k ln 2 on this
    # side, within [0, 0.7].  k has at most prec + 2 bits, so k's share of
    # the error of ln 2 stays below 2^(-w + prec + 2 + log2 w) <= 2^-40
    x = m << (e + w) if e + w >= 0 else m >> -(e + w)
    k = x // ln2[x >= 0]
    r = x + up - k * ln2[(k >= 0) != up]
    # e^r = (e^t)^(2^s) with t = r / 2^s = R / 2^q, summed at q bits as
    # even + t odd, with the terms t^(2i) / (2i)! in even and t^(2i) / (2i+1)!
    # in odd, so one product by t^2 (u) takes two terms.  Each term and
    # product is floored (or ceiled) from the last, so on this side of its
    # value.  The sum stops at the first even term 0 (or 1 from above); the
    # tail past it is below twice that term, as t <= 1/2
    s = isqrt(w // 4)
    q = w + s
    d = -1 if up else 1  # d * floor(d * v) rounds v down, or up
    u, even, odd, term, j = d * (d * r * r >> q), 0, 0, 1 << q, 1
    while term > up:
        even += term
        term = d * (d * term // j)
        odd += term
        term = d * ((d * term * u >> q) // (j + 1))
        j += 2
    y = even + d * (d * odd * r >> q) + (2 * term if up else 0)
    for _ in range(s):  # each square floored (or ceiled) keeps its side
        y = d * (d * y * y >> q)
    if up and k == -1:  # then a < 0, and e^a <= 1, which y may pass by an ulp
        y = min(y, 1 << (q + 1))
    return _round(y, k - q, up, prec)
