"""Certified signs, floors and decimals of closed-form budgets ``Y``.

A ``Y`` such as ``600*pi*log(8)`` is read through a fixed ``ast`` whitelist
(numbers, ``+ - * / **``, unary signs, ``log``, ``exp``, ``sqrt``, ``pi``,
``E``) into a small tree of :class:`Node` with two readings:

* an outward-rounded interval with integer ends
  (:mod:`braidcount.interval`) at any requested precision, and
* an exact form ``q0 + sum q_i m_i`` with rational ``q_i``: a dict from
  monomials to coefficients.  A monomial is a product of formal atoms with
  rational exponents: ``log b`` and ``b`` itself over a coprime base of
  integers that are not perfect powers, ``pi``, ``E``, a sum of positive
  terms, and an opaque atom for any other sub-expression (only integer
  powers of those, as their sign is unknown).

Every question (a sign, a floor, the floor of ``e^Y``, a decimal ceiling)
is first put to an enclosure, at doubling precision (``floor_exp`` skips
the doublings below the bits of ``e^Y``).  Where the enclosure
cannot separate, the exact form settles the tie: a value that is exactly
zero or rational, or ``e^Y`` that is exactly an integer.  By
Lindemann-Weierstrass an integer ``e^Y`` needs ``Y = log n``, and unique
factorisation over the coprime base decides that; this base is the simple
quadratic form of Bernstein, "Factoring into coprimes in essentially linear
time" (J. Algorithms 54, 2005).  What neither settles within
:data:`MAX_PRECISION` bits raises ValueError: no answer is guessed.  An
exact form is used only after an enclosure has certified that every
logarithm, root and divisor in the tree is well defined, or, where an
argument's enclosure touches zero, after exact forms whose terms all have
one sign have certified it: a form that is not empty may still be zero.
"""

from __future__ import annotations

import ast
import math
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import interval

#: A power with rational exponent in ``Y`` whose exact value would exceed
#: this many bits (about 3000 digits) is refused when parsed; larger powers
#: of integers also stay symbolic in exact forms.
MAX_POWER_BITS = 10**4
#: Largest ``Y`` that :func:`counting.threshold_from_y` takes: ``e^Y`` then
#: has at most ``MAX_POWER_BITS`` bits.
MAX_THRESHOLD_Y = MAX_POWER_BITS * math.log(2)
#: Largest precision in bits of a certificate.  It leaves room above the
#: 10^4 bits of the largest threshold ``e^Y``.  On a 2-core host ``bounds``
#: took 0.3 s at this precision and did not finish in 60 s at 10^6 bits.
MAX_PRECISION = 1 << 15
_MAX_TERM_COUNT = 64  # a product with more terms becomes one opaque atom

_FUNCTIONS = frozenset({"log", "exp", "sqrt"})
_CONSTANTS = frozenset({"pi", "E"})
_UNARY = {ast.USub: "neg", ast.UAdd: "pos"}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
PI = ("pi",)
E = ("E",)


class _NotReal(Exception):
    """A logarithm, root or division in the tree is undefined over the reals."""


class _Undecided(Exception):
    """The enclosure straddles a domain boundary; more precision may help."""


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator).bit_length() - 1


def _rational_power(base: Fraction, exponent: Fraction) -> Fraction | None:
    """``base ** exponent`` when it is rational and real, else None."""
    if exponent.denominator == 1:
        return None if base == 0 and exponent < 0 else base**exponent.numerator
    if base < 0:
        return None
    k = exponent.denominator
    num, den = _iroot(base.numerator, k), _iroot(base.denominator, k)
    if num**k != base.numerator or den**k != base.denominator:
        return None
    return _rational_power(Fraction(num, den), Fraction(exponent.numerator))


class Node:
    """One node of a ``Y`` tree: ``op`` over ``args``.

    ``num`` nodes hold one Fraction; ``rational`` is the exact value of an
    all-number subtree.
    ``-``, ``*`` and ``/`` build new nodes and take ints and Fractions.
    ``str()`` gives the source text, or "the expression" for a built tree.
    """

    __slots__ = ("op", "args", "rational", "bits", "source", "_exact")

    def __init__(self, op: str, args: tuple = ()):
        self.op, self.args, self.source, self._exact = op, args, None, None
        self.rational = None
        if op == "num":
            self.rational = args[0]
        elif args and all(a.rational is not None for a in args):
            values = [a.rational for a in args]
            if op == "neg":
                self.rational = -values[0]
            elif op == "pos":
                self.rational = values[0]
            elif op in ("add", "sub", "mul"):
                a, b = values
                self.rational = a + b if op == "add" else a - b if op == "sub" else a * b
            elif op == "div" and values[1]:
                self.rational = values[0] / values[1]
        if op == "pow" and args[1].rational is not None:
            # about the bits of the exact value, as a computer algebra system
            # would expand it; refused before anything is computed
            if abs(args[1].rational) * args[0].bits > MAX_POWER_BITS:
                raise ValueError(f"power above {MAX_POWER_BITS} bits")
            if args[0].rational is not None:
                self.rational = _rational_power(args[0].rational, args[1].rational)
        if self.rational is not None:
            self.bits = _bits(self.rational)
        else:
            self.bits = sum(a.bits for a in args if isinstance(a, Node))

    def __sub__(self, other):
        return Node("sub", (self, _node(other)))

    def __rsub__(self, other):
        return Node("sub", (_node(other), self))

    def __mul__(self, other):
        return Node("mul", (self, _node(other)))

    def __rmul__(self, other):
        return Node("mul", (_node(other), self))

    def __truediv__(self, other):
        return Node("div", (self, _node(other)))

    def __str__(self):
        return "the expression" if self.source is None else self.source


def number(value) -> Node:
    """A leaf for an int or Fraction."""
    return Node("num", (Fraction(value),))


def _node(value) -> Node:
    return value if isinstance(value, Node) else number(value)


def call(name: str, arg) -> Node:
    """``log``, ``exp`` or ``sqrt`` of a node."""
    return Node(name, (_node(arg),))


def constant(name: str) -> Node:
    """``pi`` or ``E``."""
    return Node(name)


def _read(node: ast.AST, text: str) -> Node:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return number(node.value)
    if isinstance(node, ast.Constant) and type(node.value) is float:
        digits = ast.get_source_segment(text, node).replace("_", "")
        value = Decimal(digits)
        digits_limit = MAX_POWER_BITS // 3  # about MAX_POWER_BITS bits
        if abs(value.adjusted()) > digits_limit or -value.as_tuple().exponent > digits_limit:
            raise ValueError(f"number {digits} is out of range")
        return number(value)
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return constant(node.id)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return Node(_UNARY[type(node.op)], (_read(node.operand, text),))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return Node(_BINARY[type(node.op)], (_read(node.left, text), _read(node.right, text)))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        if node.func.id in _FUNCTIONS and len(node.args) == 1:
            return call(node.func.id, _read(node.args[0], text))
    raise ValueError(f"unsupported syntax {ast.get_source_segment(text, node)!r}")


def parse(text: str) -> Node:
    """Read a closed form like ``600*pi*log(8)``; ValueError outside the grammar.

    A float literal stands for its exact decimal rational.
    """
    source = text.strip()
    try:
        root = _read(ast.parse(source, mode="eval").body, source)
    # CPython's parser reports nesting that is too deep as MemoryError
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    root.source = text
    return root


def from_value(y) -> Node:
    """``Y`` given as a string, Node, int, Fraction, float or any object whose
    ``str()`` the grammar reads (such as a sympy number)."""
    if isinstance(y, Node):
        return y
    if isinstance(y, str):
        return parse(y)
    if isinstance(y, float):  # through its shortest decimal spelling
        if not math.isfinite(y):
            raise ValueError(f"Y = {y} is not a real number")
        root = number(Fraction(str(y)))
    elif isinstance(y, (int, Fraction)):
        root = number(y)
    else:
        try:
            return parse(str(y))
        except ValueError:
            # sympy's log(-1) prints as I*pi, outside the grammar
            if getattr(y, "is_real", None) is False:
                raise ValueError(f"Y = {y} is not a real number") from None
            raise
    root.source = str(y)
    return root


# --- exact forms ------------------------------------------------------------


def _iroot(n: int, k: int) -> int:
    """``floor(n ** (1/k))`` for ``n >= 0``."""
    if n < 2 or k >= n.bit_length():
        return min(n, 1)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=256)
def _perfect_root(n: int) -> int:
    """The least ``r`` with ``r ** k == n`` for some ``k >= 1``."""
    bits, log2 = n.bit_length(), math.log2(n)
    for k in range(2, bits):  # prime k suffice, since r^(ab) = (r^a)^b
        if any(k % p == 0 for p in range(2, isqrt(k) + 1)):
            continue
        if 30 * k >= bits:
            # a root below 2^31 is within 10^-3 of its float estimate
            estimate = 2 ** (log2 / k)
            r = round(estimate)
            if abs(estimate - r) > 0.01:
                continue
        else:
            r = _iroot(n, k)
        if r**k == n:
            return _perfect_root(r)
    return n


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1, none a perfect power, whose products
    give every one of ``numbers``."""
    base: list[int] = []
    for n in numbers:
        pending = [n]
        while pending:  # each split lowers the product of base and pending
            x = pending.pop()
            if x == 1:
                continue
            for i, b in enumerate(base):
                g = gcd(x, b)
                if g > 1:
                    del base[i]
                    pending += [g, b // g, x // g]
                    break
            else:
                base.append(x)
    return sorted({_perfect_root(b) for b in base})


def _monomial(exponents: dict) -> tuple[Fraction, tuple]:
    """A monomial from ``{atom: exponent}``, with the whole powers of base
    integers moved into a rational factor where that stays small."""
    factor = Fraction(1)
    out = []
    for atom, e in exponents.items():
        if atom[0] == "int":
            whole = math.floor(e)
            if whole and abs(whole) * atom[1].bit_length() <= MAX_POWER_BITS:
                factor *= Fraction(atom[1]) ** whole
                e -= whole
        if e:
            out.append((atom, Fraction(e)))
    return factor, tuple(sorted(out))


def _add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mul(a: dict, b: dict) -> dict:
    if len(a) * len(b) > _MAX_TERM_COUNT:
        return _atom(_opaque("mul", a, b))
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exponents = dict(m1)
            for atom, e in m2:
                exponents[atom] = exponents.get(atom, 0) + e
            factor, m = _monomial(exponents)
            out = _add(out, {m: c1 * c2 * factor})
    return out


def _const(q) -> dict:
    return {(): Fraction(q)} if q else {}


def _atom(atom, exponent=1) -> dict:
    return _atom_product({atom: exponent})


def _key(form: dict) -> tuple:
    return tuple(sorted(form.items()))


def _opaque(tag: str, *parts) -> tuple:
    return ("?", tag) + tuple(_key(p) if isinstance(p, dict) else p for p in parts)


def _rational(form: dict) -> Fraction | None:
    if not form:
        return Fraction(0)
    if len(form) == 1 and () in form:
        return form[()]
    return None


def _positive(monomial: tuple) -> bool:
    # of the opaque atoms only e^u, for a real u, is known to be positive
    return all(atom[0] != "?" or atom[1] == "exp" for atom, _ in monomial)


def _positive_sum(form: dict) -> bool:
    return all(c > 0 and _positive(m) for m, c in form.items())


def _single(form: dict):
    return next(iter(form.items())) if len(form) == 1 else (None, None)


def _log_int(n: int) -> dict:
    return {} if n == 1 else _atom(("log", n))


def _int_power(n: int, e: Fraction) -> dict:
    return _const(1) if n == 1 else _atom(("int", n), e)


def _power(form: dict, r: Fraction) -> dict:
    """``form ** r`` for a rational ``r``, on the principal real branch."""
    if not form:
        if r < 0:
            raise _NotReal
        return _const(0 if r else 1)
    m, c = _single(form)
    integral = r.denominator == 1
    if m is not None and (integral or (c > 0 and _positive(m))):
        if integral and _bits(c) * abs(r) <= MAX_POWER_BITS:
            out = _const(c**r.numerator)
        elif c > 0:
            out = _mul(_int_power(c.numerator, r), _int_power(c.denominator, -r))
        else:  # odd or even integer power of a huge negative coefficient
            out = _mul(_const(-1 if r.numerator % 2 else 1), _power(_const(-c), r))
        return _mul(out, _atom_product({atom: e * r for atom, e in m}))
    if m is not None and c < 0 and _positive(m):
        raise _NotReal  # a non-integer power of a negative number
    if r == 1:
        return form
    if _positive_sum(form):  # a positive atom, so any rational power is real
        return _atom(("+", _key(form)), r)
    if integral:
        return _atom(_opaque("sum", form), r)
    return _atom(_opaque("powq", form, r))


def _atom_product(exponents: dict) -> dict:
    factor, m = _monomial(exponents)
    return {m: factor}


def _log(form: dict) -> dict:
    m, c = _single(form)
    if not form or (m is not None and c < 0 and _positive(m)):
        raise _NotReal
    if m is None or not _positive(m):
        return _atom(_opaque("log", form))
    out = _add(_log_int(c.numerator), _log_int(c.denominator), -1)
    for atom, e in m:
        if atom == E:
            piece = _const(1)
        elif atom[0] == "int":
            piece = _log_int(atom[1])
        elif atom[0] == "+":
            piece = _atom(_opaque("log", dict(atom[1])))
        elif atom[:2] == ("?", "exp"):  # log((e^u)^e) = e u
            piece = dict(atom[2])
        else:  # log(pi), log(log b)
            piece = _atom(_opaque("log", _atom(atom)))
        out = _add(out, piece, e)
    return out


def _exp(form: dict) -> dict:
    out = _const(1)
    for m, c in form.items():
        if not m:
            piece = _atom(E, c)
        elif len(m) == 1 and m[0][0][0] == "log" and m[0][1] == 1:
            piece = _int_power(m[0][0][1], c)  # exp(c log b) = b^c
        elif len(m) == 1 and m[0][0][:2] == ("?", "log") and m[0][1] == 1:
            piece = _power(dict(m[0][0][2]), c)  # exp(c log x) = x^c, x > 0
        else:
            piece = _atom(_opaque("exp", {m: c}))
        out = _mul(out, piece)
    return out


def _substitute(form: dict, replace) -> dict:
    """``form`` with each power of an atom replaced by the form that
    ``replace(atom, exponent)`` gives, where that is not None."""
    result: dict = {}
    for m, c in form.items():
        term = _const(c)
        for atom, e in m:
            piece = replace(atom, e)
            term = _mul(term, _atom(atom, e) if piece is None else piece)
        result = _add(result, term)
    return result


def _canonical(form: dict) -> dict:
    """The same value with every ``log n`` and power of ``n`` over one coprime
    base, so that equal values of that kind get equal forms."""
    form = _substitute(form, lambda atom, e: dict(atom[1]) if atom[0] == "+" and e == 1 else None)
    numbers = {atom[1] for m in form for atom, _ in m if atom[0] in ("log", "int")}
    if not numbers:
        return form
    base = _coprime_base(numbers)

    def factor(n: int) -> list[tuple[int, int]]:
        out = []
        for b in base:
            k = 0
            while n % b == 0:
                n //= b
                k += 1
            if k:
                out.append((b, k))
        return out

    def over_base(atom, e):
        if atom[0] == "int":
            return _atom_product({("int", b): k * e for b, k in factor(atom[1])})
        if atom[0] != "log":
            return None
        parts = factor(atom[1])
        if len(parts) == 1:  # (k log b)^e
            (b, k), = parts
            return _mul(_power(_const(k), e), _atom(("log", b), e))
        if e.denominator != 1 or not 0 < e <= _MAX_TERM_COUNT:
            return None
        total: dict = {}
        for b, k in parts:
            total = _add(total, _atom(("log", b)), k)
        piece = _const(1)
        for _ in range(int(e)):
            piece = _mul(piece, total)
        return piece

    return _substitute(form, over_base)


def _exact(node: Node) -> dict:
    """The exact form of ``node`` (cached on it), in canonical shape."""
    if node._exact is not None:
        return node._exact
    op, args = node.op, node.args
    if op == "num":
        form = _const(args[0])
    elif op == "pi":
        form = _atom(PI)
    elif op == "E":
        form = _atom(E)
    elif op in ("neg", "pos"):
        form = _add({}, _exact(args[0]), -1 if op == "neg" else 1)
    elif op in ("add", "sub"):
        form = _add(_exact(args[0]), _exact(args[1]), -1 if op == "sub" else 1)
    elif op == "mul":
        form = _mul(_exact(args[0]), _exact(args[1]))
    elif op == "div":
        form = _mul(_exact(args[0]), _power(_exact(args[1]), Fraction(-1)))
    elif op == "log":
        form = _log(_exact(args[0]))
    elif op == "exp":
        form = _exp(_exact(args[0]))
    elif op == "sqrt":
        form = _power(_exact(args[0]), Fraction(1, 2))
    else:  # pow
        base, exponent = _exact(args[0]), _exact(args[1])
        r = _rational(exponent)
        m, c = _single(base)
        if r is not None:
            form = _power(base, r)
        elif not base:
            form = {}  # the enclosure has certified a positive exponent
        elif m is not None and c > 0 and _positive(m):
            form = _exp(_canonical(_mul(exponent, _log(base))))
        else:
            form = _atom(_opaque("pow", base, exponent))
    node._exact = form = _canonical(form)
    return form


# --- enclosures ---------------------------------------------------------------


def _exactly_zero(node: Node) -> bool:
    """For an enclosure that touches zero: True if the value is zero, and
    :class:`_Undecided` if it is not, so more precision must separate it."""
    if _exact(node):
        raise _Undecided
    return True


def _enclose(node: Node, prec: int) -> interval.Interval:
    op, args = node.op, node.args
    if op == "num":
        return interval.number(args[0], prec)
    if op == "pi":
        return interval.pi(prec)
    if op == "E":
        return interval.exp(interval.number(1, prec))
    if op in ("neg", "pos"):
        x = _enclose(args[0], prec)
        return -x if op == "neg" else x
    if op in ("add", "sub", "mul"):
        a, b = _enclose(args[0], prec), _enclose(args[1], prec)
        return a + b if op == "add" else a - b if op == "sub" else a * b
    if op == "div":
        a, b = _enclose(args[0], prec), _enclose(args[1], prec)
        low, high = b.signs()
        if low <= 0 <= high and _exactly_zero(args[1]):
            raise _NotReal
        return a / b
    if op == "exp":
        return interval.exp(_enclose(args[0], prec))
    x = _enclose(args[0], prec)
    low, high = x.signs()
    if op in ("log", "sqrt"):
        r = Fraction(0) if op == "log" else Fraction(1, 2)
        e = None
    else:  # pow
        e = _enclose(args[1], prec)
        r = _rational(_exact(args[1]))
        if r is not None and r.denominator == 1:
            if r >= 0:
                return x ** int(r)
            if low <= 0 <= high and _exactly_zero(args[0]):
                raise _NotReal
            return interval.number(1, prec) / x ** int(-r)
    if high < 0:
        raise _NotReal  # a logarithm or non-integer power of a negative number
    if low <= 0 and _exactly_zero(args[0]):
        if op == "log" or (r is not None and r < 0):
            raise _NotReal
        if r is None and not e.signs()[0] > 0:
            if e.signs()[1] < 0:
                raise _NotReal
            raise _Undecided
        return interval.number(0, prec)
    if op == "sqrt":
        return interval.sqrt(x)
    log = interval.log(x)
    if op == "log":
        return log
    return interval.exp((e if r is None else interval.number(r, prec)) * log)


def _nonzero(form: dict) -> bool:
    """Whether ``form`` is provably not zero: its terms all positive or all
    negative.  A form that is not empty may still be zero, as an integer
    power of a sum stays an opaque atom."""
    return bool(form) and (_positive_sum(form) or _positive_sum(_add({}, form, -1)))


def _defined(node: Node) -> bool:
    """Whether exact forms prove every logarithm, root and power in the tree
    taken of a positive number, and every divisor and base of a negative
    integer power nonzero (see :func:`_nonzero`)."""
    op, args = node.op, node.args
    if not all(_defined(a) for a in args if isinstance(a, Node)):
        return False
    if op == "div":
        return _nonzero(_exact(args[1]))
    r = _rational(_exact(args[1])) if op == "pow" else None
    if r is not None and r.denominator == 1:
        return r >= 0 or _nonzero(_exact(args[0]))
    if op in ("log", "sqrt", "pow"):
        form = _exact(args[0])
        return bool(form) and _positive_sum(form)
    return True


# --- certificates -----------------------------------------------------------


def _certify(node: Node, decide, settle=None, prec=64):
    """Enclose ``node`` from ``prec`` bits, doubling to :data:`MAX_PRECISION`,
    until ``decide(enclosure)`` answers; where it cannot, ``settle(exact form)``
    may, and an exact form that is a rational is enclosed in place of ``node``.
    An enclosure that stops at an argument near zero goes the same way where
    :func:`_defined` proves the tree defined."""
    name = f"Y = {node.source}" if node.source is not None else "the expression"
    while prec <= MAX_PRECISION:
        try:
            try:
                got, defined = decide(_enclose(node, prec)), settle is not None
            except _Undecided:
                # an argument's enclosure touches zero though the argument is
                # not zero: the exact forms may still prove the tree defined
                got, defined = None, _defined(node)
            if got is None and defined:
                form = _exact(node)
                got = None if settle is None else settle(form)
                q = _rational(form)
                if got is None and q is not None and node.op != "num":
                    # the value is the rational q: enclose q instead, which
                    # no loose enclosure of a far exp or log can spoil
                    node = number(q)
                    continue
        except _NotReal:
            raise ValueError(f"{name} is not a real number") from None
        if got is not None:
            return got
        prec *= 2
    raise ValueError(f"cannot certify {name} within {MAX_PRECISION} bits")


def bounds(node: Node) -> tuple[float, float]:
    """Floats ``low <= value <= high`` from one enclosure: a limit below
    ``low`` or above ``high`` is proven passed, however loose the enclosure.
    An end beyond the float range, or unknown, reads as an infinity."""
    return _certify(node, interval.Interval.floats)


def sign(node: Node) -> int:
    """-1, 0 or 1: the exact sign of the value."""

    def decide(x):
        low, high = x.signs()
        return 1 if low > 0 else -1 if high < 0 else 0 if low == high == 0 else None

    return _certify(node, decide, lambda form: None if form else 0)


def floor(node: Node) -> int:
    """The exact floor of the value."""

    def settle(form):
        q = _rational(form)
        return None if q is None else math.floor(q)

    return _certify(node, interval.Interval.floor, settle)


def floor_exp(node: Node) -> int:
    """The exact floor of ``e^value``; one of more than :data:`MAX_PRECISION`
    bits ends in "cannot certify", as no enclosure can separate its floor."""

    def settle(form):
        # e^Y is the integer prod(b^k) when Y is a sum of k log b, k >= 0
        n = 1
        for m, k in form.items():
            if len(m) != 1 or m[0][0][0] != "log" or m[0][1] != 1:
                return None
            if k < 0 or k.denominator != 1 or k * m[0][0][1].bit_length() > 2 * MAX_POWER_BITS:
                return None
            n *= m[0][0][1] ** int(k)
        return n

    # the floor needs more bits than e^value has, at most 1.4427 value: the
    # doublings below a finite bound of them are skipped
    prec, high = 64, bounds(node)[1]
    while prec < MAX_PRECISION and prec < 1.4427 * high < math.inf:
        prec *= 2
    return _certify(node, lambda x: interval.exp(x).floor(), settle, prec)


def ceil_decimal(node: Node, digits: int) -> str:
    """The value rounded up to ``digits`` significant decimals, all shown."""
    ctx = Context(prec=digits, rounding=ROUND_CEILING)

    def ceil(q: Fraction) -> str:
        sign, shown, exponent = ctx.divide(Decimal(q.numerator), Decimal(q.denominator)).as_tuple()
        pad = digits - len(shown)
        return str(Decimal((sign, shown + (0,) * pad, exponent - pad)))

    def decide(x):
        ends = (x.lo, x.hi)
        # an infinite end, or one whose exact value would be a huge fraction
        if None in ends or max(abs(e) for _, e in ends) > MAX_PRECISION:
            return None
        low, high = (ceil(m * Fraction(2) ** e) for m, e in ends)
        return low if low == high else None

    def settle(form):
        q = _rational(form)
        return None if q is None else ceil(q)

    return _certify(node, decide, settle)
