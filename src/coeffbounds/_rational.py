"""Exact rationals, and exact complex numbers over them.

Every exact value the package builds is one of the two types here, and
each operation on them is integer arithmetic plus the ``math.gcd`` calls
that keep the result in lowest terms.

A ``Ratio`` is a ``fractions.Fraction`` without the module's generic
operator dispatch. It is built by writing Fraction's own ``_numerator`` and
``_denominator`` slots after one gcd, and ``+ - * /``, ``**`` with an int
exponent, unary ``-``, ``abs`` and the comparisons read those slots and run
the rules ``Fraction`` runs (Knuth, TAOCP vol. 2, 4.5.1) whenever the other
operand is an ``int`` or any ``Fraction``. Any other operand, such as a
float or a complex, goes to Fraction's own operator, so it mixes as a
plain Fraction does. A Ratio hashes, prints, converts and pickles as the
equal Fraction, and its repr reads ``Fraction(n, d)``.

A ``RationalComplex`` is (a + b i) / d for integers a, b, d held in one
canonical triple: d > 0 and gcd(a, b, d) = 1, so equal values have equal
triples. It adds, subtracts, multiplies and divides exactly, which is what
the rational backend needs: unimodular points built from the Pythagorean
parametrization stay exactly on the unit circle, and every series
coefficient downstream is an exact rational complex number. Its gcds are
one of the denominators for a sum (and one with their common factor when
they share one), two small cancellations for a product with a real
operand, and one three-way gcd for a product or quotient of two complex
values. The real and imaginary parts share the denominator, so no
rational is normalised on the way. ``re`` and ``im`` build the ``Ratio``
parts on demand. Only this module reads the triple.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from operator import ge, gt, le, lt

_new = object.__new__


def _coprime(n: int, d: int) -> Ratio:
    """The Ratio n / d for d > 0 and gcd(n, d) = 1, set without re-checking them."""
    r = _new(Ratio)
    r._numerator = n
    r._denominator = d
    return r


def _add(na: int, da: int, nb: int, db: int) -> Ratio:
    """na / da + nb / db for pairs in lowest terms; the gcd argument is `_sum`'s."""
    g = gcd(da, db)
    if g == 1:
        return _coprime(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _coprime(t, s * db)
    return _coprime(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> Ratio:
    return _add(na, da, -nb, db)


def _mul(na: int, da: int, nb: int, db: int) -> Ratio:
    """na / da times nb / db for pairs in lowest terms: cancel across, then multiply."""
    g = gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    return _coprime(na * nb, da * db)


def _div(na: int, da: int, nb: int, db: int) -> Ratio:
    """na / da over nb / db: the product with nb / db inverted, its sign moved to the numerator."""
    g = gcd(na, nb)
    if g > 1:
        na //= g
        nb //= g
    g = gcd(db, da)
    if g > 1:
        da //= g
        db //= g
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    elif not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _coprime(n, d)


def _arithmetic(rule, forward_fallback, reverse_fallback):
    """The operator a op b and its reflection, running ``rule`` on (numerator, denominator) pairs.

    The exact type tests come first: the ``Fraction`` test is an ABC check. A
    `RationalComplex` operand goes straight to its reflected operator.
    """

    def forward(a, b):
        if type(b) is Ratio:
            return rule(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return rule(a._numerator, a._denominator, b, 1)
        if type(b) is RationalComplex:
            return NotImplemented
        if isinstance(b, (int, Fraction)):
            return rule(a._numerator, a._denominator, b.numerator, b.denominator)
        return forward_fallback(a, b)

    def reverse(b, a):
        if type(a) is int:
            return rule(a, 1, b._numerator, b._denominator)
        if isinstance(a, (int, Fraction)):
            return rule(a.numerator, a.denominator, b._numerator, b._denominator)
        return reverse_fallback(b, a)

    return forward, reverse


def _comparison(op, fallback):
    """The comparison a op b, by cross-multiplying (both denominators are positive)."""

    def compare(a, b):
        if type(b) is Ratio:
            return op(a._numerator * b._denominator, a._denominator * b._numerator)
        if type(b) is int:
            return op(a._numerator, a._denominator * b)
        if isinstance(b, (int, Fraction)):
            return op(a._numerator * b.denominator, a._denominator * b.numerator)
        return fallback(a, b)

    return compare


class Ratio(Fraction):
    """An exact rational: a ``Fraction`` whose arithmetic runs on its two slots.

    ``Ratio(n, d)`` for ints, ``Ratio(x)`` for an int, a ``Ratio`` (itself)
    or anything else ``Fraction`` reads: another Fraction, a float (at the
    binary fraction it stores) or a string such as ``"3/4"`` or ``"0.25"``.
    Operations with an int or any Fraction return a Ratio; see the module
    docstring for the rest.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _coprime(numerator, 1)
            if type(denominator) is int:
                if not denominator:
                    raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                g = gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                return _coprime(numerator // g, denominator // g)
        elif type(numerator) is Ratio and denominator is None:
            return numerator
        return Fraction.__new__(cls, numerator, denominator)

    __add__, __radd__ = _arithmetic(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _arithmetic(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _arithmetic(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _arithmetic(_div, Fraction.__truediv__, Fraction.__rtruediv__)

    def __pow__(a, b):
        if not isinstance(b, int):
            return Fraction.__pow__(a, b)
        n, d = a._numerator, a._denominator
        if b < 0:
            n, d, b = d, n, -b
            if d < 0:
                n, d = -n, -d
            elif not d:
                raise ZeroDivisionError(f"Fraction({n ** b}, 0)")
        return _coprime(n**b, d**b)

    def __neg__(a):
        return _coprime(-a._numerator, a._denominator)

    def __abs__(a):
        return _coprime(abs(a._numerator), a._denominator)

    __lt__ = _comparison(lt, Fraction.__lt__)
    __le__ = _comparison(le, Fraction.__le__)
    __gt__ = _comparison(gt, Fraction.__gt__)
    __ge__ = _comparison(ge, Fraction.__ge__)

    def __eq__(a, b):
        # lowest terms with a positive denominator: equal values have equal pairs
        if type(b) is Ratio:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__

    def __repr__(self):
        # the equal Fraction's repr, so messages that quote a value read as they did
        return f"Fraction({self._numerator}, {self._denominator})"


def _as_ratio(x) -> Ratio:
    if type(x) is Ratio:
        return x
    if isinstance(x, (int, Fraction, str)):
        return Ratio(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def exact_text(x: int | Fraction) -> str:
    """``str(x)``; an integer past the interpreter's digit limit raises OverflowError."""
    try:
        return str(x)
    except ValueError:
        raise OverflowError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits"
        ) from None


class RationalComplex:
    """Complex number with exact rational real and imaginary parts.

    The value is (a + b i) / d with d > 0 and gcd(a, b, d) = 1. The
    arithmetic forms only the products whose operands are not zero: a real
    operand (an ``int``, any ``Fraction``, or a value with b = 0) skips the
    terms with its zero imaginary part. Every term it skips is an exact
    zero, and the triple is canonical, so each result equals the one the
    full complex formula gives.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _as_ratio(re), _as_ratio(im)
        q, s = re._denominator, im._denominator
        # over the least common denominator of two parts in lowest terms, gcd(a, b, d) = 1
        d = q if q == s else q // gcd(q, s) * s
        _set_a(self, re._numerator * (d // q))
        _set_b(self, im._numerator * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    @property
    def re(self) -> Ratio:
        return Ratio(self._a, self._d)

    @property
    def im(self) -> Ratio:
        return Ratio(self._b, self._d)

    # -- arithmetic -----------------------------------------------------
    #
    # Each operator reads its operand as a triple (c, e, f), an int or a
    # Fraction as (numerator, 0, denominator); a Ratio's are read from its slots.

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
        elif type(other) is Ratio:
            c, e, f = other._numerator, 0, other._denominator
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        return _sum(a, b, d, c, e, f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
        elif type(other) is Ratio:
            c, e, f = other._numerator, 0, other._denominator
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        return _sum(a, b, d, -c, -e, f)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
        elif type(other) is Ratio:
            c, e, f = other._numerator, 0, other._denominator
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        if not e:
            return _scaled(a, b, d, c, f)
        if not b:
            return _scaled(c, e, f, a, d)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
        elif type(other) is Ratio:
            c, e, f = other._numerator, 0, other._denominator
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        if e:
            # times f (c - e i) / (c^2 + e^2), whose denominator is positive
            return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))
        if not c:
            raise ZeroDivisionError("division by zero RationalComplex")
        if c < 0:
            c, f = -c, -f
        return _scaled(a, b, d, f, c)

    # -- structure ------------------------------------------------------

    def abs2(self) -> Ratio:
        """|z|^2 as an exact Ratio."""
        a, b, d = self._a, self._b, self._d
        return Ratio(a * a + b * b, d * d)

    def __complex__(self) -> complex:
        # int true division rounds a / d correctly, as float(Ratio(a, d)) does
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        return f"RationalComplex({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self._b:
            return exact_text(self.re)
        sign = "+" if self._b > 0 else "-"
        return f"{exact_text(self.re)}{sign}{exact_text(abs(self.im))}i"


_set_a = RationalComplex._a.__set__
_set_b = RationalComplex._b.__set__
_set_d = RationalComplex._d.__set__


def _triple(a: int, b: int, d: int) -> RationalComplex:
    """The RationalComplex of a canonical triple, set without re-checking it."""
    z = _new(RationalComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> RationalComplex:
    """The RationalComplex (a + b i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(d, a, b)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> RationalComplex:
    """(a + b i) / d + (c + e i) / f for canonical triples.

    As for fractions (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(d, f), a
    prime of the denominator (d / g) f that divides both parts of the sum's
    numerator divides g, so the final gcd is taken with g alone.
    """
    g = gcd(d, f)
    if g == 1:
        return _triple(a * f + c * d, b * f + e * d if e else b * f, d * f)
    s, t = d // g, f // g
    re, im = a * t + c * s, b * t + e * s if e else b * t
    g = gcd(g, re, im)
    if g != 1:
        re //= g
        im //= g
        f //= g
    return _triple(re, im, s * f)


def _scaled(a: int, b: int, d: int, p: int, q: int) -> RationalComplex:
    """(a + b i) / d times the real p / q, for a canonical triple and q > 0, gcd(p, q) = 1.

    Cancelling gcd(p, d) and gcd(q, a, b) before multiplying leaves the
    product canonical.
    """
    g = gcd(p, d)
    if g != 1:
        p //= g
        d //= g
    g = gcd(q, a, b)
    if g != 1:
        a //= g
        b //= g
        q //= g
    return _triple(a * p, b * p if b else 0, d * q)


def unimodular_from_t(t) -> RationalComplex:
    """Exact point on the unit circle from the Pythagorean parametrization.

    x = ((1 - t^2) + 2 t i) / (1 + t^2) for rational t, so |x|^2 == 1 exactly.
    Every rational point on the circle except -1 arises this way.
    """
    t = _as_ratio(t)
    p, q = t._numerator, t._denominator
    return _reduced(q * q - p * p, 2 * p * q, q * q + p * p)


def t_from_unimodular(x: RationalComplex) -> Ratio:
    """Inverse of :func:`unimodular_from_t` (half-angle tangent).

    Raises ValueError at x == -1, which the parametrization cannot reach.
    """
    if x.abs2() != 1:
        raise ValueError(f"{x!r} is not unimodular")
    if x == -1:
        raise ValueError("x = -1 has no rational t parameter")
    # im / (1 + re) = (b / d) / ((d + a) / d)
    return Ratio(x._b, x._d + x._a)
