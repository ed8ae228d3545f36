"""Exact complex numbers over the rationals.

A ``RationalComplex`` is (a + b i) / d for integers a, b, d held in one
canonical triple: d > 0 and gcd(a, b, d) = 1, so equal values have equal
triples. It adds, subtracts, multiplies and divides exactly, which is what
the rational backend needs: unimodular points built from the Pythagorean
parametrization stay exactly on the unit circle, and every series
coefficient downstream is an exact rational complex number.

Each operation is integer arithmetic on the triples and the ``math.gcd``
calls that keep the result canonical: one of the denominators for a sum
(and one with their common factor when they share one), two small
cancellations for a product with a real operand, and one three-way gcd for
a product or quotient of two complex values. The real and imaginary parts
share the denominator, so no ``fractions.Fraction`` is normalised on the
way. ``re`` and ``im`` build the ``Fraction`` parts on demand. Only this
module reads the triple.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
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
    operand (an ``int``, a ``Fraction``, or a value with b = 0) skips the
    terms with its zero imaginary part. Every term it skips is an exact
    zero, and the triple is canonical, so each result equals the one the
    full complex formula gives.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        q, s = re.denominator, im.denominator
        # over the least common denominator of two parts in lowest terms, gcd(a, b, d) = 1
        d = q if q == s else q // gcd(q, s) * s
        _set_a(self, re.numerator * (d // q))
        _set_b(self, im.numerator * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -----------------------------------------------------
    #
    # Each operator reads its operand as a triple (c, e, f), an int or a
    # Fraction as (numerator, 0, denominator).

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
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
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        return _sum(a, b, d, -c, -e, f)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, RationalComplex):
            c, e, f = other._a, other._b, other._d
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

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __complex__(self) -> complex:
        # int true division rounds a / d correctly, as float(Fraction(a, d)) does
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


_new = object.__new__
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
    t = _as_fraction(t)
    p, q = t.numerator, t.denominator
    return _reduced(q * q - p * p, 2 * p * q, q * q + p * p)


def t_from_unimodular(x: RationalComplex) -> Fraction:
    """Inverse of :func:`unimodular_from_t` (half-angle tangent).

    Raises ValueError at x == -1, which the parametrization cannot reach.
    """
    if x.abs2() != 1:
        raise ValueError(f"{x!r} is not unimodular")
    if x == -1:
        raise ValueError("x = -1 has no rational t parameter")
    # im / (1 + re) = (b / d) / ((d + a) / d)
    return Fraction(x._b, x._d + x._a)
