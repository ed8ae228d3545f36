"""Exact complex numbers over the rationals.

A ``RationalComplex`` is a pair of ``fractions.Fraction`` values. It adds,
subtracts, multiplies and divides exactly, which is what the rational
backend needs: unimodular points built from the Pythagorean parametrization
stay exactly on the unit circle, and every series coefficient downstream is
an exact rational pair.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def exact_text(x: Fraction) -> str:
    """``str(x)``; an integer past the interpreter's digit limit raises OverflowError."""
    try:
        return str(x)
    except ValueError:
        raise OverflowError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits"
        ) from None


class RationalComplex:
    """Complex number with exact rational real and imaginary parts.

    The arithmetic forms only the products and sums whose operands are not
    zero: a real operand (an ``int``, a ``Fraction``, or a value with zero
    imaginary part) skips the terms with its zero imaginary part. Every term
    it skips is an exact zero, and ``Fraction`` is canonical, so each result
    equals the one the full complex formula gives.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalComplex):
            b, d = self.im, other.im
            return _exact(self.re + other.re, b + d if d else b)
        if isinstance(other, (int, Fraction)):
            return _exact(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RationalComplex):
            b, d = self.im, other.im
            return _exact(self.re - other.re, b - d if d else b)
        if isinstance(other, (int, Fraction)):
            return _exact(self.re - other, self.im)
        return NotImplemented

    def __mul__(self, other):
        a, b = self.re, self.im
        if isinstance(other, RationalComplex):
            c, d = other.re, other.im
            if not d:
                return _exact(a * c, b * c if b else d)
            if not b:
                return _exact(a * c, a * d)
            return _exact(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _exact(a * other, b * other if b else b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.re, self.im
        if isinstance(other, RationalComplex):
            c, d = other.re, other.im
            if d:
                den = c * c + d * d
                return _exact((a * c + b * d) / den, (b * c - a * d) / den)
        elif isinstance(other, (int, Fraction)):
            c = other
        else:
            return NotImplemented
        if not c:
            raise ZeroDivisionError("division by zero RationalComplex")
        return _exact(a / c, b / c if b else b)

    # -- structure ------------------------------------------------------

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!s}, {self.im!s})"

    def __str__(self):
        if self.im == 0:
            return exact_text(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{exact_text(self.re)}{sign}{exact_text(abs(self.im))}i"


_new = object.__new__
_set_re = RationalComplex.re.__set__
_set_im = RationalComplex.im.__set__


def _exact(re: Fraction, im: Fraction) -> RationalComplex:
    """A RationalComplex from two ``Fraction`` parts, set without re-checking them."""
    z = _new(RationalComplex)
    _set_re(z, re)
    _set_im(z, im)
    return z


def unimodular_from_t(t) -> RationalComplex:
    """Exact point on the unit circle from the Pythagorean parametrization.

    x = ((1 - t^2) + 2 t i) / (1 + t^2) for rational t, so |x|^2 == 1 exactly.
    Every rational point on the circle except -1 arises this way.
    """
    t = _as_fraction(t)
    d = 1 + t * t
    return RationalComplex((1 - t * t) / d, (2 * t) / d)


def t_from_unimodular(x: RationalComplex) -> Fraction:
    """Inverse of :func:`unimodular_from_t` (half-angle tangent).

    Raises ValueError at x == -1, which the parametrization cannot reach.
    """
    if x.abs2() != 1:
        raise ValueError(f"{x!r} is not unimodular")
    if x.re == -1 and x.im == 0:
        raise ValueError("x = -1 has no rational t parameter")
    return x.im / (1 + x.re)
