"""Arithmetic backends: exact rational complex, or double-precision complex.

Every series and atom system carries one of the two singleton backends below.
The float backend is for the randomized sweeps and float documents; the
rational backend gives exact equality in regression fixtures and exact
checks (weights, transform factors, and bound formulas are all rational in
rational inputs). Rational scalars are `_rational.Ratio` values, each a
``fractions.Fraction`` whose arithmetic runs on its integer pair, and
rational coefficients are `_rational.RationalComplex` values, each one
integer triple (a + b i) / d in lowest terms. Both accept any ``Fraction``
(or int) as an operand and return their own type.
"""

from __future__ import annotations

from fractions import Fraction

from ._rational import RationalComplex, Ratio, exact_text
from .reports import fmt_float


class Backend:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    # scalar: the real number type used for weights, alpha and beta
    # coeff: the series-coefficient type

    def __repr__(self):
        return f"<backend {self.name}>"


class _FloatBackend(Backend):
    def scalar(self, x) -> float:
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, (int, float, Fraction)):
            return float(x)
        if isinstance(x, str):
            return float(Ratio(x))
        raise TypeError(f"cannot use {type(x).__name__} as a float-backend scalar")

    def coeff(self, x) -> complex:
        if isinstance(x, complex):
            return x
        return complex(self.scalar(x))

    zero = 0j
    one = 1 + 0j

    def format_scalar(self, x) -> str:
        return fmt_float(x)


class _RationalBackend(Backend):
    def scalar(self, x) -> Ratio:
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, (int, Fraction, str)):
            return Ratio(x)
        raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")

    def coeff(self, x) -> RationalComplex:
        if isinstance(x, RationalComplex):
            return x
        return RationalComplex(self.scalar(x))

    zero = RationalComplex(0, 0)
    one = RationalComplex(1, 0)

    def format_scalar(self, x) -> str:
        # a float prints neither its binary expansion nor its repr in an exact report;
        # the exact type test first spares a Ratio the ABC check
        if type(x) is not Ratio and (isinstance(x, bool) or not isinstance(x, (int, Fraction))):
            raise TypeError(f"cannot format {type(x).__name__} as an exact scalar")
        return exact_text(x)


FLOAT = _FloatBackend("float")
RATIONAL = _RationalBackend("rational")

_BY_NAME = {"float": FLOAT, "rational": RATIONAL}


def get_backend(name: str) -> Backend:
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):  # an unhashable name, such as a JSON list, is unknown too
        raise ValueError(f"unknown backend {name!r} (expected 'float' or 'rational')") from None
