"""Structural zeros: entries that *are* the caller's ``zero`` object cost nothing.

`transform_coefficients`, `shift_coefficients` and `real_power_coefficients`
pass such an entry through or skip its terms. On exact data the result must
be the dense recurrence's; on float scalars without the zero object, and on
numpy columns, it must be today's bit for bit. The dense route is the
``*_parent`` real power (every term formed) after the list transform and
shift of `oracles`.
"""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coeffbounds import FLOAT, RATIONAL
from coeffbounds._rational import RationalComplex
from coeffbounds.bounds import f_quotient_coefficients
from coeffbounds.caratheodory import shift_coefficients, transform_coefficients
from coeffbounds.series import real_power_coefficients
from oracles import (
    random_herglotz,
    real_power_coefficients_dividing,
    real_power_coefficients_parent,
    shift_list,
    transform_list,
)
from test_inplace import CASES, IDS, same_bits


def dense(coeffs, n, alpha, beta, one, zero) -> list:
    """(beta + (1 - beta) p_n)^(1/alpha) with every term of every entry formed."""
    g = shift_list(transform_list(coeffs, alpha, n), beta)
    return real_power_coefficients_parent(g, 1 / alpha, one, zero)


def float_bits(values) -> list:
    """The bytes of each complex entry, so -0.0 and NaN payloads count."""
    return [struct.pack("<dd", c.real, c.imag) for c in values]


_small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def rational_cases(draw):
    """A series p_0 = 1 whose other entries are the zero object, computed zeros or values."""
    size = draw(st.integers(1, 14))
    coeffs = [RATIONAL.one]
    for _ in range(1, size):
        kind = draw(st.sampled_from(("structural", "structural", "computed", "value")))
        if kind == "structural":
            coeffs.append(RATIONAL.zero)
        elif kind == "computed":
            coeffs.append(RationalComplex(0, 0))
        else:
            coeffs.append(RationalComplex(draw(_small), draw(_small)))
    n = draw(st.integers(0, 3))
    alpha = draw(st.sampled_from((Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(7, 2))))
    beta = draw(st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(9, 10))))
    return coeffs, n, alpha, beta


@given(rational_cases())
def test_rational_structural_zeros_give_the_dense_values(case):
    coeffs, n, alpha, beta = case
    got = f_quotient_coefficients(coeffs, n, alpha, beta, RATIONAL.one, RATIONAL.zero)
    assert got == dense(coeffs, n, alpha, beta, RATIONAL.one, RATIONAL.zero)
    # the same series with every structural zero replaced by a computed one runs dense
    computed = [RationalComplex(0, 0) if c is RATIONAL.zero else c for c in coeffs]
    assert got == f_quotient_coefficients(computed, n, alpha, beta, RATIONAL.one, RATIONAL.zero)


@pytest.mark.parametrize("seed", [3, 77, 2**40 + 5])
@pytest.mark.parametrize("n, alpha, beta", [(0, 2.0, 0.0), (1, 1.5, 0.25), (3, 0.5, 0.9), (2, 10.0, 0.5)])
def test_float_series_without_the_zero_object_keep_their_bits(seed, n, alpha, beta):
    coeffs = list(random_herglotz(seed).series(24).coeffs)
    assert not any(c is FLOAT.zero for c in coeffs)
    got = f_quotient_coefficients(coeffs, n, alpha, beta, FLOAT.one, FLOAT.zero)
    assert float_bits(got) == float_bits(dense(coeffs, n, alpha, beta, FLOAT.one, FLOAT.zero))


def test_float_structural_zeros_keep_the_dense_bits_on_finite_values():
    # an exact zero term never changes an accumulator that started at +0
    coeffs = [FLOAT.one, FLOAT.zero, complex(-0.5, 0.25), FLOAT.zero, FLOAT.zero, complex(1.5, -2.0),
              FLOAT.zero, complex(-0.0, 0.0), FLOAT.zero, complex(0.125, -0.0)]
    for n, alpha, beta in ((0, 2.0, 0.0), (2, 1.5, 0.25), (3, 0.3, 0.9)):
        got = f_quotient_coefficients(coeffs, n, alpha, beta, FLOAT.one, FLOAT.zero)
        assert float_bits(got) == float_bits(dense(coeffs, n, alpha, beta, FLOAT.one, FLOAT.zero))


@pytest.mark.parametrize("label, weights, points, zero, one", CASES, ids=IDS)
def test_columns_keep_their_bits(label, weights, points, zero, one):
    # the atom columns of the stream, one-row, float64-only and with planted +-0, +-inf, NaN
    coeffs = [one, *points, *weights]
    beta = np.linspace(0.0, 0.9, weights[0].size)
    with np.errstate(all="ignore"):
        got = f_quotient_coefficients(coeffs, 2, 1.5, beta, one, zero)
        want = dense(coeffs, 2, 1.5, beta, one, zero)
    same_bits(got, want)


@pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=["float", "rational"])
def test_sparse_extremal_series_keep_their_values_and_types(backend):
    # below the one term of 1 + 2 z^(k-1), u_k is the zero object where an empty sum was divided by k
    one, zero = backend.one, backend.zero
    for k in range(2, 13):
        g = [one, *[zero] * (k - 2), backend.coeff(2)]
        for alpha in (Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(7, 2)):
            c = backend.scalar(1 / alpha)
            got = real_power_coefficients(g, c, one, zero)
            want = real_power_coefficients_dividing(g, c, one, zero)
            assert [type(x) for x in got] == [type(x) for x in want]
            assert got == want and all(x is zero for x in got[1 : k - 1])
            if backend is FLOAT:
                assert float_bits(got) == float_bits(want)


class Tally(complex):
    """A complex that counts the products it is the right operand of."""

    products = 0

    def __rmul__(self, other):
        Tally.products += 1
        return complex.__rmul__(self, other)


def test_no_product_is_formed_with_a_structural_zero():
    k = 12
    zero = Tally(0)
    sparse = [FLOAT.one, *[zero] * (k - 2), 2 + 0j]
    Tally.products = 0
    u = f_quotient_coefficients(sparse, 3, 2.0, 0.25, FLOAT.one, zero)
    assert Tally.products == 0
    assert abs(u[k - 1] - 2 * 0.75 * 2.0**2 / (2.0 + k - 1) ** 3) < 1e-15
    # equal entries that are other objects are computed zeros, and each kernel multiplies them
    computed = [FLOAT.one, *[Tally(0) for _ in range(k - 2)], 2 + 0j]
    for kernel, args, products in (
        (transform_coefficients, (2.0, 3, zero), k - 2),
        (shift_coefficients, (0.25, FLOAT.one, zero), k - 2),
        (real_power_coefficients, (0.5, FLOAT.one, zero), sum(min(i, k - 2) for i in range(1, k))),
    ):
        Tally.products = 0
        kernel(computed, *args)
        assert Tally.products == products, kernel.__name__
