"""The series kernels against list oracles: product, powers, and stability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coeffbounds import RATIONAL, TruncatedSeries
from coeffbounds.series import cauchy_coefficients, power_tails, real_power_coefficients
from oracles import add_coefficients, mul_oracle, scale_coefficients

ZERO, ONE = RATIONAL.zero, RATIONAL.one


def random_rational_coeffs(rng: random.Random, order: int, *, unit=False) -> list:
    coeffs = [
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(order + 1)
    ]
    if unit:
        coeffs[0] = Fraction(1)
    return [RATIONAL.coeff(c) for c in coeffs]


def real_power(g, c):
    return real_power_coefficients(g, c, ONE, ZERO)


class TestConstruction:
    def test_pads_and_truncates(self):
        s = TruncatedSeries([1, 2], 4)
        assert s.coeffs == (1 + 0j, 2 + 0j, 0j, 0j, 0j)
        t = TruncatedSeries([1, 2, 3, 4], 2)
        assert t.order == 2 and t.coefficient(2) == 3 + 0j

    def test_coefficient_out_of_range(self):
        s = TruncatedSeries([1, 2], 3)
        with pytest.raises(IndexError):
            s.coefficient(4)
        with pytest.raises(IndexError):
            s.coefficient(-1)

    def test_immutable(self):
        s = TruncatedSeries([1], 1)
        with pytest.raises(AttributeError):
            s.coeffs = ()


class TestProduct:
    def test_against_double_loop_float(self):
        rng = random.Random(11)
        for _ in range(20):
            order = rng.randrange(0, 12)
            a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)]
            b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)]
            got = cauchy_coefficients(a, b)
            want = mul_oracle(a, b, 0j)
            assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    def test_against_double_loop_rational(self):
        rng = random.Random(7)
        for _ in range(20):
            order = rng.randrange(0, 10)
            a = random_rational_coeffs(rng, order)
            b = random_rational_coeffs(rng, order)
            assert cauchy_coefficients(a, b) == mul_oracle(a, b, ZERO)

    def test_geometric_square(self):
        # (sum z^k)^2 has coefficients k+1
        g = [ONE] * 9
        assert cauchy_coefficients(g, g) == [RATIONAL.coeff(k + 1) for k in range(9)]

    def test_leading_coefficients_stable_under_truncation(self):
        """c_k of a product depends only on inputs up to order k, so dropping
        the order before multiplying never changes the surviving entries."""
        rng = random.Random(3)
        a = random_rational_coeffs(rng, 16)
        b = random_rational_coeffs(rng, 16)
        assert cauchy_coefficients(a, b)[:10] == cauchy_coefficients(a[:10], b[:10])


class TestPowers:
    def test_integer_power_matches_repeated_multiplication(self):
        # power_tails(h): (z h)^m = z^m T_m, against G^m by repeated schoolbook products
        rng = random.Random(23)
        for _ in range(25):
            order = rng.randrange(0, 10)
            count = rng.randrange(0, 7)
            h = random_rational_coeffs(rng, order)
            G = [ZERO, *h]
            power = [ONE] + [ZERO] * len(h)
            tails = list(power_tails(h, count))
            assert len(tails) == count
            for m, tail in enumerate(tails, start=1):
                power = mul_oracle(power, G, ZERO)
                assert ([ZERO] * m + tail)[: len(G)] == power

    def test_real_power_binomial_coefficients(self):
        # (1 + z)^(1/2) has coefficients C(1/2, k), exactly
        half = real_power([ONE, ONE] + [ZERO] * 7, Fraction(1, 2))
        c = Fraction(1)
        for k, got in enumerate(half):
            if k:
                c = c * (Fraction(1, 2) - (k - 1)) / k
            assert got == RATIONAL.coeff(c)

    def test_real_power_one_is_identity(self):
        rng = random.Random(5)
        s = random_rational_coeffs(rng, 9, unit=True)
        assert real_power(s, Fraction(1)) == s

    def test_real_power_inverts(self):
        rng = random.Random(9)
        s = random_rational_coeffs(rng, 9, unit=True)
        c = Fraction(5, 3)
        assert real_power(real_power(s, c), 1 / c) == s

    def test_real_power_vs_nested_binomial(self):
        """Recurrence route == sum_m C(c, m) (g - 1)^m, the expansion that
        defines the fractional power of a unit series."""
        rng = random.Random(41)
        for _ in range(10):
            order = rng.randrange(1, 9)
            g = random_rational_coeffs(rng, order, unit=True)
            c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            w = [ZERO, *g[1:]]
            total = [ZERO] * (order + 1)
            binom = Fraction(1)
            wpow = [ONE] + [ZERO] * order
            for m in range(order + 1):
                if m:
                    binom = binom * (c - (m - 1)) / m
                    wpow = mul_oracle(wpow, w, ZERO)
                total = add_coefficients(total, scale_coefficients(binom, wpow))
            assert real_power(g, c) == total

    def test_integer_vs_real_power_agree(self):
        rng = random.Random(13)
        s = random_rational_coeffs(rng, 8, unit=True)
        assert real_power(s, Fraction(3)) == mul_oracle(mul_oracle(s, s, ZERO), s, ZERO)


small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)
series_strategy = st.lists(small_fractions, min_size=1, max_size=7).map(
    lambda cs: [RATIONAL.coeff(c) for c in cs] + [ZERO] * (7 - len(cs))
)


def mul(a, b):
    return cauchy_coefficients(a, b)


@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    add = add_coefficients
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(series_strategy)
def test_multiplicative_identity(a):
    assert mul(a, [ONE] + [ZERO] * 6) == a
