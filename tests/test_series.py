"""Truncated power-series ring: oracles for product, powers, and stability."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coeffbounds import FLOAT, RATIONAL, TruncatedSeries, constant_one, geometric


def random_rational_series(rng: random.Random, order: int, *, unit=False) -> TruncatedSeries:
    coeffs = [
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(order + 1)
    ]
    if unit:
        coeffs[0] = Fraction(1)
    return TruncatedSeries(
        [RATIONAL.coeff(c) for c in coeffs], order, backend=RATIONAL
    )


def mul_oracle(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Schoolbook double loop, written independently of the library kernel."""
    zero = a.backend.zero
    out = [zero] * (a.order + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            if i + j <= a.order:
                out[i + j] = out[i + j] + ai * bj
    return TruncatedSeries(out, a.order, backend=a.backend)


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

    def test_mixed_backends_rejected(self):
        a = constant_one(3)
        b = constant_one(3, backend=RATIONAL)
        with pytest.raises(ValueError):
            a + b

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constant_one(3) * constant_one(4)

    def test_truncate_cannot_extend(self):
        s = TruncatedSeries([1, 2, 3], 2)
        assert s.truncate(1).coeffs == (1 + 0j, 2 + 0j)
        with pytest.raises(ValueError):
            s.truncate(5)


class TestProduct:
    def test_against_double_loop_float(self):
        rng = random.Random(11)
        for _ in range(20):
            order = rng.randrange(0, 12)
            a = TruncatedSeries(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)],
                order,
            )
            b = TruncatedSeries(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)],
                order,
            )
            got = a * b
            want = mul_oracle(a, b)
            assert all(
                abs(g - w) < 1e-12 for g, w in zip(got.coeffs, want.coeffs)
            )

    def test_against_double_loop_rational(self):
        rng = random.Random(7)
        for _ in range(20):
            order = rng.randrange(0, 10)
            a = random_rational_series(rng, order)
            b = random_rational_series(rng, order)
            assert a * b == mul_oracle(a, b)

    def test_geometric_square(self):
        # (sum z^k)^2 has coefficients k+1
        g = geometric(8)
        sq = g * g
        assert [round(complex(c).real) for c in sq.coeffs] == list(range(1, 10))

    def test_leading_coefficients_stable_under_truncation(self):
        """c_k of a product depends only on inputs up to order k, so dropping
        the order before multiplying never changes the surviving entries."""
        rng = random.Random(3)
        a = random_rational_series(rng, 16)
        b = random_rational_series(rng, 16)
        full = a * b
        cut = a.truncate(9) * b.truncate(9)
        assert full.truncate(9) == cut


class TestPowers:
    def test_integer_power_matches_repeated_multiplication(self):
        rng = random.Random(23)
        for _ in range(25):
            order = rng.randrange(0, 10)
            m = rng.randrange(0, 7)
            s = random_rational_series(rng, order)
            acc = constant_one(order, backend=RATIONAL)
            for _ in range(m):
                acc = acc * s
            assert s.integer_power(m) == acc

    def test_integer_power_rejects_negative(self):
        with pytest.raises(ValueError):
            constant_one(3).integer_power(-1)

    def test_real_power_binomial_coefficients(self):
        # (1 + z)^(1/2) has coefficients C(1/2, k), exactly
        s = TruncatedSeries([RATIONAL.one, RATIONAL.one], 8, backend=RATIONAL)
        half = s.real_power(Fraction(1, 2))
        c = Fraction(1)
        for k, got in enumerate(half.coeffs):
            if k:
                c = c * (Fraction(1, 2) - (k - 1)) / k
            assert got == RATIONAL.coeff(c)

    def test_real_power_one_is_identity(self):
        rng = random.Random(5)
        s = random_rational_series(rng, 9, unit=True)
        assert s.real_power(Fraction(1)) == s

    def test_real_power_inverts(self):
        rng = random.Random(9)
        s = random_rational_series(rng, 9, unit=True)
        c = Fraction(5, 3)
        assert s.real_power(c).real_power(1 / c) == s

    def test_real_power_vs_nested_binomial(self):
        """Recurrence route == sum_m C(c, m) (g - 1)^m, the expansion that
        defines the fractional power of a unit series."""
        rng = random.Random(41)
        for _ in range(10):
            order = rng.randrange(1, 9)
            g = random_rational_series(rng, order, unit=True)
            c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            w = g - constant_one(order, backend=RATIONAL)
            total = constant_one(order, backend=RATIONAL).scale(0)
            binom = Fraction(1)
            wpow = constant_one(order, backend=RATIONAL)
            for m in range(order + 1):
                if m:
                    binom = binom * (c - (m - 1)) / m
                    wpow = wpow * w
                total = total + wpow.scale(binom)
            assert g.real_power(c) == total

    def test_real_power_requires_unit_constant_term(self):
        s = TruncatedSeries([2, 1], 3)
        with pytest.raises(ValueError):
            s.real_power(0.5)

    def test_integer_vs_real_power_agree(self):
        rng = random.Random(13)
        s = random_rational_series(rng, 8, unit=True)
        assert s.real_power(Fraction(3)) == s.integer_power(3)


class TestOperators:
    def test_salagean_multiplies_by_k_to_n(self):
        s = geometric(6, backend=RATIONAL)
        d2 = s.salagean(2)
        assert [d2.coefficient(k) for k in range(7)] == [
            RATIONAL.coeff(k * k) for k in range(7)
        ]

    def test_salagean_zero_is_identity(self):
        s = geometric(5)
        assert s.salagean(0) == s

    def test_evaluate_geometric(self):
        g = geometric(64)
        z = 0.3 + 0.2j
        assert abs(g.evaluate(z) - 1 / (1 - z)) < 1e-12

    def test_shift_up(self):
        s = TruncatedSeries([5, 7], 3)
        up = s.shift_up()
        assert up.coeffs == (0j, 5 + 0j, 7 + 0j, 0j)

    def test_to_float(self):
        s = TruncatedSeries([RATIONAL.coeff(Fraction(1, 4))], 2, backend=RATIONAL)
        f = s.to_float()
        assert f.backend is FLOAT and f.coefficient(0) == 0.25


small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)
series_strategy = st.lists(small_fractions, min_size=1, max_size=7).map(
    lambda cs: TruncatedSeries([RATIONAL.coeff(c) for c in cs], 6, backend=RATIONAL)
)


@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_strategy)
def test_multiplicative_identity(a):
    assert a * constant_one(6, backend=RATIONAL) == a
