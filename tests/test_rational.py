"""Exact complex-rational arithmetic and the unimodular parametrization."""

import copy
import itertools
import math
import operator
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeffbounds import RATIONAL, cli
from coeffbounds._rational import RationalComplex, Ratio, t_from_unimodular, unimodular_from_t

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)


def rc(a, b=0):
    return RationalComplex(Fraction(a), Fraction(b))


parts = st.one_of(st.just(Fraction(0)), fractions)
nonzero = fractions.filter(bool)
OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def zero_patterns(count):
    """Every choice of which of ``count`` operand parts are zero, so each path runs."""
    return pytest.mark.parametrize(
        "zeros",
        list(itertools.product((False, True), repeat=count)),
        ids=lambda zeros: "".join("0" if z else "x" for z in zeros),
    )


def zeroed(values, zeros):
    return [type(v)(0) if z else v for v, z in zip(values, zeros)]


def generic(op, x, y):
    """The full complex formula on (re, im) pairs, with every product formed."""
    (a, b), (c, d) = x, y
    if op == "add":
        return a + c, b + d
    if op == "sub":
        return a - c, b - d
    if op == "mul":
        return a * c - b * d, a * d + b * c
    den = c * c + d * d
    return (a * c + b * d) / den, (b * c - a * d) / den


def assert_canonical(z):
    """The triple (a, b, d) of z = (a + b i) / d has d > 0 and gcd(a, b, d) = 1."""
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1, (a, b, d)


def assert_exact(z, expected):
    assert (z.re, z.im) == expected
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert type(z.re) is Ratio and type(z.im) is Ratio
    assert_canonical(z)
    for name in ("re", "im"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(0))


def check_op(op, x, y, left, right):
    """``left op right`` against the generic formula on the pairs x and y."""
    if op == "div" and not any(y):
        with pytest.raises(ZeroDivisionError):
            OPS[op](left, right)
    else:
        assert_exact(OPS[op](left, right), generic(op, x, y))


class TestArithmetic:
    def test_add_mul_examples(self):
        assert rc(1, 2) + rc(3, -5) == rc(4, -3)
        assert rc(1, 2) * rc(3, 4) == rc(3 - 8, 4 + 6)
        assert rc(0, 1) * rc(0, 1) == rc(-1)

    def test_division_is_exact(self):
        x = rc(Fraction(3, 7), Fraction(-2, 5))
        y = rc(Fraction(1, 3), Fraction(4, 9))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rc(1) / rc(0)

    def test_conjugate_and_abs2(self):
        x = rc(Fraction(3, 5), Fraction(4, 5))
        assert x.abs2() == 1
        assert x * rc(x.re, -x.im) == rc(x.abs2())

    def test_fraction_and_int_mixing(self):
        assert Fraction(1, 2) * rc(4, 6) == rc(2, 3)
        assert rc(4, 6) * Fraction(1, 2) == rc(2, 3)
        assert 2 + rc(1, 1) == rc(3, 1)
        assert rc(1, 1) - 1 == rc(0, 1)

    def test_complex_conversion(self):
        assert complex(rc(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j

    @given(fractions, fractions, fractions, fractions)
    def test_mul_matches_complex(self, a, b, c, d):
        x, y = rc(a, b), rc(c, d)
        z = x * y
        assert z.re == a * c - b * d
        assert z.im == a * d + b * c

    @given(fractions, fractions)
    def test_additive_inverse(self, a, b):
        # the inverse is a subtraction from zero: no kernel negates an exact value
        x = rc(a, b)
        assert_exact(rc(0) - x, (-a, -b))
        assert x + (rc(0) - x) == rc(0)
        with pytest.raises(TypeError):
            -x


class TestCanonicalTriple:
    """One triple per value: d > 0 and gcd(a, b, d) = 1, whatever the operations that reached it."""

    @given(parts, parts)
    def test_construction(self, a, b):
        assert_exact(rc(a, b), (a, b))
        assert_exact(RationalComplex(), (0, 0))

    @pytest.mark.parametrize("divisor", [Fraction(-3, 7), -2, rc(Fraction(-3, 7)), rc(-5, 0),
                                         rc(Fraction(-3, 7), Fraction(2, 9)), rc(-1, -1)],
                             ids=["fraction", "int", "real-rc", "real-int-rc", "complex-rc", "complex-rc-both"])
    @given(x=st.tuples(parts, parts))
    def test_negative_divisors_keep_the_denominator_positive(self, divisor, x):
        a, b = x
        y = (Fraction(divisor), Fraction(0)) if not isinstance(divisor, RationalComplex) else (divisor.re, divisor.im)
        assert_exact(rc(a, b) / divisor, generic("div", (a, b), y))

    @given(fractions, fractions, fractions, fractions, fractions, fractions)
    def test_equal_values_by_different_orders_are_equal_and_hash_equal(self, a, b, c, d, e, f):
        x, y, z = rc(a, b), rc(c, d), rc(e, f)
        pairs = [((x + y) * z, x * z + y * z), ((x + y) + z, x + (y + z)), ((x * y) * z, x * (z * y)),
                 (x - y + z, (z - y) + x)]
        if any((c, d)):
            pairs.append(((x * y) / y, x))
            pairs.append((x / y * z, x * z / y))
        for left, right in pairs:
            assert_canonical(left)
            assert_canonical(right)
            assert left == right and hash(left) == hash(right)

    @given(fractions, fractions)
    def test_parts_are_fractions_of_the_triple(self, a, b):
        z = rc(a, b) * rc(Fraction(1, 3), Fraction(-2, 5))
        assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
        assert type(z.re) is Ratio and type(z.im) is Ratio
        assert (z.re, z.im) == (Fraction(z._a, z._d), Fraction(z._b, z._d))
        for name in ("_a", "_b", "_d"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)


class TestRealOperandPaths:
    """Zero imaginary parts and int/Fraction operands give the generic formula's values."""

    @pytest.mark.parametrize("op", sorted(OPS))
    @zero_patterns(4)
    @settings(max_examples=5)
    @given(values=st.tuples(nonzero, nonzero, nonzero, nonzero))
    def test_two_complex_operands(self, op, zeros, values):
        a, b, c, d = zeroed(values, zeros)
        check_op(op, (a, b), (c, d), rc(a, b), rc(c, d))

    @pytest.mark.parametrize("op", sorted(OPS))
    @zero_patterns(3)
    @settings(max_examples=5)
    @given(values=st.tuples(nonzero, nonzero, st.one_of(st.integers(-50, 50).filter(bool), nonzero,
                                                        nonzero.map(Ratio))))
    # a Ratio is read from its slots, a path of its own, so every op and zero pattern runs one
    @example(values=(Fraction(1, 2), Fraction(-3, 4), Ratio(-5, 7)))
    def test_real_operand_on_either_side(self, op, zeros, values):
        a, b, r = zeroed(values, zeros)
        x, real = (a, b), (Fraction(r), Fraction(0))
        check_op(op, x, real, rc(a, b), r)
        if op in ("add", "mul"):
            check_op(op, real, x, r, rc(a, b))
        else:
            # no computation subtracts from or divides a real by an exact complex
            with pytest.raises(TypeError):
                OPS[op](r, rc(a, b))

    @given(parts, parts, st.one_of(st.integers(-50, 50), parts, parts.map(Ratio)))
    @example(Fraction(2, 3), Fraction(0), Ratio(2, 3))
    @example(Fraction(2, 3), Fraction(1), Ratio(2, 3))
    def test_equality_with_a_real(self, a, b, r):
        assert (rc(a, b) == r) == (r == rc(a, b)) == (a == r and b == 0)
        assert (rc(a, b) != r) == (a != r or b != 0)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_float_operands_are_refused(self, op):
        with pytest.raises(TypeError):
            OPS[op](rc(1, 1), 0.5)
        with pytest.raises(TypeError):
            OPS[op](0.5, rc(1, 1))


def plain(x):
    """The operand a plain-Fraction computation gets in place of ``x``."""
    return Fraction(x) if type(x) is Ratio else x


def outcome(compute):
    """The value of ``compute()``, or the type and message of the arithmetic error it raises."""
    try:
        return compute()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    """A Ratio where Fraction gives a Fraction, with its numerator, denominator, hash and text."""
    if isinstance(want, Fraction):
        assert type(got) is Ratio
        assert (got.numerator, got.denominator, hash(got), str(got)) == (
            want.numerator, want.denominator, hash(want), str(want))
    elif isinstance(want, float) and math.isnan(want):
        assert type(got) is float and math.isnan(got)
    else:
        assert type(got) is type(want) and got == want


ratios = st.one_of(fractions, st.fractions(max_denominator=10**30),
                   st.integers(-(10**40), 10**40).map(Fraction)).map(Ratio)
#: What a Ratio meets: another Ratio, a plain Fraction, an int and a float (nan and inf too).
operands = st.one_of(ratios, st.fractions(max_denominator=10**30), st.integers(-(10**40), 10**40),
                     st.just(0), st.floats())
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
          "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
          "eq": operator.eq, "ne": operator.ne}


class TestRatio:
    """`Ratio` gives what `fractions.Fraction` gives, as a Ratio wherever Fraction gives a Fraction."""

    @pytest.mark.parametrize("op", sorted(BINARY))
    @given(x=ratios, y=operands)
    def test_binary_operators_on_either_side(self, op, x, y):
        f = BINARY[op]
        assert_same(outcome(lambda: f(x, y)), outcome(lambda: f(plain(x), plain(y))))
        assert_same(outcome(lambda: f(y, x)), outcome(lambda: f(plain(y), plain(x))))

    @given(x=ratios, k=st.integers(-7, 7))
    @example(x=Ratio(-1, 3), k=-3)  # a negative base whose inverse has denominator -1 before the sign moves
    def test_int_powers(self, x, k):
        assert_same(outcome(lambda: x**k), outcome(lambda: plain(x) ** k))

    @given(x=ratios, y=st.one_of(st.floats(-4, 4), st.fractions(-4, 4, max_denominator=5)))
    def test_other_exponents_as_fraction(self, x, y):
        got, want = outcome(lambda: x**y), outcome(lambda: plain(x) ** y)
        # a complex power of a negative base: compare by value, nan parts included
        assert type(got) is type(want) and repr(got) == repr(want)

    @given(ratios)
    def test_unary_operators(self, x):
        assert_same(-x, -plain(x))
        assert_same(abs(x), abs(plain(x)))
        assert float(x) == float(plain(x)) and bool(x) == bool(plain(x))

    @pytest.mark.parametrize("zero", [0, Fraction(0), Ratio(0)], ids=["int", "fraction", "ratio"])
    @given(x=ratios, k=st.integers(1, 7))
    def test_zero_division(self, zero, x, k):
        for compute in (lambda a, b: a / b, lambda a, b: b ** -k):
            got, want = outcome(lambda: compute(x, zero)), outcome(lambda: compute(plain(x), plain(zero)))
            assert got == want and got[0] is ZeroDivisionError
        with pytest.raises(ZeroDivisionError, match=r"^Fraction\(3, 0\)$"):
            Ratio(3, 0)

    @given(n=st.integers(-(10**40), 10**40), d=st.integers(-(10**40), 10**40).filter(bool))
    def test_construction(self, n, d):
        assert_same(Ratio(n, d), Fraction(n, d))
        assert_same(Ratio(n), Fraction(n))
        x = Ratio(n, d)
        assert Ratio(x) is x
        for source in (Fraction(n, d), str(Fraction(n, d)), float(n % 1000) / 8):
            assert_same(Ratio(source), Fraction(source))
        assert repr(x) == repr(Fraction(n, d))
        for copied in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert_same(copied, Fraction(n, d))

    def test_writes_the_slots_of_this_interpreter(self):
        # a Ratio is built by writing these two slots; a Python that renames them fails here
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        assert Ratio.__slots__ == ()
        with pytest.raises(AttributeError):
            Ratio(1, 2).__dict__
        assert (Ratio(6, -4)._numerator, Ratio(6, -4)._denominator) == (-3, 2)


class TestUnimodular:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (Fraction(0), rc(1)),
            (Fraction(1), rc(0, 1)),
            (Fraction(-1), rc(0, -1)),
            (Fraction(1, 2), rc(Fraction(3, 5), Fraction(4, 5))),
        ],
    )
    def test_known_points(self, t, expected):
        assert unimodular_from_t(t) == expected

    @given(fractions)
    def test_exactly_unimodular(self, t):
        assert unimodular_from_t(t).abs2() == 1
        assert_canonical(unimodular_from_t(t))

    @given(fractions)
    def test_roundtrip(self, t):
        assert t_from_unimodular(unimodular_from_t(t)) == t

    def test_minus_one_is_unreachable(self):
        # (1 - t^2) + 2ti over 1 + t^2 never lands on -1; the document
        # format keeps an explicit x_re/x_im escape hatch for that point.
        with pytest.raises(ValueError):
            t_from_unimodular(rc(-1))

    def test_t_from_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            t_from_unimodular(rc(Fraction(1, 2)))


class TestExactText:
    """`RATIONAL.format_scalar` writes ints and Fractions as they are, and nothing else."""

    @given(st.one_of(st.integers(-(10**40), 10**40), st.fractions(max_denominator=10**20)))
    def test_text_is_the_fraction_text(self, x):
        assert RATIONAL.format_scalar(x) == str(Fraction(x))

    @pytest.mark.parametrize("x", [True, False, 0.5, 2.0, 1e-320, "1/2", 1j, None], ids=repr)
    def test_rejects_what_is_not_exact(self, x):
        # a float would print its binary expansion or its short repr, neither of them exact text
        with pytest.raises(TypeError):
            RATIONAL.format_scalar(x)

    def test_text_past_the_digit_limit_is_an_overflow(self, capsys):
        big = 10 ** sys.get_int_max_str_digits()
        for x in (big, Fraction(1, big), Fraction(big + 1, 3)):
            with pytest.raises(OverflowError):
                RATIONAL.format_scalar(x)
        # a 64-bit alpha passes the size check, and its k = 30 bounds outgrow the printable digits
        argv = ["bounds", "--backend", "rational", "--n", "3", "--alpha", "1/18446744073709551615",
                "--kmax", "30"]
        assert cli.main(argv) == 2
        assert "digits" in capsys.readouterr().err
