"""Weight ladder, per-index constructions, and the alternating series."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    TruncatedSeries,
    compare_even_constants,
    default_grid,
    gamma_target_row,
    hk_schemes,
    hk_weight_row,
    recipe_even_constant,
)
from coeffbounds._rational import RationalComplex, Ratio
from coeffbounds.caratheodory import (
    HerglotzAtoms,
    atom_coefficients,
    draw_atoms,
    half_hadamard_coefficients,
)
from coeffbounds.schemes import gamma_value, nehari_coefficients
from oracles import (
    draw_atoms_exact,
    gamma_ladder,
    gamma_target,
    hk_coefficients,
    hk_weights,
    min_real_part_scalar,
    nehari_coefficients_full,
    random_herglotz,
    scheme_etas,
)

HALF = Fraction(1, 2)


def scheme_of(k, alpha):
    """The GammaScheme of h(z)_k: the last of `hk_schemes` through k."""
    return list(hk_schemes(k, alpha))[-1]


def nehari(h, G, params, order):
    """A_0..A_order of the Nehari series of coefficient lists h and G; G_0 is the zero."""
    gammas = gamma_ladder(h[1:], order - 1, HALF, G[0])
    return nehari_coefficients(gammas, G[: order + 1], params.n, params.alpha, params.beta, G[0])


class TestGammaLadder:
    def test_target_values(self):
        assert gamma_target_row(1, Fraction(7)) == [1]
        assert gamma_target_row(3, Fraction(2)) == [1, Fraction(1, 4), Fraction(3, 24)]
        # the j = 1 factor kills every target beyond m = 1 at alpha = 1
        assert gamma_target_row(7, Fraction(1)) == [1, 0, 0, 0, 0, 0, 0]

    def test_target_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gamma_target_row(0, Fraction(2))
        with pytest.raises(ValueError):
            gamma_target_row(2, Fraction(0))

    def test_target_refuses_a_bool(self):
        # True == 1, but a bool is not an index
        with pytest.raises(ValueError):
            gamma_target_row(True, Fraction(2))

    def test_zero_coefficients_give_dyadic_ladder(self):
        gammas = gamma_ladder((), 0, HALF, Fraction(0))
        assert gammas == [Fraction(1)]
        zero = Fraction(0)
        for ds in ((Fraction(0),) * 5, (zero,) * 5):  # computed zeros, then the caller's zero object
            assert gamma_ladder(ds, 5, HALF, zero) == [Fraction(1, 2**m) for m in range(6)]

    def test_hand_example(self):
        # d_1 = -1, d_2 = 2: gamma_2 = (1 + (-2 + 2)/2)/4 = 1/4
        gammas = gamma_ladder((Fraction(-1), Fraction(2)), 2, HALF, Fraction(0))
        assert gammas[1] == Fraction(1, 2) * (1 + Fraction(-1, 2))
        assert gammas[2] == Fraction(1, 4)

    def test_ladder_of_atoms_is_an_atom_series(self):
        # d_mu = 2 sum_j w_j x_j^mu with sum_j w_j = 1: the binomial theorem gives
        # gamma_m = sum_j w_j ((1 + x_j) / 2)^m, the atom series the sweeps run
        systems = [
            (list(a.weights), list(a.points))
            for a in (
                HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(-3, 4)]),
                HerglotzAtoms.from_rational([Fraction(1)], [Fraction(5, 7)]),
                # x = -1, which no t reaches, contributes to gamma_0 alone
                HerglotzAtoms([Fraction(1, 4), Fraction(3, 4)], [RATIONAL.coeff(-1), RationalComplex(0, 1)],
                              backend=RATIONAL),
            )
        ]
        systems += [(w[:count], x[:count]) for count, w, x in draw_atoms_exact(0x5BE0CD19137E2179, 0, 12)]
        for weights, points in systems:
            halves = [w / 2 for w in weights], [(1 + x) / 2 for x in points]
            for m_max in (0, 1, 16):
                ds = atom_coefficients(weights, points, m_max, RATIONAL.one)[1:]
                ladder = gamma_ladder(ds, m_max, HALF, RATIONAL.zero)
                assert atom_coefficients(*halves, m_max, RATIONAL.one) == ladder


class TestBuildHk:
    def test_k2_is_constant_one(self):
        scheme = scheme_of(2, Fraction(3, 2))
        assert hk_coefficients(2, Fraction(3, 2), 6) == [1] + [0] * 6
        assert scheme.d == ()
        assert scheme.gamma == scheme.target == 1

    def test_k3_alternating_series(self):
        scheme = scheme_of(3, Fraction(2))
        assert scheme.d == (Fraction(-1),)
        assert hk_coefficients(3, Fraction(2), 6) == [Fraction((-1) ** j) for j in range(7)]
        assert scheme.gamma == scheme.target

    def test_k4_defining_coefficient(self):
        scheme = scheme_of(4, Fraction(2))
        h = hk_coefficients(4, Fraction(2), 8)
        # 2(alpha^2 - 6 alpha + 2)/(3 alpha^2) at alpha=2 is -1
        assert scheme.d == (Fraction(0), Fraction(-1))
        assert h[1] == 0
        assert h[2] == -1
        assert h[4] == 1  # sign alternates with s = -1
        assert h[3] == 0
        assert scheme.gamma == scheme.target

    def test_k5_defining_coefficient(self):
        scheme = scheme_of(5, Fraction(2))
        h = hk_coefficients(5, Fraction(2), 9)
        assert scheme.d == (Fraction(0), Fraction(0), Fraction(-3, 4))
        assert h[3] == Fraction(-3, 4)
        assert h[6] == Fraction(3, 4)
        assert scheme.gamma == scheme.target

    def test_k6_recipe(self):
        scheme = scheme_of(6, Fraction(2))
        h = hk_coefficients(6, Fraction(2), 16)
        assert scheme.d[1] == Fraction(1, 4)  # sigma, the shared even coefficient
        assert h[1] == Fraction(-1, 2)
        for j in range(2, 17):
            assert h[j] == (Fraction(1, 4) if j % 2 == 0 else 0)
        assert scheme.d == (Fraction(-1, 2), Fraction(1, 4), Fraction(0), Fraction(1, 4))
        assert scheme.gamma == scheme.target

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("alpha", [Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(10)])
    def test_identity_exact_across_grid(self, k, alpha):
        scheme = scheme_of(k, alpha)
        assert scheme.gamma == scheme.target == gamma_target(k - 1, alpha)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_coefficients_bounded_by_two(self, k):
        for alpha in (Fraction(11, 10), Fraction(2), Fraction(100)):
            scheme = scheme_of(k, alpha)
            assert all(abs(d) <= 2 for d in scheme.d)

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("alpha", [Fraction(11, 10), Fraction(3, 2), Fraction(6), Fraction(100)])
    def test_series_is_the_weighted_kernel_sum(self, k, alpha):
        # the weights and the coefficients of the kernel sum against the closed forms of hk_schemes
        order = 16
        h = hk_coefficients(k, alpha, order)
        scheme = scheme_of(k, alpha)
        if k == 2:
            weights, want = [1], [0] * order
        elif k == 3:
            weights = [1 - 1 / alpha, 1 / alpha]
            want = [2 * (-1) ** j / alpha for j in range(1, order + 1)]
        elif k in (4, 5):
            if k == 4:
                top = 2 * (alpha**2 - 6 * alpha + 2) / (3 * alpha**2)
            else:
                top = 2 * (3 * alpha**3 - 11 * alpha**2 + 6 * alpha - 1) / (3 * alpha**3)
            s = 1 if top >= 0 else -1
            weights = [1 - abs(top) / 2, abs(top) / 2]
            want = [top * s ** (j // (k - 2) - 1) if j % (k - 2) == 0 else 0 for j in range(1, order + 1)]
        else:
            sigma = recipe_even_constant(k) * math.prod(j * alpha - 1 for j in range(1, k - 1)) / alpha ** (k - 2)
            weights = [1 - Fraction(2, k - 2) - sigma / 2, Fraction(2, k - 2), sigma / 2]
            want = [Fraction(-2, k - 2)] + [sigma if j % 2 == 0 else 0 for j in range(2, order + 1)]
        assert scheme.weights == tuple(weights)
        assert sum(scheme.weights) == 1 and min(scheme.weights) >= 0
        assert h == [1, *want]
        assert scheme.d == tuple(want[: k - 2])

    @pytest.mark.parametrize("alpha", ["11/10", "2", "3", "10"])
    def test_float_weights_track_exact_weights(self, alpha):
        for k in range(2, 13):
            sf = scheme_of(k, FLOAT.scalar(alpha))
            sr = scheme_of(k, RATIONAL.scalar(alpha))
            assert len(sf.weights) == len(sr.weights)
            assert all(abs(f - float(r)) < 1e-14 for f, r in zip(sf.weights, sr.weights))

    @pytest.mark.parametrize("k", range(3, 13))
    def test_stays_positive_real_part(self, k):
        h = TruncatedSeries(hk_coefficients(k, 1.7, 64))
        tail = 2 * 0.99**65 / 0.01
        assert min_real_part_scalar(h, 0.99, 360) >= -tail

    def test_intermediate_orders_drift(self):
        # the d's are solved from the defining order; at k = 4 the m = 2 row
        # reads 1/2 against a target of (alpha-1)/(2 alpha), unequal for
        # every alpha, which is why the audit reads the defining order alone
        scheme = scheme_of(4, Fraction(2))
        gammas = gamma_ladder(scheme.d, scheme.k - 2, HALF, Fraction(0))
        targets = gamma_target_row(scheme.k - 1, Fraction(2))
        rows = {m: (gammas[m - 1], targets[m - 1]) for m in range(1, scheme.k)}
        assert rows[2][0] == Fraction(1, 2)
        assert rows[2][1] == Fraction(1, 4)
        assert rows[3][0] == rows[3][1]

    def test_identity_detects_perturbation(self):
        scheme = scheme_of(5, Fraction(2))
        bad_d = (scheme.d[0], scheme.d[1] + Fraction(1, 1000), scheme.d[2])
        assert gamma_value(bad_d, scheme.k - 2, HALF, Fraction(0)) != scheme.target

    # both sides of the sign changes of d_2 (alpha = 3 + sqrt 7) and of d_3 (alpha near 3.046)
    WEIGHT_ALPHAS = ("1000001/1000000", "11/10", "3/2", "2", "3", "31/10", "4", "5", "56/10", "57/10",
                     "7", "10", "1000")

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    @pytest.mark.parametrize("alpha", WEIGHT_ALPHAS)
    def test_weights_are_the_constructions(self, backend, alpha):
        # a float alpha builds at the binary fraction it stores
        a = backend.scalar(alpha)
        for k, scheme in zip(range(2, 21), hk_schemes(20, a)):
            weights, sign = hk_weights(k, Fraction(a))
            assert list(map(repr, weights)) == list(map(repr, scheme.weights)), k
            if 3 <= k <= 5:  # the sign of the defining coefficient d_(k-2)
                assert sign == (1 if scheme.d[k - 3] >= 0 else -1)
            else:
                assert sign == 1

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    @pytest.mark.parametrize("alpha", WEIGHT_ALPHAS)
    def test_d_is_the_kernel_sum(self, backend, alpha):
        # d_1..d_(k-2) formed from the weights are coefficients 1..k-2 of the weighted kernels
        a = backend.scalar(alpha)
        for k, scheme in zip(range(2, 21), hk_schemes(20, a)):
            assert list(scheme.d) == hk_coefficients(k, Fraction(a), k - 2)[1:], k

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            hk_weight_row(1, 2.0)
        with pytest.raises(ValueError):
            hk_weight_row(4, 1.0)
        with pytest.raises(ValueError):
            hk_weight_row(7, Fraction(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            hk_schemes(1, 2.0)
        with pytest.raises(ValueError):
            hk_schemes(4, 1.0)

    def test_etas(self):
        scheme = scheme_of(3, Fraction(2))
        etas = scheme_etas(scheme, Fraction(2), 1, Fraction(0))
        assert etas[0] == 1
        assert etas[1] == 2 * scheme.gamma / 3

    def test_float_matches_rational(self):
        hf, sf = hk_coefficients(7, 1.5, 12), scheme_of(7, 1.5)
        hr, sr = hk_coefficients(7, Fraction(3, 2), 12), scheme_of(7, Fraction(3, 2))
        for f, r in zip(hf, hr, strict=True):
            assert abs(f - float(r)) < 1e-14
        for f, r in zip(sf.d, sr.d, strict=True):
            assert abs(f - float(r)) < 1e-14


def _bits(value):
    """A value with every float replaced by its hex text, so == compares bits (nan too)."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(_bits, value))
    return (float, value.hex()) if isinstance(value, float) else (type(value), value)


def _outcomes(values):
    """The list of values, or OverflowError at the first value that overflows."""
    out = []
    try:
        for value in values:
            out.append(value())
    except OverflowError:
        return OverflowError
    return out


class TestRows:
    """The weight and target rows against the one-index references of `oracles`."""

    @staticmethod
    def check(k_max, alpha):
        weights = [hk_weights(k, alpha) for k in range(2, k_max + 1)]
        assert _bits(hk_weight_row(k_max, alpha)) == _bits(weights)
        m_max = k_max - 1
        row = _outcomes([lambda: gamma_target_row(m_max, alpha)])
        targets = _outcomes([lambda m=m: gamma_target(m, alpha) for m in range(1, m_max + 1)])
        # at a large float alpha, alpha^(m-1) overflows in the row as in the one-index calls
        assert row is targets if targets is OverflowError else _bits(row[0]) == _bits(targets)

    @settings(max_examples=60)
    @given(st.floats(min_value=1, max_value=1e6, exclude_min=True), st.integers(2, 64))
    @example(1 + 2**-52, 64)
    @example(1e6, 64)
    def test_float_rows_are_the_one_index_values_bit_for_bit(self, alpha, k_max):
        self.check(k_max, alpha)

    @settings(max_examples=15)
    @given(st.tuples(st.integers(1, 2**64 - 1), st.integers(1, 2**64 - 1))
           .map(lambda t: Fraction(max(t), min(t))).filter(lambda a: a > 1), st.integers(2, 64))
    @example(Fraction(2**64 - 1, 2**63 + 1), 64)
    def test_exact_rows_are_the_one_index_values(self, alpha, k_max):
        self.check(k_max, alpha)

    def test_rows_reject_what_the_one_index_calls_reject(self):
        for call in (lambda: hk_weight_row(1, 2.0), lambda: hk_weight_row(8, 1.0),
                     lambda: gamma_target_row(0, 2.0), lambda: gamma_target_row(4, 0.0)):
            with pytest.raises(ValueError):
                call()

    def test_float_alphas_build_at_their_exact_value(self):
        # a stock float alpha builds the schemes of the binary fraction it stores, in Ratios,
        # each gamma the defining-order entry of the whole ladder
        for alpha in default_grid(FLOAT).alpha_values:
            built = list(hk_schemes(12, alpha))
            assert built == list(hk_schemes(12, Fraction(alpha)))
            for k, scheme in zip(range(2, 13), built):
                assert {type(x) for x in (scheme.gamma, scheme.target, *scheme.d, *scheme.weights)} == {Ratio}
                assert scheme.gamma == gamma_ladder(scheme.d, k - 2, HALF, Fraction(0))[-1] == scheme.target


class TestEvenConstants:
    def test_recipe_values(self):
        assert recipe_even_constant(6) == Fraction(4, 105)
        assert recipe_even_constant(7) == Fraction(4, 675)
        assert recipe_even_constant(8) == Fraction(8, 9765)
        assert recipe_even_constant(9) == Fraction(2, 19845)
        assert recipe_even_constant(10) == Fraction(4, 360045)

    def test_recipe_matches_built_sigma(self):
        # sigma (d_2 for k >= 6) should factor as c_k * prod (j alpha - 1) / alpha^(k-2)
        for k in range(6, 11):
            alpha = Fraction(7, 3)
            scheme = scheme_of(k, alpha)
            prod = Fraction(1)
            for j in range(1, k - 1):
                prod *= j * alpha - 1
            assert scheme.d[1] == recipe_even_constant(k) * prod / alpha ** (k - 2)

    def test_reference_table_comparison(self):
        rows = {row.k: row for row in compare_even_constants()}
        assert sorted(rows) == [6, 7, 8, 9, 10]
        for k in (6, 7, 9, 10):
            assert rows[k].agree
        # the k = 8 table entry disagrees with the recipe (8/10765 vs
        # 8/9765); the comparison reports this rather than asserting it away
        assert not rows[8].agree
        assert rows[8].recomputed == Fraction(8, 9765)

    def test_starts_at_six(self):
        with pytest.raises(ValueError):
            recipe_even_constant(5)


class TestNehariSeries:
    zero, one = RATIONAL.zero, RATIONAL.one

    def test_zero_input_gives_zero(self):
        params = ClassParams(1, Fraction(2), Fraction(0))
        out = nehari([self.one] + [self.zero] * 5, [self.zero] * 7, params, 6)
        assert all(c == self.zero for c in out)

    def test_hand_oracle_n0(self):
        # h = 1 (dyadic ladder), G = 2z, n = 0, beta = 0:
        # the m-th term contributes (-1)^(m+1) 2^(1-m) (2z)^m, so A_k = +-2
        h = [self.one] + [self.zero] * 5
        G = [self.zero, RATIONAL.coeff(2)] + [self.zero] * 5
        params = ClassParams(0, Fraction(2), Fraction(0))
        out = nehari(h, G, params, 6)
        for k in range(1, 7):
            assert out[k] == RATIONAL.coeff(2 * (-1) ** (k + 1))
        assert out[0] == self.zero

    def test_hand_oracle_n1(self):
        # same inputs at n = 1, alpha = 2: eta_{m-1} = 2^(2-m)/(m+1), so
        # A_k = (-1)^(k+1) 4/(k+1); in particular |A_1| = 2 while the
        # transform-weighted bound at k = 1 is only 4/3
        h = [self.one] + [self.zero] * 5
        G = [self.zero, RATIONAL.coeff(2)] + [self.zero] * 5
        params = ClassParams(1, Fraction(2), Fraction(0))
        out = nehari(h, G, params, 6)
        for k in range(1, 7):
            assert out[k] == RATIONAL.coeff(Fraction(4 * (-1) ** (k + 1), k + 1))

    @pytest.mark.parametrize("alpha", [1.1, 1e-200])
    def test_weight_denominator_rounds_once(self, alpha):
        # h = 1, G = z, n = 1, beta = 0: A_m = (-1)^(m+1) alpha / (alpha + m - 1), whose denominator
        # is alpha + (m - 1) rounded once; (1.1 + 3) - 1 is one ulp off, and below 2^-53 (alpha + 1) - 1 is 0
        order = 16
        G = [0.0, 1.0] + [0.0] * (order - 1)
        out = nehari_coefficients([1.0] * order, G, 1, alpha, 0.0, FLOAT.zero)
        for m in range(1, order + 1):
            assert out[m] == (-1) ** (m + 1) * (alpha / float(Fraction(alpha) + m - 1)), m

    def test_weighted_bound_fails_for_n_at_least_one(self):
        """The transform-weighted tail bound is genuinely violated at n >= 1.

        h = 1 meets the hypothesis (its transform is still 1, with real part
        above every beta), and the pair p = q = single atom at angle 0 gives
        G with G_1 = 2, hence |A_1| = 2(1-beta). The claimed bound at k = 1
        is 2(1-beta)(alpha/(alpha+1))^n, strictly smaller for n >= 1. This
        test pins the violation as a fact; the verification suite reports it
        as an honest failure rather than papering over it.
        """
        for n in (1, 2, 3):
            for alpha in (Fraction(3, 2), Fraction(2), Fraction(10)):
                for beta in (Fraction(0), Fraction(1, 2)):
                    h = [self.one] + [self.zero] * 7
                    G = [self.zero] + [RATIONAL.coeff(2)] * 7 + [self.zero]
                    params = ClassParams(n, alpha, beta)
                    a1 = nehari(h, G, params, 8)[1]
                    claimed = 2 * (1 - beta) * alpha**n / (alpha + 1) ** n
                    assert a1 == RATIONAL.coeff(2 * (1 - beta))
                    assert a1.re > claimed

    def test_n0_bound_holds_on_samples(self):
        # at n = 0 the weights collapse to the classical ladder and the
        # bound 2(1-beta) holds on sampled generator pairs
        for seed in range(6):
            p = random_herglotz(seed).series(10).coeffs
            q = random_herglotz(seed + 100).series(10).coeffs
            h = random_herglotz(seed + 200).series(9).coeffs
            G = [FLOAT.zero, *half_hadamard_coefficients(p, q, FLOAT.one, 0.5)[1:]]
            out = nehari(h, G, ClassParams(0, 2.0, 0.25), 10)
            for k in range(1, 11):
                assert abs(out[k]) <= 2 * 0.75 + 1e-9


class Counted:
    """A real scalar that tallies every multiplication it takes part in."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def _new(self, value):
        return Counted(value, self.tally)

    @staticmethod
    def _raw(x):
        return x.value if isinstance(x, Counted) else x

    def __add__(self, other):
        return self._new(self.value + self._raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.value - self._raw(other))

    def __rsub__(self, other):
        return self._new(self._raw(other) - self.value)

    def __mul__(self, other):
        self.tally["mul"] += 1
        return self._new(self.value * self._raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._new(self.value / self._raw(other))

    def __neg__(self):
        return self._new(-self.value)


class TestNehariKernel:
    """The shifted-tail kernel against the full-power oracle, and its cost."""

    half = FLOAT.scalar(Fraction(1, 2))

    @staticmethod
    def columns(key, order):
        weights, points = draw_atoms([(key, 0, 64)])[:2]
        return atom_coefficients(list(weights.T), list(points.T), order, FLOAT.one)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("k_max", [1, 2, 3, 12, 16, 24])
    def test_float_columns_equal_full_power_oracle(self, k_max, n):
        d = self.columns(0x1234 + k_max, k_max - 1)
        r = half_hadamard_coefficients(
            self.columns(0x5678 + n, k_max), self.columns(0x9ABC, k_max), FLOAT.one, self.half
        )
        gammas = gamma_ladder(d[1:], k_max - 1, self.half, FLOAT.zero)
        G = [FLOAT.zero, *r[1:]]
        got = nehari_coefficients(gammas, G, n, 2.5, 0.25, FLOAT.zero)
        want = nehari_coefficients_full(gammas, G, n, 2.5, 0.25, FLOAT.zero)
        assert len(got) == len(want) == k_max + 1
        for a, b in zip(got, want):
            assert np.all(a == b)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 5, 8])
    def test_rational_series_equals_full_power_oracle(self, order, n):
        def atoms(*pairs):
            doc = [{"weight": w, "t": t} for w, t in pairs]
            return HerglotzAtoms.from_document({"backend": "rational", "atoms": doc})

        h = TruncatedSeries(hk_coefficients(6, Fraction(5, 2), 8), backend=RATIONAL).coeffs
        p = atoms(("1/3", "1/2"), ("2/3", "-3/4")).series(order).coeffs
        q = atoms(("1/4", "2"), ("3/4", "-1/5")).series(order).coeffs
        r = half_hadamard_coefficients(p, q, RATIONAL.one, HALF)
        G = [RATIONAL.zero, *r[1:]]
        alpha, beta = Fraction(5, 2), Fraction(1, 3)
        got = nehari(h, G, ClassParams(n, alpha, beta), order)
        gammas = gamma_ladder(h[1:], order - 1, HALF, RATIONAL.zero)
        want = nehari_coefficients_full(gammas, G, n, alpha, beta, RATIONAL.zero)
        assert got == want

    @pytest.mark.parametrize("order, full, most", [(12, 1169, 376), (24, 8099, 2624)])
    def test_multiplication_count(self, order, full, most):
        # the full-length powers cost `full` multiplications; the tails at most `most`
        def run(kernel):
            tally = {"mul": 0}
            gammas = [Counted(1.0 / (m + 1), tally) for m in range(order)]
            G = [Counted(0.0, tally)] + [Counted(0.1 * j, tally) for j in range(1, order + 1)]
            out = kernel(gammas, G, 1, 2.0, 0.25, Counted(0.0, tally))
            return tally["mul"], [c.value for c in out]

        full_count, want = run(nehari_coefficients_full)
        count, got = run(nehari_coefficients)
        assert full_count == full
        assert count <= most
        assert got == want
