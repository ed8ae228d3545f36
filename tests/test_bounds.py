"""Bound formulas, region map, reconstruction pipeline, membership."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    HerglotzAtoms,
    Region,
    TruncatedSeries,
    bound_report,
    classify_region,
    extremal_p,
    f_from_p,
    growth_estimate,
    p_from_f,
    sharp_bound,
    sharp_bound_rows,
    small_alpha_bound,
    small_alpha_bound_rows,
)
from coeffbounds.bounds import NORMALIZATION_TOL, round_trip_tolerances
from coeffbounds.harness import DEFAULT_ALPHA_TOKENS, DEFAULT_BETA_TOKENS, DEFAULT_N
from oracles import (
    a_k_direct,
    classify_region_by_fractions,
    f_from_p_by_wrappers,
    mul_oracle,
    random_herglotz,
    sharp_bound_formula,
    small_alpha_bound_full,
)


class TestClassParams:
    def test_valid(self):
        p = ClassParams(2, 1.5, 0.25)
        assert (p.n, p.alpha, p.beta) == (2, 1.5, 0.25)

    @pytest.mark.parametrize(
        "n,alpha,beta",
        [(-1, 2.0, 0.0), (1.5, 2.0, 0.0), (1, 0.0, 0.0), (1, -2.0, 0.0), (1, 2.0, 1.0), (1, 2.0, -0.1),
         (True, 2.0, 0.0), (False, 2.0, 0.0)],
    )
    def test_invalid(self, n, alpha, beta):
        with pytest.raises((ValueError, TypeError)):
            ClassParams(n, alpha, beta)
        with pytest.raises((ValueError, TypeError)):
            ClassParams(2, 1.5, 0.25)._replace(n=n, alpha=alpha, beta=beta)


class TestSharpBound:
    def test_reference_value(self):
        assert sharp_bound(ClassParams(1, Fraction(2), Fraction(0)), 2) == Fraction(2, 3)

    def test_float_matches_rational(self):
        pf = ClassParams(3, 1.5, 0.25)
        pr = ClassParams(3, Fraction(3, 2), Fraction(1, 4))
        for k in range(2, 13):
            assert abs(sharp_bound(pf, k) - float(sharp_bound(pr, k))) < 1e-15

    def test_decreasing_in_k(self):
        p = ClassParams(2, 3.0, 0.1)
        values = [sharp_bound(p, k) for k in range(2, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_n_zero_loses_k_dependence(self):
        # at n = 0 the (alpha+k-1)^n factor drops out, leaving 2(1-beta)/alpha
        p = ClassParams(0, Fraction(7, 2), Fraction(1, 4))
        for k in (2, 5, 9):
            assert sharp_bound(p, k) == 2 * Fraction(3, 4) * Fraction(2, 7)


def region_oracle(alpha: Fraction, k: int) -> Region:
    """Direct inequality transcription, written independently."""
    if k == 2:
        return Region.OMEGA1
    if alpha < Fraction(1, k - 2):
        return Region.OMEGA1
    if k % 2 == 0:
        if alpha <= Fraction(1, k - 3):
            return Region.OMEGA2
    else:
        if k == 3 or alpha < Fraction(1, k - 3):
            return Region.OMEGA3
    return Region.OUT_OF_RANGE


class TestRegions:
    def test_against_brute_oracle(self):
        alphas = [Fraction(num, den) for num in range(1, 13) for den in range(1, 9)]
        for k in range(2, 10):
            for a in alphas:
                assert classify_region(a, k) is region_oracle(a, k), (a, k)

    @pytest.mark.parametrize(
        "alpha,k,region",
        [
            (0.17, 2, Region.OMEGA1),
            (100.0, 2, Region.OMEGA1),
            (0.99, 3, Region.OMEGA1),
            (1.0, 3, Region.OMEGA3),
            (2.0, 3, Region.OMEGA3),
            (0.4, 4, Region.OMEGA1),
            (0.5, 4, Region.OMEGA2),
            (1.0, 4, Region.OMEGA2),
            (1.01, 4, Region.OUT_OF_RANGE),
            (0.45, 5, Region.OMEGA3),
            (Fraction(1, 3), 5, Region.OMEGA3),
            (Fraction(1, 2), 5, Region.OUT_OF_RANGE),
            (0.33, 5, Region.OMEGA1),
            (1.0, 5, Region.OUT_OF_RANGE),
        ],
    )
    def test_boundaries(self, alpha, k, region):
        assert classify_region(alpha, k) is region

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify_region(0.5, 1)
        with pytest.raises(ValueError):
            classify_region(0.0, 4)
        with pytest.raises(ValueError):
            classify_region(math.inf, 4)

    @staticmethod
    def edge_alphas(j: int) -> list:
        """1/j and j, each as a float and a Fraction, with the neighbours of 1/j on both sides."""
        edge, tiny = Fraction(1, j), Fraction(1, 10**30)
        return [1 / j, math.nextafter(1 / j, 0.0), math.nextafter(1 / j, math.inf), float(j),
                edge, edge - tiny, edge + tiny, Fraction(j)]

    def test_integer_test_matches_fraction_boundaries_at_the_edges(self):
        # alpha on, just below and just above every boundary 1/(k-2), 1/(k-3) up to k = 40
        cases = 0
        for j in range(1, 39):
            for alpha in self.edge_alphas(j):
                for k in range(2, 41):
                    assert classify_region(alpha, k) is classify_region_by_fractions(alpha, k), (alpha, k)
                    cases += 1
        assert cases == 11856

    @given(
        alpha=st.floats(min_value=0.0, max_value=1e6, exclude_min=True, allow_nan=False)
        | st.fractions(min_value=Fraction(1, 10**9), max_value=100),
        k=st.integers(min_value=2, max_value=40),
    )
    def test_integer_test_matches_fraction_boundaries(self, alpha, k):
        assert classify_region(alpha, k) is classify_region_by_fractions(alpha, k)


def _power(coeffs, m: int) -> list:
    """coeffs^m as m schoolbook products, starting from 1."""
    out = [RATIONAL.one] + [RATIONAL.zero] * (len(coeffs) - 1)
    for _ in range(m):
        out = mul_oracle(out, coeffs, RATIONAL.zero)
    return out


class TestSmallAlphaBound:
    def test_matches_sharp_for_low_indices(self):
        # for k = 2 and 3 the piecewise formula simplifies to the sharp bound
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(5), Fraction(10)):
            for n in (0, 1, 2, 3):
                p = ClassParams(n, alpha, Fraction(1, 4))
                for k in (2, 3):
                    piece = small_alpha_bound(p, k)
                    assert piece.value == sharp_bound(p, k), (alpha, n, k)

    def test_brute_force_expansion_k4(self):
        # omega1 point: expand (sum_j z^j/(alpha+j)^n)^m by schoolbook
        # products and assemble sum_m B_m Q_3^(m) directly
        alpha, n, beta, k = Fraction(3, 10), 1, Fraction(0), 4
        params = ClassParams(n, alpha, beta)
        piece = small_alpha_bound(params, k)
        assert piece.region is Region.OMEGA1

        base = [RATIONAL.zero] + [RATIONAL.coeff(1 / (alpha + j) ** n) for j in range(1, k)]
        total = Fraction(0)
        for m in range(1, k):
            b_m = (
                Fraction(2) ** m
                * (1 - beta) ** m
                * alpha ** (m * (n - 1))
                * math.prod(1 - j * alpha for j in range(m))
                / math.factorial(m)
            )
            total += b_m * _power(base, m)[k - 1].re
        assert piece.value == total

    def test_omega3_uses_shorter_sum(self):
        # k = 5 at alpha in [1/3, 1/2) sums only to m = 3
        params = ClassParams(1, Fraction(2, 5), Fraction(0))
        piece = small_alpha_bound(params, 5)
        assert piece.region is Region.OMEGA3
        base = [RATIONAL.zero] + [RATIONAL.coeff(1 / (Fraction(2, 5) + j)) for j in range(1, 5)]
        total = Fraction(0)
        for m in range(1, 4):
            b_m = (
                Fraction(2) ** m
                * math.prod(1 - j * Fraction(2, 5) for j in range(m))
                / math.factorial(m)
            )
            total += b_m * _power(base, m)[4].re
        assert piece.value == total

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_equals_full_power_oracle(self, exact):
        # the shifted tails form the same non-zero products in the same order
        scalar = (lambda x: x) if exact else float
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(3, 2)):
            for n in (0, 1, 2, 3):
                for beta in (Fraction(0), Fraction(1, 4)):
                    params = ClassParams(n, scalar(alpha), scalar(beta))
                    for k in range(2, 13):
                        want = small_alpha_bound_full(params, k)
                        assert small_alpha_bound(params, k).value == want, (alpha, n, beta, k)

    def test_out_of_range_has_no_value(self):
        piece = small_alpha_bound(ClassParams(1, Fraction(3, 4), Fraction(0)), 5)
        assert piece.value is None
        assert piece.region is Region.OUT_OF_RANGE


def sharp_bounds(params, k_max):
    """The one-beta row of `sharp_bound_rows` at one parameter point."""
    return sharp_bound_rows(params.n, params.alpha, (params.beta,), k_max)[0]


def small_alpha_bounds(params, k_max):
    """The one-beta row of `small_alpha_bound_rows` at one parameter point."""
    return small_alpha_bound_rows(params.n, params.alpha, (params.beta,), k_max)[0]


class TestBoundRows:
    """One row per grid point, equal to the per-index formulas: bit for bit on floats."""

    ALPHAS = tuple(Fraction(a) for a in ("1/10", "1/4", "1/3", "1/2", "2/3", "1", "11/10", "2", "10"))
    BETAS = (Fraction(0), Fraction(1, 4), Fraction(9, 10))

    @pytest.mark.parametrize("k_max", [2, 3, 4, 12, 16])
    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_rows_equal_the_per_index_oracles(self, exact, k_max):
        scalar = (lambda x: x) if exact else float
        ks = range(2, k_max + 1)
        for alpha in self.ALPHAS:
            for n in range(4):
                for beta in self.BETAS:
                    params = ClassParams(n, scalar(alpha), scalar(beta))
                    sharp = sharp_bounds(params, k_max)
                    pieces = small_alpha_bounds(params, k_max)
                    # repr tells every float apart (-0.0 from 0.0 too) and shows a Fraction exactly
                    assert list(map(repr, sharp)) == [repr(sharp_bound_formula(params, k)) for k in ks]
                    assert [repr(p.value) for p in pieces] == [
                        repr(small_alpha_bound_full(params, k)) for k in ks
                    ], (alpha, n, beta)
                    assert [p.region for p in pieces] == [
                        classify_region_by_fractions(params.alpha, k) for k in ks
                    ]
                    # the one-index functions are the one-index rows
                    assert [repr(sharp_bound(params, k)) for k in ks] == list(map(repr, sharp))
                    assert [repr(small_alpha_bound(params, k)) for k in ks] == list(map(repr, pieces))

    @pytest.mark.parametrize("row", [sharp_bounds, small_alpha_bounds])
    def test_rows_need_an_index_of_two(self, row):
        params = ClassParams(1, 0.5, 0.0)
        assert len(row(params, 2)) == 1
        for k_max in (1, 0, 2.0):
            with pytest.raises(ValueError):
                row(params, k_max)


class TestGroupRows:
    """A group call per (n, alpha) gives each beta the row of its own one-beta call."""

    #: the stock alphas, and those of the small-alpha and region-edge pins of tests/test_cli.py
    GRIDS = {
        "stock": DEFAULT_ALPHA_TOKENS,
        "small-alpha": ("1/10", "1/4", "1/3", "1/2"),
        "region-edges": ("1/10", "1/3", "2/3", "1", "3/2"),
    }

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_group_rows_equal_the_one_beta_rows(self, grid, backend):
        # repr tells every float apart (-0.0 from 0.0 too); Fractions compare exactly
        same = repr if backend is FLOAT else (lambda x: x)
        betas = tuple(backend.scalar(token) for token in DEFAULT_BETA_TOKENS)
        for k_max in range(2, 17):
            for n in DEFAULT_N:
                for alpha in map(backend.scalar, self.GRIDS[grid]):
                    sharp = sharp_bound_rows(n, alpha, betas, k_max)
                    pieces = small_alpha_bound_rows(n, alpha, betas, k_max)
                    assert len(sharp) == len(pieces) == len(betas)
                    for beta, sharp_row, piece_row in zip(betas, sharp, pieces):
                        params = ClassParams(n, alpha, beta)
                        assert list(map(same, sharp_row)) == list(map(same, sharp_bounds(params, k_max)))
                        assert list(map(same, piece_row)) == list(map(same, small_alpha_bounds(params, k_max)))

    @pytest.mark.parametrize("rows, one_beta", [(sharp_bound_rows, sharp_bounds),
                                                (small_alpha_bound_rows, small_alpha_bounds)])
    @pytest.mark.parametrize("beta, k_max", [(1.0, 4), (-0.1, 4), (Fraction(3, 2), 4), (0.5, 1), (0.5, 2.0)])
    def test_bad_values_raise_the_one_beta_messages(self, rows, one_beta, beta, k_max):
        with pytest.raises(ValueError) as want:
            one_beta(ClassParams(1, 2.0, beta), k_max)
        with pytest.raises(ValueError) as got:
            rows(1, 2.0, (0.0, beta), k_max)
        assert str(got.value) == str(want.value)


class TestGrowthEstimate:
    def test_hand_value(self):
        assert abs(growth_estimate(1.0, 0) - math.exp(0.624)) < 1e-12
        assert round(growth_estimate(1.0, 0), 4) == 1.8664

    def test_monotone_in_k_for_alpha_above_half(self):
        for alpha in (0.5, 1.0, 2.0):
            vals = [growth_estimate(alpha, k) for k in range(10)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_dominates_transform_coefficients(self):
        # the estimated quantity is a power-quotient coefficient, which for
        # generators built here is at most 2 in magnitude
        for alpha in (1.1, 2.0, 10.0):
            for k in range(17):
                assert growth_estimate(alpha, k) > 2.0

    def test_saturates_for_an_exact_alpha_past_the_float_range(self):
        # what `bounds --backend rational --alpha 1e400` tabulates
        assert growth_estimate(Fraction(10**400), 3) == math.inf
        with pytest.raises(ValueError):
            growth_estimate(Fraction(-(10**400)), 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda flag: TruncatedSeries([1, 2, 3], order=flag),
        lambda flag: f_from_p(extremal_p(2), ClassParams(1, 2.0, 0.0), flag),
        lambda flag: growth_estimate(2.0, flag),
    ],
    ids=["series-order", "f_from_p-order", "growth_estimate-index"],
)
@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_an_order_or_index(call, flag):
    # True == 1 and False == 0, but a bool is neither an order nor an index
    with pytest.raises(ValueError):
        call(flag)


class TestReconstruction:
    def test_constant_generator_gives_identity(self):
        params = ClassParams(2, 1.5, 0.25)
        f = f_from_p(TruncatedSeries([1], 7), params, 7)
        assert abs(f.coefficient(1) - 1) < 1e-15
        assert all(abs(c) < 1e-15 for c in f.coeffs[2:])
        assert abs(f.coefficient(0)) == 0

    def test_alpha_one_closed_form(self):
        # alpha = 1, beta = 0: a_k = 2 / k^n exactly
        kernel = extremal_p(2, backend=RATIONAL)
        for n in (0, 1, 2, 3):
            params = ClassParams(n, Fraction(1), Fraction(0))
            f = f_from_p(kernel, params, 6)
            for k in range(2, 7):
                assert f.coefficient(k) == RATIONAL.coeff(Fraction(2, k**n))

    def test_reference_second_coefficient(self):
        params = ClassParams(1, 2.0, 0.0)
        f = f_from_p(extremal_p(2), params, 4)
        assert abs(f.coefficient(2) - 2 / 3) < 1e-15

    def test_direct_route_matches_pipeline_exactly(self):
        params = ClassParams(2, Fraction(1, 4), Fraction(1, 3))
        atoms = HerglotzAtoms.from_rational(
            [Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1, 5)]
        )
        f = f_from_p(atoms, params, 6)
        p = atoms.series(6)
        for k in range(2, 7):
            assert a_k_direct(p, params, k) == f.coefficient(k)

    def test_direct_route_float(self):
        params = ClassParams(1, 3.0, 0.5)
        atoms = random_herglotz(77)
        f = f_from_p(atoms, params, 8)
        p = atoms.series(8)
        for k in range(2, 9):
            assert abs(a_k_direct(p, params, k) - f.coefficient(k)) < 1e-12


def _generators(backend):
    """Atom systems and one non-Caratheodory series with constant term 1, per backend."""
    if backend is FLOAT:
        atoms = [random_herglotz(seed) for seed in (3, 77, 2**40 + 5)] + [extremal_p(4)]
        series = TruncatedSeries([1, 0.3 - 0.2j, -1.7 + 0.1j, 2.5j, -0.4, 0.9 + 0.9j], 12)
    else:
        atoms = [
            HerglotzAtoms.from_rational([Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1, 5)]),
            HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(2, 3)], [Fraction(-3), Fraction(7, 2)]),
            extremal_p(3, backend=RATIONAL),
        ]
        series = TruncatedSeries(
            [RATIONAL.coeff(1), RATIONAL.coeff(Fraction(3, 7), -2), RATIONAL.coeff(Fraction(-5, 3))],
            12,
            backend=RATIONAL,
        )
    return atoms, series


@pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
class TestOnePassPipeline:
    """`f_from_p` runs transform, beta shift and real power as one pass over the coefficients."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_equals_wrapper_composition(self, backend, n):
        order = 9
        atom_systems, series = _generators(backend)
        generators = [TruncatedSeries(series.coeffs, order - 1, backend=backend), series]
        for atoms in atom_systems:
            generators += [atoms, atoms.series(order - 1), atoms.series(order + 4)]
        for alpha, beta in (("2", "0"), ("3/2", "1/4"), ("1/2", "9/10")):
            params = ClassParams(n, backend.scalar(alpha), backend.scalar(beta))
            for p in generators:
                assert f_from_p(p, params, order) == f_from_p_by_wrappers(p, params, order)

    @pytest.mark.parametrize("p0", [2, 0])
    def test_constant_term_must_be_one(self, backend, p0):
        p = TruncatedSeries([p0, 1, 1, 1], backend=backend)
        for n in (0, 2):
            with pytest.raises(ValueError, match="constant term 1"):
                f_from_p(p, ClassParams(n, backend.scalar(2), backend.scalar(0)), 4)

    def test_series_below_the_needed_order_is_refused(self, backend):
        p = TruncatedSeries([1, 1], backend=backend)
        with pytest.raises(ValueError, match="below the needed"):
            f_from_p(p, ClassParams(1, backend.scalar(2), backend.scalar(0)), 3)

    def test_series_built_per_call(self, backend, monkeypatch):
        atom_systems, series = _generators(backend)
        generators = [atom_systems[0], atom_systems[0].series(20), series]
        built = []
        init = TruncatedSeries.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TruncatedSeries, "__init__", counting)
        for p in generators:
            for n in (0, 3):
                built.clear()
                f_from_p(p, ClassParams(n, backend.scalar(2), backend.scalar("1/4")), 12)
                # at most two: the atoms' own series and the result; a series generator is only sliced
                assert len(built) == (2 if isinstance(p, HerglotzAtoms) else 1)


class TestMembership:
    """`p_from_f` recovers the generator of a class member: the inverse of `f_from_p`."""

    def test_identity_map(self):
        params = ClassParams(1, 2.0, 0.25)
        f = f_from_p(TruncatedSeries([1], 16), params, 16)
        assert p_from_f(f, params) == TruncatedSeries([1], 15)

    def test_extremal_touches_zero(self):
        # the k=2 extremal generator (1+z)/(1-z) sits on the edge of P, Re p -> 0 at z = -1;
        # it comes back within the float tolerances and exactly on the rational backend
        params = ClassParams(1, 2.0, 0.0)
        f = f_from_p(extremal_p(2), params, 128)
        back = p_from_f(f, params)
        tolerances = round_trip_tolerances(f, params)
        assert back.order == 127
        assert all(abs(c - (2 if k else 1)) <= t for k, (c, t) in enumerate(zip(back.coeffs, tolerances)))
        exact = ClassParams(1, Fraction(2), Fraction(0))
        p = extremal_p(2, backend=RATIONAL).series(39)
        assert p_from_f(f_from_p(p, exact, 40), exact) == p

    def test_requires_normalization(self):
        params = ClassParams(1, 2.0, 0.0)
        bad = TruncatedSeries([0, 2, 0, 0], 3)
        with pytest.raises(ValueError):
            p_from_f(bad, params)

    def test_first_coefficient_must_be_exactly_one(self):
        # a_1 within NORMALIZATION_TOL of 1 is refused up front, not inside the real-power kernel
        params = ClassParams(1, 2.0, 0.0)
        near = TruncatedSeries([0, 1 + NORMALIZATION_TOL / 10, 0.1, 0.01], 3)
        with pytest.raises(ValueError) as raised:
            p_from_f(near, params)
        assert str(raised.value) == "f must start as z + a_2 z^2 + ..."
        # a_0 keeps its float tolerance
        shifted = TruncatedSeries([NORMALIZATION_TOL / 10, 1, 0.1, 0.01], 3)
        exact = TruncatedSeries([0, 1, 0.1, 0.01], 3)
        assert p_from_f(shifted, params) == p_from_f(exact, params)

    @pytest.mark.parametrize(
        "coeffs",
        [[0, 1, math.nan], [math.nan, 1, 0.1], [0, 1, complex(0, math.inf)]],
        ids=["nan-a2", "nan-a0", "inf-a2"],
    )
    def test_non_finite_coefficients_are_refused(self, coeffs):
        # unchecked, a NaN a_0 would slip past the normalization tolerance
        with pytest.raises(ValueError, match="non-finite"):
            p_from_f(TruncatedSeries(coeffs, 2), ClassParams(1, 2.0, 0.0))

    def test_overflowed_minimum_is_refused(self):
        # f is finite, but (f/z)^2 = 1 + 2e308 z + ... overflows
        with pytest.raises(ValueError, match="not finite"):
            p_from_f(TruncatedSeries([0, 1, 1e308], 2), ClassParams(0, 2.0, 0.0))

    def test_rational_guard_is_exact(self):
        params = ClassParams(1, Fraction(2), Fraction(0))
        bad = TruncatedSeries(
            [RATIONAL.zero, RATIONAL.coeff(Fraction(999, 1000))], 3, backend=RATIONAL
        )
        with pytest.raises(ValueError):
            p_from_f(bad, params)

    def test_inverts_f_from_p_exactly(self):
        atoms = HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(-3, 4)])
        p = atoms.series(15)
        for n, alpha, beta in ((0, "2", "0"), (3, "11/10", "1/4"), (2, "1/3", "9/10"), (1, "1/10000", "0")):
            params = ClassParams(n, Fraction(alpha), Fraction(beta))
            assert p_from_f(f_from_p(atoms, params, 16), params) == p

    def test_tolerance_formula(self):
        # f = z (1 + z)^(1/2) at alpha = 2: g = f/z has |g_1| = 1/2, so U_1 = |2 - 0| * 1/2 = 1 and
        # U_2 = (|2 - 1| * 1/2 * U_1 + |4 - 0| * |g_2| * U_0) / 2
        params = ClassParams(1, 2.0, 0.5)
        f = TruncatedSeries([0, 1, 0.5, -0.125], 3)
        u2 = (0.5 + 4 * 0.125) / 2
        eps = 2.0**-53
        want = [0.0, 16 * eps * 1.5 * 1.0 / 0.5, 16 * 2 * eps * 2.0 * u2 / 0.5]
        assert round_trip_tolerances(f, params) == pytest.approx(want, rel=1e-15)

    def test_overflowed_tolerance_reads_inf(self):
        # a term whose factor is zero is skipped, so an overflowed U never turns into NaN
        params = ClassParams(0, 1.0, 0.0)
        f = TruncatedSeries([0, 1, 1e300, 1e300, 0, 1e300], 5)
        tolerances = round_trip_tolerances(f, params)
        assert tolerances[-1] == math.inf
        assert not any(math.isnan(t) for t in tolerances)


class TestExtremal:
    def test_atoms_are_roots_of_unity(self):
        atoms = extremal_p(5)
        assert len(atoms) == 4
        for x in atoms.points:
            assert abs(x**4 - 1) < 1e-14
        assert sum(atoms.weights) == 1.0

    def test_series_pattern(self):
        s = extremal_p(4).series(9)
        for k in range(1, 10):
            expect = 2.0 if k % 3 == 0 else 0.0
            assert abs(s.coefficient(k) - expect) < 1e-13

    def test_hits_sharp_bound_float(self):
        for k in range(2, 13):
            for alpha in (1.1, 2.0, 10.0):
                params = ClassParams(2, alpha, 0.25)
                f = f_from_p(extremal_p(k), params, k)
                rel = abs(sharp_bound(params, k) - abs(f.coefficient(k))) / sharp_bound(params, k)
                assert rel < 1e-10, (k, alpha)

    def test_hits_sharp_bound_exactly_rational(self):
        for k in (2, 3):
            atoms = extremal_p(k, backend=RATIONAL)
            params = ClassParams(3, Fraction(3, 2), Fraction(1, 4))
            f = f_from_p(atoms, params, k)
            bound = sharp_bound(params, k)
            assert f.coefficient(k).abs2() == bound * bound

    def test_rational_backend_limited_to_exact_atoms(self):
        with pytest.raises(ValueError):
            extremal_p(4, backend=RATIONAL)


class TestBoundReport:
    def test_sharp_branch(self):
        params = ClassParams(1, Fraction(2), Fraction(0))
        f = f_from_p(extremal_p(2, backend=RATIONAL), params, 2)
        rep = bound_report(params, 2, f.coefficient(2), backend=RATIONAL)
        assert rep.applicable and rep.bound_source == "sharp"
        assert rep.sharp_hit
        assert rep.margin == 0

    def test_small_alpha_branch(self):
        params = ClassParams(1, Fraction(3, 5), Fraction(0))
        rep = bound_report(params, 4, RATIONAL.coeff(Fraction(1, 10)), backend=RATIONAL)
        assert rep.applicable and rep.bound_source == "small_alpha"
        assert rep.region is Region.OMEGA2

    def test_open_window_not_applicable(self):
        # k = 5, alpha between 1/2 and 1: no statement applies
        params = ClassParams(1, 0.75, 0.0)
        rep = bound_report(params, 5, 0.1 + 0j, backend=FLOAT)
        assert not rep.applicable
        assert rep.bound_source is None
        assert math.isnan(rep.bound)
