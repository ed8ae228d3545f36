"""Bound formulas, region map, reconstruction pipeline, membership."""

import math
from fractions import Fraction

import pytest

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
    random_herglotz,
    sharp_bound,
    small_alpha_bound,
    verify_membership,
)
from coeffbounds.bounds import NORMALIZATION_TOL
from oracles import a_k_direct, f_from_p_by_wrappers, mul_oracle, small_alpha_bound_full


class TestClassParams:
    def test_valid(self):
        p = ClassParams(2, 1.5, 0.25)
        assert (p.n, p.alpha, p.beta) == (2, 1.5, 0.25)

    @pytest.mark.parametrize(
        "n,alpha,beta",
        [(-1, 2.0, 0.0), (1.5, 2.0, 0.0), (1, 0.0, 0.0), (1, -2.0, 0.0), (1, 2.0, 1.0), (1, 2.0, -0.1)],
    )
    def test_invalid(self, n, alpha, beta):
        with pytest.raises((ValueError, TypeError)):
            ClassParams(n, alpha, beta)


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
    def test_identity_map(self):
        params = ClassParams(1, 2.0, 0.25)
        f = f_from_p(TruncatedSeries([1], 16), params, 16)
        value = verify_membership(f, params, 0.5, 64)
        assert abs(value - (1 - 0.25)) < 1e-12

    def test_extremal_touches_zero(self):
        # the k=2 extremal generator has min Re = (1-r)/(1+r) - beta + tail noise
        params = ClassParams(1, 2.0, 0.0)
        order = 128
        f = f_from_p(extremal_p(2), params, order)
        r = 0.9
        value = verify_membership(f, params, r, 720)
        tail = 2 * r ** (order + 1) / (1 - r)
        assert abs(value - (1 - r) / (1 + r)) <= tail + 1e-9

    def test_requires_normalization(self):
        params = ClassParams(1, 2.0, 0.0)
        bad = TruncatedSeries([0, 2, 0, 0], 3)
        with pytest.raises(ValueError):
            verify_membership(bad, params, 0.5, 64)

    def test_first_coefficient_must_be_exactly_one(self):
        # a_1 within NORMALIZATION_TOL of 1 is refused up front, not inside the real-power kernel
        params = ClassParams(1, 2.0, 0.0)
        near = TruncatedSeries([0, 1 + NORMALIZATION_TOL / 10, 0.1, 0.01], 3)
        with pytest.raises(ValueError) as raised:
            verify_membership(near, params, 0.9, 64)
        assert str(raised.value) == "f must start as z + a_2 z^2 + ..."
        # a_0 keeps its float tolerance
        shifted = TruncatedSeries([NORMALIZATION_TOL / 10, 1, 0.1, 0.01], 3)
        exact = TruncatedSeries([0, 1, 0.1, 0.01], 3)
        assert verify_membership(shifted, params, 0.9, 64) == verify_membership(exact, params, 0.9, 64)

    @pytest.mark.parametrize(
        "coeffs",
        [[0, 1, math.nan], [math.nan, 1, 0.1], [0, 1, complex(0, math.inf)]],
        ids=["nan-a2", "nan-a0", "inf-a2"],
    )
    def test_non_finite_coefficients_are_refused(self, coeffs):
        # unchecked, a NaN a_2 read inf (every sampled value NaN) and a NaN a_0 slipped
        # past the normalization tolerance and read 0.73
        with pytest.raises(ValueError):
            verify_membership(TruncatedSeries(coeffs, 2), ClassParams(1, 2.0, 0.0), 0.9, 64)

    def test_overflowed_minimum_is_refused(self):
        # f is finite, but (f/z)^2 = 1 + 2e308 z + ... overflows and every sampled value is NaN
        with pytest.raises(ValueError):
            verify_membership(TruncatedSeries([0, 1, 1e308], 2), ClassParams(0, 2.0, 0.0), 0.9, 64)

    def test_rational_guard_is_exact(self):
        params = ClassParams(1, Fraction(2), Fraction(0))
        bad = TruncatedSeries(
            [RATIONAL.zero, RATIONAL.coeff(Fraction(999, 1000))], 3, backend=RATIONAL
        )
        with pytest.raises(ValueError):
            verify_membership(bad, params, 0.5, 64)


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
