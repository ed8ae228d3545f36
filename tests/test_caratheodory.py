"""Atom systems, their series, transforms, and serialization."""

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffbounds import (
    FLOAT,
    RATIONAL,
    HerglotzAtoms,
    TruncatedSeries,
    get_doc_backend,
    half_hadamard,
    min_real_part,
    random_herglotz,
)
from coeffbounds._rational import RationalComplex
from coeffbounds.caratheodory import (
    CIRCLE_BLOCK,
    check_atom_rows,
    shift_coefficients,
    transform_coefficients,
)
from oracles import min_real_part_scalar


def transformed(p: TruncatedSeries, n: int, alpha) -> TruncatedSeries:
    """The n-fold transform of p, as a series on p's backend."""
    return TruncatedSeries(transform_coefficients(p.coeffs, alpha, n), p.order, backend=p.backend)


class TestSeries:
    def test_kernel_at_one(self):
        # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
        s = HerglotzAtoms([1.0], [1.0]).series(6)
        assert abs(s.coefficient(0) - 1) < 1e-15
        for k in range(1, 7):
            assert abs(s.coefficient(k) - 2) < 1e-15

    def test_two_atoms_at_plus_minus_one(self):
        atoms = HerglotzAtoms(
            [Fraction(1, 2), Fraction(1, 2)],
            [RationalComplex(1, 0), RationalComplex(-1, 0)],
            backend=RATIONAL,
        )
        s = atoms.series(6)
        for k in range(1, 7):
            expect = RATIONAL.coeff(2 if k % 2 == 0 else 0)
            assert s.coefficient(k) == expect

    def test_cube_roots_pattern(self):
        w = 2 * math.pi / 3
        atoms = HerglotzAtoms.from_angles([1 / 3] * 3, [0.0, w, 2 * w])
        s = atoms.series(9)
        for k in range(1, 10):
            expect = 2.0 if k % 3 == 0 else 0.0
            assert abs(s.coefficient(k) - expect) < 1e-14

    def test_coefficients_bounded_by_two_exactly(self):
        atoms = HerglotzAtoms.from_rational(
            [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
            [Fraction(0), Fraction(1, 2), Fraction(-2, 7)],
        )
        s = atoms.series(12)
        for k in range(1, 13):
            assert s.coefficient(k).abs2() <= 4

    def test_constant_term_is_exactly_one(self):
        atoms = random_herglotz(99)
        assert atoms.series(5).coefficient(0) == 1 + 0j


class TestHalfHadamard:
    def test_coefficientwise_rule(self):
        p = TruncatedSeries([1, 2, -1, 3], 3)
        q = TruncatedSeries([1, 4, 5, -6], 3)
        r = half_hadamard(p, q)
        assert r.coefficient(0) == 1 + 0j
        assert r.coefficient(1) == 4 + 0j
        assert r.coefficient(2) == -2.5 + 0j
        assert r.coefficient(3) == -9 + 0j

    def test_closed_under_class(self):
        # sampled positive-real-part inputs stay positive-real-part
        p = random_herglotz(1).series(32)
        q = random_herglotz(2).series(32)
        r = half_hadamard(p, q)
        assert min_real_part(r, 0.8, 256) > -2 * 0.8**33 / 0.2

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            half_hadamard(TruncatedSeries([2, 1], 1), TruncatedSeries([1, 1], 1))


class TestTransform:
    def test_coefficient_factors(self):
        p = HerglotzAtoms.from_rational([Fraction(1)], [Fraction(0)]).series(4)
        out = transform_coefficients(p.coeffs, Fraction(3), 2)
        # b_k = 2 -> 2 * (3/(3+k))^2
        for k in range(1, 5):
            assert out[k] == RATIONAL.coeff(2 * Fraction(3, 3 + k) ** 2)
        assert out[0] == RATIONAL.one

    def test_composes_additively_in_n(self):
        p = random_herglotz(7).series(10).coeffs
        once = transform_coefficients(transform_coefficients(p, 2.0, 1), 2.0, 2)
        both = transform_coefficients(p, 2.0, 3)
        assert all(abs(a - b) < 1e-14 for a, b in zip(once, both, strict=True))

    def test_n_zero_is_identity(self):
        p = random_herglotz(3).series(8).coeffs
        assert transform_coefficients(p, 5.0, 0) == list(p)

    def test_shift_to_beta_keeps_unit_constant(self):
        p = random_herglotz(21).series(16).coeffs
        shifted = shift_coefficients(p, 0.375, FLOAT.one)
        assert shifted[0] == 1 + 0j
        for k in range(1, 17):
            assert abs(shifted[k] - 0.625 * p[k]) < 1e-15

    def test_shift_to_beta_exact_rational(self):
        p = HerglotzAtoms.from_rational([Fraction(1)], [Fraction(1, 3)]).series(6).coeffs
        shifted = shift_coefficients(p, Fraction(1, 4), RATIONAL.one)
        assert shifted[0] == RATIONAL.one
        assert shifted[2] == RATIONAL.coeff(Fraction(3, 4)) * p[2]


class TestMinRealPart:
    def test_moebius_closed_form(self):
        # min over |z|=r of Re (1+z)/(1-z) is (1-r)/(1+r), at z = -r
        s = HerglotzAtoms([1.0], [1.0]).series(96)
        r = 0.5
        got = min_real_part(s, r, 720)
        tail = 2 * r**97 / (1 - r)
        assert abs(got - (1 - r) / (1 + r)) <= tail + 1e-9

    def test_constant(self):
        assert abs(min_real_part(TruncatedSeries([1], 8), 0.9, 64) - 1.0) < 1e-15

    def test_validates_inputs(self):
        s = TruncatedSeries([1], 4)
        with pytest.raises(ValueError):
            min_real_part(s, 1.0, 64)
        with pytest.raises(ValueError):
            min_real_part(s, 0.5, 4)


def _bitwise_equal(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_coefficient = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_float_coeffs = st.integers(0, 70).flatmap(
    lambda order: st.lists(_coefficient, min_size=order + 1, max_size=order + 1)
)


class TestMinRealPartMatchesScalarLoop:
    """The blocked numpy Horner against the one-point-at-a-time oracle, bit for bit."""

    @settings(max_examples=100)
    @given(
        coeffs=_float_coeffs,
        radius=st.sampled_from([0.01, 0.3, 0.5, 0.9, 0.99, 0.999]),
        samples=st.sampled_from([8, 9, 64, 257, 720, 1001]),
    )
    def test_random_float_series(self, coeffs, radius, samples):
        s = TruncatedSeries(coeffs, len(coeffs) - 1)
        assert _bitwise_equal(min_real_part(s, radius, samples), min_real_part_scalar(s, radius, samples))

    @pytest.mark.parametrize("radius", [0.5, 0.99])
    def test_rational_series(self, radius):
        p = HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(-3, 4)])
        s = transformed(p.series(40), 2, Fraction(3, 2))
        assert s.backend is RATIONAL
        assert _bitwise_equal(min_real_part(s, radius, 720), min_real_part_scalar(s, radius, 720))

    def test_block_merge(self):
        samples = 3 * CIRCLE_BLOCK + 5
        s = random_herglotz(77).series(12)
        assert _bitwise_equal(min_real_part(s, 0.9, samples), min_real_part_scalar(s, 0.9, samples))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [1, 0.5, complex(math.nan, 0), 0.25],  # one NaN coefficient: NaN everywhere
            [complex(2, math.nan), 0.5j],  # NaN only in Im c_0: Re stays finite
            [1, complex(math.inf, math.inf)],  # NaN in two quadrants, +-inf in the others
        ],
    )
    def test_nan_values_are_skipped(self, coeffs):
        s = TruncatedSeries(coeffs, len(coeffs) - 1)
        assert _bitwise_equal(min_real_part(s, 0.5, 64), min_real_part_scalar(s, 0.5, 64))

    def test_all_nan_gives_inf(self):
        s = TruncatedSeries([complex(math.nan, math.nan)] * 3, 2)
        assert min_real_part(s, 0.5, 64) == math.inf

    def test_first_of_signed_zeros_wins(self):
        # Re of the constant -0.0 reads +0.0 at z = radius, and -0.0 wherever Re z < 0 < Im z
        s = TruncatedSeries([complex(-0.0, 0.0)], 0)
        got = min_real_part(s, 0.5, 64)
        assert _bitwise_equal(got, 0.0)
        assert _bitwise_equal(got, min_real_part_scalar(s, 0.5, 64))


def _each_matches_scalar_loop(series, radius, samples):
    got = [min_real_part(s, radius, samples) for s in series]
    for s, value in zip(series, got):
        assert _bitwise_equal(value, min_real_part_scalar(s, radius, samples))
    return got


class TestMinRealPartsMatchesScalarLoop:
    """Series after series, of mixed orders and backends: every call matches the
    point-by-point oracle on that series alone, whatever was evaluated before it."""

    @settings(max_examples=40)
    @given(
        rows=st.lists(_float_coeffs, min_size=1, max_size=12),
        radius=st.sampled_from([0.01, 0.3, 0.5, 0.9, 0.99, 0.999]),
        samples=st.sampled_from([8, 9, 64, 257, 720, 1001]),
    )
    def test_ragged_float_series(self, rows, radius, samples):
        series = [TruncatedSeries(coeffs, len(coeffs) - 1) for coeffs in rows]
        _each_matches_scalar_loop(series, radius, samples)

    def test_rational_series(self):
        p = HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(-3, 4)])
        series = [transformed(p.series(order), n, Fraction(3, 2)) for order, n in ((40, 2), (7, 0), (25, 1))]
        assert all(s.backend is RATIONAL for s in series)
        _each_matches_scalar_loop(series, 0.99, 720)

    @pytest.mark.parametrize("samples", [1001, CIRCLE_BLOCK + 7])
    def test_groups_and_blocks_merge_across_rows(self, samples):
        # above CIRCLE_BLOCK points every series takes two blocks, the second of 7 points
        series = [transformed(random_herglotz(seed).series(8 + 3 * seed), 1, 2.0) for seed in range(9)]
        _each_matches_scalar_loop(series, 0.9, samples)

    def test_nan_and_inf_rows_leave_finite_rows_alone(self):
        series = [
            random_herglotz(3).series(12),
            TruncatedSeries([1, 0.5, complex(math.nan, 0), 0.25], 3),
            TruncatedSeries([1, complex(math.inf, math.inf)], 1),
            random_herglotz(4).series(12),
        ]
        _each_matches_scalar_loop(series, 0.5, 64)

    def test_all_nan_row_gives_inf(self):
        series = [TruncatedSeries([1], 4), TruncatedSeries([complex(math.nan, math.nan)] * 3, 2)]
        assert _each_matches_scalar_loop(series, 0.5, 64) == [1.0, math.inf]

    @pytest.mark.parametrize(
        "coeffs, samples",
        [
            ([complex(-0.0, 0.0)], 64),
            # Re is +-0.0 everywhere, +0.0 at z = radius; the last of three blocks opens on -0.0
            ([complex(-0.0, 0.0), complex(0.0, -0.0)], 12000),
        ],
    )
    def test_signed_zero_tie_in_one_row(self, coeffs, samples):
        series = [random_herglotz(9).series(20), TruncatedSeries(coeffs, len(coeffs) - 1)]
        got = _each_matches_scalar_loop(series, 0.5, samples)
        assert _bitwise_equal(got[1], 0.0)

    def test_empty_list(self):
        # no series gives no values; the circle settings are checked on every call, even for an
        # order-0 series that needs no Horner step, and the least accepted count is exact
        assert _each_matches_scalar_loop([], 0.5, 64) == []
        s = TruncatedSeries([complex(0.25, -1.0)], 0)
        for radius, samples in ((0.0, 64), (1.0, 64), (0.5, 7), (0.5, 8.0)):
            with pytest.raises(ValueError):
                min_real_part(s, radius, samples)
        assert _each_matches_scalar_loop([s], 0.5, 8) == [0.25]

    def test_pass_memory_is_capped_in_cells(self):
        # uncapped, 20000 points would take six work arrays of 20000 doubles (about 0.96 MB);
        # blocks of CIRCLE_BLOCK points peak near 0.35 MB
        s = transformed(random_herglotz(5).series(64), 1, 2.0)
        tracemalloc.start()
        try:
            min_real_part(s, 0.99, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestRandomHerglotz:
    def test_deterministic(self):
        assert random_herglotz(1234) == random_herglotz(1234)
        assert random_herglotz(1234) != random_herglotz(1235)

    def test_weights_sum_exactly_to_one(self):
        # the last weight is defined as 1.0 minus the running float sum of
        # the others, so the sequential total is exactly 1.0
        for seed in range(40):
            atoms = random_herglotz(seed)
            assert sum(atoms.weights) == 1.0
            assert len(atoms) <= 4
            assert all(w > 0 for w in atoms.weights)

    def test_atom_count_varies(self):
        counts = {len(random_herglotz(seed)) for seed in range(60)}
        assert len(counts) > 1


class TestDocuments:
    def test_float_roundtrip(self):
        atoms = random_herglotz(5)
        doc = atoms.to_document()
        assert doc["backend"] == "float"
        back = HerglotzAtoms.from_document(doc)
        # weights serialize verbatim; points go through atan2/exp, which
        # reproduces them only to the last ulp or two
        assert list(back.weights) == list(atoms.weights)
        for got, want in zip(back.points, atoms.points):
            assert abs(got - want) < 1e-15

    def test_rational_roundtrip_with_t(self):
        atoms = HerglotzAtoms.from_rational(
            [Fraction(2, 5), Fraction(3, 5)], [Fraction(0), Fraction(-7, 3)]
        )
        doc = atoms.to_document()
        assert doc["backend"] == "rational"
        assert all("t" in a for a in doc["atoms"])
        assert HerglotzAtoms.from_document(doc) == atoms

    def test_rational_minus_one_fallback(self):
        atoms = HerglotzAtoms(
            [Fraction(1, 2), Fraction(1, 2)],
            [RationalComplex(1, 0), RationalComplex(-1, 0)],
            backend=RATIONAL,
        )
        doc = atoms.to_document()
        fallback = [a for a in doc["atoms"] if "t" not in a]
        assert fallback and fallback[0]["x_re"] == "-1"
        assert HerglotzAtoms.from_document(doc) == atoms

    def test_get_doc_backend(self):
        assert get_doc_backend({"backend": "float", "atoms": []}) is FLOAT
        assert get_doc_backend({"backend": "rational", "atoms": []}) is RATIONAL
        with pytest.raises(ValueError):
            get_doc_backend({"backend": "decimal", "atoms": []})
        with pytest.raises(ValueError):
            get_doc_backend(["not", "a", "dict"])

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            HerglotzAtoms.from_document({"backend": "float", "atoms": [{"weight": 1.0}]})
        with pytest.raises(ValueError):
            HerglotzAtoms.from_document(
                {"backend": "float", "atoms": [{"weight": 0.25, "angle_radians": 0.0}]}
            )

    def test_invalid_atoms_rejected(self):
        with pytest.raises(ValueError):
            HerglotzAtoms([0.5, 0.5], [1.0, 0.5 + 0j])  # not unimodular
        with pytest.raises(ValueError):
            HerglotzAtoms([1.5], [1.0])  # weight sum
        with pytest.raises(ValueError):
            HerglotzAtoms([-0.5, 1.5], [1.0, -1.0])  # negative weight

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_atoms_rejected(self, bad):
        # NaN and infinite values fail the float rules, as in the sweeps' row checks
        with pytest.raises(ValueError, match="positive|sum to 1"):
            HerglotzAtoms([bad], [1.0])
        with pytest.raises(ValueError, match="positive|sum to 1"):
            HerglotzAtoms([0.5, bad], [1.0, -1.0])
        with pytest.raises(ValueError, match="unimodular"):
            HerglotzAtoms.from_angles([0.5, 0.5], [0.0, bad])
        with pytest.raises(ValueError, match="unimodular"):
            HerglotzAtoms([1.0], [complex(bad, 0.0)])

    def test_float_rules_match_the_row_check(self):
        # a float HerglotzAtoms checks its row without numpy; it accepts and rejects
        # what `check_atom_rows` does, with the same message
        def outcome(check):
            try:
                check()
            except ValueError as exc:
                return str(exc)
            return None

        def near(x):
            return (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0))

        sums = (*near(1.0), *near(1.0 + 1e-12), *near(1.0 - 1e-12))
        bad_weights = (0.0, -0.25, math.nan, math.inf, -math.inf)
        # off-axis points only well off the circle: the two moduli may differ in the last bit
        bad_points = (1.5, 0.5j, complex(0.6, 0.8) * 1.001, *near(1.0 + 1e-12), *near(1.0 - 1e-12),
                      -1.0 - 2e-12, complex(math.nan, 0.0), complex(0.0, -math.inf),
                      complex(math.inf, math.nan), complex(1.5e308, 1.5e308))
        seen = set()
        for count in range(1, 8):
            circle = [cmath.exp(2j * math.pi * j / count) for j in range(count)]
            head = [(j + 1) / (count * (count + 1) / 2) for j in range(count - 1)]
            for total, (w_slot, w_bad), (p_slot, p_bad) in itertools.product(
                sums,
                [(None, None), *itertools.product((0, count - 1), bad_weights)],
                [(None, None), *itertools.product((0, count - 1), bad_points)],
            ):
                weights = [*head, total - sum(head)]
                points = list(circle)
                if w_slot is not None:
                    weights[w_slot] = w_bad
                if p_slot is not None:
                    points[p_slot] = complex(p_bad)
                row = (np.array([weights]), np.array([points], dtype=complex), np.array([count]))
                expected = outcome(lambda: check_atom_rows(*row))
                assert outcome(lambda: HerglotzAtoms(weights, points)) == expected, (weights, points)
                rules = ("positive", "sum to 1", "unimodular")
                seen.add(expected and next(rule for rule in rules if rule in expected))
        # the grid passes, and fails each rule
        assert seen == {None, "positive", "sum to 1", "unimodular"}
