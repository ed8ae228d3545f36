"""Atom systems, their series, transforms, and serialization."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from coeffbounds import (
    FLOAT,
    RATIONAL,
    HerglotzAtoms,
    TruncatedSeries,
    get_doc_backend,
    half_hadamard,
)
from coeffbounds._rational import RationalComplex
from coeffbounds.caratheodory import (
    check_atom_rows,
    shift_coefficients,
    transform_coefficients,
)
from oracles import min_real_part_scalar, random_herglotz


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
        assert min_real_part_scalar(r, 0.8, 256) > -2 * 0.8**33 / 0.2

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
    """The circle minimum the positivity probes read, `oracles.min_real_part_scalar`."""

    def test_moebius_closed_form(self):
        # min over |z|=r of Re (1+z)/(1-z) is (1-r)/(1+r), at z = -r
        s = HerglotzAtoms([1.0], [1.0]).series(96)
        r = 0.5
        got = min_real_part_scalar(s, r, 720)
        tail = 2 * r**97 / (1 - r)
        assert abs(got - (1 - r) / (1 + r)) <= tail + 1e-9

    def test_constant(self):
        assert abs(min_real_part_scalar(TruncatedSeries([1], 8), 0.9, 64) - 1.0) < 1e-15


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
