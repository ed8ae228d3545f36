"""Closed-form transform coefficients against the quadrature route.

The transform has an integral definition (n nested weighted averages over
[0, 1]); the library implements the equivalent coefficientwise factor
(alpha/(alpha+k))^n. This file recomputes the coefficients by actually doing
the integrals — Gauss-Legendre in each nesting level, then a DFT around a
circle to read coefficients back off — and compares.
"""

import numpy as np
import pytest

from coeffbounds import FLOAT
from coeffbounds.caratheodory import transform_coefficients
from oracles import random_herglotz, transform_coefficients_by_quadrature


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_quadrature_matches_closed_form(alpha, n):
    atoms = random_herglotz(314)
    p = atoms.series(24)
    closed = transform_coefficients(p.coeffs, alpha, n, FLOAT.zero)
    quad = transform_coefficients_by_quadrature(p, alpha, n, 16)
    for k in range(17):
        assert abs(quad[k] - closed[k]) < 1e-8


def test_quadrature_identity_at_n_zero():
    p = random_herglotz(2718).series(24)
    quad = transform_coefficients_by_quadrature(p, 3.0, 0, 12)
    assert np.allclose(
        quad, [p.coefficient(k) for k in range(13)], atol=1e-9
    )


def test_more_nodes_tighten_agreement():
    p = random_herglotz(55).series(24)
    closed = transform_coefficients(p.coeffs, 0.5, 2, FLOAT.zero)
    coarse = transform_coefficients_by_quadrature(p, 0.5, 2, 10, nodes=8)
    fine = transform_coefficients_by_quadrature(p, 0.5, 2, 10, nodes=48)
    err_coarse = max(abs(coarse[k] - closed[k]) for k in range(11))
    err_fine = max(abs(fine[k] - closed[k]) for k in range(11))
    assert err_fine <= err_coarse
    assert err_fine < 1e-10
