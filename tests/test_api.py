"""The public surface: what `coeffbounds` exports, and names that must stay gone."""

import inspect

import pytest

import coeffbounds
from coeffbounds import FLOAT, RATIONAL, ClassParams, GammaScheme, bounds, harness, schemes, sweeps

REMOVED_EXPORTS = ("make_series", "kernel_series", "TransformParams", "a_k_direct")


def test_every_export_resolves():
    missing = [name for name in coeffbounds.__all__ if not hasattr(coeffbounds, name)]
    assert not missing


def test_exports_are_unique():
    assert len(coeffbounds.__all__) == len(set(coeffbounds.__all__))


@pytest.mark.parametrize("name", REMOVED_EXPORTS)
def test_removed_name_is_not_exported(name):
    assert name not in coeffbounds.__all__
    assert not hasattr(coeffbounds, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (FLOAT, "parse_scalar"),
        (FLOAT, "to_complex"),
        (FLOAT, "abs2"),
        (RATIONAL, "parse_scalar"),
        (RATIONAL, "to_complex"),
        (RATIONAL, "abs2"),
        (ClassParams, "transform"),
        (GammaScheme, "m_max"),
        (bounds, "a_k_direct"),
    ],
)
def test_removed_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "function, parameter",
    [
        (harness.run_extremal_suite, "rel_tol"),
        (harness.run_random_suite, "slack"),
        (harness.run_nehari_suite, "slack"),
        (harness.run_hk_audit, "identity_tol"),
        (sweeps.dominance_sweep, "slack"),
        (sweeps.nehari_sweep, "slack"),
        (sweeps._chunked_sweep, "slack"),
        (sweeps.dominance_sweep, "max_atoms"),
        (sweeps.nehari_sweep, "max_atoms"),
        (sweeps.dominance_witness, "max_atoms"),
        (sweeps.nehari_witness, "max_atoms"),
        (schemes.check_gamma_identity, "alpha"),
        (schemes.check_gamma_identity, "tol"),
        (schemes.gamma_identity_residuals, "alpha"),
        (bounds.bound_report, "tol"),
    ],
)
def test_single_valued_knob_is_not_a_parameter(function, parameter):
    # each of these values has one definition, read where it is used
    assert parameter not in inspect.signature(function).parameters
