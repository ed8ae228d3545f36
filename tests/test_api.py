"""The public surface: what `coeffbounds` exports, and names that must stay gone."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coeffbounds
from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    GammaScheme,
    TruncatedSeries,
    bounds,
    caratheodory,
    harness,
    schemes,
    series,
    sweeps,
)

REMOVED_EXPORTS = (
    "make_series",
    "kernel_series",
    "TransformParams",
    "a_k_direct",
    "constant_one",
    "geometric",
    "iterated_transform",
    "shift_to_beta",
)


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
        (sweeps, "trial_seed"),
        (sweeps, "_keyed_seed"),
        (sweeps, "sample_atoms"),
        (sweeps, "check_atom_rows"),
        (sweeps, "dominance_witness"),
        (sweeps, "nehari_witness"),
        (caratheodory, "_read_fraction"),
        (caratheodory, "iterated_transform"),
        (caratheodory, "shift_to_beta"),
        (series, "constant_one"),
        (series, "geometric"),
        *(
            (TruncatedSeries, method)
            for method in (
                "__add__", "__sub__", "__neg__", "scale", "__mul__", "integer_power", "real_power",
                "salagean", "evaluate", "shift_up", "to_float", "truncate", "__getitem__", "__len__",
            )
        ),
    ],
)
def test_removed_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_backend_constants_are_shared():
    # zero and one are plain class constants, not rebuilt on every read
    assert RATIONAL.zero is RATIONAL.zero
    assert RATIONAL.one is RATIONAL.one
    assert FLOAT.zero is FLOAT.zero
    assert FLOAT.one is FLOAT.one


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
        (caratheodory.draw_atoms, "max_atoms"),
        (caratheodory.trial_atoms, "max_atoms"),
        (caratheodory.random_herglotz, "max_atoms"),
        (harness._sweep_reports, "witness_of"),
        (schemes.check_gamma_identity, "alpha"),
        (schemes.check_gamma_identity, "tol"),
        (schemes.gamma_identity_residuals, "alpha"),
        (bounds.bound_report, "tol"),
    ],
)
def test_single_valued_knob_is_not_a_parameter(function, parameter):
    # each of these values has one definition, read where it is used
    assert parameter not in inspect.signature(function).parameters


PACKAGE_DIR = Path(coeffbounds.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_random(path):
    # every random draw goes through caratheodory.draw_atoms
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_atom_tolerances_live_in_caratheodory(path):
    # the float atom rules read them in one place, `caratheodory.check_atom_rows`
    text = path.read_text()
    named = any(name in text for name in ("_WEIGHT_SUM_TOL", "_UNIMODULAR_TOL"))
    assert named == (path.name == "caratheodory.py")


def test_sweeps_leave_numpy_random_unimported():
    # numpy.random costs about 2 MB of resident memory once imported
    code = (
        "import contextlib, io, sys\n"
        "from coeffbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['verify', 'random', '--n', '1', '--alpha', '2', '--beta', '0', '--trials', '50'])\n"
        "    main(['verify', 'nehari', '--n', '1', '--alpha', '2', '--beta', '0', '--trials', '50'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
