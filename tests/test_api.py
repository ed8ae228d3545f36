"""The public surface: what `coeffbounds` exports, and names that must stay gone."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

import coeffbounds
from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    GammaScheme,
    GridSpec,
    HerglotzAtoms,
    Region,
    SmallAlphaBound,
    SuiteEntry,
    SuiteReport,
    TruncatedSeries,
    bounds,
    caratheodory,
    cli,
    harness,
    schemes,
    series,
    sweeps,
)
from coeffbounds._rational import RationalComplex
import oracles

REMOVED_EXPORTS = (
    "make_series",
    "kernel_series",
    "TransformParams",
    "a_k_direct",
    "constant_one",
    "geometric",
    "iterated_transform",
    "shift_to_beta",
    "gamma_identity_residuals",
    "min_real_parts",
    "min_real_part",
    "tail_bound",
    "verify_membership",
    "random_herglotz",
    "half_hadamard",
    "nehari_series",
    "gammas_from_coefficients",
    "get_doc_backend",
    "check_gamma_identity",
    "BoundReport",
    "bound_report",
    "sharp_bound",
    "small_alpha_bound",
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
        (GammaScheme, "etas"),
        (bounds, "a_k_direct"),
        (sweeps, "trial_seed"),
        (sweeps, "_keyed_seed"),
        (sweeps, "sample_atoms"),
        (sweeps, "check_atom_rows"),
        (sweeps, "dominance_witness"),
        (sweeps, "nehari_witness"),
        (sweeps, "dominance_sweep"),
        (sweeps, "nehari_sweep"),
        (sweeps, "_chunked_sweep"),
        *((sweeps, name) for name in ("_blocked_sweep", "_beta_sweep", "_segment_rows", "_block_betas",
                                      "dominance_margins", "nehari_margins")),
        *(
            (sweeps.SweepOutcome({}, worst_trial=0, worst_k=2, worst_margin=0.0, violations=(), violation_count=0),
             field)
            for field in ("trials", "k_values")
        ),
        (caratheodory, "_read_fraction"),
        (caratheodory, "iterated_transform"),
        (caratheodory, "shift_to_beta"),
        (caratheodory, "min_real_parts"),
        (caratheodory, "min_real_part"),
        (caratheodory, "CIRCLE_BLOCK"),
        (caratheodory, "random_herglotz"),
        (caratheodory, "half_hadamard"),
        (caratheodory, "get_doc_backend"),
        (caratheodory, "_fill_atoms"),
        (HerglotzAtoms, "_from_checked"),
        (schemes, "nehari_series"),
        (schemes, "gammas_from_coefficients"),
        (GammaScheme, "xi"),
        (GammaScheme, "omega"),
        (harness, "_require_float"),
        *((RationalComplex, method) for method in ("__rsub__", "__rtruediv__", "__pow__", "conjugate")),
        (bounds, "verify_membership"),
        (harness, "tail_bound"),
        (harness, "DEFAULT_RADIUS"),
        (harness, "DEFAULT_SAMPLES"),
        (schemes, "gamma_identity_residuals"),
        *((schemes, name) for name in ("check_gamma_identity", "IDENTITY_TOL", "gamma_ladder")),
        (GammaScheme, "alpha"),
        (GammaScheme, "gammas"),
        (harness, "hk_weight_row"),
        *((schemes, name) for name in ("build_hk", "hk_weights", "gamma_target", "gamma_identity_row",
                                       "_running_products")),
        (bounds, "sharp_bounds"),
        (bounds, "small_alpha_bounds"),
        *((bounds, name) for name in ("BoundReport", "bound_report", "sharp_bound", "small_alpha_bound",
                                      "_sharp_rows", "_small_alpha_rows", "SHARP_HIT_TOL")),
        (GammaScheme, "sigma"),
        (harness, "ALPHA_ONE_MATCH_TOL"),
        *((harness, name) for name in ("EXTREMAL_REL_TOL", "SHARP_HIT_TOL", "_point_rows")),
        (sweeps, "nehari_bounds"),
        (series, "constant_one"),
        (series, "geometric"),
        (SuiteEntry, "as_dict"),
        *((cli, name) for name in ("_EXPAND_COLUMNS", "_expand_csv", "_run_expand_command")),
        *((cli, name) for name in ("_parse_tokens", "_grid_from_args")),
        *((harness, name) for name in ("_check_n", "_check_k_max")),
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
        (sweeps.dominance_sweeps, "slack"),
        (sweeps.nehari_sweeps, "slack"),
        (sweeps._sweeps, "slack"),
        (sweeps.dominance_magnitudes, "bound"),
        (sweeps.nehari_magnitudes, "bound"),
        (sweeps.dominance_sweeps, "max_atoms"),
        (sweeps.nehari_sweeps, "max_atoms"),
        (caratheodory.draw_atoms, "max_atoms"),
        (caratheodory.trial_atoms, "max_atoms"),
        (oracles.random_herglotz, "max_atoms"),
        (harness._sweep_reports, "witness_of"),
        (harness.run_random_suite, "backend"),
        (harness.run_nehari_suite, "backend"),
        (harness.run_expand, "backend"),
        (schemes.hk_schemes, "backend"),
        (schemes.hk_schemes, "order"),
        (schemes.hk_schemes, "recipe"),
        (schemes.hk_weight_row, "product"),
        (schemes.gamma_target_row, "product"),
        (harness.run_expand, "tol"),
    ],
)
def test_single_valued_knob_is_not_a_parameter(function, parameter):
    # each of these values has one definition, read where it is used
    assert parameter not in inspect.signature(function).parameters


@pytest.mark.parametrize("parameter", ["order", "radius", "samples"])
def test_hk_audit_takes_no_series_settings(parameter):
    # the audit certifies each h_k by its convex weights: no truncation order, no circle
    assert parameter not in inspect.signature(harness.run_hk_audit).parameters


@pytest.mark.parametrize("parameter", ["radius", "samples"])
def test_expand_takes_no_circle_settings(parameter):
    # membership holds by construction and is checked by the round trip: no circle is sampled
    assert parameter not in inspect.signature(harness.run_expand).parameters


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


def _import_time_modules(tree: ast.Module, in_functions: bool = False) -> set:
    """Top-level names of the modules an import statement outside any function names.

    With ``in_functions`` the imports inside function bodies count too. A
    package-relative import counts as the submodules it names:
    ``from . import sweeps`` and ``from .sweeps import x`` both give ``sweeps``.
    """
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_functions:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_only_sweeps_loads_numpy_on_import(path):
    # numpy is about half of the CLI's start-up; the array code imports it in its functions
    loaded = _import_time_modules(ast.parse(path.read_text())) & {"numpy", "sweeps"}
    assert loaded == ({"numpy"} if path.name == "sweeps.py" else set())


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_only_sweeps_imports_ctypes(path):
    # the process-wide malloc settings and the heap trim before a fork keep one home
    imported = _import_time_modules(ast.parse(path.read_text()), in_functions=True)
    assert ("ctypes" in imported) == (path.name == "sweeps.py")


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_loads_no_dataclasses_json_or_pathlib_on_import(path):
    # dataclasses brings inspect, ast and dis; json is for JSON reports and expand alone
    assert _import_time_modules(ast.parse(path.read_text())) & {"dataclasses", "json", "pathlib"} == set()


#: Modules the CLI's import and parser never load; each costs milliseconds of start-up.
_OFF_THE_IMPORT_PATH = ("dataclasses", "inspect", "json", "pathlib", "typing", "numpy")


def test_cli_import_path_leaves_heavy_modules_unloaded(tmp_path):
    doc = tmp_path / "float.json"
    doc.write_text(json.dumps({"backend": "float", "atoms": [{"weight": 1.0, "angle_radians": 0.5}]}))
    code = (
        "import sys\n"
        "import coeffbounds.cli\n"
        "coeffbounds.cli.build_parser()\n"
        f"print(sorted(set({_OFF_THE_IMPORT_PATH!r}) & set(sys.modules)))\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [coeffbounds.cli.main(['bounds', '--kmax', '4', '--format', 'json']),\n"
        f"             coeffbounds.cli.main(['expand', '--pspec', {str(doc)!r}, '--n', '1', '--alpha', '2',\n"
        "                                   '--beta', '0', '--order', '8', '--kmax', '4'])]\n"
        "print(codes, 'json' in sys.modules)\n"
    )
    # -S: no site hook preloads a module, as on an interpreter without site-packages extras
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # the JSON report and the pspec read load json on use, which the probe sees
    assert out.stdout.splitlines() == ["[]", "[0, 0] True"]


def test_import_time_scan_skips_function_bodies():
    tree = ast.parse("import math\nfrom . import sweeps, bounds\nclass A:\n    import numpy as np\n"
                     "def f():\n    import random\n    from .series import x\n")
    assert _import_time_modules(tree) == {"math", "sweeps", "bounds", "numpy"}
    assert _import_time_modules(tree, in_functions=True) == {"math", "sweeps", "bounds", "numpy", "random", "series"}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_atom_tolerances_live_in_caratheodory(path):
    # the float atom rules read them in one place, `caratheodory.check_atom_rows`
    text = path.read_text()
    named = any(name in text for name in ("_WEIGHT_SUM_TOL", "_UNIMODULAR_TOL"))
    assert named == (path.name == "caratheodory.py")


def _triple_reads(tree: ast.Module) -> list:
    """Line of each attribute access that names a slot of the `RationalComplex` triple."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in RationalComplex.__slots__]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_only_rational_reads_the_triple(path):
    # every other module goes through the arithmetic and the Fraction parts re and im
    reads = _triple_reads(ast.parse(path.read_text()))
    assert bool(reads) == (path.name == "_rational.py"), reads


def test_triple_scan_sees_a_slot_read():
    assert _triple_reads(ast.parse("def f(x):\n    return x.re + x._b / x._d\n")) == [2, 2]


def _fraction_uses(tree: ast.Module) -> list:
    """Line of each use of the name ``Fraction`` other than as a type that ``isinstance`` tests."""
    tested = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
              for node in ast.walk(call.args[1])}
    return [node.lineno for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", None)) == "Fraction" and id(node) not in tested]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_only_rational_constructs_fractions(path):
    # every exact value the package builds is a `_rational.Ratio`; other modules only test for Fraction
    if path.name != "_rational.py":
        assert _fraction_uses(ast.parse(path.read_text())) == []


def test_fraction_scan_sees_a_planted_construction():
    tree = ast.parse("import fractions\nfrom fractions import Fraction\n\n"
                     "def f(x):\n    if isinstance(x, (int, Fraction)):\n        return Fraction(x)\n"
                     "    return list(map(Fraction, x)), fractions.Fraction(1, 3)\n")
    assert _fraction_uses(tree) == [6, 7, 7]


def _record_builds(tree: ast.Module) -> list:
    """Line of each `SuiteEntry` or `SuiteReport` call outside the bodies of `_row` and `_report`."""
    builders = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in ("_row", "_report")]
    inside = {id(node) for builder in builders for node in ast.walk(builder)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("SuiteEntry", "SuiteReport")]


def test_harness_builds_records_only_in_row_and_report():
    # one verdict path: the status map and the "no row fails" rule each have one home
    assert _record_builds(ast.parse((PACKAGE_DIR / "harness.py").read_text())) == []


def test_record_scan_sees_a_planted_call():
    tree = ast.parse("def _row(k):\n    return SuiteEntry(k)\n\n"
                     "def run(rows):\n    return [reports.SuiteReport(SuiteEntry(k)) for k in rows]\n")
    assert _record_builds(tree) == [5, 5]


def _bound_decisions(tree: ast.Module) -> list:
    """Line of each module-level ``*_TOL`` constant and of each ``abs2()`` call."""
    constants = [node.lineno for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in getattr(node, "targets", [getattr(node, "target", None)])
                 if isinstance(target, ast.Name) and target.id.endswith("_TOL")]
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "abs2"]
    return constants + calls


@pytest.mark.parametrize("name", ["harness.py", "sweeps.py"])
def test_bound_decisions_live_in_bounds(name):
    # harness and sweeps lay out rows; whether |a_k| meets its bound is `bounds.bound_gap`'s to say
    assert _bound_decisions(ast.parse((PACKAGE_DIR / name).read_text())) == []


def test_bound_decision_scan_sees_a_planted_rule():
    tree = ast.parse("HIT_TOL = 1e-9\nSLACK_TOL: float = 0.1\nLIMIT = 2\n\n"
                     "def f(a, b):\n    return a.abs2() == b * b or abs(a) <= HIT_TOL\n")
    assert _bound_decisions(tree) == [1, 2, 6]


def _scalar_calls(tree: ast.Module) -> list:
    """Line of each ``.scalar(...)`` call: a backend reading a value."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "scalar"]


def test_cli_reads_no_parameter_token():
    # command tokens are read in one place, `harness.default_grid`; the CLI passes its flags on
    assert _scalar_calls(ast.parse((PACKAGE_DIR / "cli.py").read_text())) == []


def test_scalar_call_scan_sees_a_planted_read():
    tree = ast.parse("def read(backend, tokens):\n    scalar = backend.scalar\n"
                     "    return [backend.scalar(t) for t in tokens], scalar(tokens[0])\n")
    assert _scalar_calls(tree) == [3]


@pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
def test_coeff_takes_one_real_value(backend):
    # a complex coefficient is built as one; no caller passes an imaginary part
    assert list(inspect.signature(backend.coeff).parameters) == ["x"]


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


def test_scalar_commands_leave_numpy_unimported(tmp_path):
    # the closed-form and exact commands build no array, so they never pay for numpy's import
    docs = {
        "float": {"backend": "float", "atoms": [{"weight": 1.0, "angle_radians": 0.5}]},
        "rational": {"backend": "rational", "atoms": [{"weight": "1", "t": "1/2"}]},
    }
    paths = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code = (
        f"paths = {paths!r}\n"
        "import contextlib, io, sys\n"
        "import coeffbounds\n"
        "seen = ['numpy' in sys.modules]\n"
        "import coeffbounds.cli\n"
        "coeffbounds.cli.build_parser()\n"
        "seen.append('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for backend in ('float', 'rational'):\n"
        "        for argv in (['bounds'], ['verify', 'extremal'], ['verify', 'hk']):\n"
        "            assert coeffbounds.cli.main([*argv, '--kmax', '6', '--backend', backend]) == 0\n"
        "            seen.append('numpy' in sys.modules)\n"
        "    for path in paths:\n"
        "        assert coeffbounds.cli.main(['expand', '--pspec', path, '--n', '1', '--alpha', '2',\n"
        "                                     '--beta', '0', '--order', '16', '--kmax', '6']) == 0\n"
        "        seen.append('numpy' in sys.modules)\n"
        "    coeffbounds.cli.main(['verify', 'random', '--n', '1', '--alpha', '2', '--beta', '0',\n"
        "                          '--trials', '20'])\n"
        "seen.append('numpy' in sys.modules)\n"
        "print(seen)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # import, parser, six scalar commands and two expands without numpy, then the sweep loads it
    assert out.stdout.strip() == str([False] * 10 + [True])


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement that the module never reads.

    A name listed in ``__all__`` counts as read (a re-export), and
    ``from __future__`` imports bind nothing.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport cmath, math\nfrom x import y\n"
                     "__all__ = ['y']\nmath.pi\n")
    assert _unused_imports(tree) == ["cmath"]


#: A backticked ``module.name``, as README.md and the docstrings cite the package.
_REFERENCE = re.compile(r"`+(\w+)\.(\w+)")
_MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")


def _unresolved_references(where: str, text: str) -> list:
    """``where: module.name`` for each backticked reference to a package module that lacks the name."""
    return [
        f"{where}: {module}.{name}" for module, name in _REFERENCE.findall(text)
        if module in _MODULES and not hasattr(importlib.import_module(f"coeffbounds.{module}"), name)
    ]


def _docstrings(path: Path):
    """(where, docstring) of the module, each class and each function of one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


def test_docs_cite_only_names_that_exist():
    readme = Path(__file__).parents[1] / "README.md"
    texts = [("README.md", readme.read_text(encoding="utf-8"))]
    texts += [item for path in sorted(PACKAGE_DIR.glob("*.py")) for item in _docstrings(path)]
    assert [ref for where, text in texts for ref in _unresolved_references(where, text)] == []


def test_reference_scan_sees_a_missing_name():
    text = "see ``schemes.gamma_value``, `harness.run_hk_audit(alphas)` and `schemes.no_such_name`; `x.y` is no module"
    assert _unresolved_references("t", text) == ["t: schemes.no_such_name"]


def _unread_parameters(tree: ast.Module, prefix: str) -> list:
    """Qualified ``function:parameter`` for each parameter that its function body never reads.

    A method's first parameter (``self`` or ``cls``) is not counted; a read
    in a nested function counts for the function around it.
    """
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                params = [a.arg for a in params if a is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                if in_class and not static:
                    params = params[1:]
                read = {
                    name.id for stmt in child.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
                }
                found.extend(f"{prefix}{child.name}:{p}" for p in params if p not in read)
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, prefix, False)
    return found


#: Immutability guards refuse every assignment, so they read neither the name nor the value.
_UNREAD_MAY_STAY = {
    f"{owner}.__setattr__:{param}"
    for owner in ("_rational.RationalComplex", "caratheodory.HerglotzAtoms", "series.TruncatedSeries")
    for param in ("name", "value")
}


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        unread.update(_unread_parameters(ast.parse(path.read_text()), f"{path.stem}."))
    assert sorted(unread - _UNREAD_MAY_STAY) == []
    assert _UNREAD_MAY_STAY <= unread  # every exemption is still needed


def test_unread_parameter_scan_sees_a_planted_parameter():
    source = (
        "def kernel(a, b, zero, *rest, scale=1, **extra):\n"
        "    def inner():\n"
        "        return b\n"
        "    return a * scale + inner() + len(rest)\n"
        "class A:\n"
        "    def method(self, x):\n"
        "        return 0\n"
        "    @staticmethod\n"
        "    def helper(y, z):\n"
        "        y = 1\n"
        "        return z\n"
    )
    # a parameter that is only assigned to is unread too
    assert _unread_parameters(ast.parse(source), "m.") == [
        "m.kernel:zero", "m.kernel:extra", "m.A.method:x", "m.A.helper:y",
    ]


def _repeated_blocks(sources: dict) -> list:
    """``file:line`` where each stretch of code lines that occurs twice begins.

    Blank lines, comments, docstrings and import statements are skipped and
    the rest stripped. A window of 4 consecutive lines, each at least 9
    characters long, that occurs twice is a repeat (3 lines would flag the
    sign flip `_div` and `Ratio.__pow__` share); overlapping repeated windows
    in one file form one stretch, reported at its first line.
    """
    windows = {}
    for name, text in sources.items():
        skipped = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node) is not None:
                skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        kept = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
                if number not in skipped and line.strip() and not line.strip().startswith("#")]
        for i in range(len(kept) - 3):
            window = tuple(line for _, line in kept[i:i + 4])
            if min(map(len, window)) >= 9:
                windows.setdefault(window, []).append((name, i, kept[i][0]))
    repeats = {(name, i): line for seen in windows.values() if len(seen) > 1 for name, i, line in seen}
    return sorted(f"{name}:{line}" for (name, i), line in repeats.items() if (name, i - 1) not in repeats)


def test_no_code_block_is_repeated():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _repeated_blocks(sources) == []


def test_repeated_block_scan_sees_a_planted_repeat():
    imports = "from x import (\n    alpha_name,\n    beta_name,\n    gamma_name,\n    delta_name,\n)\n"
    doc = '    """The mean of the items.\n\n    Both copies carry this docstring.\n    Its lines repeat too.\n    """\n'
    body = "    total = sum(items)\n    count = len(items)\n    # a comment between\n\n" \
           "    mean = total / count\n    return mean\n"
    sources = {"a.py": imports + "def f(items):\n" + doc + body,
               "b.py": imports + "def g(items):\n" + doc + "    items = list(items)\n" + body
                       + "if items:\n    pass\nelse:\n    pass\nif items:\n    pass\nelse:\n    pass\n"}
    # the import list, the docstring and the short-lined if/else repeat but are no repeated block
    assert _repeated_blocks(sources) == ["a.py:13", "b.py:14"]


def _functions_in(tree: ast.Module, file_name: str, prefix: str) -> dict:
    """Qualified name of every def in a module, keyed by (file name, first line of its code).

    A decorated function's code object starts at its first decorator.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(file_name, line)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, prefix)
    return found


def _defined_functions() -> dict:
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found.update(_functions_in(ast.parse(path.read_text()), path.name, f"{path.stem}."))
    return found


#: Value-type methods that compare, hash, print, measure or guard immutability;
#: no command needs them.
_VALUE_DUNDERS = {"__eq__", "__hash__", "__repr__", "__setattr__", "__len__"}
#: The other package functions the commands below need not enter, and why.
_MAY_STAY_UNENTERED = {
    "backends.Backend.__init__": "runs at import time, when FLOAT and RATIONAL are built",
    "cli.entry": "the console-script wrapper around cli.main",
    "_rational.t_from_unimodular": "writes rational witnesses, which only a failing rational run reaches",
    "_rational._arithmetic": "runs at import time, when the Ratio operators are built",
    "_rational._comparison": "runs at import time, when the Ratio comparisons are built",
    "_rational._complex_arithmetic": "runs at import time, when the RationalComplex operators are built",
    "_rational.Ratio.__neg__": "keeps a negated Ratio a Ratio; no command negates an exact value",
    "caratheodory.HerglotzAtoms.from_rational": "the public constructor of exact atom systems",
    "sweeps._libc": "runs at import time, when mallopt and malloc_trim are bound",
}


def _one_point_commands(tmp_path) -> list:
    """Every command once on one grid point, in CSV and in JSON."""
    point = ["--n", "1", "--alpha", "2", "--beta", "0"]
    commands = []
    for backend in ("float", "rational"):
        flag = ["--backend", backend]
        commands += [["bounds", *point, *flag], ["verify", "extremal", *point, *flag],
                     ["verify", "hk", "--alpha", "2", *flag]]
    # the nehari point fails at n = 1, so its witness atoms are rebuilt too; at 20000 trials
    # it is past the break-even, and its trials split across processes
    commands += [["verify", "random", *point], ["verify", "nehari", *point],
                 ["verify", "nehari", *point, "--trials", "20000"]]
    docs = {
        "float": {"backend": "float", "atoms": [{"weight": 0.5, "angle_radians": 0.7},
                                                 {"weight": 0.5, "angle_radians": -1.3}]},
        "rational": {"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"},
                                                       {"weight": "2/3", "t": "-3/4"}]},
    }
    # alpha 2 compares against the sharp bound, alpha 1/2 against the small-alpha bound
    for (name, doc), alpha in zip(docs.items(), ("2", "1/2")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        commands.append(["expand", "--pspec", str(path), "--n", "1", "--alpha", alpha, "--beta", "0"])
    return [[*argv, "--format", fmt] for argv in commands for fmt in ("csv", "json")]


def test_commands_enter_every_package_function(tmp_path, capsys, monkeypatch):
    # what no command enters is test-only or dead code, unless it is allowed above; two CPUs,
    # whatever the host has, so the split sweep runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    package = str(PACKAGE_DIR)
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            entered.add((Path(code.co_filename).name, code.co_firstlineno))

    # plus one argv that does not parse, which takes the parser's usage-error path
    commands = [*_one_point_commands(tmp_path), ["bounds", "--kmax", "x"]]
    # an earlier test may have built the shared parser; these calls must build it
    cli._shared_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [1 if "nehari" in argv else 0 for argv in commands[:-1]] + [2]
    defined = _defined_functions()
    assert set(_MAY_STAY_UNENTERED) <= set(defined.values())
    unentered = sorted(
        name for key, name in defined.items()
        if key not in entered
        and name not in _MAY_STAY_UNENTERED
        and name.rsplit(".", 1)[1] not in _VALUE_DUNDERS
    )
    assert unentered == []


def test_function_scan_keys_match_code_objects():
    source = "class A:\n    @classmethod\n    def f(cls):\n        def g():\n            pass\n"
    found = _functions_in(ast.parse(source), "m.py", "m.")
    assert found == {("m.py", 2): "m.A.f", ("m.py", 4): "m.A.f.g"}
    codes, stack = [], [compile(source, "m.py", "exec")]
    while stack:
        code = stack.pop()
        codes.append((code.co_name, code.co_firstlineno))
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    assert {("f", 2), ("g", 4)} <= set(codes)


def _one_of_each_record() -> list:
    """One instance of every record, each built by keyword."""
    entry = SuiteEntry(suite="extremal", n="1", alpha="2", beta="0", k="2", case="sharp",
                       observed="0.5", reference="0.5", margin="0", status="pass")
    return [
        ClassParams(n=1, alpha=2.0, beta=0.0),
        SmallAlphaBound(value=0.5, region=Region.OMEGA1),
        entry,
        SuiteReport(suite="extremal", point={"n": "1"}, passed=True, worst_margin=0.0,
                    witness=None, entries=(entry,), elapsed=0.25),
        GammaScheme(k=2, d=(), gamma=Fraction(1), weights=(Fraction(1),), target=Fraction(1)),
        schemes.EvenConstantCheck(k=6, recomputed=Fraction(1, 3), tabulated=Fraction(1, 3), agree=True),
        GridSpec(n_values=(1,), alpha_values=(2.0,), beta_values=(0.0,), k_max=4, trials=8, seed=3),
        sweeps.SweepOutcome(stream_keys={"p": 7}, worst_trial=0, worst_k=2, worst_margin=0.5,
                            violations=(), violation_count=0),
    ]


def test_every_record_is_checked():
    modules = [importlib.import_module(f"coeffbounds.{path.stem}")
               for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]
    found = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
    }
    assert found == {type(record) for record in _one_of_each_record()}


@pytest.mark.parametrize("record", _one_of_each_record(), ids=lambda r: type(r).__name__)
class TestRecordContract:
    def test_refuses_assignment(self, record):
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_positional_equals_keyword(self, record):
        assert type(record)(*record) == record == type(record)(**record._asdict())

    def test_is_a_plain_tuple_of_its_fields(self, record):
        assert record == tuple(getattr(record, name) for name in record._fields)
        assert record._replace() == record


def test_class_params_repr():
    assert repr(ClassParams(n=1, alpha=2.0, beta=0.0)) == "ClassParams(n=1, alpha=2.0, beta=0.0)"


def test_suite_report_elapsed_defaults_to_zero():
    assert SuiteReport("extremal", {}, True, None, None, ()).elapsed == 0.0


def test_assignment_check_sees_a_record_without_slots():
    # without `__slots__ = ()` a named tuple subclass takes new attributes
    loose = type("Loose", (namedtuple("Loose", "a"),), {})(1)
    loose.extra = 0
    assert loose.extra == 0


def test_replace_skips_a_check_kept_in_new_alone():
    # why ClassParams and GridSpec check in `_make`: `_replace` builds through it, not `__new__`
    class NewOnly(namedtuple("NewOnly", "alpha")):
        __slots__ = ()

        def __new__(cls, alpha):
            if not alpha > 0:
                raise ValueError("alpha must be positive")
            return super().__new__(cls, alpha)

    with pytest.raises(ValueError):
        NewOnly(-1.0)
    assert NewOnly(1.0)._replace(alpha=-1.0).alpha == -1.0
