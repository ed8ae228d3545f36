"""Sharp coefficient bounds for an iterated-transform class of univalent-type
power series, with exact-rational and floating-point arithmetic backends,
extremal/randomized verification suites, and a CLI front end.

The mathematical objects, by module:

- :mod:`~coeffbounds.series` — truncated power series over either backend.
- :mod:`~coeffbounds.caratheodory` — positive-real-part generators as finite
  atom systems, their transforms, and serialization.
- :mod:`~coeffbounds.bounds` — the class parameters, the sharp bound, the
  piecewise small-parameter bound with its region map, and the generator
  of a class member (the inverse of the generator-to-function map).
- :mod:`~coeffbounds.schemes` — the weight ladder, the per-index generator
  constructions, and the alternating Nehari-type series.
- :mod:`~coeffbounds.sweeps` — vectorized randomized sweeps over reproducible
  counter-based atom streams.
- :mod:`~coeffbounds.harness` / :mod:`~coeffbounds.reports` /
  :mod:`~coeffbounds.cli` — suites, deterministic reports, command line.
"""

from .backends import FLOAT, RATIONAL, Backend, get_backend
from .bounds import (
    BoundReport,
    ClassParams,
    Region,
    SmallAlphaBound,
    bound_report,
    classify_region,
    extremal_p,
    f_from_p,
    growth_estimate,
    p_from_f,
    sharp_bound,
    sharp_bounds,
    small_alpha_bound,
    small_alpha_bounds,
)
from .caratheodory import (
    HerglotzAtoms,
    get_doc_backend,
    half_hadamard,
)
from .harness import (
    GridSpec,
    UsageError,
    default_grid,
    run_bounds_table,
    run_expand,
    run_extremal_suite,
    run_hk_audit,
    run_nehari_suite,
    run_random_suite,
)
from .reports import SuiteEntry, SuiteReport, suite_csv, suite_json
from .schemes import (
    GammaScheme,
    build_hk,
    check_gamma_identity,
    compare_even_constants,
    gamma_target,
    gammas_from_coefficients,
    hk_weights,
    nehari_series,
    recipe_even_constant,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "FLOAT",
    "RATIONAL",
    "Backend",
    "BoundReport",
    "ClassParams",
    "GammaScheme",
    "GridSpec",
    "HerglotzAtoms",
    "Region",
    "SmallAlphaBound",
    "SuiteEntry",
    "SuiteReport",
    "TruncatedSeries",
    "UsageError",
    "bound_report",
    "build_hk",
    "check_gamma_identity",
    "classify_region",
    "compare_even_constants",
    "default_grid",
    "extremal_p",
    "f_from_p",
    "gamma_target",
    "gammas_from_coefficients",
    "get_backend",
    "get_doc_backend",
    "growth_estimate",
    "half_hadamard",
    "hk_weights",
    "nehari_series",
    "p_from_f",
    "recipe_even_constant",
    "run_bounds_table",
    "run_expand",
    "run_extremal_suite",
    "run_hk_audit",
    "run_nehari_suite",
    "run_random_suite",
    "sharp_bound",
    "sharp_bounds",
    "small_alpha_bound",
    "small_alpha_bounds",
    "suite_csv",
    "suite_json",
]
