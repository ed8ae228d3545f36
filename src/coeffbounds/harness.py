"""Verification harness: parameter grids, suites, audits, report assembly.

Each ``run_*`` function walks a parameter grid, performs its checks, and
returns :class:`~coeffbounds.reports.SuiteReport` objects with
pre-formatted entries (exact fraction strings on the rational backend,
17-digit floats otherwise). Configuration problems raise
:class:`UsageError`, which the CLI distinguishes (exit 2) from genuine
assertion failures (exit 1).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .backends import FLOAT, RATIONAL, Backend
from .bounds import (
    SLACK,
    ClassParams,
    bound_report,
    extremal_p,
    f_from_p,
    growth_estimate,
    p_from_f,
    round_trip_tolerances,
    sharp_bounds,
    small_alpha_bounds,
)
from .caratheodory import HerglotzAtoms, trial_atoms
from .reports import SuiteEntry, SuiteReport, fmt_float
from .schemes import (
    build_hk,
    check_gamma_identity,
    compare_even_constants,
    gamma_identity_row,
    hk_weights,
)


class UsageError(ValueError):
    """Bad configuration or malformed input; the CLI maps this to exit 2."""


DEFAULT_N = (0, 1, 2, 3)
DEFAULT_ALPHA_TOKENS = ("1.1", "1.5", "2", "3", "5", "10")
DEFAULT_BETA_TOKENS = ("0", "0.25", "0.5", "0.9")
DEFAULT_K_MAX = 12
DEFAULT_ORDER = 64
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1729
#: Largest relative gap |bound - |a_k|| / bound of a float extremal generator.
EXTREMAL_REL_TOL = 1e-10
#: Largest |a_k| gap at which the alpha = 1 audit matches a closed form 2/k^n or 2/(k+1)^n.
ALPHA_ONE_MATCH_TOL = 1e-12
#: Largest bit length of the numerator or the denominator of an exact alpha or
#: beta (19 decimal digits fit). Exact bounds and expansions grow with it: a
#: 400-digit alpha keeps a rational ``expand`` busy for minutes.
MAX_EXACT_BITS = 64
#: Largest k_max of every command and largest series order of ``expand``.
#: The costliest work grows like the index to the power 2.8: at 256, one
#: 4096-trial block of ``verify nehari`` takes about 30 s and 130 MB, and a
#: rational ``expand`` about 10 s; each doubling multiplies the time by about 7.
MAX_ORDER = 256


def _check_k_max(k_max):
    if not isinstance(k_max, int) or k_max < 2:
        raise UsageError(f"k_max must be an integer >= 2, got {k_max!r}")
    if k_max > MAX_ORDER:
        raise UsageError(f"k_max must be at most {MAX_ORDER}, got {k_max!r}")


def _check_exact_size(values, what: str):
    """An exact value past `MAX_EXACT_BITS` is a usage error; floats pass."""
    for value in values:
        if not isinstance(value, Fraction):
            continue
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > MAX_EXACT_BITS:
            # the value itself is not printed: it may pass the interpreter's digit limit
            raise UsageError(f"exact {what} has a {bits}-bit numerator or denominator, "
                             f"over the {MAX_EXACT_BITS}-bit limit")


def _reject_repeats(values, what: str):
    """A value given twice, compared after parsing (so 1/2 and 0.5 are one), is a usage error."""
    seen = set()
    for value in values:
        if value in seen:
            raise UsageError(f"{what} value {value} is given more than once")
        seen.add(value)


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid plus sampling configuration for the suites."""

    n_values: tuple
    alpha_values: tuple
    beta_values: tuple
    k_max: int = DEFAULT_K_MAX
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.n_values:
            raise UsageError("empty n list")
        if not self.alpha_values:
            raise UsageError("empty alpha list")
        if not self.beta_values:
            raise UsageError("empty beta list")
        for n in self.n_values:
            if not isinstance(n, int) or n < 0:
                raise UsageError(f"n must be a non-negative integer, got {n!r}")
        for a in self.alpha_values:
            if not a > 0:
                raise UsageError(f"alpha must be positive, got {a!r}")
        for b in self.beta_values:
            if not (0 <= b < 1):
                raise UsageError(f"beta must lie in [0, 1), got {b!r}")
        _check_exact_size(self.alpha_values, "alpha")
        _check_exact_size(self.beta_values, "beta")
        _reject_repeats(self.n_values, "n")
        _reject_repeats(self.alpha_values, "alpha")
        _reject_repeats(self.beta_values, "beta")
        _check_k_max(self.k_max)
        if not isinstance(self.trials, int) or self.trials < 1:
            raise UsageError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")

    def points(self):
        return itertools.product(self.n_values, self.alpha_values, self.beta_values)


def default_grid(backend: Backend = FLOAT, **overrides) -> GridSpec:
    """The stock grid: n 0..3, alpha 1.1..10, beta 0..0.9, k_max 12."""
    values = dict(
        n_values=DEFAULT_N,
        alpha_values=tuple(backend.scalar(t) for t in DEFAULT_ALPHA_TOKENS),
        beta_values=tuple(backend.scalar(t) for t in DEFAULT_BETA_TOKENS),
    )
    values.update(overrides)
    return GridSpec(**values)


def _require_alpha_gt1(alpha_values, suite: str):
    for a in alpha_values:
        if not a > 1:
            raise UsageError(f"the {suite} suite needs every alpha > 1, got {a!r}")


def _point(backend: Backend, n: int, alpha, beta) -> dict:
    return {
        "n": str(n),
        "alpha": backend.format_scalar(alpha),
        "beta": backend.format_scalar(beta),
    }


def _fmt_coeff(backend: Backend, c) -> str:
    if backend is RATIONAL:
        return str(c)
    z = complex(c)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}j"


# -- bounds table -----------------------------------------------------------

BOUNDS_COLUMNS = (
    "n",
    "alpha",
    "beta",
    "k",
    "sharp_bound",
    "small_alpha_bound",
    "region",
    "growth_estimate",
)


def run_bounds_table(grid: GridSpec, backend: Backend = FLOAT):
    """Tabulated bound values over the grid: one row per (n, alpha, beta, k).

    The bounds of a grid point come from one `sharp_bounds` and one
    `small_alpha_bounds` call for all its k.
    """
    ks = range(2, grid.k_max + 1)
    growth = {alpha: [fmt_float(growth_estimate(alpha, k)) for k in ks] for alpha in grid.alpha_values}
    rows = []
    for n, alpha, beta in grid.points():
        params = ClassParams(n, alpha, beta)
        point = _point(backend, n, alpha, beta)
        sharp_row = sharp_bounds(params, grid.k_max)
        piece_row = small_alpha_bounds(params, grid.k_max)
        for k, sharp, piece, growth_cell in zip(ks, sharp_row, piece_row, growth[alpha]):
            rows.append(
                {
                    **point,
                    "k": str(k),
                    "sharp_bound": backend.format_scalar(sharp),
                    "small_alpha_bound": ""
                    if piece.value is None
                    else backend.format_scalar(piece.value),
                    "region": piece.region.value,
                    "growth_estimate": growth_cell,
                }
            )
    return BOUNDS_COLUMNS, rows


# -- extremal suite ---------------------------------------------------------


def run_extremal_suite(grid: GridSpec, backend: Backend = FLOAT):
    """Extremal generators must hit the sharp bound at every grid point.

    Float backend: relative deviation at most `EXTREMAL_REL_TOL` for k = 2..k_max.
    Rational backend: exact equality, where the extremal atoms exist
    exactly (k = 2 and 3); higher k would need irrational atoms.
    """
    _require_alpha_gt1(grid.alpha_values, "extremal")
    k_top = grid.k_max if backend is FLOAT else min(grid.k_max, 3)
    # the generators depend on k alone: build each once, keep the atoms for witnesses
    generators = {}
    for k in range(2, k_top + 1):
        atoms = extremal_p(k, backend=backend)
        generators[k] = (atoms, atoms.series(k - 1))
    reports = []
    for n, alpha, beta in grid.points():
        start = time.perf_counter()
        params = ClassParams(n, alpha, beta)
        point = _point(backend, n, alpha, beta)
        entries = []
        passed = True
        worst = 0.0
        witness = None
        for k, bound in zip(range(2, k_top + 1), sharp_bounds(params, k_top)):
            atoms, series = generators[k]
            f = f_from_p(series, params, k)
            a_k = f.coefficient(k)
            if backend is RATIONAL:
                ok = a_k.abs2() == bound * bound
                rel = 0.0 if ok else abs(float(bound) - abs(complex(a_k))) / float(bound)
                observed = backend.format_scalar(a_k.re)
            else:
                rel = abs(bound - abs(a_k)) / bound
                ok = rel <= EXTREMAL_REL_TOL
                observed = fmt_float(abs(a_k))
            worst = max(worst, rel)
            if not ok:
                passed = False
                if witness is None:
                    witness = {"k": k, "atoms": atoms.to_document()}
            entries.append(
                SuiteEntry(
                    suite="extremal",
                    **point,
                    k=str(k),
                    case="sharp equality",
                    observed=observed,
                    reference=backend.format_scalar(bound),
                    margin=fmt_float(rel),
                    status="pass" if ok else "fail",
                )
            )
        reports.append(
            SuiteReport(
                suite="extremal",
                point=point,
                passed=passed,
                worst_margin=worst,
                witness=witness,
                entries=tuple(entries),
                elapsed=time.perf_counter() - start,
            )
        )
    return reports


# -- randomized suites ------------------------------------------------------

def _sweep_reports(grid, suite, sweep):
    """One report per grid point; a failing point's witness is its first violation.

    The sweeps sample float generators, so the grid holds float values. One
    sweep call covers the betas of one (n, alpha), so each of its points
    reports the group's time split evenly.
    """
    reports = []
    for n, alpha in itertools.product(grid.n_values, grid.alpha_values):
        start = time.perf_counter()
        outcomes = sweep(grid.seed, n, alpha, grid.beta_values, grid.trials, grid.k_max)
        group = [_sweep_report(suite, grid, _point(FLOAT, n, alpha, beta), outcome)
                 for beta, outcome in zip(grid.beta_values, outcomes)]
        elapsed = (time.perf_counter() - start) / len(group)
        reports += [SuiteReport(**fields, elapsed=elapsed) for fields in group]
    return reports


def _sweep_report(suite, grid, point, outcome) -> dict:
    """The SuiteReport fields of one point's sweep outcome, all but the elapsed time."""
    entries = [
        SuiteEntry(
            suite=suite,
            **point,
            k=str(outcome.worst_k),
            case=f"worst margin over {grid.trials} trials",
            observed=fmt_float(outcome.worst_margin),
            reference=fmt_float(-SLACK),
            margin=fmt_float(outcome.worst_margin),
            status="pass" if not outcome.violation_count else "fail",
        )
    ]
    for trial, k, margin in outcome.violations:
        entries.append(
            SuiteEntry(
                suite=suite,
                **point,
                k=str(k),
                case=f"violation in trial {trial}",
                observed=fmt_float(margin),
                reference=fmt_float(-SLACK),
                margin=fmt_float(margin),
                status="fail",
            )
        )
    hidden = outcome.violation_count - len(outcome.violations)
    if hidden > 0:
        entries.append(
            SuiteEntry(
                suite=suite,
                **point,
                k="",
                case=f"{hidden} further violations not listed",
                observed=str(outcome.violation_count),
                reference="0",
                margin="",
                status="info",
            )
        )
    witness = None
    if outcome.violations:
        trial, k, margin = outcome.violations[0]
        witness = {
            "trial": trial,
            "k": k,
            "margin": fmt_float(margin),
            "stream_keys": outcome.stream_keys,
            "atoms": {
                role: trial_atoms(key, trial).to_document()
                for role, key in outcome.stream_keys.items()
            },
        }
    return dict(
        suite=suite,
        point=point,
        passed=not outcome.violation_count,
        worst_margin=outcome.worst_margin,
        witness=witness,
        entries=tuple(entries),
    )


def run_random_suite(grid: GridSpec):
    """Random generators never exceed the sharp bound (dominance check)."""
    from . import sweeps  # numpy loads with the sweeps, not with the CLI

    _require_alpha_gt1(grid.alpha_values, "random")
    return _sweep_reports(grid, "random", sweeps.dominance_sweeps)


def run_nehari_suite(grid: GridSpec):
    """Sampled alternating series against the claimed transform-weighted bound.

    The n = 0 rows reduce to the classical coefficient bound (scaled by
    1 - beta) and pass; for n >= 1 the claimed bound is genuinely violated
    — a single-atom pair already gives |A_1| = 2(1-beta) against a bound of
    2(1-beta) (alpha/(alpha+1))^n — so those grid points report failures
    with reproducible witnesses. That asymmetry is the finding, not a bug;
    the suite reports it honestly rather than weakening the check.
    """
    from . import sweeps

    return _sweep_reports(grid, "nehari", sweeps.nehari_sweeps)


# -- h_k audit ---------------------------------------------------------------


def run_hk_audit(alpha_values, k_max: int = DEFAULT_K_MAX, backend: Backend = FLOAT):
    """Audit the per-index generator constructions.

    Per alpha and k: the gamma-ladder identity at its defining order
    (exact on the rational backend), the coefficient-magnitude bound
    |d_mu| <= 2, and the membership certificate h(z)_k in P: the class is
    convex, so h is a member exactly when the weights of its convex
    combination of kernels lie in the simplex (every weight >= 0, sum 1).
    That verdict is exact on both backends: the weights are recomputed in
    Fractions from the exact value of alpha (for a float alpha, the binary
    fraction it stores). Two cross-cutting sections follow: the k = 6..10
    even-coefficient constants recomputed against the reference table
    (disagreements are reported, not asserted away), and the alpha = 1
    closed form, which matches 2(1-beta)/k^n — not the (k+1)-indexed
    variant sometimes quoted.
    """
    if not alpha_values:
        raise UsageError("empty alpha list")
    _require_alpha_gt1(alpha_values, "hk")
    _check_exact_size(alpha_values, "alpha")
    _reject_repeats(alpha_values, "alpha")
    _check_k_max(k_max)
    reports = []
    for alpha in alpha_values:
        start = time.perf_counter()
        point = {"alpha": backend.format_scalar(alpha), "section": "construction"}
        entries = []
        passed = True
        worst = 0.0
        for k in range(2, k_max + 1):
            scheme = build_hk(k, alpha, backend=backend)
            # the membership verdict reads the weights at the exact value of alpha
            weights = scheme.weights if backend is RATIONAL else hk_weights(k, Fraction(alpha))[0]
            m, value, target, residual = gamma_identity_row(scheme, k - 1)
            worst = max(worst, residual)
            d_max = max((abs(d) for d in scheme.d), default=0)
            w_min = min(weights)
            checks = (  # (case, observed, reference, margin, verdict)
                (f"gamma identity at defining order m={m}", backend.format_scalar(value),
                 backend.format_scalar(target), fmt_float(residual), check_gamma_identity(scheme)),
                ("coefficient magnitude max|d|", backend.format_scalar(d_max), "2",
                 fmt_float(2 - float(d_max)), d_max <= 2),
                ("convex weights of the construction", backend.format_scalar(w_min), "0",
                 fmt_float(w_min), w_min >= 0 and sum(weights) == 1),
            )
            for case, observed, reference, margin, ok in checks:
                entries.append(
                    SuiteEntry(suite="hk", n="", alpha=point["alpha"], beta="", k=str(k), case=case,
                               observed=observed, reference=reference, margin=margin,
                               status="pass" if ok else "fail")
                )
                passed = passed and ok
        reports.append(
            SuiteReport(
                suite="hk",
                point=point,
                passed=passed,
                worst_margin=worst,
                witness=None,
                entries=tuple(entries),
                elapsed=time.perf_counter() - start,
            )
        )
    reports.append(_even_constant_report())
    reports.append(_alpha_one_report(backend))
    return reports


def _even_constant_report() -> SuiteReport:
    entries = []
    for row in compare_even_constants():
        entries.append(
            SuiteEntry(
                suite="hk",
                n="",
                alpha="",
                beta="",
                k=str(row.k),
                case="even-coefficient constant, recipe vs reference table"
                + ("" if row.agree else " (table entry looks like a digit slip)"),
                observed=str(row.recomputed),
                reference=str(row.tabulated),
                margin=fmt_float(float(row.recomputed / row.tabulated) - 1.0),
                status="pass" if row.agree else "info",
            )
        )
    return SuiteReport(
        suite="hk",
        point={"section": "even-constants"},
        passed=True,
        worst_margin=None,
        witness=None,
        entries=tuple(entries),
    )


def _alpha_one_report(backend: Backend) -> SuiteReport:
    entries = []
    one = backend.scalar(1)
    zero = backend.scalar(0)
    kernel = extremal_p(2, backend=backend)
    for n in (1, 2):
        params = ClassParams(n, one, zero)
        for k in (2, 3, 4, 5):
            f = f_from_p(kernel, params, k)
            a_abs = abs(complex(f.coefficient(k)))
            k_form = 2.0 / k**n
            k1_form = 2.0 / (k + 1) ** n
            matches = "k" if abs(a_abs - k_form) <= ALPHA_ONE_MATCH_TOL else (
                "k+1" if abs(a_abs - k1_form) <= ALPHA_ONE_MATCH_TOL else "neither"
            )
            entries.append(
                SuiteEntry(
                    suite="hk",
                    n=str(n),
                    alpha=backend.format_scalar(one),
                    beta=backend.format_scalar(zero),
                    k=str(k),
                    case=f"alpha=1 closed form exponent base (matches {matches}^n)",
                    observed=fmt_float(a_abs),
                    reference=f"2/k^n={fmt_float(k_form)}; 2/(k+1)^n={fmt_float(k1_form)}",
                    margin=fmt_float(a_abs - k_form),
                    status="pass" if matches == "k" else "fail",
                )
            )
    return SuiteReport(
        suite="hk",
        point={"section": "alpha-1-exponent"},
        passed=all(e.status == "pass" for e in entries),
        worst_margin=None,
        witness=None,
        entries=tuple(entries),
    )


# -- expand ------------------------------------------------------------------


def _round_trip(backend: Backend, p, back, f, params) -> tuple:
    """Verdict, index, residual and tolerance of the round trip p -> f -> p_from_f(f).

    Rational: "pass" only when every coefficient is equal, tolerance 0.
    Float: "fail" when some |p_k - back_k| exceeds its tolerance from
    `round_trip_tolerances`, "info" when some tolerance is 2 or more (the
    coefficient bound of P, so it judges nothing), "pass" otherwise. The
    index reported is the first tolerance that judges nothing on "info",
    otherwise the largest residual relative to its tolerance.
    """
    residuals = [abs(complex(b - c)) for b, c in zip(back.coeffs, p.coeffs)]
    if backend is RATIONAL:
        tolerances = [0.0] * len(residuals)
        status = "pass" if back.coeffs == p.coeffs else "fail"
    else:
        tolerances = round_trip_tolerances(f, params)
        if any(r > t for r, t in zip(residuals, tolerances)):
            status = "fail"
        else:
            status = "pass" if all(t < 2 for t in tolerances) else "info"
    ks = range(1, len(residuals))
    if status == "info":
        k = next(k for k in ks if not tolerances[k] < 2)
    else:
        k = max(ks, key=lambda k: _ratio(residuals[k], tolerances[k]))
    return status, k, residuals[k], tolerances[k]


def _ratio(residual: float, tolerance: float) -> float:
    if tolerance:
        return residual / tolerance
    return math.inf if residual else 0.0


def run_expand(
    doc: dict, n: int, alpha, beta, order: int = DEFAULT_ORDER, k_max: int = DEFAULT_K_MAX
) -> dict:
    """Expand one generator document into f, per-k bound reports, membership.

    A document that passes the atom rules is in P, so f is in the class by
    construction; the membership rows report the smallest weight and check
    that `p_from_f` gives back the generator's coefficients (see
    `_round_trip`). The document names its backend, and alpha and beta are
    read on it. The defaults are the ones ``coeffbounds expand`` uses.
    """
    _check_k_max(k_max)
    if not isinstance(order, int) or order < k_max:
        raise UsageError(f"order must be an integer >= k_max, got {order!r}")
    if order > MAX_ORDER:
        raise UsageError(f"order must be at most {MAX_ORDER}, got {order!r}")
    try:
        atoms = HerglotzAtoms.from_document(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"invalid generator document: {exc}") from exc
    backend = atoms.backend
    try:
        params = ClassParams(n, backend.scalar(alpha), backend.scalar(beta))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc
    _check_exact_size((params.alpha,), "alpha")
    _check_exact_size((params.beta,), "beta")
    p = atoms.series(order - 1)
    f = f_from_p(p, params, order)
    bound_rows = []
    for k in range(2, k_max + 1):
        rep = bound_report(params, k, f.coefficient(k), backend=backend)
        if not rep.applicable:
            status = "info"
        else:
            status = "fail" if rep.margin < -SLACK * max(1.0, rep.bound) else "pass"
        bound_rows.append(
            {
                "k": k,
                "a_abs": fmt_float(rep.a_abs),
                "bound": "" if not rep.applicable else fmt_float(rep.bound),
                "bound_source": rep.bound_source or "",
                "region": rep.region.value,
                "margin": "" if not rep.applicable else fmt_float(rep.margin),
                "sharp_hit": rep.sharp_hit,
                "applicable": rep.applicable,
                "status": status,
            }
        )
    try:
        back = p_from_f(f, params)
    except ValueError as exc:
        # f_from_p starts f as z exactly, so only a float overflow lands here
        raise UsageError(f"{exc}: the float expansion overflowed; lower --order or expand exactly") from exc
    status, k, residual, tolerance = _round_trip(backend, p, back, f, params)
    return {
        "backend": backend.name,
        "params": {
            "n": str(n),
            "alpha": backend.format_scalar(params.alpha),
            "beta": backend.format_scalar(params.beta),
        },
        "order": order,
        "f_coefficients": [_fmt_coeff(backend, c) for c in f.coeffs],
        "bounds": bound_rows,
        "membership_min_weight": backend.format_scalar(min(atoms.weights)),
        "membership_status": status,
        "round_trip_k": k,
        "round_trip_residual": fmt_float(residual),
        "round_trip_tolerance": fmt_float(tolerance),
    }
