"""Verification harness: parameter grids, suites, audits, report assembly.

Each ``run_*`` function but `run_bounds_table` walks a parameter grid, or
expands one generator document at one point (`run_expand`), performs its
checks, and returns :class:`~coeffbounds.reports.SuiteReport` records with
pre-formatted entries (exact fraction strings on the rational backend,
17-digit floats otherwise). Like every record of the package, `GridSpec`
and the reports are named tuples.

The verdict rule, stated once: a row's status is ``pass`` or ``fail`` by its
check, or ``info`` for a row that judges nothing, and a report passes when
no row fails. `_row` builds every row and `_report` every report, so the
rule lives in those two functions and `_STATUS`. Every bound, and every
decision whether |a_k| meets one (`bounds.bound_gap`), comes from `bounds`;
the constants here are defaults and input limits. Every run reads n,
alpha, beta and k_max through `default_grid`, the one reader of alpha and
beta tokens (`run_expand` on a one-point grid), and `GridSpec` checks them.
Configuration problems raise :class:`UsageError`, which the CLI
distinguishes (exit 2) from genuine assertion failures (exit 1).
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple
from fractions import Fraction

from ._rational import Ratio
from .backends import FLOAT, RATIONAL, Backend
from .bounds import (
    SLACK,
    ClassParams,
    applicable_bound_row,
    bound_gap,
    extremal_p,
    f_from_p,
    f_quotient_coefficients,
    growth_estimate,
    p_from_f,
    round_trip_tolerances,
    sharp_bound_rows,
    small_alpha_bound_rows,
)
from .caratheodory import HerglotzAtoms, trial_atoms
from .reports import SuiteEntry, SuiteReport, fmt_float
from .schemes import compare_even_constants, hk_schemes


class UsageError(ValueError):
    """Bad configuration or malformed input; the CLI maps this to exit 2."""


DEFAULT_N = (0, 1, 2, 3)
DEFAULT_ALPHA_TOKENS = ("1.1", "1.5", "2", "3", "5", "10")
DEFAULT_BETA_TOKENS = ("0", "0.25", "0.5", "0.9")
DEFAULT_K_MAX = 12
DEFAULT_ORDER = 64
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1729
#: Largest bit length of the numerator or the denominator of an exact alpha or
#: beta, or of a value of a rational ``expand`` document (19 decimal digits
#: fit). Exact bounds and expansions grow with it: a 400-digit alpha keeps a
#: rational ``expand`` busy for minutes.
MAX_EXACT_BITS = 64
#: Largest k_max of every command and largest series order of ``expand``.
#: The costliest work grows like the index to the power 2.8: at 256, one
#: 4096-trial block of ``verify nehari`` takes about 30 s and 130 MB, and a
#: rational ``expand`` about 10 s; each doubling multiplies the time by about 7.
MAX_ORDER = 256
#: Largest n of every command. Only the exact runs grow with n, the costliest
#: being a rational ``expand``: at the default order 64 and n = 64 it took
#: about 16 s (and 38 s at n = 100) before `_expansion` stopped it at the
#: first stage past the digit limit (0.5 s now), against 0.05 s for a
#: rational ``bounds`` at n = 1000; see CHANGES.md for the measurement.
MAX_N = 64


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


class GridSpec(namedtuple("GridSpec", "n_values alpha_values beta_values k_max trials seed")):
    """Parameter grid plus sampling configuration for the suites.

    Every construction, ``_replace`` included, goes through the checks of `_make`.
    """

    __slots__ = ()

    def __new__(cls, n_values, alpha_values, beta_values, k_max=DEFAULT_K_MAX,
                trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
        return cls._make((n_values, alpha_values, beta_values, k_max, trials, seed))

    @classmethod
    def _make(cls, values):
        n_values, alpha_values, beta_values, k_max, trials, seed = values
        if not n_values:
            raise UsageError("empty n list")
        if not alpha_values:
            raise UsageError("empty alpha list")
        if not beta_values:
            raise UsageError("empty beta list")
        for n in n_values:
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise UsageError(f"n must be a non-negative integer, got {n!r}")
            if n > MAX_N:
                raise UsageError(f"n must be at most {MAX_N}, got {n!r}")
        for a in alpha_values:
            if not a > 0:
                raise UsageError(f"alpha must be positive, got {a!r}")
        for b in beta_values:
            if not (0 <= b < 1):
                raise UsageError(f"beta must lie in [0, 1), got {b!r}")
        _check_exact_size(alpha_values, "alpha")
        _check_exact_size(beta_values, "beta")
        _reject_repeats(n_values, "n")
        _reject_repeats(alpha_values, "alpha")
        _reject_repeats(beta_values, "beta")
        if not isinstance(k_max, int) or k_max < 2:
            raise UsageError(f"k_max must be an integer >= 2, got {k_max!r}")
        if k_max > MAX_ORDER:
            raise UsageError(f"k_max must be at most {MAX_ORDER}, got {k_max!r}")
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise UsageError(f"trials must be a positive integer, got {trials!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise UsageError(f"seed must be an integer, got {seed!r}")
        return tuple.__new__(cls, (n_values, alpha_values, beta_values, k_max, trials, seed))

    def points(self):
        return itertools.product(self.n_values, self.alpha_values, self.beta_values)


def default_grid(backend: Backend = FLOAT, **overrides) -> GridSpec:
    """The stock grid (n 0..3, alpha 1.1..10, beta 0..0.9, k_max 12) with `overrides` laid over it.

    The one reader of command parameters: each alpha and beta, stock or
    given, is a token or a number read on `backend`, and a value the backend
    cannot read is a `UsageError` naming it, and so is a string given for a
    list of values, which would read as one value per character. `GridSpec`
    checks the rest.
    """
    for key, given in overrides.items():
        if key.endswith("_values") and isinstance(given, str):
            raise UsageError(f"{key} must be a sequence of values, got the string {given!r}")
    values = dict(n_values=DEFAULT_N, alpha_values=DEFAULT_ALPHA_TOKENS, beta_values=DEFAULT_BETA_TOKENS)
    values.update(overrides)
    for what in ("alpha", "beta"):
        key = f"{what}_values"
        values[key] = tuple(_read_scalar(backend, token, what) for token in values[key])
    return GridSpec(**values)


def _read_scalar(backend: Backend, token, what: str):
    try:
        return backend.scalar(token)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad {what} token {token!r}: {exc}") from exc


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


#: The status of a row by its verdict: None marks a row that judges nothing.
_STATUS = {True: "pass", False: "fail", None: "info"}


def _row(suite, point, k, case, observed, reference, margin, ok) -> SuiteEntry:
    """One suite row at `point`, whose n, alpha and beta it copies ("" for any it lacks)."""
    get = point.get
    return SuiteEntry(suite, get("n", ""), get("alpha", ""), get("beta", ""), str(k), case,
                      observed, reference, margin, _STATUS[ok])


def _report(suite, point, entries, worst_margin=None, witness=None, elapsed=0.0) -> SuiteReport:
    """One suite report at `point`: it passes when no row fails."""
    entries = tuple(entries)
    passed = all(entry.status != "fail" for entry in entries)
    return SuiteReport(suite, point, passed, worst_margin, witness, entries, elapsed)


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

    The bounds of the betas of one (n, alpha) come from one
    `sharp_bound_rows` and one `small_alpha_bound_rows` call for all their k.
    """
    ks = range(2, grid.k_max + 1)
    growth = {alpha: [fmt_float(growth_estimate(alpha, k)) for k in ks] for alpha in grid.alpha_values}
    rows = []
    for n, alpha in itertools.product(grid.n_values, grid.alpha_values):
        sharp_rows = sharp_bound_rows(n, alpha, grid.beta_values, grid.k_max)
        piece_rows = small_alpha_bound_rows(n, alpha, grid.beta_values, grid.k_max)
        for beta, sharp_row, piece_row in zip(grid.beta_values, sharp_rows, piece_rows):
            point = _point(backend, n, alpha, beta)
            for k, sharp, piece, growth_cell in zip(ks, sharp_row, piece_row, growth[alpha]):
                small = "" if piece.value is None else backend.format_scalar(piece.value)
                rows.append({**point, "k": str(k), "sharp_bound": backend.format_scalar(sharp),
                             "small_alpha_bound": small, "region": piece.region.value,
                             "growth_estimate": growth_cell})
    return BOUNDS_COLUMNS, rows


# -- extremal suite ---------------------------------------------------------


def run_extremal_suite(grid: GridSpec, backend: Backend = FLOAT):
    """Extremal generators must hit the sharp bound at every grid point.

    The generator of index k is `extremal_p(k)`, whose series through order
    k - 1 is 1 + 2 z^(k-1). That series is exact on both backends, and it is
    given to `f_quotient_coefficients` with every other entry the backend's
    own zero object, so the kernels skip those entries and a_k costs O(k).
    `bounds.bound_gap` gives each row's verdict and its margin column, the
    relative gap: within `bounds.SHARP_REL_TOL` for k = 2..k_max on the
    float backend, exact equality for k = 2 and 3 on the rational one, where
    `extremal_p` has exact atoms for the witness of a failing row.
    """
    _require_alpha_gt1(grid.alpha_values, "extremal")
    k_top = grid.k_max if backend is FLOAT else min(grid.k_max, 3)
    one, zero = backend.one, backend.zero
    series = {k: [one, *[zero] * (k - 2), backend.coeff(2)] for k in range(2, k_top + 1)}
    betas = [backend.scalar(beta) for beta in grid.beta_values]
    reports = []
    for n, alpha in itertools.product(grid.n_values, map(backend.scalar, grid.alpha_values)):
        for beta, bounds in zip(betas, sharp_bound_rows(n, alpha, betas, k_top)):
            start = time.perf_counter()
            point = _point(backend, n, alpha, beta)
            entries = []
            worst = 0.0
            witness = None
            for k, bound in zip(range(2, k_top + 1), bounds):
                a_k = f_quotient_coefficients(series[k], n, alpha, beta, one, zero)[k - 1]
                ok, rel = bound_gap(a_k, bound)
                observed = backend.format_scalar(a_k.re) if backend is RATIONAL else fmt_float(abs(a_k))
                worst = max(worst, rel)
                if not ok and witness is None:
                    witness = {"k": k, "atoms": extremal_p(k, backend=backend).to_document()}
                entries.append(_row("extremal", point, k, "sharp equality", observed,
                                    backend.format_scalar(bound), fmt_float(rel), ok))
            reports.append(_report("extremal", point, entries, worst, witness, time.perf_counter() - start))
    return reports


# -- randomized suites ------------------------------------------------------

def _sweep_reports(grid, suite, sweep):
    """One report per grid point; a failing point's witness is its first violation.

    The sweeps sample float generators, so the grid holds float values. One
    sweep call walks every point of the grid, so each point reports the
    command's time split evenly.
    """
    start = time.perf_counter()
    fields = [_sweep_report(suite, grid, _point(FLOAT, *point), outcome)
              for point, outcome in zip(grid.points(), sweep(grid))]
    elapsed = (time.perf_counter() - start) / len(fields)
    return [_report(*point_fields, elapsed=elapsed) for point_fields in fields]


def _sweep_report(suite, grid, point, outcome) -> tuple:
    """The `_report` arguments of one point's sweep outcome, all but the elapsed time."""
    reference = fmt_float(-SLACK)
    worst = fmt_float(outcome.worst_margin)
    entries = [_row(suite, point, outcome.worst_k, f"worst margin over {grid.trials} trials",
                    worst, reference, worst, not outcome.violation_count)]
    for trial, k, margin in outcome.violations:
        entries.append(_row(suite, point, k, f"violation in trial {trial}",
                            fmt_float(margin), reference, fmt_float(margin), False))
    hidden = outcome.violation_count - len(outcome.violations)
    if hidden > 0:
        entries.append(_row(suite, point, "", f"{hidden} further violations not listed",
                            str(outcome.violation_count), "0", "", None))
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
    return suite, point, entries, outcome.worst_margin, witness


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


def run_hk_audit(alpha_values=DEFAULT_ALPHA_TOKENS, k_max: int = DEFAULT_K_MAX, backend: Backend = FLOAT):
    """Audit the per-index generator constructions at each alpha, a token or a number (stock ones by default).

    Per alpha and k: the gamma-ladder identity at its defining order, the
    coefficient-magnitude bound |d_mu| <= 2, and the membership certificate
    h(z)_k in P: the class is convex, so h is a member exactly when the
    weights of its convex combination of kernels lie in the simplex (every
    weight >= 0, sum 1). The schemes are built in exact rationals
    (`schemes.hk_schemes`), so every verdict is exact on both backends; a
    float alpha is taken at the binary fraction it stores, and the backend
    only chooses how values print (a float row prints each exact value
    correctly rounded). Each k is formatted before the next is built, so a
    value past the digits the interpreter prints stops the command at the
    first k that forms one. Two cross-cutting sections follow: the k = 6..10
    even-coefficient constants recomputed against the reference table
    (disagreements are reported, not asserted away), and the alpha = 1
    closed form, which matches 2(1-beta)/k^n — not the (k+1)-indexed
    variant sometimes quoted.
    """
    alpha_values = default_grid(backend, alpha_values=alpha_values, k_max=k_max).alpha_values
    _require_alpha_gt1(alpha_values, "hk")
    # a float alpha is built at its exact value, held to the size of an exact alpha
    _check_exact_size(map(Ratio, alpha_values), "alpha")
    reports = []
    for alpha in alpha_values:
        start = time.perf_counter()
        point = {"alpha": backend.format_scalar(alpha), "section": "construction"}
        entries = []
        worst = 0.0
        for scheme in hk_schemes(k_max, alpha):
            k, value, target, weights = scheme.k, scheme.gamma, scheme.target, scheme.weights
            residual = float(abs(value - target))
            worst = max(worst, residual)
            d_max = max(map(abs, scheme.d), default=0)
            w_min = min(weights)
            checks = (  # (case, observed, reference, margin, verdict)
                (f"gamma identity at defining order m={k - 1}", backend.format_scalar(value),
                 backend.format_scalar(target), fmt_float(residual), value == target),
                ("coefficient magnitude max|d|", backend.format_scalar(d_max), "2",
                 fmt_float(2 - float(d_max)), d_max <= 2),
                ("convex weights of the construction", backend.format_scalar(w_min), "0",
                 fmt_float(w_min), w_min >= 0 and sum(weights) == 1),
            )
            entries += [_row("hk", point, k, *check) for check in checks]
        reports.append(_report("hk", point, entries, worst, elapsed=time.perf_counter() - start))
    reports.append(_even_constant_report())
    reports.append(_alpha_one_report(backend))
    return reports


def _even_constant_report() -> SuiteReport:
    """The k = 6..10 even constants against the reference table; a disagreement only informs."""
    point = {"section": "even-constants"}
    entries = [
        _row("hk", point, row.k,
             "even-coefficient constant, recipe vs reference table"
             + ("" if row.agree else " (table entry looks like a digit slip)"),
             str(row.recomputed), str(row.tabulated),
             fmt_float(float(row.recomputed / row.tabulated) - 1.0), True if row.agree else None)
        for row in compare_even_constants()
    ]
    return _report("hk", point, entries)


def _alpha_one_report(backend: Backend) -> SuiteReport:
    """|a_k| of the alpha = 1, beta = 0 extremal function against 2/k^n and 2/(k+1)^n.

    alpha = 1 and beta = 0 are exact on either backend, so the expansion and
    the match run in exact arithmetic; only the printed columns follow the
    backend. Truncation is lower-triangular, so one expansion per n serves
    every k.
    """
    entries = []
    alpha, beta = backend.format_scalar(backend.scalar(1)), backend.format_scalar(backend.scalar(0))
    kernel = extremal_p(2, backend=RATIONAL)
    for n in (1, 2):
        f = f_from_p(kernel, ClassParams(n, RATIONAL.scalar(1), RATIONAL.scalar(0)), 5)
        for k in (2, 3, 4, 5):
            a_k = f.coefficient(k)
            matches = "k" if bound_gap(a_k, Ratio(2, k**n))[0] else (
                "k+1" if bound_gap(a_k, Ratio(2, (k + 1) ** n))[0] else "neither"
            )
            a_abs = abs(complex(a_k))
            k_form = 2.0 / k**n
            k1_form = 2.0 / (k + 1) ** n
            entries.append(_row(
                "hk", {"n": str(n), "alpha": alpha, "beta": beta}, k,
                f"alpha=1 closed form exponent base (matches {matches}^n)", fmt_float(a_abs),
                f"2/k^n={fmt_float(k_form)}; 2/(k+1)^n={fmt_float(k1_form)}",
                fmt_float(a_abs - k_form), matches == "k",
            ))
    return _report("hk", {"section": "alpha-1-exponent"}, entries)


# -- expand ------------------------------------------------------------------


def _round_trip(backend: Backend, p, back, f, params) -> tuple:
    """Verdict, index, residual and tolerance of the round trip p -> f -> p_from_f(f).

    Rational: True only when every coefficient is equal, tolerance 0.
    Float: False when some |p_k - back_k| exceeds its tolerance from
    `round_trip_tolerances`, None when some tolerance is 2 or more (the
    coefficient bound of P, so it judges nothing), True otherwise. The
    index reported is the first tolerance that judges nothing on None,
    otherwise the largest residual relative to its tolerance.
    """
    residuals = [abs(complex(b - c)) for b, c in zip(back.coeffs, p.coeffs)]
    if backend is RATIONAL:
        tolerances = [0.0] * len(residuals)
        ok = back.coeffs == p.coeffs
    else:
        tolerances = round_trip_tolerances(f, params)
        if any(r > t for r, t in zip(residuals, tolerances)):
            ok = False
        else:
            ok = True if all(t < 2 for t in tolerances) else None
    ks = range(1, len(residuals))
    if ok is None:
        k = next(k for k in ks if not tolerances[k] < 2)
    else:
        k = max(ks, key=lambda k: _ratio(residuals[k], tolerances[k]))
    return ok, k, residuals[k], tolerances[k]


def _ratio(residual: float, tolerance: float) -> float:
    if tolerance:
        return residual / tolerance
    return math.inf if residual else 0.0


def _expansion(p, params: ClassParams, order: int) -> tuple:
    """``f_from_p(p, params, order)`` and its coefficients as the report prints them.

    An exact expansion is built at orders 16, 32, ... up to ``order``. Each
    stage's coefficients are the full expansion's first ones (truncation is
    lower-triangular), so a coefficient past the interpreter's digit limit,
    which the report could not print, ends the run at the first stage that
    forms it, not after the whole expansion and its round trip.
    """
    backend = p.backend
    stage = order if backend is FLOAT else min(order, 16)
    while True:
        f = f_from_p(p, params, stage)
        text = [_fmt_coeff(backend, c) for c in f.coeffs]
        if stage == order:
            return f, text
        stage = min(2 * stage, order)


def run_expand(
    doc: dict, n: int, alpha, beta, order: int = DEFAULT_ORDER, k_max: int = DEFAULT_K_MAX
) -> list:
    """Expand one generator document into f; one report of its coefficients, bounds and membership.

    The report's point is the grid point plus the document's backend and
    the order. Its rows are the coefficients a_0..a_order of f (info), then
    one bound row per k = 2..k_max against the bound `applicable_bound_row`
    selects, its case naming the source and, for alpha <= 1, the omega
    region: the margin bound - |a_k| fails below -SLACK * max(1, bound), and
    a bound that |a_k| meets by `bounds.bound_gap` is marked ``sharp hit``
    in the case; the open window has no bound and the row judges nothing.
    A document that passes the atom rules is in P, so f is in the class by
    construction; the two membership rows report the smallest weight and
    check that `p_from_f` gives back the generator's coefficients (see
    `_round_trip`). The worst margin is the
    smallest bound margin, and there is no witness: the document is one.
    The document is read first and names its backend; n, alpha, beta and
    k_max are then read on it as a one-point `default_grid`. Like alpha and
    beta, each value of a rational document is held to `MAX_EXACT_BITS`.
    The defaults are the ones ``coeffbounds expand`` uses.
    """
    start = time.perf_counter()
    try:
        atoms = HerglotzAtoms.from_document(doc)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:  # "1/0" is a ZeroDivisionError
        raise UsageError(f"invalid generator document: {exc}") from exc
    backend = atoms.backend
    if backend is RATIONAL:
        for entry in doc["atoms"]:
            for field, value in entry.items():
                _check_exact_size((Ratio(str(value)),), f"atom {field}")
    grid = default_grid(backend, n_values=(n,), alpha_values=(alpha,), beta_values=(beta,), k_max=k_max)
    if not isinstance(order, int) or order < k_max:
        raise UsageError(f"order must be an integer >= k_max, got {order!r}")
    if order > MAX_ORDER:
        raise UsageError(f"order must be at most {MAX_ORDER}, got {order!r}")
    params = ClassParams(*next(grid.points()))
    point = {**_point(backend, n, params.alpha, params.beta), "backend": backend.name, "order": str(order)}
    p = atoms.series(order - 1)
    f, f_coefficients = _expansion(p, params, order)
    entries = [_row("expand", point, k, "coefficient", text, "", "", None)
               for k, text in enumerate(f_coefficients)]
    margins = []
    applicable = applicable_bound_row(n, params.alpha, params.beta, k_max)
    for k, (source, bound, region) in enumerate(applicable, start=2):
        a_k = f.coefficient(k)
        a_abs = abs(complex(a_k))
        labels = [source or "none", *([region.value] if region else [])]
        if source is None:
            entries.append(_row("expand", point, k, f"bound ({', '.join(labels)})", fmt_float(a_abs),
                                "", "", None))
            continue
        value = float(bound)
        margin = value - a_abs
        if bound_gap(a_k, bound)[0]:
            labels.append("sharp hit")
        margins.append(margin)
        entries.append(_row("expand", point, k, f"bound ({', '.join(labels)})", fmt_float(a_abs),
                            fmt_float(value), fmt_float(margin), not margin < -SLACK * max(1.0, value)))
    try:
        back = p_from_f(f, params)
    except ValueError as exc:
        # f_from_p starts f as z exactly, so only a float overflow lands here
        raise UsageError(f"{exc}: the float expansion overflowed; lower --order or expand exactly") from exc
    ok, k, residual, tolerance = _round_trip(backend, p, back, f, params)
    # the atom rules were checked on parse, so the first row holds by construction
    entries.append(_row("expand", point, "", "membership by construction (smallest atom weight)",
                        backend.format_scalar(min(atoms.weights)), "0", "", True))
    entries.append(_row("expand", point, k, "round trip p_from_f(f) against the generator",
                        fmt_float(residual), fmt_float(tolerance), "", ok))
    worst = min(margins, default=None)
    return [_report("expand", point, entries, worst, elapsed=time.perf_counter() - start)]
