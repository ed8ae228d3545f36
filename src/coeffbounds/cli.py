"""Command-line front end.

Subcommands and the flags each one reads (any other flag exits 2)::

    coeffbounds bounds            --n --alpha --beta --kmax
    coeffbounds verify extremal   --n --alpha --beta --kmax
    coeffbounds verify random     --n --alpha --beta --kmax --trials --seed
    coeffbounds verify nehari     --n --alpha --beta --kmax --trials --seed
    coeffbounds verify hk         --alpha --kmax --order --radius --samples
    coeffbounds expand            --pspec --n --alpha --beta --order --kmax
                                  --radius --samples

and every subcommand also takes --backend, --format and --out. ``bounds``
and ``verify`` walk a grid: --n, --alpha and --beta repeat, and each
defaults to the stock grid. ``expand`` takes exactly one of each. A
numeric flag that is left out takes the library's default from
:mod:`~coeffbounds.harness`, so a command and the library call it makes
agree.

Reports (CSV or JSON) go to stdout or ``--out`` and are byte-identical
across reruns with the same flags; the human-readable summary and timings
go to stderr. Exit status: 0 when everything passed, 1 when at least one
check failed, 2 for usage problems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from argparse import SUPPRESS

from .backends import FLOAT, get_backend
from .harness import (
    DEFAULT_ALPHA_TOKENS,
    DEFAULT_BETA_TOKENS,
    DEFAULT_N,
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
from .reports import csv_text, json_text, suite_csv, suite_json

_SUITE_RUNNERS = {
    "extremal": run_extremal_suite,
    "random": run_random_suite,
    "nehari": run_nehari_suite,
}


def _flag_specs(grid: bool) -> dict:
    """argparse settings per flag name; grid commands repeat --n/--alpha/--beta."""

    def repeatable(values):
        return f"; repeatable (default {list(values)})" if grid else ""

    return {
        "pspec": dict(metavar="PATH", help="generator document (JSON file, or - for stdin)"),
        "n": dict(
            action="append", type=int, metavar="N",
            help="transform iteration count" + repeatable(DEFAULT_N),
        ),
        "alpha": dict(
            action="append", metavar="A",
            help="power parameter token, e.g. 2 or 11/10" + repeatable(DEFAULT_ALPHA_TOKENS),
        ),
        "beta": dict(
            action="append", metavar="B",
            help="order parameter token in [0,1)" + repeatable(DEFAULT_BETA_TOKENS),
        ),
        "kmax": dict(type=int, default=SUPPRESS, help="highest coefficient index checked"),
        "trials": dict(type=int, default=SUPPRESS, help="random trials per grid point"),
        "seed": dict(type=int, default=SUPPRESS, help="master seed for the randomized suites"),
        "order": dict(type=int, default=SUPPRESS, help="series truncation order"),
        "radius": dict(type=float, default=SUPPRESS, help="sampling radius in (0,1)"),
        "samples": dict(type=int, default=SUPPRESS, help="boundary sample count"),
        "backend": dict(
            choices=("float", "rational"), default=None,
            help="arithmetic backend (default float; expand defaults to the document's backend)",
        ),
        "format": dict(choices=("csv", "json"), default="csv", help="report format"),
        "out": dict(metavar="PATH", help="write the report here instead of stdout"),
    }


#: The flags each subcommand reads; any other flag is a usage error.
_COMMAND_FLAGS = {
    "bounds": "n alpha beta kmax backend format out",
    "extremal": "n alpha beta kmax backend format out",
    "random": "n alpha beta kmax trials seed backend format out",
    "nehari": "n alpha beta kmax trials seed backend format out",
    "hk": "alpha kmax order radius samples backend format out",
    "expand": "pspec n alpha beta order kmax radius samples backend format out",
}


def _add_flags(sub: argparse.ArgumentParser, command: str):
    specs = _flag_specs(grid=command != "expand")
    for name in _COMMAND_FLAGS[command].split():
        sub.add_argument(f"--{name}", **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coeffbounds",
        description="Coefficient-bound tables and verification suites for the iterated-transform class.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bounds = commands.add_parser("bounds", help="tabulate sharp/piecewise bound values over a grid")
    _add_flags(bounds, "bounds")

    verify = commands.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    for name, blurb in (
        ("extremal", "extremal generators must hit the sharp bound"),
        ("random", "random generators never exceed the sharp bound"),
        ("hk", "audit the per-index generator constructions"),
        ("nehari", "sampled alternating series against the claimed bound"),
    ):
        _add_flags(suites.add_parser(name, help=blurb), name)

    expand = commands.add_parser("expand", help="expand one generator document and report its bounds")
    _add_flags(expand, "expand")

    return parser


def _parse_tokens(backend, tokens, what: str) -> tuple:
    out = []
    for tok in tokens:
        try:
            out.append(backend.scalar(tok))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise UsageError(f"bad {what} token {tok!r}: {exc}") from exc
    return tuple(out)


#: The library keyword each numeric flag sets; a flag left out keeps the library default.
_KEYWORDS = {"kmax": "k_max", "trials": "trials", "seed": "seed", "order": "order",
             "radius": "radius", "samples": "samples"}


def _given(args) -> dict:
    return {key: getattr(args, flag) for flag, key in _KEYWORDS.items() if flag in args}


def _grid_from_args(args, backend) -> GridSpec:
    """The stock grid with the flags that were given laid over it."""
    given = _given(args)
    if args.n:
        given["n_values"] = tuple(args.n)
    if args.alpha:
        given["alpha_values"] = _parse_tokens(backend, args.alpha, "alpha")
    if args.beta:
        given["beta_values"] = _parse_tokens(backend, args.beta, "beta")
    return default_grid(backend, **given)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summarize_reports(reports, elapsed: float) -> int:
    failed = 0
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        failed += 0 if report.passed else 1
        point = " ".join(f"{k}={v}" for k, v in report.point.items())
        worst = "" if report.worst_margin is None else f" worst_margin={float(report.worst_margin):.3g}"
        print(f"[{status}] {report.suite} {point}{worst} ({report.elapsed:.2f}s)", file=sys.stderr)
    total = len(reports)
    print(
        f"{total - failed}/{total} points passed in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _read_pspec(path: str | None) -> dict:
    if not path:
        raise UsageError("expand needs --pspec (a JSON document, or - for stdin)")
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read pspec: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"pspec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"pspec must be a JSON object, got {type(doc).__name__}")
    return doc


def _single(values, what: str):
    if not values:
        raise UsageError(f"expand needs exactly one --{what}")
    if len(values) > 1:
        raise UsageError(f"expand takes exactly one --{what}, got {len(values)}")
    return values[0]


_EXPAND_COLUMNS = ("k", "case", "observed", "reference", "margin", "status")


def _expand_csv(result: dict) -> str:
    rows = []
    for i, coeff in enumerate(result["f_coefficients"]):
        rows.append(
            {"k": str(i), "case": "coefficient", "observed": coeff, "reference": "", "margin": "", "status": "info"}
        )
    for row in result["bounds"]:
        case = "bound"
        if row["sharp_hit"]:
            case = "bound (sharp hit)"
        elif not row["applicable"]:
            case = "bound (no applicable bound)"
        rows.append(
            {
                "k": str(row["k"]),
                "case": case,
                "observed": row["a_abs"],
                "reference": row["bound"],
                "margin": row["margin"],
                "status": row["status"],
            }
        )
    rows.append(
        {
            "k": "",
            "case": "membership minimum",
            "observed": result["membership_min"],
            "reference": "-" + result["membership_tail_allowance"],
            "margin": "",
            "status": result["membership_status"],
        }
    )
    return csv_text(_EXPAND_COLUMNS, rows)


def _run_expand_command(args) -> int:
    doc = _read_pspec(args.pspec)
    backend = get_backend(args.backend) if args.backend else None
    n = _single(args.n, "n")
    alpha = _single(args.alpha, "alpha")
    beta = _single(args.beta, "beta")
    result = run_expand(doc, n, alpha, beta, backend=backend, **_given(args))
    text = json_text(result) if args.format == "json" else _expand_csv(result)
    _emit(text, args.out)
    failed = result["membership_status"] == "fail" or any(
        row["status"] == "fail" for row in result["bounds"]
    )
    print(
        f"expanded order-{result['order']} series on the {result['backend']} backend; "
        f"membership minimum {result['membership_min']}",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "expand":
            return _run_expand_command(args)
        backend = get_backend(args.backend) if args.backend else FLOAT
        start = time.perf_counter()
        if args.command == "bounds":
            grid = _grid_from_args(args, backend)
            columns, rows = run_bounds_table(grid, backend)
            text = json_text({"rows": rows}) if args.format == "json" else csv_text(columns, rows)
            _emit(text, args.out)
            print(
                f"{len(rows)} rows over {len(grid.n_values)}x{len(grid.alpha_values)}"
                f"x{len(grid.beta_values)} grid points in {time.perf_counter() - start:.2f}s",
                file=sys.stderr,
            )
            return 0
        # verify
        if args.suite == "hk":
            alphas = (
                _parse_tokens(backend, args.alpha, "alpha")
                if args.alpha
                else default_grid(backend).alpha_values
            )
            reports = run_hk_audit(alphas, backend=backend, **_given(args))
        else:
            grid = _grid_from_args(args, backend)
            reports = _SUITE_RUNNERS[args.suite](grid, backend)
        text = suite_json(reports) if args.format == "json" else suite_csv(reports)
        _emit(text, args.out)
        return _summarize_reports(reports, time.perf_counter() - start)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
