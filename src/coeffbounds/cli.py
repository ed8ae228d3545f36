"""Command-line front end.

Subcommands and the flags each one reads (any other flag exits 2)::

    coeffbounds bounds            --n --alpha --beta --kmax --backend
    coeffbounds verify extremal   --n --alpha --beta --kmax --backend
    coeffbounds verify random     --n --alpha --beta --kmax --trials --seed
    coeffbounds verify nehari     --n --alpha --beta --kmax --trials --seed
    coeffbounds verify hk         --alpha --kmax --backend
    coeffbounds expand            --pspec --n --alpha --beta --order --kmax

and every subcommand also takes --format and --out. The sweeps of ``verify
random|nehari`` sample float generators, and an ``expand`` document names
its own backend, so only the other three read --backend. ``bounds``
and ``verify`` walk a grid: --n, --alpha and --beta repeat, and each
defaults to the stock grid. ``expand`` takes exactly one of each. Only
``expand`` truncates a series, so only it reads --order; its membership
rows hold by construction and by an exact (rational) or toleranced (float)
round trip, and ``verify hk`` certifies its constructions exactly, by their
convex weights. A numeric flag that is left out takes the library's default
from :mod:`~coeffbounds.harness`, so a command and the library call it
makes agree.

Reports (CSV or JSON) go to stdout or ``--out`` and are byte-identical
across reruns with the same flags; the human-readable summary and timings
go to stderr. Exit status: 0 when everything passed, 1 when at least one
check failed, 2 for usage problems (stdout empty, one ``usage error:`` line on
stderr, argparse's rejections included), among them parameters whose float
arithmetic overflows or whose exact values grow past the digits Python prints,
a --kmax or --order above `harness.MAX_ORDER`, and an --n above
`harness.MAX_N`.

`main` builds its parser on its first call and reuses it for every later
call in the process, so its help keeps the terminal width of that first
call; `build_parser` returns a new one.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from argparse import SUPPRESS

from .backends import get_backend
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
        "backend": dict(choices=("float", "rational"), default="float", help="arithmetic backend"),
        "format": dict(choices=("csv", "json"), default="csv", help="report format"),
        "out": dict(metavar="PATH", help="write the report here instead of stdout"),
    }


#: The flags each subcommand reads; any other flag is a usage error.
_COMMAND_FLAGS = {
    "bounds": "n alpha beta kmax backend format out",
    "extremal": "n alpha beta kmax backend format out",
    "random": "n alpha beta kmax trials seed format out",
    "nehari": "n alpha beta kmax trials seed format out",
    "hk": "alpha kmax backend format out",
    "expand": "pspec n alpha beta order kmax format out",
}


def _add_flags(sub: argparse.ArgumentParser, command: str):
    specs = _flag_specs(grid=command != "expand")
    for name in _COMMAND_FLAGS[command].split():
        sub.add_argument(f"--{name}", **specs[name])


class _Parser(argparse.ArgumentParser):
    """argparse whose rejections read like every other usage error (subparsers inherit it)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; its help wraps to the terminal width read here, once.

    argparse's default formatter reads the terminal size whenever it is
    built, once per ``add_argument``. Every parser of this tree shares one
    formatter class instead, fixed at argparse's default width: the
    terminal's columns less 2.
    """
    import shutil  # argparse imports it for its first formatter anyway

    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser_class = functools.partial(_Parser, formatter_class=formatter)
    parser = parser_class(
        prog="coeffbounds",
        description="Coefficient-bound tables and verification suites for the iterated-transform class.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    bounds = commands.add_parser("bounds", help="tabulate sharp/piecewise bound values over a grid")
    _add_flags(bounds, "bounds")

    verify = commands.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True, parser_class=parser_class)
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reads its argv with: built on the first call, then reused.

    argparse keeps no state from one ``parse_args`` call to the next, so a
    process that calls `main` many times builds the tree of subcommands and
    flags once. Nothing is built at import.
    """
    return build_parser()


def _parse_tokens(backend, tokens, what: str) -> tuple:
    out = []
    for tok in tokens:
        try:
            out.append(backend.scalar(tok))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise UsageError(f"bad {what} token {tok!r}: {exc}") from exc
    return tuple(out)


#: The library keyword each numeric flag sets; a flag left out keeps the library default.
_KEYWORDS = {"kmax": "k_max", "trials": "trials", "seed": "seed", "order": "order"}


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
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc}") from exc
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
    import json  # only expand reads JSON input, so the CLI's import path leaves it out

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as stream:
                text = stream.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read pspec: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the interpreter's digit limit
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
    # the atom rules were checked on parse, so the first row holds by construction
    rows.append({"k": "", "case": "membership by construction (smallest atom weight)",
                 "observed": result["membership_min_weight"], "reference": "0", "margin": "", "status": "pass"})
    rows.append({"k": str(result["round_trip_k"]), "case": "round trip p_from_f(f) against the generator",
                 "observed": result["round_trip_residual"], "reference": result["round_trip_tolerance"],
                 "margin": "", "status": result["membership_status"]})
    return csv_text(_EXPAND_COLUMNS, rows)


def _run_expand_command(args) -> int:
    doc = _read_pspec(args.pspec)
    n = _single(args.n, "n")
    alpha = _single(args.alpha, "alpha")
    beta = _single(args.beta, "beta")
    result = run_expand(doc, n, alpha, beta, **_given(args))
    text = json_text(result) if args.format == "json" else _expand_csv(result)
    _emit(text, args.out)
    failed = result["membership_status"] == "fail" or any(
        row["status"] == "fail" for row in result["bounds"]
    )
    print(
        f"expanded order-{result['order']} series on the {result['backend']} backend; "
        f"round trip residual {result['round_trip_residual']} ({result['membership_status']})",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "expand":
            return _run_expand_command(args)
        backend = get_backend(getattr(args, "backend", "float"))
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
            runner = _SUITE_RUNNERS[args.suite]
            reports = runner(grid, backend) if "backend" in args else runner(grid)
        text = suite_json(reports) if args.format == "json" else suite_csv(reports)
        _emit(text, args.out)
        return _summarize_reports(reports, time.perf_counter() - start)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # float arithmetic overflows, and exact values outgrow the digits the interpreter
        # prints, only on parameters far outside the stock grid
        print(f"usage error: overflow ({exc}); the parameters leave the range of the arithmetic",
              file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
