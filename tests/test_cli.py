"""End-to-end command-line behaviour: exit codes, formats, streams."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeffbounds import TruncatedSeries, applicable_bound_row, cli, extremal_p, harness, run_expand
from coeffbounds.harness import BOUNDS_COLUMNS, UsageError
from coeffbounds.reports import SUITE_COLUMNS, fmt_float, suite_json
from report_rows import ROUND_TRIP, bound_case, bound_rows, expand_rows, the_row

SMALL = ["--n", "1", "--alpha", "2", "--beta", "0", "--kmax", "6"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """The CLI in a fresh interpreter under a 60 s timeout, so a runaway argv fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "coeffbounds.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestExitCodes:
    def test_help(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["bounds", "--zap"], capsys)[0] == 2

    def test_extremal_passes(self, capsys):
        code, out, err = run(["verify", "extremal", *SMALL], capsys)
        assert code == 0
        assert "[pass] extremal" in err
        assert "1/1 points passed" in err

    def test_nehari_reports_failure(self, capsys):
        code, out, err = run(["verify", "nehari", *SMALL, "--trials", "150"], capsys)
        assert code == 1
        assert "[FAIL] nehari" in err
        assert "0/1 points passed" in err

    def test_rational_random_is_usage_error(self, capsys):
        # the sweeps sample float generators, so verify random takes no --backend at all
        code, out, err = run(
            ["verify", "random", *SMALL, "--backend", "rational", "--trials", "20"], capsys
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --backend rational" in err

    def test_bad_alpha_token(self, capsys):
        code, _, err = run(["bounds", "--alpha", "x/y"], capsys)
        assert code == 2
        assert "bad alpha token" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "random", "--trials", "5", "--n", "0", "--beta", "0", "--alpha", "2", "--alpha", "2"],
             "alpha value 2.0"),
            (["bounds", "--backend", "rational", "--alpha", "1/2", "--alpha", "0.5"], "alpha value 1/2"),
            (["verify", "hk", "--alpha", "2", "--alpha", "2"], "alpha value 2.0"),
            (["verify", "hk", "--backend", "rational", "--alpha", "3", "--alpha", "6/2"], "alpha value 3"),
            (["bounds", "--alpha", "2", "--alpha", "2.0"], "alpha value 2.0"),
            (["verify", "nehari", "--n", "1", "--n", "1", "--trials", "5"], "n value 1"),
            (["verify", "extremal", "--beta", "0.25", "--beta", "1/4"], "beta value 0.25"),
        ],
    )
    def test_repeated_grid_value(self, argv, named, capsys):
        # values are compared after parsing, so 1/2 and 0.5 are the same alpha
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert f"{named} is given more than once" in err

    def test_beta_out_of_range(self, capsys):
        code, _, err = run(["bounds", "--n", "1", "--alpha", "2", "--beta", "1.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--alpha", "1e400"],
            ["expand", "--n", "1", "--alpha", "1e400", "--beta", "0"],
            ["bounds", "--alpha", "1e308"],
            ["verify", "extremal", "--alpha", "1e308"],
            ["verify", "hk", "--alpha", "1e308"],
            ["verify", "random", "--alpha", "1e308"],
            ["verify", "nehari", "--alpha", "1e308"],
            ["verify", "hk", "--alpha", "1e200"],
            ["bounds", "--alpha", "1e-320"],
        ],
        ids=" ".join,
    )
    def test_float_overflow_is_a_usage_error(self, argv, tmp_path, capsys):
        # 1e400 is past the float range, and the float powers of the others overflow
        if argv[0] == "expand":
            path = tmp_path / "p.json"
            path.write_text(json.dumps(extremal_p(2).to_document()))
            argv = [*argv, "--pspec", str(path)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")


class TestOversizedExactParameters:
    """Exact parameters whose arithmetic would outgrow time or the printable digits exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            # over MAX_EXACT_BITS: refused before any arithmetic
            ["bounds", "--backend", "rational", "--alpha", "1e-320"],
            ["expand", "--n", "1", "--alpha", "1e400", "--beta", "0"],
            ["verify", "hk", "--backend", "rational", "--alpha", "1e30"],
            ["verify", "extremal", "--backend", "rational", "--beta", "1e-20"],
            # a 64-bit alpha passes, but its k = 30 bounds pass the interpreter's digit limit
            ["bounds", "--backend", "rational", "--n", "3", "--alpha", "1/18446744073709551615", "--kmax", "30"],
            # and its h_k constructions at k_max 256, whose ladder is formed at one order per k
            ["verify", "hk", "--backend", "rational", "--alpha", "18446744073709551615/18446744073709551614",
             "--kmax", "256"],
        ],
        ids=" ".join,
    )
    def test_usage_error_within_a_timeout(self, argv, tmp_path):
        if argv[0] == "expand":
            path = tmp_path / "p.json"
            path.write_text(json.dumps({"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"},
                                                                         {"weight": "2/3", "t": "-3/4"}]}))
            argv = [*argv, "--pspec", str(path)]
        out = run_process(argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage error:")
        assert "Traceback" not in out.stderr

    def test_cap_is_on_bits(self, capsys):
        # 2^64 - 1 over 2^64 - 2 is at the cap and runs; one more bit in the numerator is refused
        at_cap = ["--alpha", f"{2**64 - 1}/{2**64 - 2}", "--n", "1", "--beta", "0", "--kmax", "3"]
        assert run(["verify", "extremal", "--backend", "rational", *at_cap], capsys)[0] == 0
        over = ["--alpha", f"{2**64 + 1}/{2**64 - 2}", "--n", "1", "--beta", "0", "--kmax", "3"]
        code, out, err = run(["verify", "extremal", "--backend", "rational", *over], capsys)
        assert (code, out) == (2, "")
        assert "65-bit" in err and str(harness.MAX_EXACT_BITS) in err


_ONE_POINT = ["--n", "1", "--alpha", "2", "--beta", "0"]


class TestIndexCap:
    """A --kmax or --order past `harness.MAX_ORDER` is a usage error that names the limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", *_ONE_POINT, "--kmax", "257"],
            ["verify", "extremal", *_ONE_POINT, "--kmax", "257"],
            ["verify", "random", *_ONE_POINT, "--kmax", "257", "--trials", "3"],
            ["verify", "nehari", *_ONE_POINT, "--kmax", "257", "--trials", "3"],
            ["verify", "hk", "--alpha", "2", "--kmax", "257"],
            ["expand", *_ONE_POINT, "--kmax", "257", "--order", "257"],
            ["expand", *_ONE_POINT, "--kmax", "12", "--order", "257"],
            ["verify", "nehari", *_ONE_POINT, "--kmax", "1000", "--trials", "3"],
        ],
        ids=" ".join,
    )
    def test_over_the_cap_within_a_timeout(self, argv, tmp_path):
        if argv[0] == "expand":
            path = tmp_path / "p.json"
            path.write_text(json.dumps(extremal_p(2).to_document()))
            argv = [*argv, "--pspec", str(path)]
        out = run_process(argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage error:")
        assert f"at most {harness.MAX_ORDER}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_the_cap_itself_runs(self, tmp_path, capsys):
        assert harness.MAX_ORDER == 256
        assert run(["bounds", *_ONE_POINT, "--kmax", "256"], capsys)[0] == 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(extremal_p(2).to_document()))
        argv = ["expand", *_ONE_POINT, "--kmax", "4", "--order", "256", "--pspec", str(path)]
        assert run(argv, capsys)[0] == 0


class TestNCap:
    """An --n past `harness.MAX_N` is a usage error that names the limit, before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            # before the cap, the first ran past 30 s and the second out of memory
            ["bounds", "--backend", "rational", "--n", "10000000", "--alpha", "2", "--beta", "0", "--kmax", "4"],
            ["bounds", "--backend", "rational", "--n", "99999999999999999999"],
            ["bounds", "--n", "65"],
            ["verify", "extremal", "--backend", "rational", "--n", "0", "--n", "65"],
            ["verify", "random", "--n", "65", "--trials", "3"],
            ["verify", "nehari", "--n", "99999999999999999999", "--trials", "3"],
            ["expand", "--n", "65", "--alpha", "3/2", "--beta", "1/4"],
            ["expand", "--n", "10000000", "--alpha", "3/2", "--beta", "1/4"],
        ],
        ids=" ".join,
    )
    def test_over_the_cap_within_a_timeout(self, argv, tmp_path):
        if argv[0] == "expand":
            path = tmp_path / "p.json"
            path.write_text(json.dumps(_GOLDEN_RATIONAL_DOC))
            argv = [*argv, "--pspec", str(path)]
        out = run_process(argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage error:")
        assert f"n must be at most {harness.MAX_N}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_the_cap_itself_runs(self, capsys):
        assert harness.MAX_N == 64
        assert run(["bounds", "--backend", "rational", "--n", "64", "--alpha", "2", "--beta", "0"], capsys)[0] == 0
        assert run(["verify", "extremal", "--backend", "rational", "--n", "64"], capsys)[0] == 0
        assert run(["verify", "random", *SMALL, "--n", "64", "--trials", "5"], capsys)[0] == 0
        with pytest.raises(UsageError, match="at most 64"):
            run_expand(extremal_p(2).to_document(), 65, 2.0, 0.0)


_POINT_FLAGS = {"--n", "--alpha", "--beta", "--kmax", "--format", "--out"}
_FLAGS_BY_COMMAND = {
    ("bounds",): _POINT_FLAGS | {"--backend"},
    ("verify", "extremal"): _POINT_FLAGS | {"--backend"},
    ("verify", "random"): _POINT_FLAGS | {"--trials", "--seed"},
    ("verify", "nehari"): _POINT_FLAGS | {"--trials", "--seed"},
    ("verify", "hk"): {"--alpha", "--kmax", "--backend", "--format", "--out"},
    ("expand",): _POINT_FLAGS | {"--order", "--pspec"},
}
_FLAG_VALUES = {
    "--n": "1", "--alpha": "2", "--beta": "0", "--kmax": "4", "--trials": "3", "--seed": "9",
    "--order": "8", "--radius": "0.5", "--samples": "16", "--backend": "float", "--format": "csv",
    "--out": "report.csv", "--pspec": "p.json",
}


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command", list(_FLAGS_BY_COMMAND), ids=" ".join)
    def test_accepts_exactly_the_flags_it_reads(self, command, capsys):
        parser = cli.build_parser()
        for flag, value in _FLAG_VALUES.items():
            argv = [*command, flag, value]
            if flag in _FLAGS_BY_COMMAND[command]:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "hk", "--n", "7", "--beta", "0.5", "--trials", "3", "--seed", "9"],
            ["verify", "random", "--order", "5000", "--radius", "0.1"],
            ["expand", "--radius", "0.5"],
            # the sweeps sample float generators, and a document names its own backend
            ["verify", "random", "--backend", "float", "--trials", "5"],
            ["verify", "nehari", "--backend", "float", "--trials", "5"],
        ],
    )
    def test_ignored_flags_are_usage_errors(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_kmax_is_not_capped_by_a_series_order(self, capsys):
        code, _, err = run(["verify", "random", "--kmax", "70", "--trials", "5"], capsys)
        assert code == 0
        assert "96/96 points passed" in err


# Values that are malformed, out of range or at the edge of the arithmetic, for any flag:
# non-finite and signed zero, past the float range, blank, non-ASCII digits, fractions over
# 64 bits. None is a valid int past 12, so none makes a run of --trials costly.
_TRICKY = ("inf", "-inf", "nan", "-0", "1e400", "1e-400", "5e-324", "", " 7", "1/2", "0x10", "٣", "１２",
           "-1", "1/0", "18446744073709551617/3", "1/18446744073709551617")
# Ints at and past 64 bits, for the flags whose cost is capped (an uncapped --trials would
# run away) and for grid tokens.
_HUGE = ("9223372036854775807", "99999999999999999999", f"-{2**70}")
# --n just past its cap, and one whose exact powers ran for minutes before the cap
_OVER_N = (str(harness.MAX_N + 1), "10000000", *_HUGE)
_DIGIT_ZEROS = ("0", "٠", "०", "０")  # ASCII, Arabic-Indic, Devanagari, fullwidth


def _digits(value: int, zero: str) -> str:
    """``value`` written in the decimal digits that start at ``zero``."""
    return ("-" if value < 0 else "") + "".join(chr(ord(zero) + int(c)) for c in str(abs(value)))


def _token(valid, tricky=_TRICKY):
    """Mostly a valid value, else a tricky token."""
    return st.sampled_from(("valid",) * 4 + ("tricky",)).flatmap(
        lambda kind: valid if kind == "valid" else st.sampled_from(tricky))


def _int_token(low, high, over=_HUGE):
    """A valid int in [low, high] in any digits, else a tricky token or one of ``over``."""
    valid = st.builds(_digits, st.integers(low, high), st.sampled_from(_DIGIT_ZEROS))
    return _token(valid, _TRICKY + over)


# Valid --kmax, --trials and --order stay small, so a generated run costs milliseconds.
# Repeated grid values come from equal tokens and from 1/2 against 0.5.
_VALUES = {
    "--n": _int_token(0, 5, _OVER_N),
    "--kmax": _int_token(2, 16),
    "--trials": _int_token(1, 50, ()),
    "--seed": _int_token(-(2**70), 2**70),
    "--order": _int_token(1, 32),
    # alphas that parse but whose float powers overflow, next to the stock-like ones
    "--alpha": _token(st.sampled_from(("1.1", "11/10", "3/2", "1.5", "2", "٢", "10", "1/3", "1e308", "5e-324")),
                      _TRICKY + _HUGE),
    "--beta": _token(st.sampled_from(("0", "0.25", "1/4", "0.5", "1/2", "0.9")), _TRICKY + _HUGE),
    "--backend": _token(st.sampled_from(("float", "rational"))),
    "--format": _token(st.sampled_from(("csv", "json"))),
    "--radius": st.sampled_from(("0.5", "nan")),
    "--samples": st.sampled_from(("16", "-1")),
}


@st.composite
def _argvs(draw):
    """A subcommand with some of its flags, then up to two more: repeats or another command's."""
    command = draw(st.sampled_from(list(_FLAGS_BY_COMMAND)))
    argv = list(command)
    for flag in sorted(_FLAGS_BY_COMMAND[command] & set(_VALUES)):
        if draw(st.booleans()) or (command == ("expand",) and flag in ("--n", "--alpha", "--beta")):
            argv += [flag, draw(_VALUES[flag])]
    for flag in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=2)):
        argv += [flag, draw(_VALUES[flag])]
    if command[-1] in ("random", "nehari"):
        argv += ["--trials", draw(_VALUES["--trials"])]  # the last one counts: never the default 1000
    return argv


@pytest.fixture(scope="module")
def pspec_paths(tmp_path_factory):
    """One float and one rational generator document for ``expand``."""
    folder = tmp_path_factory.mktemp("pspec")
    paths = []
    for name, doc in (("float", extremal_p(2).to_document()),
                      ("rational", {"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"},
                                                                     {"weight": "2/3", "t": "-3/4"}]})):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


# Document values that break a document or sit at the edge of its arithmetic: JSON booleans
# and null, non-finite numbers (json writes NaN and Infinity, and reads them back), fractions
# over 64 bits and at the limit, blanks, containers, and a JSON integer past the interpreter's
# digit limit.
_BIG_INT = "__integer with 5000 digits__"
_DOC_TRICKY = (True, False, None, float("nan"), float("inf"), float("-inf"), "nan", "-inf", "", "1/0",
               "x", "18446744073709551617/3", "1/18446744073709551617", 2**70, -(2**70), 0, -1, [], {},
               _BIG_INT, "18446744073709551615/18446744073709551614", "-1/18446744073709551557")
_SMALL_T = st.fractions(min_value=-4, max_value=4, max_denominator=9).map(str)


@st.composite
def _pspec_texts(draw):
    """A float or rational generator document as JSON text: valid, then broken in up to three ways."""
    backend = draw(st.sampled_from(("float", "rational")))
    count = draw(st.integers(0, 3))  # no atom at all is an empty atom list
    atoms = []
    for _ in range(count):
        if backend == "float":
            atoms.append({"weight": 1.0 / count, "angle_radians": draw(st.floats(-7.0, 7.0))})
        elif draw(st.booleans()):
            atoms.append({"weight": f"1/{count}", "t": draw(_SMALL_T)})
        else:
            atoms.append({"weight": f"1/{count}", "x_re": "-1", "x_im": "0"})
    doc = {"backend": backend, "atoms": atoms}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("drop", "extra", "value", "weight", "document")))
        if kind == "document":
            # the other backend, no backend, a backend that is no name, a field no reader reads
            key, value = draw(st.sampled_from((("backend", "float" if backend == "rational" else "rational"),
                                               ("backend", True), ("backend", None), ("order", 5),
                                               ("atoms", {}), ("atoms", "x"))))
            doc[key] = value
            if value is None:
                del doc[key]
            continue
        if not atoms:
            continue
        atom = atoms[draw(st.integers(0, len(atoms) - 1))]
        if kind == "drop" and atom:
            del atom[draw(st.sampled_from(sorted(atom)))]
        elif kind == "extra":
            field = draw(st.sampled_from(("t", "angle_radians", "x_im", "color")))
            atom[field] = draw(_SMALL_T)
        elif kind == "value":
            field = draw(st.sampled_from(("weight", "t", "angle_radians", "x_re")))
            atom[field] = draw(st.sampled_from(_DOC_TRICKY))
        elif kind == "weight":  # the weights no longer sum to 1
            atom["weight"] = draw(st.sampled_from(("1/7", "2/3", 0.3, 0.5000001)))
    return json.dumps(doc).replace(json.dumps(_BIG_INT), "9" * 5000)


@st.composite
def _expand_argvs(draw):
    """A valid ``expand`` argv without its --pspec, at the default order or a small one."""
    argv = ["expand", "--n", draw(st.sampled_from("0123")),
            "--alpha", draw(st.sampled_from(("1/3", "11/10", "2", "10"))),
            "--beta", draw(st.sampled_from(("0", "1/4", "0.9")))]
    if draw(st.booleans()):
        k_max = draw(st.integers(2, 8))
        argv += ["--kmax", str(k_max), "--order", str(draw(st.integers(k_max, 24)))]
    return [*argv, "--format", draw(st.sampled_from(("csv", "json")))]


def _alarm(signum, frame):
    raise TimeoutError("one generated argv ran past its 20 s budget")


def _keeps_the_contract(argv, stdin: str = ""):
    """Run one argv with a 20 s budget: exit 0, 1 or 2, one usage-error line, well-formed reports."""
    out, err = io.StringIO(), io.StringIO()
    previous, previous_stdin = signal.signal(signal.SIGALRM, _alarm), sys.stdin
    sys.stdin = io.StringIO(stdin)
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = previous_stdin
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        assert sum(line.startswith("usage error:") for line in err.splitlines()) == 1, (argv, err)
        return
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    if formats[-1:] == ["json"]:
        assert isinstance(json.loads(out), dict)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1, argv
        assert {len(row) for row in rows} == {len(rows[0])}, argv


class TestGeneratedArgvs:
    @settings(max_examples=400)
    @given(argv=_argvs(), pick=st.integers(0, 1))
    # a zero denominator in --alpha or --beta, on the float (0) and the rational (1) document
    @example(argv=["expand", "--n", "1", "--alpha", "1/0", "--beta", "0"], pick=0)
    @example(argv=["expand", "--n", "1", "--alpha", "1/0", "--beta", "0"], pick=1)
    @example(argv=["expand", "--n", "1", "--alpha", "2", "--beta", "1/0"], pick=0)
    @example(argv=["expand", "--n", "1", "--alpha", "2", "--beta", "1/0"], pick=1)
    def test_exit_code_and_streams_keep_the_contract(self, pspec_paths, argv, pick):
        if argv[0] == "expand":
            argv = [*argv, "--pspec", pspec_paths[pick]]
        _keeps_the_contract(argv)

    @settings(max_examples=300)
    @given(argv=_expand_argvs(), text=_pspec_texts())
    def test_generated_documents_keep_the_contract(self, argv, text):
        _keeps_the_contract([*argv, "--pspec", "-"], text)


class TestBoundsCommand:
    def test_csv_shape(self, capsys):
        code, out, err = run(["bounds", *SMALL], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(BOUNDS_COLUMNS)
        assert len(lines) == 1 + 5  # header + k = 2..6
        assert "5 rows over 1x1x1 grid points" in err

    def test_json_shape(self, capsys):
        code, out, _ = run(["bounds", *SMALL, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"rows"}
        assert len(payload["rows"]) == 5
        assert payload["rows"][0]["k"] == "2"


class TestVerifyOutput:
    def test_suite_csv_header_on_stdout_only(self, capsys):
        code, out, err = run(["verify", "extremal", *SMALL], capsys)
        assert out.splitlines()[0] == ",".join(SUITE_COLUMNS)
        assert "[pass]" not in out
        assert "suite," not in err

    def test_suite_json_shape(self, capsys):
        _, out, _ = run(["verify", "extremal", *SMALL, "--format", "json"], capsys)
        payload = json.loads(out)
        points = payload["suites"]["extremal"]
        assert len(points) == 1
        assert points[0]["passed"] is True
        assert points[0]["witness"] is None
        assert len(points[0]["entries"]) == 5

    def test_hk_audit_runs(self, capsys):
        code, out, err = run(
            ["verify", "hk", "--alpha", "2", "--kmax", "8"], capsys
        )
        assert code == 0
        assert "section=even-constants" in err
        assert "digit slip" in out

    @pytest.mark.parametrize("token", harness.DEFAULT_ALPHA_TOKENS)
    def test_float_hk_rows_are_the_exact_rows_rounded(self, token, capsys):
        # float verify hk at a stock alpha is rational verify hk at the fraction the float
        # stores, with each value cell printed as the float nearest its exact value
        exact = Fraction(float(token))
        float_run = run(["verify", "hk", "--alpha", token], capsys)
        exact_run = run(["verify", "hk", "--backend", "rational", "--alpha", str(exact)], capsys)
        assert float_run[0] == exact_run[0] == 0
        float_rows, exact_rows = (list(csv.DictReader(io.StringIO(out))) for _, out, _ in (float_run, exact_run))
        construction = [row for row in exact_rows if row["alpha"] and not row["n"]]
        assert len(construction) == 3 * (harness.DEFAULT_K_MAX - 1)
        cells = ("alpha", "observed", "reference", "margin")
        rounded = [{**row, **{cell: fmt_float(Fraction(row[cell])) for cell in cells}} for row in construction]
        assert [row for row in float_rows if row["alpha"] and not row["n"]] == rounded
        # the even-constant rows print the same on either backend
        assert [row for row in float_rows if not row["alpha"]] == [row for row in exact_rows if not row["alpha"]]

    @pytest.mark.parametrize(
        "flags",
        [["--radius", "2"], ["--radius", "nan"], ["--samples", "3"]],
        ids=["radius-2", "radius-nan", "samples-3"],
    )
    def test_hk_out_of_range_circle_settings(self, flags, capsys):
        # verify hk samples no circle, so it refuses every circle setting, in range or out
        code, out, err = run(["verify", "hk", "--alpha", "2", "--kmax", "4", *flags], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_out_file_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["verify", "random", *SMALL, "--trials", "50"]
        assert run([*args, "--out", str(a)], capsys)[0] == 0
        assert run([*args, "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().decode().splitlines()[0] == ",".join(SUITE_COLUMNS)

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-such-directory", "a-directory"])
    def test_unwritable_out_is_a_usage_error(self, target, tmp_path, capsys):
        out_path = tmp_path / target
        code, out, err = run(["bounds", *SMALL, "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write --out {out_path}")


class TestExpandCommand:
    def doc_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(extremal_p(3).to_document()))
        return path

    def expand_args(self, pspec):
        return ["expand", "--pspec", pspec, "--n", "1", "--alpha", "2", "--beta", "0",
                "--order", "12", "--kmax", "5"]

    def test_a_bound_that_underflows_to_zero_keeps_the_usage_error(self, tmp_path, capsys):
        # at alpha = 1e-300 and n = 3 every small-alpha bound is 0.0: the sharp-hit rule must not
        # divide by it, so the run still reaches the overflow that ends it as a usage error
        assert {bound for _, bound, _ in applicable_bound_row(3, 1e-300, 0.0, 6)} == {0.0}
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"backend": "float", "atoms": [{"weight": 1.0, "angle_radians": 0.0}]}))
        code, out, err = run(["expand", "--pspec", str(path), "--n", "3", "--alpha", "1e-300", "--beta", "0",
                              "--order", "16", "--kmax", "6"], capsys)
        assert (code, out) == (2, "")
        assert err == ("usage error: ((alpha + 1) / alpha)^3 overflows: the float expansion overflowed; "
                       "lower --order or expand exactly\n")

    def test_from_file(self, tmp_path, capsys):
        code, out, err = run(self.expand_args(str(self.doc_path(tmp_path))), capsys)
        assert code == 0
        assert "membership by construction" in out
        assert "round trip" in out
        assert ", sharp hit)" in out
        assert "[pass] expand n=1 alpha=2 beta=0 backend=float order=12 " in err

    def test_from_stdin_matches_file(self, tmp_path, capsys, monkeypatch):
        code_file, out_file, _ = run(self.expand_args(str(self.doc_path(tmp_path))), capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(extremal_p(3).to_document())))
        code_stdin, out_stdin, _ = run(self.expand_args("-"), capsys)
        assert (code_file, out_file) == (code_stdin, out_stdin)

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run([*self.expand_args(str(self.doc_path(tmp_path))), "--format", "json"], capsys)
        assert code == 0
        (report,) = json.loads(out)["suites"]["expand"]
        assert report["backend"] == "float"
        rows = expand_rows(out)
        assert the_row(rows, ROUND_TRIP)["status"] == "pass"
        assert [row["k"] for row in bound_rows(rows)] == ["2", "3", "4", "5"]

    @pytest.mark.parametrize(
        "n, alpha, order, message",
        [("0", "1/10000", "200", "f has a non-finite coefficient"),
         ("0", "1/200", "256", "the generator rebuilt from f is not finite"),
         ("4", "1e-80", "8", "((alpha + 1) / alpha)^4 overflows")],
        ids=["f-overflows", "minimum-overflows", "transform-overflows"],
    )
    def test_float_overflow_is_a_usage_error(self, n, alpha, order, message, tmp_path, capsys):
        # from the generator (1+z)/(1-z) at a small alpha, the float expansion overflows to NaN,
        # in f itself or, at 1/200, in the (f/z)^alpha of the round trip; at 1e-80 the factor
        # that undoes the transform overflows
        path = tmp_path / "p.json"
        path.write_text(json.dumps(extremal_p(2).to_document()))
        argv = ["expand", "--pspec", str(path), "--n", n, "--alpha", alpha, "--beta", "0",
                "--order", order, "--kmax", "4"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize(
        "text, message",
        [('{"backend": "rational", "atoms": [{"weight": 1, "t": ' + "9" * 5000 + '}]}',
          "pspec is not valid JSON: Exceeds the limit (4300 digits)"),
         ('{"backend": "rational", "atoms": [{"weight": "1/0", "t": "1/2"}]}',
          "invalid generator document: Fraction(1, 0)"),
         ('{"backend": "rational", "atoms": [{"weight": "1", "t": "1/2"}], "order": 8}',
          "invalid generator document: unknown document fields ['order']"),
         ('{"backend": "rational", "atoms": [{"weight": "1", "t": "1/2", "x_re": "-1", "x_im": "0"}]}',
          "invalid generator document: rational atom takes 't' or 'x_re'/'x_im', not both"),
         ('{"backend": "rational", "atoms": [{"weight": "1", "t": "18446744073709551617/3"}]}',
          "exact atom t has a 65-bit numerator or denominator, over the 64-bit limit"),
         ('{"backend": "rational", "atoms": [{"weight": "1/18446744073709551617", "t": "0"}, '
          '{"weight": "18446744073709551616/18446744073709551617", "t": "1"}]}',
          "exact atom weight has a 65-bit numerator or denominator, over the 64-bit limit")],
        ids=["integer-past-digit-limit", "zero-denominator", "unknown-document-field", "t-and-point",
             "t-over-64-bits", "weight-over-64-bits"],
    )
    def test_document_is_a_usage_error(self, text, message, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(["expand", "--pspec", "-", "--n", "0", "--alpha", "2", "--beta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize(
        "text, message",
        [('{"atoms": 5}', "'atoms' must be a non-empty list"),
         ('{"atoms": {"a": 1}}', "'atoms' must be a non-empty list"),
         ('{"backend": ["float"], "atoms": [{"weight": 1, "angle_radians": 0}]}',
          "unknown backend ['float'] (expected 'float' or 'rational')"),
         ('{"backend": null, "atoms": [{"weight": "1", "t": "0"}]}',
          "unknown backend None (expected 'float' or 'rational')")],
        ids=["atoms-a-number", "atoms-an-object", "backend-a-list", "backend-null"],
    )
    def test_malformed_document_names_what_is_wrong(self, text, message, capsys, monkeypatch):
        # the atoms list is checked before the backend is inferred from its first entry,
        # an unhashable backend name is an unknown one, not a Python internal, and a
        # null backend is a malformed field, not an absent one
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(["expand", "--pspec", "-", "--n", "1", "--alpha", "2", "--beta", "0"], capsys)
        assert (code, out, err) == (2, "", f"usage error: invalid generator document: {message}\n")

    ONE_ATOM ={"float": extremal_p(2).to_document(),
                "rational": {"backend": "rational", "atoms": [{"weight": "1", "t": "0"}]}}

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("what, point", [("alpha", ["--alpha", "1/0", "--beta", "0"]),
                                             ("beta", ["--alpha", "2", "--beta", "1/0"]),
                                             ("alpha", ["--alpha", "x", "--beta", "0"])])
    def test_unreadable_token_names_the_flag(self, backend, what, point, capsys, monkeypatch):
        # expand reads --alpha and --beta as every grid command does, on the document's backend
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.ONE_ATOM[backend])))
        code, out, err = run(["expand", "--pspec", "-", "--n", "1", *point], capsys)
        assert (code, out) == (2, "")
        token = point[point.index(f"--{what}") + 1]
        assert err.startswith(f"usage error: bad {what} token {token!r}: ")
        assert len(err.splitlines()) == 1

    def test_document_is_read_before_the_point(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"atoms": 5}'))
        code, out, err = run(["expand", "--pspec", "-", "--n", "65", "--alpha", "1/0", "--beta", "0"], capsys)
        assert (code, out, err) == (2, "", "usage error: invalid generator document: 'atoms' must be a non-empty list\n")

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("alpha", ["1/10", "1/3", "3/4", "1", "3/2"])
    def test_bound_rows_are_the_bounds_table(self, backend, alpha, capsys, monkeypatch):
        # expand's bound is the table's sharp_bound for alpha > 1 and its small_alpha_bound otherwise,
        # blank in the open window; by k = 8, 1/3 and 1 reach omega1, omega2, omega3 and the window,
        # and a sharp row names no region
        point = ["--n", "1", "--alpha", alpha, "--beta", "1/4", "--kmax", "8"]
        code, out, _ = run(["bounds", *point, "--backend", backend, "--format", "json"], capsys)
        assert code == 0
        table = json.loads(out)["rows"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.ONE_ATOM[backend])))
        _, out, _ = run(["expand", "--pspec", "-", *point, "--order", "8", "--format", "json"], capsys)
        rows = bound_rows(expand_rows(out))
        column, source = ("sharp_bound", "sharp") if Fraction(alpha) > 1 else ("small_alpha_bound", "small_alpha")
        for row, cell in zip(rows, table, strict=True):
            row_source, region, _ = bound_case(row)
            assert (row["k"], region) == (cell["k"], cell["region"] if Fraction(alpha) <= 1 else None)
            want = cell[column] and fmt_float(float(Fraction(cell[column])))
            assert (row["reference"], row_source, row["status"] != "info") == (
                want, source if want else "none", bool(want)
            ), row["k"]

    @staticmethod
    def expansion_stages(flags, capsys, monkeypatch):
        """The order of each `f_from_p` call of one rational expand, then its code, stdout and stderr."""
        orders, expand = [], harness.f_from_p
        monkeypatch.setattr(harness, "f_from_p",
                            lambda p, params, order: orders.append(order) or expand(p, params, order))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_GOLDEN_RATIONAL_DOC)))
        return orders, *run(["expand", "--pspec", "-", *flags], capsys)

    def test_exact_expansion_stops_at_the_first_stage_past_the_digit_limit(self, capsys, monkeypatch):
        # at a 64-bit alpha and n = 3, f's coefficients pass 4300 digits below z^32, so the
        # order-32 stage ends the run; the whole order-64 expansion and its round trip took 20 s
        flags = ["--n", "3", "--alpha", "18446744073709551557/18446744073709551556", "--beta", "0"]
        orders, code, out, err = self.expansion_stages(flags, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert "more than 4300 digits" in err
        assert orders == [16, 32]

    def test_exact_expansion_stages_end_at_the_order(self, capsys, monkeypatch):
        flags = ["--n", "1", "--alpha", "2", "--beta", "0", "--order", "40"]
        orders, code, _, _ = self.expansion_stages(flags, capsys, monkeypatch)
        assert code == 0
        assert orders == [16, 32, 40]

    # the one-atom generator (1+z)/(1-z) at a tiny alpha: bounds up to 2.5e26, where float
    # rounding alone leaves |a_k| a few ulps above the bound
    LARGE = ["--n", "0", "--alpha", "1/10000", "--beta", "0", "--order", "64", "--kmax", "8"]

    def large_bound_rows(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(extremal_p(2).to_document()))
        _, out, _ = run(["expand", "--pspec", str(path), *self.LARGE, "--format", "json"], capsys)
        rows = bound_rows(expand_rows(out))
        assert [row["k"] for row in rows] == [str(k) for k in range(2, 9)]
        return rows

    def test_slack_scales_with_a_large_bound(self, tmp_path, capsys):
        rows = self.large_bound_rows(tmp_path, capsys)
        assert float(rows[-1]["margin"]) < -1e9  # k = 8: an absolute gap, a relative 3e-16
        assert all(row["status"] == "pass" and bound_case(row)[2] for row in rows)

    def test_large_bound_still_catches_a_relative_excess(self, tmp_path, capsys, monkeypatch):
        # the same |a_k| against bounds shrunk by a relative 1e-6
        exact = harness.applicable_bound_row

        def shrunk(n, alpha, beta, k_max):
            return [(source, bound / (1 + 1e-6), region) for source, bound, region in exact(n, alpha, beta, k_max)]

        monkeypatch.setattr(harness, "applicable_bound_row", shrunk)
        rows = self.large_bound_rows(tmp_path, capsys)
        assert all(row["status"] == "fail" and not bound_case(row)[2] for row in rows)

    def test_float_membership_at_a_tiny_alpha(self, tmp_path, capsys):
        # the coefficients of f reach 4.7e183, so the float round trip has tolerances far above 2,
        # the coefficient bound of P: the row reports that it cannot judge, and does not fail
        path = tmp_path / "p.json"
        path.write_text(json.dumps(extremal_p(2).to_document()))
        code, out, _ = run(["expand", "--pspec", str(path), *self.LARGE, "--format", "json"], capsys)
        assert code == 0
        assert the_row(expand_rows(out), ROUND_TRIP)["status"] == "info"

    def test_rational_membership_at_a_tiny_alpha(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"backend": "rational", "atoms": [{"weight": "1", "t": "0"}]}))
        code, out, _ = run(["expand", "--pspec", str(path), *self.LARGE, "--format", "json"], capsys)
        assert code == 0
        row = the_row(expand_rows(out), ROUND_TRIP)
        assert (row["status"], row["observed"]) == ("pass", "0")

    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_perturbed_float_expansion_fails_the_round_trip(self, k, tmp_path, capsys, monkeypatch):
        # a relative 1e-9 on one coefficient of f is far above the round-trip tolerances
        original = harness.f_from_p

        def perturbed(p, params, order):
            coeffs = list(original(p, params, order).coeffs)
            coeffs[k] *= 1 + 1e-9
            return TruncatedSeries(coeffs, order)

        monkeypatch.setattr(harness, "f_from_p", perturbed)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_GOLDEN_FLOAT_DOC))
        argv = ["expand", "--pspec", str(path), "--n", "2", "--alpha", "2", "--beta", "1/4",
                "--order", "16", "--kmax", "8"]
        code, out, err = run(argv, capsys)
        assert code == 1
        row = expand_rows(out)[-1]
        assert (row["k"], row["case"], row["status"]) == (str(k - 1), ROUND_TRIP, "fail")
        assert float(row["observed"]) > 1000 * float(row["reference"])
        assert "[FAIL] expand" in err

    def test_missing_pspec(self, capsys):
        code, _, err = run(["expand", "--n", "1", "--alpha", "2", "--beta", "0"], capsys)
        assert code == 2
        assert "usage error" in err

    def test_two_alphas(self, tmp_path, capsys):
        args = self.expand_args(str(self.doc_path(tmp_path))) + ["--alpha", "3"]
        assert run(args, capsys)[0] == 2

    def test_pspec_not_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        assert run(self.expand_args(str(path)), capsys)[0] == 2

    def test_pspec_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(self.expand_args(str(path)), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: cannot read pspec")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-such-directory", "a-directory"])
    def test_unwritable_out_is_a_usage_error(self, target, tmp_path, capsys):
        out_path = tmp_path / target
        code, out, err = run([*self.expand_args(str(self.doc_path(tmp_path))), "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write --out {out_path}")

    def test_pspec_not_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run(self.expand_args(str(path)), capsys)[0] == 2

    def test_backend_mismatch(self, tmp_path, capsys):
        # the document names its backend, so expand takes no --backend at all
        args = self.expand_args(str(self.doc_path(tmp_path))) + ["--backend", "rational"]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --backend rational" in err

    @pytest.mark.parametrize(
        "atom",
        [
            {"weight": float("nan"), "angle_radians": 0.1},
            {"weight": float("inf"), "angle_radians": 0.1},
            {"weight": 1.0, "angle_radians": float("nan")},
            {"weight": 1.0, "angle_radians": float("inf")},
            {"weight": True, "angle_radians": False},
            {"weight": 1.0, "angle_radians": True},
        ],
        ids=["nan-weight", "inf-weight", "nan-angle", "inf-angle", "bool-weight", "bool-angle"],
    )
    def test_non_finite_float_atom_is_usage_error(self, atom, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"backend": "float", "atoms": [atom]}))
        code, out, err = run(self.expand_args(str(path)), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: invalid generator document")

    def test_split_fraction_fields_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        atom = {"weight_num": 1, "weight_den": 1, "t_num": 1, "t_den": 2}
        path.write_text(json.dumps({"backend": "rational", "atoms": [atom]}))
        code, out, err = run(self.expand_args(str(path)), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: invalid generator document")
        path.write_text(json.dumps({"backend": "rational", "atoms": [{"weight": "1", "t": "1/2", "t_den": 2}]}))
        assert run(self.expand_args(str(path)), capsys)[0] == 2

    @pytest.mark.parametrize(
        "flags", [["--radius", "1.5"], ["--samples", "2"]], ids=["radius-1.5", "samples-2"]
    )
    def test_out_of_range_circle_settings(self, flags, tmp_path, capsys):
        # expand samples no circle, so it refuses every circle setting, in range or out
        code, out, err = run([*self.expand_args(str(self.doc_path(tmp_path))), *flags], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_library_call_matches_command(self, tmp_path, capsys):
        # the library and the command share every default
        path = self.doc_path(tmp_path)
        argv = ["expand", "--pspec", str(path), "--n", "1", "--alpha", "2", "--beta", "0",
                "--order", "16", "--kmax", "8", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert suite_json(run_expand(doc, 1, "2", "0", 16, 8)) == out


#: One small run of each command that writes suite reports, which is every command but ``bounds``;
#: an index stands for the path of `pspec_paths` it picks.
_SUITE_ARGVS = [
    ["verify", "extremal", *SMALL],
    ["verify", "extremal", *SMALL, "--backend", "rational"],
    ["verify", "random", *SMALL, "--trials", "20"],
    ["verify", "nehari", *SMALL, "--trials", "20"],
    ["verify", "hk", "--alpha", "2", "--kmax", "6"],
    ["expand", "--pspec", 0, "--n", "1", "--alpha", "2", "--beta", "0", "--order", "8", "--kmax", "6"],
    ["expand", "--pspec", 1, "--n", "1", "--alpha", "1/3", "--beta", "0", "--order", "8", "--kmax", "6"],
]


@pytest.mark.parametrize("argv", _SUITE_ARGVS, ids=["extremal-float", "extremal-rational", "random", "nehari", "hk",
                                                     "expand-float", "expand-rational"])
def test_one_report_shape(argv, pspec_paths, capsys):
    # the CSV header is SUITE_COLUMNS, the JSON is {"suites": ...}, and stderr ends with the point count
    argv = [pspec_paths[token] if isinstance(token, int) else token for token in argv]
    code, out, err = run(argv, capsys)
    assert next(csv.reader(io.StringIO(out))) == list(SUITE_COLUMNS)
    passed, total = re.fullmatch(r"(\d+)/(\d+) points passed in \d+\.\d\ds", err.splitlines()[-1]).groups()
    assert code == (0 if passed == total else 1)
    json_code, out, _ = run([*argv, "--format", "json"], capsys)
    assert json_code == code
    assert list(json.loads(out)) == ["suites"]


_PSPEC = "<pspec>"  # replaced by the path of a rational document


class TestSharedParser:
    """`main` parses with one parser per process; each call reads as a fresh one."""

    @staticmethod
    def outcomes(sequence, fresh, capsys):
        """Exit code and stdout of each argv, and stderr for the usage errors (the rest holds timings)."""
        out = []
        for argv in sequence:
            if fresh:
                cli._shared_parser.cache_clear()
            code, stdout, stderr = run(argv, capsys)
            out.append((code, stdout, stderr if code == 2 else None))
        return out

    @pytest.mark.parametrize(
        "sequence",
        [
            # a grid command, then the same command without --n
            [["bounds", "--n", "2", "--alpha", "3/2", "--kmax", "4"], ["bounds", "--alpha", "3/2", "--kmax", "4"]],
            [["verify", "extremal", "--n", "1", "--n", "3", "--kmax", "5", "--backend", "rational"],
             ["verify", "extremal", "--kmax", "5", "--backend", "rational"]],
            [["verify", "random", *SMALL, "--trials", "20"], ["verify", "random", "--alpha", "2", "--trials", "20"]],
            # a usage error, then a valid call
            [["bounds", "--kmax", "x"], ["bounds", "--kmax", "3", "--format", "json"]],
            [["verify", "hk", "--n", "1"], ["verify", "hk", "--alpha", "2", "--kmax", "5"]],
            [["verify"], ["verify", "extremal", *SMALL]],
            # expand: a valid call, a usage error, then the first call with one flag more
            [["expand", "--pspec", _PSPEC, "--n", "1", "--alpha", "2", "--beta", "0", "--order", "12", "--kmax", "6"],
             ["expand", "--pspec", _PSPEC, "--n", "1", "--n", "2", "--alpha", "2", "--beta", "0"],
             ["expand", "--pspec", _PSPEC, "--n", "1", "--alpha", "2", "--beta", "0", "--order", "12", "--kmax", "6",
              "--format", "json"]],
        ],
        ids=lambda sequence: " / ".join(" ".join(argv[:2]) for argv in sequence),
    )
    def test_a_sequence_reads_like_fresh_calls(self, sequence, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_GOLDEN_RATIONAL_DOC))
        sequence = [[str(path) if token == _PSPEC else token for token in argv] for argv in sequence]
        fresh = self.outcomes(sequence, True, capsys)
        cli._shared_parser.cache_clear()
        shared = self.outcomes(sequence, False, capsys)
        assert shared == fresh
        assert cli._shared_parser.cache_info().misses == 1

    def test_built_on_the_first_call_not_at_import(self):
        probe = ("import coeffbounds.cli as cli; before = cli._shared_parser.cache_info().currsize; "
                 "cli.main(['bounds', '--kmax', 'x']); print(before, cli._shared_parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["0", "1"]

    def test_build_parser_still_builds_a_new_one(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._shared_parser()


#: sha256 of the ``--help`` stdout of the top level and of each subcommand, per terminal width
_HELP_DIGESTS = {
    "50": {
        "": "01139442ddd07fcc4dd9a2bada214cf38f5ab9ffa08b4da4f049f7201f4476f4",
        "bounds": "e55e088a2dd5a68f86e6f2fe11cd015c089d0821de121b61d3c455c53ba6a492",
        "verify": "1b54213d3962e58f8357bec228be75b45c9240b93bd3fbd48b79936ce6ed5ed8",
        "verify extremal": "eef4020c32e3d42745f6dc653ed7bbaa60f473a9e56c9e54acfa7b70c4d2e637",
        "verify random": "550557b2c4628c6ae89d7b14a8df6ab76f245d209344c54a799d3ca17ad93f8d",
        "verify hk": "c6c5f94305413e58659c6f46a9a5767c03d4f16fa87d9768a6d016323d8a9b66",
        "verify nehari": "69a559c4219c279b54c30aaa5d27e16736f7756983ece1b429cd7625e1fbda24",
        "expand": "332667a4a59f93b2eb41733c24d1ef6f22656e2704c9d2a03d221489e3486ab6",
    },
    "120": {
        "": "c692eb5e0ab80ba8b4c909f0b5f0977cb65077ed069807bbbd1d3377e1f2e730",
        "bounds": "1effb96fb1c0ad072f0abf1027e329fb9df5c0cd344e822564606b80aa4198de",
        "verify": "8f7e296c25b58220ffe88ca9cef3a3df9dab8a2d344ba6ec994a1bda99ba3f57",
        "verify extremal": "f06e197868923698b81804ba30d2c33630719b2a2dd9614df027e6fac4cf5c1c",
        "verify random": "591edbcf1c6c63a9b62a95f3a642739ca592ad111f68dc72da7ef3c8e89693b8",
        "verify hk": "df713305239115e0b4e1b392c0562b76c6d9b949c6f8bd2826e75775c7eb5487",
        "verify nehari": "03bdd3264097cf8c326e13c2ac6b967e9c80cc012c43cfb039c233eba3c3d461",
        "expand": "82f7ca3049cbbef6a52bc534eab247c1c4b898248d5c179b6ed9a26d1a00e9dd",
    },
}


class TestHelp:
    """The parser reads the terminal width once per build, and ``--help`` wraps as argparse's default does."""

    @pytest.mark.parametrize("columns", sorted(_HELP_DIGESTS))
    def test_help_is_pinned(self, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        for command, digest in _HELP_DIGESTS[columns].items():
            with pytest.raises(SystemExit) as exit_info:
                cli.build_parser().parse_args([*command.split(), "--help"])
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (columns, command)

    def test_build_reads_the_terminal_size_once(self, monkeypatch):
        import shutil

        calls = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or size(*args))
        cli.build_parser()
        assert len(calls) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the float alternating Nehari sum loses digits to cancellation "
    "at n = 0 for k_max >= 16; the worst trial (398, k = 16) reads -1.79e-9 in float "
    "and 0 in exact arithmetic on its own dyadic atoms",
)
def test_nehari_n0_deep_kmax_has_no_false_counterexample(capsys):
    argv = ["verify", "nehari", "--n", "0", "--alpha", "2", "--beta", "0", "--kmax", "16",
            "--trials", "4000", "--seed", "2288874184"]
    assert run(argv, capsys)[0] == 0


def test_repeat_runs_byte_identical(capsys):
    _, first, _ = run(["verify", "random", *SMALL, "--trials", "60"], capsys)
    _, second, _ = run(["verify", "random", *SMALL, "--trials", "60"], capsys)
    assert first == second


# sha256 of stdout for the scalar path (extremal generators, the h_k audit's
# exact rows, expand's membership rows, the bound tables). A deliberate
# report change re-pins these and says so in CHANGES.md. The float reports go
# through libm (cmath.exp, pow), so they are pinned for x86-64 Linux with glibc.
_GOLDEN_FLOAT_DOC = {
    "backend": "float",
    "atoms": [
        {"weight": 0.5, "angle_radians": 0.7},
        {"weight": 0.25, "angle_radians": 2.0},
        {"weight": 0.25, "angle_radians": -1.3},
    ],
}
_GOLDEN_RATIONAL_DOC = {
    "backend": "rational",
    "atoms": [{"weight": "1/3", "t": "1/2"}, {"weight": "2/3", "t": "-3/4"}],
}
_GOLDEN_EXPAND = ["--n", "2", "--alpha", "3/2", "--beta", "1/4", "--order", "24", "--kmax", "8"]
_HK_WIDE = ["--kmax", "20"]
# the default order 64, where the rational round trip carries long denominators
_EXPAND_WIDE = ["--n", "2", "--alpha", "3/2", "--beta", "1/4", "--kmax", "8"]
# omega-region alphas, where the small-alpha bound sums powers up to m = k - 1
_SMALL_ALPHA = ["--alpha", "1/10", "--alpha", "1/4", "--alpha", "1/3", "--alpha", "1/2", "--kmax", "12"]
# alphas on the region edges 1/(k-2) and 1/(k-3), and on either side of 1, up to k = 16
_REGION_EDGES = ["--alpha", "1/10", "--alpha", "1/3", "--alpha", "2/3", "--alpha", "1", "--alpha", "3/2",
                 "--kmax", "16"]


@pytest.mark.parametrize(
    "argv, doc, digest",
    [
        (["verify", "hk"], None, "6fc0cee95673a50d62f99a1f3082ca5faa47aa6b20c276e751a68312b4638a66"),
        (["verify", "hk", "--backend", "rational"], None,
         "b4bdd854862121c4fbf767c9bc73a814630ca71257f2d16f7458928a3c8dd81d"),
        (["verify", "hk", *_HK_WIDE], None, "87e249be3bf0b3ce6c512c0ec00e00f0061f66d6c03b486b58f6018e36909ccd"),
        (["verify", "hk", *_HK_WIDE, "--backend", "rational"], None,
         "671d23d78252ecbfcffd9318ccc436b6a9b657252e27cdc4bdad1c683468952c"),
        (["verify", "extremal"], None, "107d3ff9758f8042995b83ce5ad98dae58ccf2040cfd0d53b15cfc6a39d7f222"),
        (["verify", "extremal", "--backend", "rational"], None,
         "f0fe53ec7ef477d980602c22f297a8d22000ad9b6ebd0b50dbf36b1e3388604d"),
        (["expand", *_GOLDEN_EXPAND], _GOLDEN_FLOAT_DOC,
         "281d761561e4a9c32ddaa2af128c660c0489b558201588325f2143620cafd6cc"),
        (["expand", *_GOLDEN_EXPAND], _GOLDEN_RATIONAL_DOC,
         "a73d9a47d0bc9948297d76ed89f42e4f08bcd0707b8fd3efac73051bad162775"),
        (["expand", *_EXPAND_WIDE], _GOLDEN_FLOAT_DOC,
         "0d2bf345df9e832cb39515fecac0790256d945e149ae244f0e18b18c53eab290"),
        (["expand", *_EXPAND_WIDE], _GOLDEN_RATIONAL_DOC,
         "f66e8c001047bc5bc1dd2140797b2c700a5a9770a06db8f8f2fe633effa82828"),
        (["bounds"], None, "d208a0c417d338a26f017579ad72ec70d9e076a651331c36fb8949ccd1bc631b"),
        (["bounds", "--backend", "rational"], None,
         "822b40bd5eee27134b23e4769af592ad6dd63008455876a51eab0b235dc579ff"),
        (["bounds", *_SMALL_ALPHA], None, "fe27a4ba34e4f602652f2d76678e53a69cd49153f2a991637732e13d6f40f6b8"),
        (["bounds", *_SMALL_ALPHA, "--backend", "rational"], None,
         "3dd5ceb08318c90902d66b9b1b245841c375e64f9acb62b86b6fbfb4ffead661"),
        (["bounds", *_REGION_EDGES], None, "b263c6afeb435063b0a20688b768e6eea1894de6a9d48de3c7d5125e59a57712"),
        (["bounds", *_REGION_EDGES, "--backend", "rational"], None,
         "89dc600124f4dfea37cedfd6f43c0bb29d95a9b74af74cc8a127ac978f6e0452"),
        (["bounds", "--format", "json"], None, "1e401f40ef31a1132860eabc3620f1ff1280226d06cc56c4cbe5f8e3c06a2edf"),
    ],
    ids=[
        "hk-float", "hk-rational", "hk-wide-float", "hk-wide-rational", "extremal-float", "extremal-rational", "expand-float", "expand-rational",
        "expand-wide-float", "expand-wide-rational",
        "bounds-float", "bounds-rational", "bounds-small-alpha-float", "bounds-small-alpha-rational",
        "bounds-region-edges-float", "bounds-region-edges-rational", "bounds-json",
    ],
)
def test_scalar_path_stdout_is_pinned(argv, doc, digest, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--pspec", str(path)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for the sweep path: the sampled margins, the violation
# rows and the nehari witness document with its stream keys and atoms.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["verify", "nehari", *SMALL, "--trials", "150", "--format", "json"], 1,
         "a7d16f52f8e009e3bcb9a69fbb25b30a68ca0487ea840b7e1e8e7ace9ecb44e4"),
        (["verify", "random", *SMALL, "--trials", "60"], 0,
         "bd7ebc88d149b3722a44e6dedb3e245d95b61d449f13ffb2919d1065cbffdba3"),
    ],
    ids=["nehari-json-witness", "random-csv"],
)
def test_sweep_path_stdout_is_pinned(argv, code, digest, capsys):
    got, out, _ = run(argv, capsys)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: The NPY_DISABLE_CPU_FEATURES value that turns off numpy's AVX-512 dispatch.
_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def _dispatches_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(not _dispatches_avx512(),
                    reason="numpy reports no AVX-512 (X86_V4) dispatch on this host: none to turn off")
@pytest.mark.parametrize("suite, code", [("random", 0), ("nehari", 1)])
def test_stock_sweep_reports_do_not_depend_on_avx512(suite, code):
    # the sweep reports read one sha256 with numpy's AVX-512 kernels and without them
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    off = dict(env, NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    probe = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(f['X86_V4'])"
    for features, want in ((env, "True"), (off, "False")):
        seen = subprocess.run([sys.executable, "-c", probe], env=features, capture_output=True, text=True,
                              timeout=60)
        assert seen.stdout.strip() == want, seen.stderr
    for fmt in ("csv", "json"):
        digests = set()
        for features in (env, off):
            out = subprocess.run([sys.executable, "-m", "coeffbounds.cli", "verify", suite, "--format", fmt],
                                 env=features, capture_output=True, timeout=120)
            assert out.returncode == code, out.stderr
            digests.add(hashlib.sha256(out.stdout).hexdigest())
        assert len(digests) == 1, (suite, fmt)
