"""Deterministic report rendering.

Suites hand over pre-formatted strings (exact fractions on the rational
backend, 17-significant-digit floats otherwise); this module only arranges
them. Given identical inputs the rendered CSV/JSON is byte-identical:
stable column order, ``\n`` line endings, sorted JSON keys, and no
timestamps — wall-clock data lives on the report objects for console
display but never reaches the serialized output.

The records are named tuples: a `SuiteEntry` is a CSV row as it stands,
its fields being `SUITE_COLUMNS` in order.
"""

from __future__ import annotations

import csv
import io
import operator
from collections import namedtuple

SUITE_COLUMNS = (
    "suite",
    "n",
    "alpha",
    "beta",
    "k",
    "case",
    "observed",
    "reference",
    "margin",
    "status",
)


def fmt_float(x) -> str:
    return format(float(x), ".17g")


class SuiteEntry(namedtuple("SuiteEntry", SUITE_COLUMNS)):
    """One assertion (or informational) row of a verification suite.

    ``status`` is "pass", "fail" or "info".
    """

    __slots__ = ()


class SuiteReport(namedtuple(
    "SuiteReport", "suite point passed worst_margin witness entries elapsed", defaults=(0.0,)
)):
    """Outcome of one suite at one parameter point.

    ``elapsed`` is for console display only and is deliberately left out of
    both serializations so reruns stay byte-identical.
    """

    __slots__ = ()


def _rows_csv(columns, rows) -> str:
    """The header, then each row: a sequence of cells in column order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def csv_text(columns, rows) -> str:
    """CSV of dict rows, each holding every column."""
    cells = operator.itemgetter(*columns)  # a tuple per row: every table has several columns
    return _rows_csv(columns, map(cells, rows))


def json_text(payload) -> str:
    import json  # only JSON reports need it, so the CLI's import path leaves it out

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def suite_csv(reports) -> str:
    return _rows_csv(SUITE_COLUMNS, (entry for report in reports for entry in report.entries))


def suite_json(reports) -> str:
    suites: dict = {}
    for report in reports:
        item = {
            **report.point,
            "passed": report.passed,
            "worst_margin": None if report.worst_margin is None else fmt_float(report.worst_margin),
            "witness": report.witness,
            "entries": [entry._asdict() for entry in report.entries],
        }
        suites.setdefault(report.suite, []).append(item)
    return json_text({"suites": suites})
