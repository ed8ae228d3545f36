"""The rows of one ``expand`` report, read the same way from the library, the CSV and the JSON.

Each row is a dict keyed by `reports.SUITE_COLUMNS`.
"""

import csv
import io
import json

MEMBERSHIP = "membership by construction (smallest atom weight)"
ROUND_TRIP = "round trip p_from_f(f) against the generator"


def expand_rows(result) -> list:
    """The rows of `run_expand`'s one report, or of the CSV or JSON text ``coeffbounds expand`` writes."""
    if isinstance(result, list):
        (report,) = result
        return [entry._asdict() for entry in report.entries]
    if result.startswith("{"):
        (report,) = json.loads(result)["suites"]["expand"]
        return report["entries"]
    return list(csv.DictReader(io.StringIO(result)))


def coefficients(rows) -> list:
    """The coefficient texts, a_0 first."""
    return [row["observed"] for row in rows if row["case"] == "coefficient"]


def bound_rows(rows) -> list:
    return [row for row in rows if row["case"].startswith("bound (")]


def bound_case(row) -> tuple:
    """(source, region or None, sharp hit) read from a bound row's case: ``bound (source[, region][, sharp hit])``."""
    source, *rest = row["case"][len("bound ("):-1].split(", ")
    hit = rest[-1:] == ["sharp hit"]
    (region,) = rest[: len(rest) - hit] or [None]
    return source, region, hit


def the_row(rows, case) -> dict:
    (row,) = [row for row in rows if row["case"] == case]
    return row
