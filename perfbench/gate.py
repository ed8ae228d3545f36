"""Correctness gate: every command's exit code and report are checked.

Four checks, as the benchmark's README describes:

1. the exit code matches the workload's expectation;
2. the per-point pass/fail pattern and a few values recomputed here from
   the closed forms (sharp bound, a_2 of an expanded generator);
3. report bytes are identical across the passes of one run;
4. the report's sha256 against the digests recorded at the seed commit --
   a changed digest is information, not a failure, so a deliberate change
   of the seed contract does not count as a failed operation.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import re
from fractions import Fraction

_REL_TOL = 1e-12


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _by_point(rows):
    points: dict = {}
    for row in rows:
        points.setdefault((row["n"], row["alpha"], row["beta"]), []).append(row)
    return points


def _check_random(cmd, rows):
    points = _by_point(rows)
    problems = []
    if len(points) != cmd.points:
        problems.append(f"expected {cmd.points} grid points, got {len(points)}")
    bad = [p for p, rs in points.items() if any(r["status"] != "pass" for r in rs)]
    if bad:
        problems.append(f"dominance failed at {len(bad)} points, first {bad[0]}")
    return problems


def _check_nehari(cmd, rows):
    points = _by_point(rows)
    problems = []
    if len(points) != cmd.points:
        problems.append(f"expected {cmd.points} grid points, got {len(points)}")
    for point, rs in points.items():
        failed = any(r["status"] == "fail" for r in rs)
        if failed != (int(point[0]) >= 1):
            problems.append(f"nehari point {point} {'failed' if failed else 'passed'}; "
                            "expected pass at n = 0 and fail at n >= 1")
    return problems


def _check_extremal(cmd, rows):
    k_count = 11 if cmd.expect["backend"] == "float" else 2
    problems = []
    if len(rows) != cmd.points * k_count:
        problems.append(f"expected {cmd.points * k_count} rows, got {len(rows)}")
    bad = [r for r in rows if r["status"] != "pass"]
    if bad:
        problems.append(f"{len(bad)} extremal rows not at the sharp bound")
    return problems


def _check_hk(cmd, rows):
    problems = []
    if not rows:
        problems.append("empty hk report")
    bad = [r for r in rows if r["status"] not in ("pass", "info")]
    if bad:
        problems.append(f"{len(bad)} hk rows failed, first k={bad[0]['k']} {bad[0]['case']}")
    return problems


def _sharp_bound(n: int, alpha, beta, k: int):
    return 2 * (1 - beta) * alpha ** (n - 1) / (alpha + k - 1) ** n


def _check_bounds(cmd, rows):
    problems = []
    if len(rows) != cmd.points * 11:
        problems.append(f"expected {cmd.points * 11} rows, got {len(rows)}")
    exact = cmd.expect["backend"] == "rational"
    num = Fraction if exact else float
    for r in rows:
        want = _sharp_bound(int(r["n"]), num(r["alpha"]), num(r["beta"]), int(r["k"]))
        got = num(r["sharp_bound"])
        ok = got == want if exact else abs(got - want) <= _REL_TOL * abs(want)
        if not ok:
            problems.append(f"sharp bound {got} != {want} at n={r['n']} alpha={r['alpha']} "
                            f"beta={r['beta']} k={r['k']}")
            break
    return problems


_RATIONAL_COEFF = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?$")


def _parse_rational_coeff(text: str):
    m = _RATIONAL_COEFF.match(text)
    if not m:
        raise ValueError(f"not an exact coefficient: {text!r}")
    im = Fraction(m.group(3) or 0)
    return Fraction(m.group(1)), -im if m.group(2) == "-" else im


def expected_a2(doc: dict, n: int, alpha: str, beta: str):
    """a_2 = (1 - beta) (alpha/(alpha+1))^n b_1 / alpha with b_1 = 2 sum w x.

    Returned as a complex on float documents and as an exact (re, im)
    pair of Fractions on rational ones.
    """
    if doc["backend"] == "float":
        b1 = 2 * sum(a["weight"] * cmath.exp(1j * a["angle_radians"]) for a in doc["atoms"])
        a, b = float(Fraction(alpha)), float(Fraction(beta))
        return (1 - b) * (a / (a + 1)) ** n * b1 / a
    re_part = im_part = Fraction(0)
    for atom in doc["atoms"]:
        w, t = Fraction(atom["weight"]), Fraction(atom["t"])
        re_part += 2 * w * (1 - t * t) / (1 + t * t)
        im_part += 2 * w * (2 * t) / (1 + t * t)
    a, b = Fraction(alpha), Fraction(beta)
    scale = (1 - b) * (a / (a + 1)) ** n / a
    return re_part * scale, im_part * scale


def _check_expand(cmd, rows):
    e = cmd.expect
    order = int(cmd.argv[cmd.argv.index("--order") + 1])
    problems = []
    coeffs = [r["observed"] for r in rows if r["case"] == "coefficient"]
    if len(coeffs) != order + 1:
        return [f"expected {order + 1} coefficients, got {len(coeffs)}"]
    bad = [r for r in rows if r["status"] == "fail"]
    if bad:
        problems.append(f"{len(bad)} expand rows failed, first {bad[0]['case']} k={bad[0]['k']}")
    want = expected_a2(e["doc"], e["n"], e["alpha"], e["beta"])
    if e["doc"]["backend"] == "float":
        got = complex(coeffs[2])
        if abs(got - want) > _REL_TOL * max(1.0, abs(want)):
            problems.append(f"a_2 = {got} but the closed form gives {want}")
    elif _parse_rational_coeff(coeffs[2]) != want:
        problems.append(f"a_2 = {coeffs[2]} but the closed form gives {want[0]}+{want[1]}i")
    return problems


_CHECKS = {
    "random": _check_random,
    "nehari": _check_nehari,
    "extremal": _check_extremal,
    "hk": _check_hk,
    "bounds": _check_bounds,
    "expand": _check_expand,
}


def check_output(cmd, code: int, text: str) -> list[str]:
    """Problems with one command's exit code and report; empty when correct."""
    problems = []
    if code != cmd.expect_code:
        problems.append(f"exit code {code}, expected {cmd.expect_code}")
    try:
        problems += _CHECKS[cmd.check](cmd, _rows(text))
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Gate:
    """Counts commands attempted and failed over all passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: dict = {}  # label -> sha256 of the first pass's report

    def check_pass(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            problems = check_output(o.command, o.code, o.text)
            digest = sha256(o.text)
            if self.digests.setdefault(o.command.label, digest) != digest:
                problems.append("report bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.append({"command": o.command.label, "problems": problems})

    def digest_changes(self, recorded: dict) -> dict:
        """Per command: 'same', 'changed' or 'unrecorded' against the seed digests."""
        return {
            label: "unrecorded" if label not in recorded
            else ("same" if recorded[label] == digest else "changed")
            for label, digest in self.digests.items()
        }
