"""The acceptance gate: ten checks, each ending in one pass/fail line.

Every test delegates its verdict to the session-scoped ``criterion``
fixture, which prints ``[criterion NN] PASS/FAIL - ...`` and echoes the
collected lines after the pytest summary. Check 8 is split: the n = 0
reduction (8a) holds and stays green, while the full-grid claim (8b) is
genuinely false for n >= 1 and is reported as an honest failure rather
than weakened until it passes.
"""

import random
import time
from fractions import Fraction

from coeffbounds import (
    FLOAT,
    RATIONAL,
    cli,
    default_grid,
    growth_estimate,
    hk_schemes,
    run_extremal_suite,
    run_hk_audit,
    run_nehari_suite,
    run_random_suite,
    sharp_bound_rows,
    small_alpha_bound_rows,
)
from coeffbounds._rational import RationalComplex
from coeffbounds.caratheodory import shift_coefficients, transform_coefficients
from coeffbounds.series import power_tails, real_power_coefficients
from oracles import (
    add_coefficients,
    mul_oracle,
    random_herglotz,
    scale_coefficients,
    transform_coefficients_by_quadrature,
)


def test_criterion_01_extremal_sharpness(criterion):
    start = time.perf_counter()
    float_reports = run_extremal_suite(default_grid(FLOAT), FLOAT)
    rational_reports = run_extremal_suite(default_grid(RATIONAL), RATIONAL)
    elapsed = time.perf_counter() - start
    float_ok = all(r.passed for r in float_reports)
    exact_ok = all(r.passed for r in rational_reports) and all(
        e.margin == "0" for r in rational_reports for e in r.entries
    )
    ok = float_ok and exact_ok and elapsed < 10.0
    criterion(
        1,
        f"extremal generators hit the sharp bound (rel < 1e-10 float k<=12, "
        f"exact rational k<=3; {elapsed:.1f}s < 10s)",
        ok,
    )


def test_criterion_02_random_dominance(criterion):
    start = time.perf_counter()
    reports = run_random_suite(default_grid(FLOAT))
    elapsed = time.perf_counter() - start
    violations = sum(len([e for e in r.entries if e.status == "fail"]) for r in reports)
    ok = all(r.passed for r in reports) and violations == 0 and elapsed < 60.0
    criterion(
        2,
        f"1000 random generators per point never exceed the sharp bound + 1e-9 "
        f"({elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_03_piecewise_matches_sharp(criterion):
    worst = 0.0
    for n, alpha, beta in default_grid(FLOAT).points():
        pieces = small_alpha_bound_rows(n, alpha, (beta,), 3)[0]
        for piece, sharp in zip(pieces, sharp_bound_rows(n, alpha, (beta,), 3)[0]):  # k = 2, 3
            worst = max(worst, abs(piece.value - sharp))
    exact = True
    for n, alpha, beta in default_grid(RATIONAL).points():
        pieces = small_alpha_bound_rows(n, alpha, (beta,), 3)[0]
        for piece, sharp in zip(pieces, sharp_bound_rows(n, alpha, (beta,), 3)[0]):  # k = 2, 3
            exact = exact and piece.value == sharp
    ok = worst <= 1e-12 and exact
    criterion(
        3,
        f"piecewise bound equals the sharp bound at k=2,3 for alpha>1 "
        f"(worst float gap {worst:.1e}, rational exact)",
        ok,
    )


def test_criterion_04_integer_power_oracle(criterion):
    # the powers the commands build are G^m = z^m T_m, G = z s, from `power_tails`
    rng = random.Random(40400)
    zero, one = RATIONAL.zero, RATIONAL.one
    ok = True
    for _ in range(200):
        order = rng.randint(1, 32)
        m = rng.randint(0, 8)
        s = [
            RationalComplex(
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            )
            for _ in range(order + 1)
        ]
        G = [zero, *s]
        oracle = [one] + [zero] * len(s)
        tails = list(power_tails(s, m))
        ok = ok and len(tails) == m
        for j, tail in enumerate(tails, start=1):
            oracle = mul_oracle(oracle, G, zero)
            ok = ok and ([zero] * j + tail)[: len(G)] == oracle
    criterion(
        4,
        "integer powers equal repeated multiplication exactly "
        "(rational, 200 cases, order <= 32, m <= 8)",
        ok,
    )


def _nested_binomial_power(p, c):
    """(1 + u)^c = sum_m C(c, m) u^m with u = p - 1; exact as a truncation
    because u has no constant term, so terms beyond m = order drop out."""
    u = [0j, *p[1:]]
    total = [0j] * len(p)
    u_pow = [1 + 0j] + [0j] * (len(p) - 1)
    binom = 1.0
    for m in range(len(p)):
        total = add_coefficients(total, scale_coefficients(binom, u_pow))
        u_pow = mul_oracle(u_pow, u, 0j)
        binom *= (c - m) / (m + 1)
    return total


def test_criterion_05_real_power_oracle(criterion):
    alphas = default_grid(FLOAT).alpha_values
    worst = 0.0
    for i in range(100):
        p = random_herglotz(5000 + i).series(16).coeffs
        c = 1.0 / alphas[i % len(alphas)]
        got = real_power_coefficients(p, c, FLOAT.one, FLOAT.zero)
        want = _nested_binomial_power(p, c)
        for a, b in zip(got, want, strict=True):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst <= 1e-10
    criterion(
        5,
        f"real-power recurrence matches the nested binomial expansion "
        f"(100 generators, exponents 1/alpha; worst rel {worst:.1e} <= 1e-10)",
        ok,
    )


def test_criterion_06_quadrature_crosscheck(criterion):
    worst = 0.0
    for seed in (314, 2718, 16180):
        p = random_herglotz(seed).series(24)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for n in range(4):
                closed = transform_coefficients(p.coeffs, alpha, n, FLOAT.zero)
                quad = transform_coefficients_by_quadrature(p, alpha, n, 16)
                for k in range(17):
                    worst = max(worst, abs(quad[k] - closed[k]))
    ok = worst <= 1e-8
    criterion(
        6,
        f"closed-form transform coefficients match iterated quadrature "
        f"(n <= 3, k <= 16, alpha in {{0.5,1,2,5}}; worst {worst:.1e} <= 1e-8)",
        ok,
    )


def test_criterion_07_hk_audit(criterion):
    reports = run_hk_audit(default_grid(FLOAT).alpha_values, k_max=12)
    construction = [r for r in reports if r.point.get("section") == "construction"]
    constants = [r for r in reports if r.point.get("section") == "even-constants"]
    alpha_one = [r for r in reports if r.point.get("section") == "alpha-1-exponent"]
    exact = True
    for alpha in default_grid(RATIONAL).alpha_values:
        for scheme in hk_schemes(12, alpha):
            exact = exact and scheme.gamma == scheme.target
    ok = (
        all(r.passed for r in construction)
        and len(construction) == 6
        and constants and constants[0].entries
        and alpha_one and alpha_one[0].passed
        and exact
    )
    criterion(
        7,
        "per-index generator audit: ladder identity exact on both backends, "
        "|d| <= 2, convex weights exact, constants table compared",
        ok,
    )


def test_criterion_08a_classical_reduction(criterion):
    reports = run_nehari_suite(default_grid(FLOAT, n_values=(0,)))
    beta0 = [r for r in reports if r.point["beta"] == "0"]
    ok = all(r.passed for r in reports) and beta0 and all(r.passed for r in beta0)
    criterion(
        8,
        "(a) at n=0 the weighted bound reduces to |A_k| <= 2(1-beta) and holds "
        "over 1000 sampled pairs per point",
        ok,
    )


def test_criterion_08b_weighted_bound_full_grid(criterion):
    """Honest failure, kept red on purpose.

    The claimed bound 2(1-beta)(alpha/(alpha+k))^n is violated for every
    n >= 1: take h identically 1 (its transform is again 1, so the real-part
    hypothesis holds for every beta) and a single shared atom for p and q;
    then |A_1| = 2(1-beta) while the claimed bound is strictly smaller by
    the factor (alpha/(alpha+1))^n < 1. The sweep finds such witnesses at
    every n >= 1 grid point and reports them with reproducible seeds; see
    also tests/test_schemes.py::TestNehariSeries, which pins the
    counterexample exactly. Weakening the check to make this pass would
    hide a real finding, so it stays red.
    """
    reports = run_nehari_suite(default_grid(FLOAT))
    failing = [r for r in reports if not r.passed]
    ok = not failing
    criterion(
        8,
        f"(b) the weighted bound holds with slack 1e-9 on the full grid "
        f"({len(failing)}/{len(reports)} points have violations; "
        f"genuine counterexamples at every n >= 1)",
        ok,
    )


def test_criterion_09_growth_estimate_dominates(criterion):
    grid = default_grid(FLOAT)
    worst = float("-inf")
    ok = True
    for alpha in grid.alpha_values:
        estimates = [growth_estimate(alpha, k) for k in range(17)]
        for seed in range(12):
            p = random_herglotz(7000 + seed).series(16).coeffs
            for n in grid.n_values:
                shifted = transform_coefficients(p, alpha, n, FLOAT.zero)
                for beta in grid.beta_values:
                    g = shift_coefficients(shifted, beta, FLOAT.one, FLOAT.zero)
                    for k in range(17):
                        gap = estimates[k] - abs(g[k])
                        worst = max(worst, -gap)
                        ok = ok and gap >= 0
    criterion(
        9,
        f"exponential estimate dominates all sampled transform coefficients "
        f"(k <= 16, alpha in grid; closest approach {-worst:.3g})",
        ok,
    )


def test_criterion_10_determinism(criterion, tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    code1 = cli.main(["verify", "random", "--out", str(first)])
    code2 = cli.main(["verify", "random", "--out", str(second)])
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    criterion(
        10,
        "two `verify random` runs with the same seed produce byte-identical reports",
        ok,
    )
