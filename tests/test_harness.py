"""Grid handling, suite reports, and the expand pipeline."""

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coeffbounds import (
    FLOAT,
    RATIONAL,
    GridSpec,
    TruncatedSeries,
    UsageError,
    cli,
    default_grid,
    extremal_p,
    growth_estimate,
    harness,
    hk_schemes,
    run_bounds_table,
    run_expand,
    run_extremal_suite,
    run_hk_audit,
    run_nehari_suite,
    run_random_suite,
    schemes,
    suite_csv,
    suite_json,
    sweeps,
)
from coeffbounds._rational import Ratio
from coeffbounds.bounds import SHARP_REL_TOL, SLACK, ClassParams, f_from_p, sharp_bound_rows
from coeffbounds.harness import DEFAULT_ALPHA_TOKENS, DEFAULT_K_MAX
from coeffbounds.reports import fmt_float
from oracles import dominance_margins_scalar, gamma_ladder, gamma_target, nehari_margins_scalar
from report_rows import MEMBERSHIP, ROUND_TRIP, bound_case, bound_rows, coefficients, expand_rows, the_row
from coeffbounds.caratheodory import HerglotzAtoms, trial_atoms


def small_grid(**overrides):
    values = dict(
        n_values=(0, 1),
        alpha_values=(2.0,),
        beta_values=(0.0,),
        k_max=8,
        trials=40,
        seed=1729,
    )
    values.update(overrides)
    return GridSpec(**values)


class TestGridSpec:
    def test_default_grid_tokens(self):
        grid = default_grid(RATIONAL)
        assert grid.alpha_values[0] == Fraction(11, 10)
        assert grid.beta_values == (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))
        assert grid.n_values == (0, 1, 2, 3)
        assert (grid.k_max, grid.trials, grid.seed) == (12, 1000, 1729)

    def test_default_grid_float(self):
        grid = default_grid(FLOAT)
        assert grid.alpha_values == (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_values=()),
            dict(n_values=(1.5,)),
            dict(n_values=(-1,)),
            dict(alpha_values=(0.0,)),
            dict(beta_values=(1.0,)),
            dict(k_max=1),
            dict(alpha_values=()),
            dict(trials=0),
            dict(seed="nope"),
            dict(n_values=(1, 0, 1)),
            dict(alpha_values=(2.0, 3.0, 2.0)),
            dict(alpha_values=(Fraction(1, 2), Fraction(2, 4))),
            dict(beta_values=(0.0, -0.0)),
            dict(alpha_values=(-2.0,)),
            dict(k_max=harness.MAX_ORDER + 1),
            # a bool is no integer here: seed=True would key its streams "random|True|..."
            dict(n_values=(True,)),
            dict(trials=True),
            dict(seed=True),
            dict(seed=False),
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(UsageError):
            small_grid(**overrides)
        with pytest.raises(UsageError):
            small_grid()._replace(**overrides)

    @pytest.mark.parametrize(
        "backend, overrides",
        [
            (RATIONAL, dict(alpha_values=(1.5,))),  # a float is no exact scalar
            (FLOAT, dict(alpha_values=("1/0",))),
            (RATIONAL, dict(beta_values=("1/0",))),
            (FLOAT, dict(alpha_values=("1e400",))),
            (FLOAT, dict(beta_values=("0", "x"))),
            (RATIONAL, dict(alpha_values=(True,))),
        ],
    )
    def test_default_grid_names_an_unreadable_value(self, backend, overrides):
        ((key, _),) = overrides.items()
        with pytest.raises(UsageError, match=f"^bad {key.removesuffix('_values')} token "):
            default_grid(backend, **overrides)

    def test_default_grid_reads_tokens_and_numbers_alike(self):
        grid = default_grid(RATIONAL, alpha_values=("3/2", Fraction(5, 2), 4), beta_values=("1/4",))
        assert grid.alpha_values == (Ratio(3, 2), Ratio(5, 2), Ratio(4))
        assert all(type(value) is Ratio for value in (*grid.alpha_values, *grid.beta_values))
        assert default_grid(FLOAT, alpha_values=("3/2", 2.5), beta_values=(Fraction(1, 4),)) == default_grid(
            FLOAT, alpha_values=(1.5, 2.5), beta_values=(0.25,))

    def test_points_order(self):
        grid = small_grid(n_values=(0, 1), alpha_values=(2.0, 3.0), beta_values=(0.5,))
        assert list(grid.points()) == [(0, 2.0, 0.5), (0, 3.0, 0.5), (1, 2.0, 0.5), (1, 3.0, 0.5)]


class TestBoundsTable:
    def test_shape_and_content(self):
        columns, rows = run_bounds_table(small_grid(), FLOAT)
        assert columns[0] == "n"
        assert len(rows) == 2 * 1 * 1 * 7  # two n, one alpha, one beta, k = 2..8
        first = rows[0]
        assert first["k"] == "2" and first["region"] == "omega1"
        # alpha=2 > 1, k=4 has no piecewise value
        k4 = [r for r in rows if r["k"] == "4"][0]
        assert k4["small_alpha_bound"] == "" and k4["region"] == "out_of_range"

    def test_rational_formatting(self):
        _, rows = run_bounds_table(
            small_grid(alpha_values=(Fraction(2),), beta_values=(Fraction(0),)), RATIONAL
        )
        n1_k2 = [r for r in rows if r["n"] == "1" and r["k"] == "2"][0]
        assert n1_k2["sharp_bound"] == "2/3"

    def test_growth_estimate_once_per_alpha_and_k(self, monkeypatch):
        calls = []

        def counting(alpha, k):
            calls.append((alpha, k))
            return growth_estimate(alpha, k)

        monkeypatch.setattr(harness, "growth_estimate", counting)
        grid = default_grid(FLOAT)
        _, rows = run_bounds_table(grid, FLOAT)
        ks = range(2, grid.k_max + 1)
        assert sorted(calls) == sorted((alpha, k) for alpha in grid.alpha_values for k in ks)
        # the cell repeats over n and beta
        for row in rows:
            assert row["growth_estimate"] == fmt_float(growth_estimate(float(row["alpha"]), int(row["k"])))

    def test_one_group_row_call_per_n_and_alpha(self, monkeypatch, capsys):
        calls = []

        def counting(rows):
            def wrapper(n, alpha, betas, k_max):
                calls.append((rows.__name__, n, alpha, tuple(betas), k_max))
                return rows(n, alpha, betas, k_max)
            return wrapper

        for name in ("sharp_bound_rows", "small_alpha_bound_rows"):
            monkeypatch.setattr(harness, name, counting(getattr(harness, name)))
        assert cli.main(["bounds"]) == 0
        capsys.readouterr()
        grid = default_grid(FLOAT)
        for name in ("sharp_bound_rows", "small_alpha_bound_rows"):
            made = [call[1:] for call in calls if call[0] == name]
            assert len(made) == len({(n, alpha) for n, alpha, _, _ in made}) == 24
            assert {(betas, k_max) for _, _, betas, k_max in made} == {(grid.beta_values, grid.k_max)}


class TestExtremalSuite:
    def test_passes_and_times(self):
        reports = run_extremal_suite(small_grid(), FLOAT)
        assert len(reports) == 2
        assert all(r.passed for r in reports)
        assert all(len(r.entries) == 7 for r in reports)
        assert all(e.status == "pass" for r in reports for e in r.entries)

    def test_rational_exact(self):
        grid = small_grid(alpha_values=(Fraction(3, 2),), beta_values=(Fraction(1, 4),))
        reports = run_extremal_suite(grid, RATIONAL)
        # rational backend only covers k = 2, 3
        assert all(len(r.entries) == 2 for r in reports)
        assert all(e.margin == "0" for r in reports for e in r.entries)

    def test_needs_alpha_above_one(self):
        with pytest.raises(UsageError):
            run_extremal_suite(small_grid(alpha_values=(0.5,)), FLOAT)

    def test_float_atoms_meet_the_tolerance_on_the_stock_grid(self):
        # the suite reads the exact series 1 + 2 z^(k-1); the roots-of-unity atoms of
        # extremal_p, through the dense f_from_p, must still meet the same tolerance
        grid = default_grid(FLOAT)
        ks = range(2, grid.k_max + 1)
        series = {k: extremal_p(k).series(k - 1) for k in ks}
        rels = []
        for n, alpha, beta in grid.points():
            params = ClassParams(n, alpha, beta)
            for k, bound in zip(ks, sharp_bound_rows(n, alpha, (beta,), grid.k_max)[0]):
                rels.append(abs(bound - abs(f_from_p(series[k], params, k).coefficient(k))) / bound)
        assert len(rels) == 96 * 11
        assert max(rels) <= SHARP_REL_TOL

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_builds_no_series_object_and_no_f(self, backend, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the suite reads a_k from the coefficient kernels alone")

        monkeypatch.setattr(harness, "f_from_p", refuse)
        monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
        monkeypatch.setattr(HerglotzAtoms, "series", refuse)
        grid = default_grid(backend, n_values=(0, 2), k_max=12)
        assert all(report.passed for report in run_extremal_suite(grid, backend))

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_a_failing_row_carries_atoms_that_expand_accepts(self, backend, monkeypatch, tmp_path, capsys):
        exact = harness.sharp_bound_rows
        monkeypatch.setattr(harness, "sharp_bound_rows",
                            lambda *args: [[b + 1 for b in row] for row in exact(*args)])
        grid = default_grid(backend, n_values=(2,), alpha_values=(backend.scalar("3/2"),),
                            beta_values=(backend.scalar("1/4"),), k_max=6)
        (report,) = run_extremal_suite(grid, backend)
        monkeypatch.undo()
        assert not report.passed
        assert report.witness["k"] == 2
        assert report.witness["atoms"] == extremal_p(2, backend=backend).to_document()
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report.witness["atoms"]))
        point = report.point
        argv = ["expand", "--pspec", str(path), "--n", point["n"], "--alpha", point["alpha"],
                "--beta", point["beta"], "--order", "8", "--kmax", "4"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        # the witness hits the true sharp bound at its k
        assert ',2,"bound (sharp, sharp hit)",' in out


class TestRandomSuite:
    def test_passes(self):
        reports = run_random_suite(small_grid())
        assert all(r.passed for r in reports)
        assert all(r.witness is None for r in reports)
        assert all(e.reference == fmt_float(-SLACK) for r in reports for e in r.entries)

    def test_byte_identical_reports(self):
        a = suite_csv(run_random_suite(small_grid()))
        b = suite_csv(run_random_suite(small_grid()))
        assert a == b
        ja = suite_json(run_random_suite(small_grid()))
        jb = suite_json(run_random_suite(small_grid()))
        assert ja == jb

    def test_nan_margin_fails_the_point(self, monkeypatch):
        margins_of = sweeps.dominance_magnitudes

        def one_nan(*args):
            margins = margins_of(*args)
            margins[7, 2] = np.nan
            return margins

        monkeypatch.setattr(sweeps, "dominance_magnitudes", one_nan)
        report = run_random_suite(small_grid(n_values=(1,)))[0]
        assert not report.passed
        assert report.entries[0].status == "fail" and report.entries[0].margin == "nan"
        row = report.entries[1]
        assert (row.case, row.k, row.margin, row.status) == ("violation in trial 7", "4", "nan", "fail")
        assert report.witness["trial"] == 7 and report.witness["margin"] == "nan"

    def test_witness_rebuilds_from_document_alone(self, monkeypatch):
        # the bound holds here, so count every margin below 10 as a violation
        monkeypatch.setattr(sweeps, "SLACK", -10.0)
        w = run_random_suite(small_grid(n_values=(1,)))[0].witness
        assert set(w) == {"trial", "k", "margin", "stream_keys", "atoms"}
        assert set(w["stream_keys"]) == set(w["atoms"]) == {"random"}
        atoms = trial_atoms(w["stream_keys"]["random"], w["trial"])
        assert atoms.to_document() == w["atoms"]["random"]
        margins = dominance_margins_scalar(atoms, 1, 2.0, 0.0, 8)
        assert margins[w["k"] - 2] == pytest.approx(float(w["margin"]), abs=1e-12)


class TestNehariSuite:
    def test_n0_passes_n1_fails(self):
        reports = run_nehari_suite(small_grid(trials=150))
        by_n = {r.point["n"]: r for r in reports}
        assert by_n["0"].passed
        assert not by_n["1"].passed

    def test_witness_reproduces_margin(self):
        reports = run_nehari_suite(small_grid(n_values=(1,), trials=150))
        report = reports[0]
        w = report.witness
        assert set(w) == {"trial", "k", "margin", "stream_keys", "atoms"}
        h_at = HerglotzAtoms.from_document(w["atoms"]["h"])
        p_at = HerglotzAtoms.from_document(w["atoms"]["p"])
        q_at = HerglotzAtoms.from_document(w["atoms"]["q"])
        margins = nehari_margins_scalar(h_at, p_at, q_at, 1, 2.0, 0.0, 8)
        assert margins[w["k"] - 1] == pytest.approx(float(w["margin"]), abs=1e-9)

    def test_witness_rebuilds_from_document_alone(self):
        w = run_nehari_suite(small_grid(n_values=(1,), trials=150))[0].witness
        rebuilt = [trial_atoms(w["stream_keys"][role], w["trial"]) for role in ("h", "p", "q")]
        assert [atoms.to_document() for atoms in rebuilt] == [w["atoms"][role] for role in ("h", "p", "q")]
        margins = nehari_margins_scalar(*rebuilt, 1, 2.0, 0.0, 8)
        assert margins[w["k"] - 1] == pytest.approx(float(w["margin"]), abs=1e-12)

    def test_violation_rows_capped(self):
        reports = run_nehari_suite(small_grid(n_values=(3,), trials=300))
        entries = reports[0].entries
        failing = [e for e in entries if e.status == "fail" and e.case.startswith("violation")]
        assert len(failing) <= 5
        info = [e for e in entries if e.status == "info"]
        assert info and "further violations" in info[0].case


class TestHkAudit:
    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_forms_each_target_once(self, backend, monkeypatch):
        rows = []
        row = schemes.gamma_target_row

        def counting(m_max, alpha):
            rows.append(m_max)
            return row(m_max, alpha)

        monkeypatch.setattr(schemes, "gamma_target_row", counting)
        run_hk_audit((backend.scalar("2"), backend.scalar("7/2")), 12, backend)
        # per alpha: one row of targets through the largest defining order k_max - 1;
        # every k's identity row and verdict read its entry
        assert rows == [11] * 2

    def test_stops_at_the_first_k_past_the_digit_limit(self, monkeypatch, capsys):
        # each k is formatted before the next is built, so a 64-bit alpha near 1, whose values
        # pass the smallest digit limit at k = 35, builds no ladder past that k
        ladders = []
        ladder = schemes.gamma_value
        monkeypatch.setattr(schemes, "gamma_value",
                            lambda ds, m, half, zero: ladders.append(m) or ladder(ds, m, half, zero))
        alpha = "18446744073709551615/18446744073709551614"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli.main(["verify", "hk", "--backend", "rational", "--alpha", alpha, "--kmax", "256"]) == 2
            built = len(ladders)
            for first, scheme in enumerate(hk_schemes(256, RATIONAL.scalar(alpha)), start=2):
                values = (scheme.gamma, scheme.target, max(map(abs, scheme.d), default=0), min(scheme.weights))
                try:
                    list(map(RATIONAL.format_scalar, values))
                except OverflowError:
                    break
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert (out, err) == ("", "usage error: overflow (an exact value has more than 640 digits); "
                                  "the parameters leave the range of the arithmetic\n")
        assert first < 256
        assert ladders[:built] == list(range(first - 1))  # m = k - 2 for k = 2..first

    def test_shape(self):
        reports = run_hk_audit((1.5, 2.0), k_max=8)
        sections = {r.point.get("section") for r in reports}
        assert sections == {"construction", "even-constants", "alpha-1-exponent"}
        construction = [r for r in reports if r.point.get("section") == "construction"]
        assert len(construction) == 2
        assert all(r.passed for r in construction)
        # three checks per k
        assert all(len(r.entries) == 3 * 7 for r in construction)

    def test_even_constant_rows_report_the_known_slip(self):
        reports = run_hk_audit((2.0,), k_max=12)
        table = [r for r in reports if r.point.get("section") == "even-constants"][0]
        assert table.passed  # info rows never fail the audit
        k8 = [e for e in table.entries if e.k == "8"][0]
        assert k8.status == "info"
        assert "digit slip" in k8.case

    def test_alpha_one_rows(self):
        reports = run_hk_audit((Fraction(2),), k_max=4, backend=RATIONAL)
        alpha1 = [r for r in reports if r.point.get("section") == "alpha-1-exponent"][0]
        assert alpha1.passed
        assert all("matches k^n" in e.case for e in alpha1.entries)

    def test_needs_alpha_above_one(self):
        with pytest.raises(UsageError):
            run_hk_audit((1.0,), k_max=8)

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_unreadable_alpha_is_a_usage_error(self, backend):
        with pytest.raises(UsageError, match="^bad alpha token '1/0': "):
            run_hk_audit(("1/0",), backend=backend)

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_alphas_default_to_the_stock_tokens(self, backend):
        reports = run_hk_audit(k_max=3, backend=backend)
        construction = [report.point["alpha"] for report in reports if report.point.get("section") == "construction"]
        assert construction == [backend.format_scalar(backend.scalar(token)) for token in DEFAULT_ALPHA_TOKENS]

    def test_rejects_a_repeated_alpha(self):
        with pytest.raises(UsageError, match="alpha value 3/2 is given more than once"):
            run_hk_audit((Fraction(3, 2), Fraction(2), Fraction(6, 4)), k_max=4, backend=RATIONAL)

    def test_float_audit_builds_each_scheme_once_exactly(self, monkeypatch, capsys):
        # one build per alpha, in Ratios at the binary value of the float alpha,
        # from one weight row: the float audit has no second, float path
        builds, weight_rows = [], []
        original, row = harness.hk_schemes, schemes.hk_weight_row

        def recording(k_max, alpha):
            built = list(original(k_max, alpha))
            builds.extend({type(w) for w in scheme.weights} for scheme in built)
            return built

        monkeypatch.setattr(harness, "hk_schemes", recording)
        monkeypatch.setattr(schemes, "hk_weight_row",
                            lambda k_max, alpha: weight_rows.append(alpha) or row(k_max, alpha))
        assert cli.main(["verify", "hk"]) == 0
        assert builds == [{Ratio}] * (6 * (DEFAULT_K_MAX - 1))
        assert weight_rows == [Fraction(float(token)) for token in harness.DEFAULT_ALPHA_TOKENS]

    def test_float_audit_fails_a_target_off_by_two_to_the_minus_60(self, monkeypatch, capsys):
        # a negative control far below any float tolerance: the target of k = 6 (m = 5)
        # moved by a relative 2^-60 breaks the exact identity on the float backend too
        row = schemes.gamma_target_row

        def nudged(m_max, alpha):
            targets = row(m_max, alpha)
            targets[4] *= 1 + Fraction(1, 2**60)
            return targets

        monkeypatch.setattr(schemes, "gamma_target_row", nudged)
        reports = run_hk_audit((2.0,), k_max=8)
        rows = [e for e in reports[0].entries if e.case.startswith("gamma identity")]
        assert [(e.k, e.status) for e in rows if e.status != "pass"] == [("6", "fail")]
        assert float(rows[4].margin) > 0
        assert not reports[0].passed
        assert cli.main(["verify", "hk", "--alpha", "2", "--kmax", "8"]) == 1

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_convex_weight_rows_are_exact(self, backend):
        alphas = default_grid(backend).alpha_values
        reports = run_hk_audit(alphas, backend=backend)
        for alpha, report in zip(alphas, reports):
            rows = [e for e in report.entries if e.case == "convex weights of the construction"]
            assert [e.k for e in rows] == [str(k) for k in range(2, DEFAULT_K_MAX + 1)]
            exact_schemes = hk_schemes(DEFAULT_K_MAX, Fraction(alpha))
            for row, exact in zip(rows, exact_schemes, strict=True):
                # the weights of the construction at the exact value of alpha, never rounded
                assert sum(exact.weights) == 1
                smallest = min(exact.weights)
                assert smallest > 0
                assert (row.observed, row.reference, row.margin, row.status) == (
                    backend.format_scalar(smallest), "0", fmt_float(smallest), "pass"
                )

    def test_weights_outside_the_simplex_fail(self, monkeypatch, capsys):
        # a negative control: scale the non-constant part of h_3 by 6/5, giving weights (6/5, -1/5),
        # where the weights are formed: in the weight row, which builds the schemes of both backends
        original = schemes.hk_weight_row

        def leaving_the_simplex(k_max, alpha):
            row = original(k_max, alpha)
            _, sign = row[1]
            row[1] = (Fraction(6, 5), Fraction(-1, 5)), sign
            return row

        monkeypatch.setattr(schemes, "hk_weight_row", leaving_the_simplex)
        for backend in (FLOAT, RATIONAL):
            reports = run_hk_audit((backend.scalar(2),), k_max=4, backend=backend)
            rows = [e for e in reports[0].entries if e.case == "convex weights of the construction"]
            assert [(e.k, e.status) for e in rows] == [("2", "pass"), ("3", "fail"), ("4", "pass")]
            assert rows[1].observed == backend.format_scalar(Fraction(-1, 5))
            assert not reports[0].passed
        assert cli.main(["verify", "hk", "--alpha", "2", "--kmax", "4"]) == 1
        assert cli.main(["verify", "hk", "--alpha", "2", "--kmax", "4", "--backend", "rational"]) == 1

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_identity_row_is_the_last_residual_row(self, backend):
        alphas = default_grid(backend).alpha_values
        reports = run_hk_audit(alphas, backend=backend)
        for alpha, report in zip(alphas, reports):
            entries = [e for e in report.entries if e.case.startswith("gamma identity")]
            assert [e.k for e in entries] == [str(k) for k in range(2, DEFAULT_K_MAX + 1)]
            built = hk_schemes(DEFAULT_K_MAX, alpha)
            for k, entry, scheme in zip(range(2, DEFAULT_K_MAX + 1), entries, built, strict=True):
                # the last of the per-order rows (m, ladder value, one-index target, residual)
                gammas = gamma_ladder(scheme.d, k - 2, Fraction(1, 2), None)
                rows = [(m, gammas[m - 1], gamma_target(m, Fraction(alpha))) for m in range(1, k)]
                m, value, target = rows[-1]
                residual = abs(complex(value - target))
                assert entry.case == f"gamma identity at defining order m={m}"
                assert (entry.observed, entry.reference, entry.margin) == (
                    backend.format_scalar(value),
                    backend.format_scalar(target),
                    fmt_float(residual),
                )

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_reads_only_the_defining_order_row(self, backend, monkeypatch):
        orders = []
        original = harness.hk_schemes

        def recording(k_max, alpha):
            built = list(original(k_max, alpha))
            for scheme in built:
                # the target is the one-index value at the defining order m = k - 1, and the
                # scheme holds the one ladder value there: the last of the whole ladder
                m = scheme.k - 1
                ladder = gamma_ladder(scheme.d, m - 1, Fraction(1, 2), None)
                orders.append((scheme.k, m, scheme.target == gamma_target(m, Fraction(alpha)),
                               scheme.gamma == ladder[-1]))
            return built

        monkeypatch.setattr(harness, "hk_schemes", recording)
        reports = run_hk_audit(default_grid(backend).alpha_values, backend=backend)
        assert len(reports) == 6 + 2
        assert all(r.passed for r in reports)
        assert orders == [(k, k - 1, True, True) for k in range(2, DEFAULT_K_MAX + 1)] * 6


class TestVerdictRule:
    """Every status is pass, fail or info, and a report passes exactly when no row fails."""

    @staticmethod
    def one_point(backend=FLOAT):
        return small_grid(n_values=(1,), alpha_values=(backend.scalar("2"),), beta_values=(backend.scalar("0"),))

    @staticmethod
    def check(reports):
        assert reports
        for report in reports:
            statuses = {entry.status for entry in report.entries}
            assert statuses <= {"pass", "fail", "info"}, report.point
            assert report.passed == ("fail" not in statuses), report.point

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_extremal(self, backend):
        self.check(run_extremal_suite(self.one_point(backend), backend))

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_hk(self, backend):
        grid = self.one_point(backend)
        # the even-constants section holds an info row and passes
        self.check(run_hk_audit(grid.alpha_values, grid.k_max, backend))

    @pytest.mark.parametrize("run", [run_random_suite, run_nehari_suite], ids=lambda run: run.__name__)
    def test_sweeps(self, run):
        # the nehari point fails at n = 1, so both sides of the rule are seen
        self.check(run(self.one_point()))


class TestExpand:
    def float_doc(self):
        return extremal_p(3).to_document()

    def test_happy_path(self):
        result = run_expand(self.float_doc(), 1, 2.0, 0.0, 16, 6)
        assert result[0].point["backend"] == "float"
        rows = expand_rows(result)
        assert len(coefficients(rows)) == 17
        assert the_row(rows, ROUND_TRIP)["status"] == "pass"
        rows = {r["k"]: r for r in bound_rows(rows)}
        assert bound_case(rows["3"])[2] is True
        assert rows["3"]["status"] == "pass"

    def test_a_tiny_bound_is_hit_only_within_the_relative_tolerance(self):
        # at alpha = 1/10000 the bounds of k >= 3 are 2.5e-9 and below, so an absolute band of 1e-9
        # called every |a_k| under them a hit: |a_4| = 1.4e-25 on a bound of 7.4e-10 among them
        rows = {int(row["k"]): row for row in bound_rows(expand_rows(
            run_expand(extremal_p(3).to_document(), 3, "1/10000", "0", 24, 12)))}
        assert float(rows[4]["observed"]) < 1e-20 and float(rows[4]["reference"]) < 1e-9
        assert [k for k, row in rows.items() if k >= 3 and bound_case(row)[2]] == []

    def test_rational_document_wins_backend(self):
        doc = extremal_p(2, backend=RATIONAL).to_document()
        result = run_expand(doc, 1, "2", "0", 8, 4)
        assert result[0].point["backend"] == "rational"
        assert coefficients(expand_rows(result))[1] == "1"

    def test_malformed_document(self):
        with pytest.raises(UsageError):
            run_expand({"backend": "float", "atoms": [{"weight": 0.5}]}, 1, 2.0, 0.0, 16, 6)
        with pytest.raises(UsageError):
            run_expand({"backend": "float", "atoms": []}, 1, 2.0, 0.0, 16, 6)

    def test_bad_params(self):
        with pytest.raises(UsageError):
            run_expand(self.float_doc(), 1, 2.0, 0.0, 4, 6)  # order < k_max
        with pytest.raises(UsageError):
            run_expand(self.float_doc(), -1, 2.0, 0.0, 16, 6)
        with pytest.raises(UsageError):
            run_expand(self.float_doc(), True, 2.0, 0.0, 16, 6)


def _perfbench_workloads():
    """perfbench's workload builder, loaded from its file (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExpandRoundTrip:
    """The membership rows of `run_expand`: by construction, and p -> f -> p_from_f(f) -> p."""

    def test_float_stream_documents_never_fail(self):
        # alpha log-uniform on [1e-4, 100], n <= 4, beta <= 0.9, order <= 64
        rng = random.Random(20261018)
        statuses = {"pass": 0, "info": 0}
        for _ in range(1000):
            doc = trial_atoms(rng.getrandbits(64), rng.randrange(1000)).to_document()
            alpha, beta = 10 ** rng.uniform(-4, 2), rng.uniform(0, 0.9)
            row = the_row(expand_rows(run_expand(doc, rng.randrange(5), alpha, beta, rng.randint(2, 64), 2)),
                          ROUND_TRIP)
            assert row["status"] != "fail", row
            assert float(row["observed"]) <= float(row["reference"])
            statuses[row["status"]] += 1
        assert statuses["pass"] > 800

    def test_perfbench_documents(self, tmp_path):
        # the expand documents of scalar-mixed seeds 1-40: float ones pass, rational ones are exact
        workloads = _perfbench_workloads()
        for seed in range(1, 41):
            for command in workloads.scalar_mixed(seed, tmp_path).commands:
                if command.check != "expand":
                    continue
                e = command.expect
                result = run_expand(e["doc"], e["n"], e["alpha"], e["beta"], workloads.EXPAND_ORDER,
                                    workloads.EXPAND_KMAX)
                row = the_row(expand_rows(result), ROUND_TRIP)
                assert row["status"] == "pass", command.label
                if result[0].point["backend"] == "rational":
                    assert row["observed"] == "0"
                else:
                    assert float(row["observed"]) <= 1e-14
                    assert float(row["reference"]) <= 1e-11

    @pytest.mark.parametrize("n", [0, 3])
    def test_rational_one_atom_is_exact(self, n):
        doc = {"backend": "rational", "atoms": [{"weight": "1", "t": "0"}]}
        for alpha in ("1/10000", "1/100", "1/10", "1/3", "1", "2", "10"):
            row = the_row(expand_rows(run_expand(doc, n, alpha, "0", 64, 8)), ROUND_TRIP)
            assert (row["status"], row["observed"]) == ("pass", "0"), alpha
            assert row["reference"] == "0"

    @pytest.mark.parametrize("alpha, status", [("2", "pass"), ("1/3", "info"), ("1/10000", "info")])
    def test_float_one_atom_verdicts(self, alpha, status):
        # a tolerance of 2 or more judges nothing: 2 bounds every coefficient of P
        row = the_row(expand_rows(run_expand(extremal_p(2).to_document(), 0, alpha, "0", 64, 8)), ROUND_TRIP)
        assert row["status"] == status
        tolerance = float(row["reference"])
        assert (tolerance >= 2) == (status == "info")

    def test_construction_row_reports_the_smallest_weight(self):
        doc = {"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"}, {"weight": "2/3", "t": "-3/4"}]}
        assert the_row(expand_rows(run_expand(doc, 1, "2", "0", 16, 6)), MEMBERSHIP)["observed"] == "1/3"
        assert the_row(expand_rows(run_expand(extremal_p(4).to_document(), 1, 2.0, 0.0, 16, 6)),
                       MEMBERSHIP)["observed"] == fmt_float(min(extremal_p(4).weights))

    def test_rational_perturbation_fails(self, monkeypatch):
        doc = {"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"}, {"weight": "2/3", "t": "-3/4"}]}
        original = harness.f_from_p

        def perturbed(p, params, order):
            f = original(p, params, order)
            coeffs = list(f.coeffs)
            coeffs[5] = coeffs[5] + Fraction(1, 10**40)
            return TruncatedSeries(coeffs, order, backend=RATIONAL)

        monkeypatch.setattr(harness, "f_from_p", perturbed)
        row = the_row(expand_rows(run_expand(doc, 2, "3/2", "1/4", 16, 8)), ROUND_TRIP)
        assert row["status"] == "fail"
        assert row["k"] == "4"
