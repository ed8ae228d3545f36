"""Grid handling, suite reports, and the expand pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from coeffbounds import (
    FLOAT,
    RATIONAL,
    GridSpec,
    UsageError,
    build_hk,
    default_grid,
    extremal_p,
    gamma_identity_residuals,
    growth_estimate,
    harness,
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
from coeffbounds.bounds import SLACK
from coeffbounds.harness import DEFAULT_K_MAX, DEFAULT_ORDER, tail_bound
from coeffbounds.reports import fmt_float
from oracles import dominance_margins_scalar, nehari_margins_scalar
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
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(UsageError):
            small_grid(**overrides)

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


class TestRandomSuite:
    def test_passes(self):
        reports = run_random_suite(small_grid())
        assert all(r.passed for r in reports)
        assert all(r.witness is None for r in reports)
        assert all(e.reference == fmt_float(-SLACK) for r in reports for e in r.entries)

    def test_rejects_rational_backend(self):
        with pytest.raises(UsageError):
            run_random_suite(small_grid(), RATIONAL)

    def test_byte_identical_reports(self):
        a = suite_csv(run_random_suite(small_grid()))
        b = suite_csv(run_random_suite(small_grid()))
        assert a == b
        ja = suite_json(run_random_suite(small_grid()))
        jb = suite_json(run_random_suite(small_grid()))
        assert ja == jb

    def test_nan_margin_fails_the_point(self, monkeypatch):
        margins_of = sweeps.dominance_margins

        def one_nan(*args):
            margins = margins_of(*args)
            margins[7, 2] = np.nan
            return margins

        monkeypatch.setattr(sweeps, "dominance_margins", one_nan)
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
    def test_shape(self):
        reports = run_hk_audit((1.5, 2.0), k_max=8, order=32)
        sections = {r.point.get("section") for r in reports}
        assert sections == {"construction", "even-constants", "alpha-1-exponent"}
        construction = [r for r in reports if r.point.get("section") == "construction"]
        assert len(construction) == 2
        assert all(r.passed for r in construction)
        # three checks per k
        assert all(len(r.entries) == 3 * 7 for r in construction)

    def test_even_constant_rows_report_the_known_slip(self):
        reports = run_hk_audit((2.0,), k_max=12, order=32)
        table = [r for r in reports if r.point.get("section") == "even-constants"][0]
        assert table.passed  # info rows never fail the audit
        k8 = [e for e in table.entries if e.k == "8"][0]
        assert k8.status == "info"
        assert "digit slip" in k8.case

    def test_alpha_one_rows(self):
        reports = run_hk_audit((Fraction(2),), k_max=4, order=16, backend=RATIONAL)
        alpha1 = [r for r in reports if r.point.get("section") == "alpha-1-exponent"][0]
        assert alpha1.passed
        assert all("matches k^n" in e.case for e in alpha1.entries)

    def test_needs_alpha_above_one(self):
        with pytest.raises(UsageError):
            run_hk_audit((1.0,), k_max=8, order=32)

    def test_one_circle_pass_per_alpha(self, monkeypatch):
        calls = []
        original = harness.min_real_parts

        def counting(series, radius, samples):
            calls.append(len(series))
            return original(series, radius, samples)

        monkeypatch.setattr(harness, "min_real_parts", counting)
        run_hk_audit(default_grid(FLOAT).alpha_values)
        # stock grid: one call per alpha, holding the series of k = 2..12
        assert calls == [11] * 6

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_identity_row_is_the_last_residual_row(self, backend):
        alphas = default_grid(backend).alpha_values
        reports = run_hk_audit(alphas, backend=backend)
        for alpha, report in zip(alphas, reports):
            entries = [e for e in report.entries if e.case.startswith("gamma identity")]
            assert [e.k for e in entries] == [str(k) for k in range(2, DEFAULT_K_MAX + 1)]
            for k, entry in zip(range(2, DEFAULT_K_MAX + 1), entries):
                _, scheme = build_hk(k, alpha, DEFAULT_ORDER, backend=backend)
                m, value, target, residual = gamma_identity_residuals(scheme)[-1]
                assert entry.case == f"gamma identity at defining order m={m}"
                assert (entry.observed, entry.reference, entry.margin) == (
                    backend.format_scalar(value),
                    backend.format_scalar(target),
                    fmt_float(residual),
                )

    @pytest.mark.parametrize("backend", [FLOAT, RATIONAL], ids=lambda b: b.name)
    def test_reads_only_the_defining_order_row(self, backend, monkeypatch):
        def refuse(scheme):
            raise AssertionError("the audit computes only the row at m = k - 1")

        monkeypatch.setattr(harness, "gamma_identity_residuals", refuse, raising=False)
        monkeypatch.setattr(schemes, "gamma_identity_residuals", refuse)
        reports = run_hk_audit(default_grid(backend).alpha_values, backend=backend)
        assert len(reports) == 6 + 2
        assert all(r.passed for r in reports)


class TestExpand:
    def float_doc(self):
        return extremal_p(3).to_document()

    def test_happy_path(self):
        result = run_expand(self.float_doc(), 1, 2.0, 0.0, 16, 6)
        assert result["backend"] == "float"
        assert len(result["f_coefficients"]) == 17
        assert result["membership_status"] == "pass"
        rows = {r["k"]: r for r in result["bounds"]}
        assert rows[3]["sharp_hit"] is True
        assert rows[3]["status"] == "pass"

    def test_rational_document_wins_backend(self):
        doc = extremal_p(2, backend=RATIONAL).to_document()
        result = run_expand(doc, 1, "2", "0", 8, 4)
        assert result["backend"] == "rational"
        assert result["f_coefficients"][1] == "1"

    def test_conflicting_backend_flag(self):
        with pytest.raises(UsageError):
            run_expand(self.float_doc(), 1, 2.0, 0.0, 16, 6, backend=RATIONAL)

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


def test_tail_bound_reference_value():
    assert tail_bound(0.99, 64) == pytest.approx(2 * 0.99**65 / 0.01, rel=1e-15)
