"""Vectorized sweeps: stream keys, the atom stream, chunking, column kernels, witnesses."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    TruncatedSeries,
    caratheodory,
    f_from_p,
    gammas_from_coefficients,
    half_hadamard,
    nehari_series,
    sharp_bound,
)
from coeffbounds._rational import RationalComplex
from coeffbounds.bounds import SLACK
from coeffbounds.caratheodory import (
    MAX_ATOMS,
    HerglotzAtoms,
    _uniforms,
    atom_coefficients,
    check_atom_rows,
    draw_atoms,
    half_hadamard_coefficients,
    shift_coefficients,
    transform_coefficients,
    trial_atoms,
)
from coeffbounds.schemes import gamma_ladder, nehari_coefficients
from coeffbounds.series import cauchy_coefficients, real_power_coefficients
from coeffbounds.sweeps import (
    CHUNK_TRIALS,
    STREAM_LABELS,
    _chunked_sweep,
    dominance_margins,
    dominance_sweep,
    nehari_margins,
    nehari_sweep,
    stream_key,
)
from oracles import a_k_direct, dominance_margins_scalar, nehari_margins_scalar, random_herglotz

NEHARI_ROLES = ("nehari:h", "nehari:p", "nehari:q")


def rows(seed, suite, n, alpha, beta, start, stop):
    """Zero-padded (weights, points) rows of trials start..stop-1 of one suite's stream."""
    return draw_atoms(stream_key(seed, suite, n, alpha, beta), start, stop)[:2]


def witness(seed, roles, n, alpha, beta, trial):
    """The atoms trial ``trial`` of each role's stream rebuilds to."""
    return [trial_atoms(stream_key(seed, role, n, alpha, beta), trial) for role in roles]


def reference_atoms(seed, suite, n, alpha, beta, trials):
    """All trials at once, packed from the one-row rebuild of each trial."""
    key = stream_key(seed, suite, n, alpha, beta)
    weights = np.zeros((trials, MAX_ATOMS))
    points = np.ones((trials, MAX_ATOMS), dtype=complex)
    for t in range(trials):
        atoms = trial_atoms(key, t)
        weights[t, : len(atoms)] = atoms.weights
        points[t, : len(atoms)] = atoms.points
    return weights, points


def reference_summary(margins, k_values, slack=1e-9):
    """Unchunked summary: np.argmin for the worst row, np.argwhere for violations."""
    t, i = divmod(int(np.argmin(margins)), margins.shape[1])
    bad = np.argwhere(margins < -slack)
    violations = [(int(bt), int(k_values[bi]), float(margins[bt, bi])) for bt, bi in bad]
    return t, int(k_values[i]), float(margins[t, i]), tuple(violations[:5]), len(violations)


def summary(out):
    return out.worst_trial, out.worst_k, out.worst_margin, out.violations, out.violation_count


def splitmix64(state: int, count: int) -> list:
    """The first outputs of sequential SplitMix64 from ``state``, in Python integers."""
    mask, out = 2**64 - 1, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        base = stream_key(1729, "random", 1, 2.0, 0.25)
        assert base == stream_key(1729, "random", 1, 2.0, 0.25)
        others = {
            stream_key(1729, "random", 2, 2.0, 0.25),
            stream_key(1729, "random", 1, 2.5, 0.25),
            stream_key(1729, "nehari:h", 1, 2.0, 0.25),
            stream_key(1730, "random", 1, 2.0, 0.25),
        }
        assert base not in others and len(others) == 4
        # the trials of one stream read disjoint counters
        _, points, _ = draw_atoms(base, 0, 2)
        assert not np.array_equal(points[0], points[1])

    def test_frozen_values(self):
        # regression pins: changing the derivation would silently re-run
        # every randomized suite on different draws
        assert stream_key(1729, "random", 0, 2.0, 0.0) == 3622054255342247477
        key = stream_key(1729, "nehari:p", 3, 1.5, 0.25)
        assert key == 6013373881491230973
        # key 0 gives the published SplitMix64 sequence (its first three outputs)
        assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _uniforms(0, 0, 3).tolist() == [(x >> 11) * 2.0**-53 for x in splitmix64(0, 3)]
        # uniform i of trial j is output j B + i + 1, B = 1 + 2 MAX_ATOMS
        width = 1 + 2 * MAX_ATOMS
        first = 17 * width
        want = [(x >> 11) * 2.0**-53 for x in splitmix64(key, first + width)[first:]]
        assert _uniforms(key, first, first + width).tolist() == want
        assert [int(u * 2**53) for u in want[:3]] == [4099456855454215, 5514377678972238, 8725279373621565]
        weights, points, counts = draw_atoms(key, 17, 18)
        assert counts.tolist() == [2]
        assert weights[0] == pytest.approx([0.2180258761966428, 0.7819741238033572, 0, 0], abs=1e-15)
        want_points = [-0.7615518095714923 - 0.6481040358911411j, 0.9807246861833233 - 0.19539470287247318j]
        assert np.abs(points[0] - [*want_points, 1, 1]).max() <= 1e-15

    def test_exact_scalars_feed_the_label(self):
        assert stream_key(1, "random", 1, Fraction(2), 0.0) != stream_key(1, "random", 1, 2.0, 0.0)


class TestSampler:
    @pytest.mark.parametrize("suite", ["random", *NEHARI_ROLES])
    def test_rows_equal_random_herglotz(self, suite):
        # chunked rows equal the one-row rebuild of every trial, across chunk boundaries
        seed, n, alpha, beta = 2**40 + 3, 2, 1.5, 0.25
        key = stream_key(seed, suite, n, alpha, beta)
        trials = 2 * CHUNK_TRIALS + 7
        for start in range(0, trials, CHUNK_TRIALS):
            stop = min(start + CHUNK_TRIALS, trials)
            weights, points = rows(seed, suite, n, alpha, beta, start, stop)
            assert weights.shape == points.shape == (stop - start, MAX_ATOMS)
            for j in range(stop - start):
                w, x, c = draw_atoms(key, start + j, start + j + 1)
                assert np.array_equal(weights[j], w[0]) and np.array_equal(points[j], x[0])
                assert (w[0, c[0] :] == 0.0).all() and (x[0, c[0] :] == 1.0).all()
            if start == 0:
                # trial 0 of a stream is random_herglotz of its key
                atoms = random_herglotz(key)
                c = len(atoms)
                assert tuple(weights[0, :c]) == atoms.weights
                assert tuple(points[0, :c]) == atoms.points

    def test_random_access_far_into_the_stream(self):
        key = stream_key(7, "random", 1, 2.0, 0.0)
        far = draw_atoms(key, 10**12, 10**12 + 3)
        around = draw_atoms(key, 10**12 - 2, 10**12 + 5)
        for got, want in zip(far, around):
            assert np.array_equal(got, want[2:5])

    def test_no_overflow_warning(self):
        # uint64 arithmetic must stay on arrays, which wrap silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw_atoms(2**64 - 1, 10**12, 10**12 + 3)
            draw_atoms(0, 0, 1)
            draw_atoms(stream_key(2**40 + 3, "nehari:q", 3, 5.0, 0.5), 0, 100)

    def test_distribution(self):
        weights, points, counts = draw_atoms(stream_key(11, "random", 1, 2.0, 0.0), 0, 40_000)
        share = np.bincount(counts, minlength=MAX_ATOMS + 1)[1:] / len(counts)
        assert np.abs(share * MAX_ATOMS - 1).max() < 0.05
        used = np.arange(MAX_ATOMS) < counts[:, None]
        assert abs(points[used].mean()) < 0.02

    def test_roles_draw_different_rows(self):
        drawn = [rows(9, role, 1, 2.0, 0.0, 4, 5)[1][0] for role in NEHARI_ROLES]
        assert not any(np.array_equal(a, b) for i, a in enumerate(drawn) for b in drawn[i + 1 :])

    def test_stream_labels_name_the_roles(self):
        assert STREAM_LABELS == {"random": "random", "h": "nehari:h", "p": "nehari:p", "q": "nehari:q"}
        seed, n, alpha, beta = 9, 1, 2.0, 0.0
        assert dominance_sweep(seed, n, alpha, beta, 5, 6).stream_keys == {
            "random": stream_key(seed, "random", n, alpha, beta)
        }
        assert nehari_sweep(seed, n, alpha, beta, 5, 6).stream_keys == {
            role: stream_key(seed, f"nehari:{role}", n, alpha, beta) for role in "hpq"
        }

    @pytest.mark.parametrize("key, start, stop", [(-1, 0, 1), (2**64, 0, 1), (5, 3, 2), (5, -1, 1)])
    def test_draw_rejects_bad_arguments(self, key, start, stop):
        with pytest.raises(ValueError):
            draw_atoms(key, start, stop)

    def test_draw_checks_its_rows(self, monkeypatch):
        def refuse(weights, points, counts):
            raise ValueError("rows checked")

        monkeypatch.setattr(caratheodory, "check_atom_rows", refuse)
        with pytest.raises(ValueError, match="rows checked"):
            draw_atoms(5, 0, 3)

    def test_trial_atoms_checks_its_row_once(self, monkeypatch):
        cases = ((12345, 17), (5, 0), (2**64 - 1, 10**6))
        expected = []
        for key, trial in cases:
            weights, points, counts = draw_atoms(key, trial, trial + 1)
            # the checked construction from the drawn row
            expected.append(HerglotzAtoms(weights[0, : counts[0]].tolist(), points[0, : counts[0]].tolist()))
        calls = []

        def counting(weights, points, counts):
            calls.append(len(counts))
            check_atom_rows(weights, points, counts)

        monkeypatch.setattr(caratheodory, "check_atom_rows", counting)
        for (key, trial), atoms in zip(cases, expected):
            calls.clear()
            rebuilt = trial_atoms(key, trial)
            assert calls == [1]
            assert rebuilt == atoms
            assert rebuilt.to_document() == atoms.to_document()

    def test_checks_accept_padded_rows(self):
        weights = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
        points = np.array([[1j, -1.0, 1.0], [-1j, 1.0, 1.0]])
        check_atom_rows(weights, points, np.array([2, 1]))

    @pytest.mark.parametrize(
        "weights, points, count, match",
        [
            ([0.5, 0.0, 0.5], [1.0, 1j, -1.0], 3, "positive"),
            ([0.5, 0.5 + 1e-9, 0.0], [1.0, 1j, 1.0], 2, "sum to 1"),
            ([0.5, 0.5, 0.0], [1.0, 1j * (1 + 1e-9), 1.0], 2, "unimodular"),
        ],
    )
    def test_checks_reject_bad_rows(self, weights, points, count, match):
        # the rules HerglotzAtoms enforces per trial; the bad row follows a good one
        weights = np.array([[1.0, 0.0, 0.0], weights])
        points = np.array([[1.0, 1.0, 1.0], points], dtype=complex)
        with pytest.raises(ValueError, match=match):
            check_atom_rows(weights, points, np.array([1, count]))


class TestChunking:
    trials = 2 * CHUNK_TRIALS + 7

    def test_dominance_matches_unchunked_reference(self):
        seed, n, alpha, beta, k_max = 31, 1, 2.0, 0.25, 12
        out = dominance_sweep(seed, n, alpha, beta, self.trials, k_max)
        atoms = reference_atoms(seed, "random", n, alpha, beta, self.trials)
        margins = dominance_margins(*atoms, n, alpha, beta, k_max)
        assert summary(out) == reference_summary(margins, range(2, k_max + 1))

    def test_nehari_matches_unchunked_reference(self):
        seed, n, alpha, beta, k_max = 31, 1, 2.0, 0.0, 12
        out = nehari_sweep(seed, n, alpha, beta, self.trials, k_max)
        atoms = [reference_atoms(seed, role, n, alpha, beta, self.trials) for role in NEHARI_ROLES]
        margins = nehari_margins(*atoms, n, alpha, beta, k_max)
        assert summary(out) == reference_summary(margins, range(1, k_max + 1))
        assert out.violation_count > CHUNK_TRIALS  # violations span several chunks
        assert len(out.violations) <= 5

    def test_merge_across_chunks(self):
        margins = np.random.default_rng(5).uniform(0.0, 1.0, size=(self.trials, 3))
        k_values = np.arange(2, 5)

        def run():
            return _chunked_sweep(self.trials, k_values, {}, lambda a, b: margins[a:b])

        # two violations in the first chunk, then the listed ones cross into later chunks
        c = CHUNK_TRIALS
        for t, i in [(5, 2), (40, 0), (c + 1, 1), (c + 1, 2), (2 * c, 0), (2 * c + 3, 1)]:
            margins[t, i] = -0.5
        margins[c + 1, 1] = margins[2 * c + 3, 1] = -9.0  # tie across chunks
        out = run()
        assert summary(out) == reference_summary(margins, k_values)
        assert out.violations[-1] == (2 * c, 2, -0.5) and out.violation_count == 6
        margins[2 * c, 2] = margins[c + 9, 0] = np.nan
        out = run()
        assert (out.worst_trial, out.worst_k) == (c + 9, 2) == reference_summary(margins, k_values)[:2]
        assert np.isnan(out.worst_margin)

    def test_nan_margins_are_violations(self):
        margins = np.random.default_rng(6).uniform(0.0, 1.0, size=(self.trials, 3))
        k_values = np.arange(2, 5)
        c = CHUNK_TRIALS
        margins[3, 1] = margins[c + 2, 0] = np.nan
        margins[2 * c + 5, 2] = -0.5
        out = _chunked_sweep(self.trials, k_values, {}, lambda a, b: margins[a:b])
        assert out.violation_count == 3
        assert [(t, k) for t, k, _ in out.violations] == [(3, 3), (c + 2, 2), (2 * c + 5, 4)]
        assert np.isnan(out.violations[0][2]) and np.isnan(out.violations[1][2])
        assert out.violations[2][2] == -0.5
        assert (out.worst_trial, out.worst_k) == (3, 3) and np.isnan(out.worst_margin)

    @pytest.mark.parametrize("sweep", [nehari_sweep, dominance_sweep])
    def test_memory_is_flat_in_trials(self, sweep):
        # n = 1 puts violations in every nehari chunk; only five are ever held
        def peak(trials):
            tracemalloc.start()
            try:
                sweep(1729, 1, 2.0, 0.0, trials, 12)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep(1729, 1, 2.0, 0.0, 16, 12)  # imports and first-call caches stay out of the peaks
        assert peak(10 * CHUNK_TRIALS) <= 1.1 * peak(2 * CHUNK_TRIALS)


def columns(rows):
    """Per-trial coefficient rows as a list of numpy columns, one entry per index."""
    return list(np.array(rows).T)


def assert_columns_match(got, rows, dtype=np.complex128, tol=1e-13):
    """got (kernel output on columns) against per-trial scalar rows, past the constant term."""
    stacked = np.stack(got[1:], axis=1)
    assert stacked.dtype == dtype
    want = np.array([[complex(c) for c in row[1:]] for row in rows])
    assert stacked.shape == want.shape
    assert np.abs(stacked - want).max() <= tol


class TestBatchKernels:
    """The library's coefficient kernels fed 3-trial columns, against the scalar calls."""

    half = FLOAT.scalar(Fraction(1, 2))

    def generator_columns(self, seeds, order):
        systems = [random_herglotz(s) for s in seeds]
        weights = np.zeros((len(systems), 4))
        points = np.ones((len(systems), 4), dtype=complex)
        for t, atoms in enumerate(systems):
            weights[t, : len(atoms)] = atoms.weights
            points[t, : len(atoms)] = atoms.points
        cols = atom_coefficients(list(weights.T), list(points.T), order, FLOAT.one, FLOAT.zero)
        return systems, cols

    def test_batch_series_matches_atom_series(self):
        systems, got = self.generator_columns((3, 4, 5), 10)
        assert_columns_match(got, [atoms.series(10).coeffs for atoms in systems])

    def test_batch_real_power_matches_scalar(self):
        series = [random_herglotz(s).series(12) for s in (8, 9, 10)]
        got = real_power_coefficients(
            columns([g.coeffs for g in series]), 1 / 3.0, FLOAT.one, FLOAT.zero
        )
        want = [real_power_coefficients(g.coeffs, 1 / 3.0, FLOAT.one, FLOAT.zero) for g in series]
        assert_columns_match(got, want)

    @pytest.mark.parametrize("n, alpha, beta", [(0, 2.0, 0.0), (1, 1.5, 0.25), (3, 5.0, 0.9)])
    def test_batch_power_quotient_matches_f_from_p(self, n, alpha, beta):
        # transform, then beta shift, then the 1/alpha power: (f/z) of each trial
        systems, b = self.generator_columns((6, 7, 8), 11)
        g = shift_coefficients(transform_coefficients(b, alpha, n), beta, FLOAT.one)
        got = real_power_coefficients(g, 1 / alpha, FLOAT.one, FLOAT.zero)
        params = ClassParams(n, alpha, beta)
        assert_columns_match(got, [f_from_p(atoms, params, 12).coeffs[1:] for atoms in systems])

    def test_batch_cauchy_matches_series_product(self):
        a = [random_herglotz(s).series(9) for s in (1, 2, 3)]
        b = [random_herglotz(s).series(9) for s in (4, 5, 6)]
        got = cauchy_coefficients(columns([x.coeffs for x in a]), columns([y.coeffs for y in b]), FLOAT.zero)
        want = [cauchy_coefficients(x.coeffs, y.coeffs, FLOAT.zero) for x, y in zip(a, b)]
        assert_columns_match(got, want)

    def test_batch_gammas_dyadic_for_zero_d(self):
        got = gamma_ladder([np.zeros(2)] * 6, 6, self.half)
        assert got[0] == 1 and np.stack(got[1:]).dtype == np.float64
        assert np.allclose(np.stack(got[1:], axis=1), [[0.5**m for m in range(1, 7)]] * 2)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_batch_gammas_match_scalar(self, dtype):
        rng = np.random.default_rng(3)
        ds = rng.uniform(-2, 2, size=(3, 8)).astype(dtype)
        if dtype is np.complex128:
            ds += 1j * rng.uniform(-2, 2, size=(3, 8))
        got = gamma_ladder(list(ds.T), 8, self.half)
        want = [gammas_from_coefficients([c.item() for c in row], 8) for row in ds]
        assert_columns_match(got, want, dtype=dtype)
        assert got[0] == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_batch_nehari_matches_nehari_series(self, n):
        k_max, params = 9, ClassParams(n, 2.0, 0.25)
        h_sys, d = self.generator_columns((11, 12, 13), k_max - 1)
        p_sys, p = self.generator_columns((14, 15, 16), k_max)
        q_sys, q = self.generator_columns((17, 18, 19), k_max)
        r = half_hadamard_coefficients(p, q, FLOAT.one, self.half)
        gammas = gamma_ladder(d[1:], k_max - 1, self.half)
        got = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, 2.0, 0.25, FLOAT.zero)
        want = []
        for h_at, p_at, q_at in zip(h_sys, p_sys, q_sys):
            r = half_hadamard(p_at.series(k_max), q_at.series(k_max))
            G = TruncatedSeries([FLOAT.zero, *r.coeffs[1:]], k_max)
            want.append(nehari_series(h_at.series(k_max - 1), G, params, k_max).coeffs)
        assert_columns_match(got, want)


class TestDominance:
    def test_passes_on_default_style_point(self):
        out = dominance_sweep(1729, 1, 2.0, 0.0, 200, 12)
        assert out.trials == 200
        assert not out.violations
        assert out.worst_margin > -1e-9

    def test_vectorized_equals_scalar_pipeline(self):
        seed, n, alpha, beta, k_max = 42, 2, 1.5, 0.25, 12
        margins = dominance_margins(*rows(seed, "random", n, alpha, beta, 0, 8), n, alpha, beta, k_max)
        params = ClassParams(n, alpha, beta)
        for t in range(8):
            (atoms,) = witness(seed, ["random"], n, alpha, beta, t)
            # the independent route: the nested binomial expansion, no root-taking
            p = atoms.series(k_max - 1)
            direct = [
                float(sharp_bound(params, k)) - abs(a_k_direct(p, params, k)) for k in range(2, k_max + 1)
            ]
            assert margins[t] == pytest.approx(direct, abs=1e-12)
            # the scalar series classes, one trial at a time: column split and padding
            scalar = dominance_margins_scalar(atoms, n, alpha, beta, k_max)
            assert margins[t] == pytest.approx(scalar, abs=1e-13)
        out = dominance_sweep(seed, n, alpha, beta, 8, k_max)
        assert out.worst_margin == margins.min()

    def test_witness_reconstruction(self):
        (atoms,) = witness(1729, ["random"], 1, 2.0, 0.0, 123)
        weights, points = rows(1729, "random", 1, 2.0, 0.0, 100, 200)
        c = len(atoms)
        assert atoms.weights == tuple(weights[23, :c]) and atoms.points == tuple(points[23, :c])
        assert (weights[23, c:] == 0.0).all()

    def test_deterministic(self):
        a = dominance_sweep(7, 1, 3.0, 0.5, 50, 8)
        b = dominance_sweep(7, 1, 3.0, 0.5, 50, 8)
        assert a == b


class TestNehari:
    def test_n0_passes(self):
        out = nehari_sweep(1729, 0, 2.0, 0.0, 300, 12)
        assert not out.violations

    def test_n1_fails_with_witnesses(self):
        out = nehari_sweep(1729, 1, 2.0, 0.0, 300, 12)
        assert out.violations
        trial, k, margin = out.violations[0]
        assert margin < -1e-9

    def test_vectorized_equals_scalar_pipeline(self):
        seed, n, alpha, beta, k_max = 11, 1, 2.0, 0.25, 10
        for t in range(5):
            h_at, p_at, q_at = witness(seed, NEHARI_ROLES, n, alpha, beta, t)
            scal = nehari_margins_scalar(h_at, p_at, q_at, n, alpha, beta, k_max)
            assert len(scal) == k_max
        out = nehari_sweep(seed, n, alpha, beta, 5, k_max)
        worst_scalar = min(
            min(nehari_margins_scalar(*witness(seed, NEHARI_ROLES, n, alpha, beta, t), n, alpha, beta, k_max))
            for t in range(5)
        )
        assert out.worst_margin == pytest.approx(worst_scalar, abs=1e-12)

    def test_worst_witness_margin_matches_report(self):
        out = nehari_sweep(1729, 2, 5.0, 0.25, 100, 12)
        assert out.violations
        scal = nehari_margins_scalar(
            *witness(1729, NEHARI_ROLES, 2, 5.0, 0.25, out.worst_trial), 2, 5.0, 0.25, 12
        )
        assert scal[out.worst_k - 1] == pytest.approx(out.worst_margin, abs=1e-12)

    def test_n0_deep_kmax_flag_is_float_cancellation(self):
        # the worst trial that `verify nehari --n 0 --alpha 2 --beta 0 --kmax 16
        # --trials 4000 --seed 2288874184` flags (README, "Known limits"): the
        # float margin is below -SLACK, the same atoms in exact rationals are in bound
        seed, trial, k = 2288874184, 2921, 16
        drawn = [rows(seed, role, 0, 2.0, 0.0, trial, trial + 1) for role in NEHARI_ROLES]
        assert nehari_margins(*drawn, 0, 2.0, 0.0, k)[0, k - 1] < -SLACK

        def exact(atoms, order):
            weights = [Fraction(w) for w in atoms.weights]
            points = [RationalComplex(Fraction(x.real), Fraction(x.imag)) for x in atoms.points]
            coeffs = atom_coefficients(weights, points, order, RATIONAL.one, RATIONAL.zero)
            return TruncatedSeries(coeffs, order, backend=RATIONAL)

        h, p, q = witness(seed, NEHARI_ROLES, 0, 2.0, 0.0, trial)
        r = half_hadamard(exact(p, k), exact(q, k))
        G = TruncatedSeries([RATIONAL.zero, *r.coeffs[1:]], k, backend=RATIONAL)
        A = nehari_series(exact(h, k - 1), G, ClassParams(0, Fraction(2), Fraction(0)), k)
        assert A.coefficient(k).abs2() <= 4

    def test_roles_use_independent_seeds(self):
        h_at, p_at, q_at = witness(9, NEHARI_ROLES, 1, 2.0, 0.0, 4)
        assert h_at != p_at and p_at != q_at and h_at != q_at
