"""Vectorized sweeps: stream keys, the atom stream, blocks, column kernels, witnesses, the heap."""

import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coeffbounds import (
    FLOAT,
    RATIONAL,
    ClassParams,
    bounds,
    caratheodory,
    f_from_p,
    sharp_bound,
    sharp_bound_rows,
    sweeps,
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
from coeffbounds.schemes import nehari_coefficients
from coeffbounds.series import cauchy_coefficients, real_power_coefficients
from coeffbounds.sweeps import (
    CHUNK_TRIALS,
    STREAM_LABELS,
    _blocks,
    _sweeps,
    dominance_magnitudes,
    dominance_sweeps,
    nehari_bounds,
    nehari_magnitudes,
    nehari_sweeps,
    stream_key,
)
from oracles import (
    a_k_direct,
    dominance_margins_scalar,
    draw_atoms_exact,
    gamma_ladder,
    nehari_margins_scalar,
    random_herglotz,
)

NEHARI_ROLES = ("nehari:h", "nehari:p", "nehari:q")


def dominance_sweep(seed, n, alpha, beta, trials, k_max):
    """One point swept alone: the group of one beta."""
    (out,) = dominance_sweeps(seed, n, alpha, (beta,), trials, k_max)
    return out


def nehari_sweep(seed, n, alpha, beta, trials, k_max):
    """One point swept alone: the group of one beta."""
    (out,) = nehari_sweeps(seed, n, alpha, (beta,), trials, k_max)
    return out


#: The group sweep behind each one-point helper.
GROUP_SWEEPS = {dominance_sweep: dominance_sweeps, nehari_sweep: nehari_sweeps}


def dominance_bound(n, alpha, beta, k_max):
    """The row of sharp bounds the dominance margins are taken against."""
    return np.array(sharp_bound_rows(n, alpha, (beta,), k_max)[0])


def dominance_margins(weights, points, n, alpha, beta, bound):
    """Margins bound - |a_k| for k = 2..k_max, one row per row of atoms."""
    return bound - dominance_magnitudes((weights, points), n, alpha, beta, len(bound))


def nehari_margins(h, p, q, n, alpha, beta, bound):
    """Margins bound - |A_k| for k = 1..k_max, one row per trial."""
    return bound - nehari_magnitudes(h, p, q, n, alpha, beta, len(bound))


def sweep_margins(margins, first_k):
    """`_sweeps` of one point over given (trials, k) margins, against a zero bound.

    The stub kernel hands the loop -margins block by block, and 0 - (-m) is m exactly.
    """
    blocks = (-margins[start:stop] for [(_, start, stop)] in _blocks(1, len(margins)))
    (out,) = _sweeps(0, (), lambda *args: next(blocks), 1, 2.0, (0.0,), len(margins), first_k,
                     [np.zeros(margins.shape[1])])
    return out


def rows(seed, suite, n, alpha, beta, start, stop):
    """Zero-padded (weights, points) rows of trials start..stop-1 of one suite's stream."""
    return draw_atoms([(stream_key(seed, suite, n, alpha, beta), start, stop)])[:2]


def witness(seed, roles, n, alpha, beta, trial):
    """The atoms trial ``trial`` of each role's stream rebuilds to."""
    return [trial_atoms(stream_key(seed, role, n, alpha, beta), trial) for role in roles]


def exact_series(key, trial, order):
    """The atom series of a trial's exact atoms (`draw_atoms_exact`), in `RationalComplex`."""
    [(count, weights, points)] = draw_atoms_exact(key, trial, trial + 1)
    return atom_coefficients(weights[:count], points[:count], order, RATIONAL.one)


def exact_nehari(trials, n, alpha, beta, k_max):
    """A_0..A_k_max of one Nehari trial on the exact atoms of its (key, trial) pairs for h, p and q."""
    (h_key, h_trial), (p_key, p_trial), (q_key, q_trial) = trials
    half = Fraction(1, 2)
    r = half_hadamard_coefficients(exact_series(p_key, p_trial, k_max), exact_series(q_key, q_trial, k_max),
                                   RATIONAL.one, half)
    gammas = gamma_ladder(exact_series(h_key, h_trial, k_max - 1)[1:], k_max - 1, half, RATIONAL.zero)
    return nehari_coefficients(gammas, [RATIONAL.zero, *r[1:]], n, alpha, beta, RATIONAL.zero)


#: The unit roundoff of float64.
U = Fraction(1, 2**53)


def rounding_band(d, s):
    """gamma_D S = D u / (1 - D u) S (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1)."""
    return d * U / (1 - d * U) * s


def nehari_band(k, n, alpha, beta):
    """How far A_k from float atoms may lie from A_k on the exact atoms they round, as a Fraction.

    S_k = (1-beta) alpha^n sum_m 2^m C(k-1, m-1) / (alpha+m-1)^n is the sum run on absolute values:
    every |x| = 1 and every weight row sums to 1, so |b_l|, |r_l| <= 2 and |gamma_m| <= 1. D counts
    the roundings along the longest chain: a complex product as 3 (sqrt(2) gamma_2 < 3u, Higham's
    Lemma 3.5), a complex sum and a real-times-complex product as 1, a quotient by a real as 2
    (numpy multiplies by the rounded reciprocal), and a drawn point's own error (4u per part, a
    relative 4 sqrt(2) u) as 6. That gives b_l 9l + 1, r_l 18l + 5, the z^k entry of G^m
    18k + 5m + (m-1)(k+1), gamma_(m-1) of the binomial ladder 10m - 8, the weight and its product 6
    and the sum over m k - 1: D = k^2 + 34k - 4, at m = k.
    """
    s = (1 - beta) * alpha**n * sum(
        Fraction(2**m * math.comb(k - 1, m - 1)) / (alpha + m - 1) ** n for m in range(1, k + 1)
    )
    return rounding_band(k * k + 34 * k - 4, s)


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
        _, points, _ = draw_atoms([(base, 0, 2)])
        assert not np.array_equal(points[0], points[1])

    def test_frozen_values(self):
        # regression pins: changing the derivation would silently re-run
        # every randomized suite on different draws
        assert stream_key(1729, "random", 0, 2.0, 0.0) == 3622054255342247477
        key = stream_key(1729, "nehari:p", 3, 1.5, 0.25)
        assert key == 6013373881491230973
        # key 0 gives the published SplitMix64 sequence (its first three outputs)
        assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _uniforms([(0, 0, 3)]).tolist() == [(x >> 11) * 2.0**-53 for x in splitmix64(0, 3)]
        # uniform i of trial j is output j B + i + 1, B = 2 MAX_ATOMS
        width = 2 * MAX_ATOMS
        first = 17 * width
        want = [(x >> 11) * 2.0**-53 for x in splitmix64(key, first + width)[first:]]
        assert _uniforms([(key, first, first + width)]).tolist() == want
        assert [int(u * 2**53) for u in want[:3]] == [6934619302435694, 7699703015336238, 4028249366411451]
        # the draw is exact arithmetic on those uniforms, so its values are pinned exactly
        weights, points, counts = draw_atoms([(key, 17, 18)])
        assert counts.tolist() == [4]
        assert weights[0].tolist() == [0.02240517484987148, 0.29173238633773935, 0.12932326498549385,
                                       0.5565391738268953]
        assert points[0].tolist() == [-0.3144009215813643 - 0.9492902930657138j,
                                      -0.8663655516383157 + 0.49941038328656806j,
                                      -0.37011040861402783 - 0.9289877746426792j,
                                      -0.9464401615338148 - 0.32287926634555897j]

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
                w, x, c = draw_atoms([(key, start + j, start + j + 1)])
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
        far = draw_atoms([(key, 10**12, 10**12 + 3)])
        around = draw_atoms([(key, 10**12 - 2, 10**12 + 5)])
        for got, want in zip(far, around):
            assert np.array_equal(got, want[2:5])

    def test_no_overflow_warning(self):
        # uint64 arithmetic must stay on arrays, which wrap silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw_atoms([(2**64 - 1, 10**12, 10**12 + 3)])
            draw_atoms([(0, 0, 1)])
            draw_atoms([(stream_key(2**40 + 3, "nehari:q", 3, 5.0, 0.5), 0, 100)])

    def test_distribution(self):
        weights, points, counts = draw_atoms([(stream_key(11, "random", 1, 2.0, 0.0), 0, 40_000)])
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
            draw_atoms([(key, start, stop)])

    def test_draw_checks_its_rows(self, monkeypatch):
        def refuse(weights, points, counts):
            raise ValueError("rows checked")

        monkeypatch.setattr(caratheodory, "check_atom_rows", refuse)
        with pytest.raises(ValueError, match="rows checked"):
            draw_atoms([(5, 0, 3)])

    def test_trial_atoms_checks_its_row_once(self, monkeypatch):
        cases = ((12345, 17), (5, 0), (2**64 - 1, 10**6))
        expected = []
        for key, trial in cases:
            weights, points, counts = draw_atoms([(key, trial, trial + 1)])
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_checks_read_used_slots_only(self, order):
        # a NaN point in an unused slot is masked out; in a used slot it fails, as a NaN weight does
        points = np.array([[1j, -1.0, np.nan], [-1j, np.nan, 1.0]], order=order)
        weights = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]], order=order)
        check_atom_rows(weights, points, np.array([2, 1]))
        weights = np.array([[0.25, 0.5, 0.25], [1.0, 0.0, 0.0]], order=order)
        with pytest.raises(ValueError, match=r"point \(nan\+0j\) is not unimodular"):
            check_atom_rows(weights, points, np.array([3, 1]))
        weights[1, 0] = np.nan
        with pytest.raises(ValueError, match="positive"):
            check_atom_rows(weights, np.ones_like(points), np.array([2, 1]))

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
        margins = dominance_margins(*atoms, n, alpha, beta, dominance_bound(n, alpha, beta, k_max))
        assert summary(out) == reference_summary(margins, range(2, k_max + 1))

    def test_nehari_matches_unchunked_reference(self):
        seed, n, alpha, beta, k_max = 31, 1, 2.0, 0.0, 12
        out = nehari_sweep(seed, n, alpha, beta, self.trials, k_max)
        atoms = [reference_atoms(seed, role, n, alpha, beta, self.trials) for role in NEHARI_ROLES]
        margins = nehari_margins(*atoms, n, alpha, beta, nehari_bounds(n, alpha, beta, k_max))
        assert summary(out) == reference_summary(margins, range(1, k_max + 1))
        assert out.violation_count > CHUNK_TRIALS  # violations span several chunks
        assert len(out.violations) <= 5

    def test_merge_across_chunks(self):
        margins = np.random.default_rng(5).uniform(0.0, 1.0, size=(self.trials, 3))
        k_values = np.arange(2, 5)
        # two violations in the first chunk, then the listed ones cross into later chunks
        c = CHUNK_TRIALS
        for t, i in [(5, 2), (40, 0), (c + 1, 1), (c + 1, 2), (2 * c, 0), (2 * c + 3, 1)]:
            margins[t, i] = -0.5
        margins[c + 1, 1] = margins[2 * c + 3, 1] = -9.0  # tie across chunks
        out = sweep_margins(margins, 2)
        assert summary(out) == reference_summary(margins, k_values)
        assert out.violations[-1] == (2 * c, 2, -0.5) and out.violation_count == 6
        margins[2 * c, 2] = margins[c + 9, 0] = np.nan
        out = sweep_margins(margins, 2)
        assert (out.worst_trial, out.worst_k) == (c + 9, 2) == reference_summary(margins, k_values)[:2]
        assert np.isnan(out.worst_margin)

    def test_nan_margins_are_violations(self):
        margins = np.random.default_rng(6).uniform(0.0, 1.0, size=(self.trials, 3))
        c = CHUNK_TRIALS
        margins[3, 1] = margins[c + 2, 0] = np.nan
        margins[2 * c + 5, 2] = -0.5
        out = sweep_margins(margins, 2)
        assert out.violation_count == 3
        assert [(t, k) for t, k, _ in out.violations] == [(3, 3), (c + 2, 2), (2 * c + 5, 4)]
        assert np.isnan(out.violations[0][2]) and np.isnan(out.violations[1][2])
        assert out.violations[2][2] == -0.5
        assert (out.worst_trial, out.worst_k) == (3, 3) and np.isnan(out.worst_margin)

    @pytest.mark.parametrize("sweep", [nehari_sweep, dominance_sweep])
    def test_memory_is_flat_in_trials(self, sweep):
        # n = 1 puts violations in every nehari block; only five per point are ever held.
        # A four-beta group draws its blocks across points, and holds as little.
        group = GROUP_SWEEPS[sweep]

        def peak(betas, trials):
            tracemalloc.start()
            try:
                group(1729, 1, 2.0, betas, trials, 12)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep(1729, 1, 2.0, 0.0, 16, 12)  # imports and first-call caches stay out of the peaks
        assert peak((0.0,), 10 * CHUNK_TRIALS) <= 1.1 * peak((0.0,), 2 * CHUNK_TRIALS)
        betas = (0.0, 0.25, 0.5, 0.9)
        four = peak(betas, 2 * CHUNK_TRIALS)
        assert peak(betas, 10 * CHUNK_TRIALS) <= 1.1 * four
        assert four <= 1.1 * peak((0.0,), 2 * CHUNK_TRIALS)

    def test_nehari_block_heap_peak(self):
        # of h only its ladder is alive when P and Q exist: a full block peaks below 60 complex columns
        drawn = [rows(1729, role, 1, 2.0, 0.25, 0, CHUNK_TRIALS) for role in NEHARI_ROLES]
        betas = np.full(CHUNK_TRIALS, 0.25)
        nehari_magnitudes(*drawn, 1, 2.0, betas, 12)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            nehari_magnitudes(*drawn, 1, 2.0, betas, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * CHUNK_TRIALS * np.dtype(np.complex128).itemsize


BETAS = (0.0, 0.25, 0.5, 0.9, 0.1)


class TestBlocks:
    """The betas of one (n, alpha) share blocks; each point's outcome is the one it has alone."""

    @pytest.mark.parametrize("trials", [1, 999, 1000, 3000, 4097, 9000])
    def test_blocks_walk_the_points_in_order(self, trials):
        for points in range(1, 6):
            blocks = list(_blocks(points, trials))
            assert all(sum(stop - start for _, start, stop in b) <= CHUNK_TRIALS for b in blocks)
            # every block but the last is full, and the segments tile each point's trials in order
            assert all(sum(stop - start for _, start, stop in b) == CHUNK_TRIALS for b in blocks[:-1])
            flat = [segment for b in blocks for segment in b]
            assert [p for p, _, _ in flat] == sorted(p for p, _, _ in flat)
            for point in range(points):
                spans = [(start, stop) for p, start, stop in flat if p == point]
                assert spans[0][0] == 0 and spans[-1][1] == trials
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("trials", [1, 999, 1000, 3000, 4097, 9000])
    @pytest.mark.parametrize("group, alone", [(dominance_sweeps, dominance_sweep), (nehari_sweeps, nehari_sweep)],
                             ids=["dominance", "nehari"])
    def test_each_point_equals_its_sweep_alone(self, group, alone, count, trials):
        betas = BETAS[:count]
        outcomes = group(41, 1, 1.5, betas, trials, 6)
        assert len(outcomes) == count
        for beta, outcome in zip(betas, outcomes):
            assert outcome == alone(41, 1, 1.5, beta, trials, 6)

    def test_nehari_group_lists_violations_per_point(self):
        # n = 1 violates the claimed bound at every point, in every block
        outcomes = nehari_sweeps(9, 1, 2.0, BETAS[:4], 3000, 8)
        for beta, outcome in zip(BETAS, outcomes):
            assert outcome.violations and outcome == nehari_sweep(9, 1, 2.0, beta, 3000, 8)
            assert outcome.stream_keys == {role: stream_key(9, f"nehari:{role}", 1, 2.0, beta) for role in "hpq"}

    def test_nan_in_a_later_segment_fails_only_its_point(self, monkeypatch):
        # four points of 1000 trials share one block: row 2500 is trial 500 of the third point
        margins_of = sweeps.dominance_magnitudes

        def one_nan(*args):
            margins = margins_of(*args)
            margins[2500, 3] = np.nan
            return margins

        monkeypatch.setattr(sweeps, "dominance_magnitudes", one_nan)
        outcomes = dominance_sweeps(1729, 1, 2.0, BETAS[:4], 1000, 8)
        assert [o.violation_count for o in outcomes] == [0, 0, 1, 0]
        (trial, k, margin), = outcomes[2].violations
        assert (trial, k) == (500, 5) and np.isnan(margin)
        assert (outcomes[2].worst_trial, outcomes[2].worst_k) == (500, 5) and np.isnan(outcomes[2].worst_margin)
        monkeypatch.undo()
        for i in (0, 1, 3):
            assert outcomes[i] == dominance_sweep(1729, 1, 2.0, BETAS[i], 1000, 8)

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            dominance_sweeps(1, 1, 2.0, (0.0,), 0, 6)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(segments):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(sweeps, "draw_atoms", refuse)

    @pytest.mark.parametrize("group", [dominance_sweeps, nehari_sweeps], ids=["dominance", "nehari"])
    def test_rejects_an_empty_beta_list(self, group, no_draws):
        with pytest.raises(ValueError, match="betas must hold at least one beta"):
            group(1, 1, 2.0, [], 10, 12)

    def test_rejects_a_bound_row_with_no_k(self, no_draws):
        # dominance_sweeps refuses k_max < 2 in sharp_bound_rows already
        message = "bounds must hold at least one k, got an empty row"
        with pytest.raises(ValueError, match=message):
            nehari_sweeps(1, 1, 2.0, [0.0], 10, 0)
        with pytest.raises(ValueError, match=message):
            _sweeps(0, ("random",), dominance_magnitudes, 1, 2.0, (0.0,), 10, 2, [np.ones(0)])


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
        cols = atom_coefficients(list(weights.T), list(points.T), order, FLOAT.one)
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
        g = shift_coefficients(transform_coefficients(b, alpha, n, FLOAT.zero), beta, FLOAT.one, FLOAT.zero)
        got = real_power_coefficients(g, 1 / alpha, FLOAT.one, FLOAT.zero)
        params = ClassParams(n, alpha, beta)
        assert_columns_match(got, [f_from_p(atoms, params, 12).coeffs[1:] for atoms in systems])

    def test_f_from_p_and_the_dominance_sweep_share_one_pipeline(self, monkeypatch):
        # transform, beta shift and real power exist once, for scalars and for columns
        pipeline = bounds.f_quotient_coefficients
        assert sweeps.f_quotient_coefficients is pipeline
        calls = []

        def counting(coeffs, *args):
            calls.append(isinstance(coeffs[1], np.ndarray))
            return pipeline(coeffs, *args)

        for module in (bounds, sweeps):
            monkeypatch.setattr(module, "f_quotient_coefficients", counting)
        f_from_p(random_herglotz(3), ClassParams(1, 2.0, 0.25), 8)
        dominance_sweeps(5, 1, 2.0, BETAS[:4], 1000, 8)  # one block of 4000 rows
        assert calls == [False, True]

    def test_batch_cauchy_matches_series_product(self):
        a = [random_herglotz(s).series(9) for s in (1, 2, 3)]
        b = [random_herglotz(s).series(9) for s in (4, 5, 6)]
        got = cauchy_coefficients(columns([x.coeffs for x in a]), columns([y.coeffs for y in b]))
        want = [cauchy_coefficients(x.coeffs, y.coeffs) for x, y in zip(a, b)]
        assert_columns_match(got, want)

    def test_batch_gammas_dyadic_for_zero_d(self):
        got = gamma_ladder([np.zeros(2)] * 6, 6, self.half, 0.0)
        assert got[0] == 1 and np.stack(got[1:]).dtype == np.float64
        assert np.allclose(np.stack(got[1:], axis=1), [[0.5**m for m in range(1, 7)]] * 2)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_batch_gammas_match_scalar(self, dtype):
        rng = np.random.default_rng(3)
        ds = rng.uniform(-2, 2, size=(3, 8)).astype(dtype)
        if dtype is np.complex128:
            ds += 1j * rng.uniform(-2, 2, size=(3, 8))
        got = gamma_ladder(list(ds.T), 8, self.half, 0.0)
        want = [gamma_ladder([c.item() for c in row], 8, Fraction(1, 2), 0.0) for row in ds]
        assert_columns_match(got, want, dtype=dtype)
        assert got[0] == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_batch_nehari_matches_nehari_series(self, n):
        # the column route and the scalar route, each against A_k on the trials' exact atoms
        # (random_herglotz(s) is trial 0 of stream s) within the rounding band of each k
        k_max, alpha, beta = 9, Fraction(2), Fraction(1, 4)
        seeds = (11, 12, 13), (14, 15, 16), (17, 18, 19)
        h_sys, d = self.generator_columns(seeds[0], k_max - 1)
        p_sys, p = self.generator_columns(seeds[1], k_max)
        q_sys, q = self.generator_columns(seeds[2], k_max)
        r = half_hadamard_coefficients(p, q, FLOAT.one, self.half)
        gammas = gamma_ladder(d[1:], k_max - 1, self.half, FLOAT.zero)
        got = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, float(alpha), float(beta), FLOAT.zero)
        bands = [nehari_band(k, n, alpha, beta) for k in range(1, k_max + 1)]
        for t, (h_at, p_at, q_at) in enumerate(zip(h_sys, p_sys, q_sys)):
            # the scalar route, one trial at a time, with the exact 1/2 of the rational backend
            r = half_hadamard_coefficients(p_at.series(k_max).coeffs, q_at.series(k_max).coeffs,
                                           FLOAT.one, Fraction(1, 2))
            gammas = gamma_ladder(h_at.series(k_max - 1).coeffs[1:], k_max - 1, Fraction(1, 2), FLOAT.zero)
            want = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, float(alpha), float(beta), FLOAT.zero)
            exact = exact_nehari([(seed[t], 0) for seed in seeds], n, alpha, beta, k_max)
            for k, band in enumerate(bands, start=1):
                for route in (complex(got[k][t]), want[k]):
                    error = exact[k] - RationalComplex(Fraction(route.real), Fraction(route.imag))
                    assert error.abs2() <= band * band, (n, t, k, route)


class TestDominance:
    def test_passes_on_default_style_point(self):
        out = dominance_sweep(1729, 1, 2.0, 0.0, 200, 12)
        assert 0 <= out.worst_trial < 200
        assert not out.violations
        assert out.worst_margin > -1e-9

    def test_vectorized_equals_scalar_pipeline(self):
        seed, n, alpha, beta, k_max = 42, 2, 1.5, 0.25, 12
        margins = dominance_margins(
            *rows(seed, "random", n, alpha, beta, 0, 8), n, alpha, beta, dominance_bound(n, alpha, beta, k_max)
        )
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
        # float margin is below -SLACK, while the trial's own exact atoms (its
        # dyadic weights and exactly unimodular points) sit on the bound
        seed, trial, k = 2288874184, 398, 16
        drawn = [rows(seed, role, 0, 2.0, 0.0, trial, trial + 1) for role in NEHARI_ROLES]
        assert nehari_margins(*drawn, 0, 2.0, 0.0, nehari_bounds(0, 2.0, 0.0, k))[0, k - 1] < -SLACK
        keys = [(stream_key(seed, role, 0, 2.0, 0.0), trial) for role in NEHARI_ROLES]
        A = exact_nehari(keys, 0, Fraction(2), Fraction(0), k)
        # |A_16| = 2 = 2 (1 - beta) alpha^0 / (alpha + 16)^0: exact margin 0
        assert A[k].abs2() == 4

    def test_ladder_rounds_the_exact_ladder(self):
        # the sweep's gamma_m = sum_j w_j ((1 + x_j) / 2)^m on drawn rows, against the same sum on
        # the exact atoms the rows round: the paper's ladder (test_schemes.py shows it exactly), and
        # cheaper in Fractions than its binomial sums. (1 + x) / 2 lies within 4u of its exact value
        # (the point's own 4u per part and the rounding of 1 + x): 4 roundings. w (1 + x) / 2 adds 1,
        # each further power 4 + 3 (a complex product), the sum over the atoms 3: D = 7m + 1, and
        # S = sum_j w_j ((1 + |x_j|) / 2)^m = 1
        key, trials, m_max = stream_key(1729, "nehari:h", 0, 2.0, 0.0), 300, 15
        got = sweeps._ladder(draw_atoms([(key, 0, trials)])[:2], m_max)
        assert got[0] == 1.0 and type(got[0]) is float
        for t, (count, weights, points) in enumerate(draw_atoms_exact(key, 0, trials)):
            halves = [w / 2 for w in weights[:count]], [(1 + x) / 2 for x in points[:count]]
            exact = atom_coefficients(*halves, m_max, RATIONAL.one)
            for m in range(1, m_max + 1):
                z = complex(got[m][t])
                error = exact[m] - RationalComplex(Fraction(z.real), Fraction(z.imag))
                assert error.abs2() <= rounding_band(7 * m + 1, 1) ** 2, (t, m)

    def test_roles_use_independent_seeds(self):
        h_at, p_at, q_at = witness(9, NEHARI_ROLES, 1, 2.0, 0.0, 4)
        assert h_at != p_at and p_at != q_at and h_at != q_at


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


#: A fresh interpreter runs one command twice through `cli.main` and prints
#: the minor page faults of the second run.
_WARM_RUN = """
import contextlib, io, resource
from coeffbounds import cli

def run():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "random", "--n", "1", "--trials", "1000"]) == 0

run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_warm_sweep_keeps_its_heap():
    # without pinned malloc thresholds the second run faults its heap back in: about 2900 faults
    env = dict(os.environ, PYTHONPATH=str(Path(sweeps.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _WARM_RUN], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 500
