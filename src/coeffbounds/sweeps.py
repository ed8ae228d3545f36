"""Vectorized random-trial sweeps for the verification suites.

The randomized suites run thousands of generator trials per parameter
point. Each sweep draws its trials with `caratheodory.draw_atoms`, the
package's one random draw, which returns zero-padded ``(trials,
MAX_ATOMS)`` weight and point arrays (padding: weight 0, point 1) that
already pass the float `HerglotzAtoms` rules. Two magnitude kernels split
those arrays into per-atom float weight and complex point columns and feed
them to the library's own coefficient kernels (the atom series,
`bounds.f_quotient_coefficients`, the half-Hadamard composition and the
Nehari sum), so the scalar commands and the sweeps run one implementation
of every recurrence. The gamma ladder of h is the atom series too: since
each drawn row's weights sum to 1.0 exactly, the binomial sums of
`schemes.gamma_value` collapse to gamma_m = sum_j w_j ((1 + x_j) / 2)^m
(`_ladder`). Besides the stream keys, this module adds only the claimed
Nehari bound, the kernels, which return |c_k| as ``(trials, k)`` arrays,
and one sweep loop with its blocks and summary.

One sweep call covers the betas of one (n, alpha): it walks those points'
trials point by point and cuts them into blocks of at most `CHUNK_TRIALS`
rows, so the four stock betas at 1000 trials share one pass of the kernels,
and memory stays flat in the trial count and in the number of betas. Each
block draws each role's segments (a run of one point's trials, read from
that point's stream) with one `draw_atoms` call, runs a kernel once with
one beta per row, and turns each segment's rows into margins bound - |c_k|
in place, folded into its point's summary. Each point keeps the worst
margin (the first occurrence, as ``np.argmin`` over all its trials would
give), the total number of violations (margins below ``-bounds.SLACK``,
and NaN margins, which never pass) and only the first five of them in
(trial, k) order. A point's outcome is the one it has swept alone, bit for
bit.

Importing this module pins glibc's malloc thresholds for the process, once,
through ``mallopt`` (`TRIM_THRESHOLD`, `MMAP_THRESHOLD`). By default glibc
sizes its trim threshold from the largest block it has freed, which for a
sweep is far below a block's heap peak, so the heap went back to the system
after every (n, alpha) group and the next group faulted it in again: about
11 450 minor page faults per four-command stock `verify random` pass, against
about 30 with the thresholds pinned. Where the C library has no ``mallopt``
nothing is set; the thresholds change speed only, never a result.

Seed contract: each role of a suite at a parameter point reads one
counter-based atom stream whose 64-bit key is

    key = blake2b("{label}|{seed}|{n}|{alpha}|{beta}|", digest_size=8)

interpreted big-endian (`stream_key`), where `STREAM_LABELS` maps the
role to its label: the dominance sweep's one role "random" reads
"random", and the nehari sweep's roles h, p and q read "nehari:h",
"nehari:p" and "nehari:q". Uniform i of trial j is the SplitMix64
finalizer of ``key + (j B + i + 1) * 0x9E3779B97F4A7C15`` (mod 2^64) with
``B = 2 MAX_ATOMS`` uniforms per trial; see `caratheodory.draw_atoms` for
how they become atoms with +, -, *, / and no transcendental function, so
every weight is a dyadic rational and each row sums to 1.0 exactly. Blocks
leave this contract as it was: a trial reads the same uniforms in any
block, and blocked and unblocked runs agree bit for bit. A point's
`SweepOutcome` carries its role -> key map, and a (stream key, trial) pair
is enough to rebuild the trial's atoms with `caratheodory.trial_atoms`.

The draw and the claimed Nehari bound row use no numpy function whose
result depends on the SIMD level numpy dispatches to, so the sweep reports
read the same with and without AVX-512. The scope stops there: numpy's
complex multiply and complex ``abs`` round differently without AVX2 (fused
multiply-adds), and Python-float powers go through the C library's ``pow``.
"""

from __future__ import annotations

import ctypes
import hashlib
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .backends import FLOAT
from .bounds import SLACK, f_quotient_coefficients, sharp_bound_rows
from .caratheodory import atom_coefficients, draw_atoms, half_hadamard_coefficients
from .schemes import nehari_coefficients


#: glibc's malloc keeps up to this much free memory at the top of its heap
#: rather than give it back; above the measured heap peaks of a sweep (1.87
#: MiB for a stock `verify random` (n, alpha) group, 5.86 MiB for a
#: 20 000-trial `verify nehari` point, tracemalloc), so no block refaults it.
TRIM_THRESHOLD = 16 << 20
#: Allocations from this size on get their own mapping; above every array of
#: a stock sweep block, so the blocks stay on the warm heap.
MMAP_THRESHOLD = 4 << 20
# the parameter numbers of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # a C library without mallopt: nothing to pin
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    _mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _scalar_token(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def stream_key(seed: int, suite: str, n: int, alpha, beta) -> int:
    """64-bit key of the atom stream of one suite at one parameter point."""
    label = f"{suite}|{seed}|{n}|{_scalar_token(alpha)}|{_scalar_token(beta)}|"
    return int.from_bytes(hashlib.blake2b(label.encode("ascii"), digest_size=8).digest(), "big")


#: The stream label each sampling role reads; see the seed contract above.
STREAM_LABELS = {"random": "random", "h": "nehari:h", "p": "nehari:p", "q": "nehari:q"}


def _stream_keys(seed: int, roles, n: int, alpha, beta) -> dict:
    return {role: stream_key(seed, STREAM_LABELS[role], n, alpha, beta) for role in roles}


CHUNK_TRIALS = 4096
_MAX_LISTED_VIOLATIONS = 5


def _columns(atoms) -> tuple:
    """Split (trials, MAX_ATOMS) weight and point arrays into per-atom float and complex columns.

    The weights stay float64: numpy multiplies a float weight column into a
    complex point column as it would the weight cast to complex, so a cast
    would only add a pass. The atom-major arrays of `draw_atoms` give both
    lists without a copy.
    """
    weights, points = atoms
    return list(np.ascontiguousarray(weights.T)), list(np.ascontiguousarray(points.T))


def _generator_coefficients(atoms, order: int) -> list:
    """Columns 1, b_1, ..., b_order of the generator series of each trial's atoms."""
    return atom_coefficients(*_columns(atoms), order, FLOAT.one)


def _magnitudes(columns: list) -> np.ndarray:
    """|c| of each complex column, as the columns of one (trials, len(columns)) float array.

    One column at a time: a complex (trials, k) stack would add to the
    block's peak memory.
    """
    magnitudes = np.empty((len(columns[0]), len(columns)))
    for i, c in enumerate(columns):
        np.abs(c, out=magnitudes[:, i])
    return magnitudes


class SweepOutcome(namedtuple(
    "SweepOutcome", "stream_keys worst_trial worst_k worst_margin violations violation_count"
)):
    """Summary of one randomized sweep at one parameter point.

    ``stream_keys`` maps each role to the key of the atom stream its trials
    read. ``violations`` holds the first `_MAX_LISTED_VIOLATIONS` (trial, k,
    margin) rows with margin < -SLACK or NaN, and ``violation_count`` counts
    all such rows.
    """

    __slots__ = ()


class _Summary:
    """The running summary of one point, folded from its trials in order."""

    __slots__ = ("worst", "worst_trial", "worst_k", "violations", "count")

    def __init__(self):
        self.worst = self.worst_trial = self.worst_k = None
        self.violations = []
        self.count = 0

    def fold(self, margins: np.ndarray, start: int, k_values: np.ndarray):
        """Add the margins of trials start, start + 1, ..., one row each."""
        t, i = divmod(int(np.argmin(margins)), margins.shape[1])
        m = margins[t, i]
        # first occurrence wins, and so does the first NaN, as in np.argmin
        if self.worst is None or (not np.isnan(self.worst) and (np.isnan(m) or m < self.worst)):
            self.worst, self.worst_trial, self.worst_k = m, start + t, int(k_values[i])
        bad = ~(margins >= -SLACK)  # a NaN margin is a violation too
        self.count += int(np.count_nonzero(bad))
        room = _MAX_LISTED_VIOLATIONS - len(self.violations)
        if room:
            for flat in np.flatnonzero(bad)[:room]:
                bt, bi = divmod(int(flat), margins.shape[1])
                self.violations.append((start + bt, int(k_values[bi]), float(margins[bt, bi])))

    def outcome(self, stream_keys: dict) -> SweepOutcome:
        return SweepOutcome(
            stream_keys=stream_keys,
            worst_trial=self.worst_trial,
            worst_k=self.worst_k,
            worst_margin=float(self.worst),
            violations=tuple(self.violations),
            violation_count=self.count,
        )


def _blocks(points: int, trials: int):
    """The trials of ``points`` points, point by point, cut into blocks of at most CHUNK_TRIALS.

    Yields each block as its segments ``(point, start, stop)``: trials
    start..stop-1 of one point, in order.
    """
    segments, room = [], CHUNK_TRIALS
    for point in range(points):
        start = 0
        while start < trials:
            stop = min(trials, start + room)
            segments.append((point, start, stop))
            room -= stop - start
            start = stop
            if not room:
                yield segments
                segments, room = [], CHUNK_TRIALS
    if segments:
        yield segments


def _sweeps(seed: int, roles: tuple, magnitudes, n: int, alpha, betas, trials: int, first_k: int, bounds) -> tuple:
    """One sweep over the points (n, alpha, beta) for beta in betas, in shared blocks: one outcome each.

    ``bounds`` holds each point's bounds on |c_k| for k = first_k, ..., and
    ``magnitudes(*atoms, n, alpha, beta, count)`` the block's |c_k| from its
    (weights, points) rows of each role and one beta per row.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not len(betas):
        raise ValueError("betas must hold at least one beta")
    bounds = np.array(bounds, dtype=np.float64)
    if not bounds.shape[1]:
        raise ValueError("bounds must hold at least one k, got an empty row")
    keys = [_stream_keys(seed, roles, n, alpha, beta) for beta in betas]
    betas = np.array(betas, dtype=np.float64)
    count = bounds.shape[1]
    k_values = np.arange(first_k, first_k + count)
    summaries = [_Summary() for _ in keys]
    for segments in _blocks(len(keys), trials):
        points = [point for point, _, _ in segments]
        sizes = [stop - start for _, start, stop in segments]
        # the last block's rows stay alive until this block's exist
        rows = magnitudes(
            *[draw_atoms([(keys[point][role], start, stop) for point, start, stop in segments])[:2]
              for role in roles],
            n, alpha, np.repeat(betas[points], sizes), count,
        )
        row = 0
        for point, start, stop in segments:
            margins = rows[row : row + stop - start]
            np.subtract(bounds[point], margins, out=margins)
            summaries[point].fold(margins, start, k_values)
            row += stop - start
    return tuple(s.outcome(point_keys) for s, point_keys in zip(summaries, keys))


def dominance_sweeps(seed: int, n: int, alpha: float, betas, trials: int, k_max: int) -> tuple:
    """Random generators against the sharp bound, margin = bound - |a_k|: one outcome per beta.

    Coefficients a_2..a_{k_max} only need the quotient series through order
    k_max - 1, and truncation is exact on leading coefficients, so the sweep
    runs at that reduced order.
    """
    bounds = sharp_bound_rows(n, FLOAT.scalar(alpha), [FLOAT.scalar(beta) for beta in betas], k_max)
    return _sweeps(seed, ("random",), dominance_magnitudes, n, alpha, betas, trials, 2, bounds)


def dominance_magnitudes(atoms, n: int, alpha: float, beta, count: int) -> np.ndarray:
    """|a_k| for k = 2..count + 1, one row per row of ``atoms``, a (weights, points) pair.

    ``beta`` is one float or a float64 column with one per row.
    """
    alpha = FLOAT.scalar(alpha)
    # the generator list is freed inside the pipeline: at 4000 trials a
    # block's peak memory is mostly these coefficient lists
    u = f_quotient_coefficients(_generator_coefficients(atoms, count), n, alpha, beta, FLOAT.one, FLOAT.zero)
    return _magnitudes(u[1:])


def nehari_bounds(n: int, alpha: float, beta: float, k_max: int) -> np.ndarray:
    """The claimed bounds 2 (1-beta) alpha^n / (alpha+k)^n for k = 1..k_max.

    Python floats in the order of `bounds.sharp_bound_rows`: the head
    2 (1-beta) alpha^n once, then head / (alpha + k)^n. numpy's ``power``
    would round differently with and without AVX-512.
    """
    alpha, beta = FLOAT.scalar(alpha), FLOAT.scalar(beta)
    head = 2.0 * (1.0 - beta) * alpha**n
    return np.array([head / (alpha + k) ** n for k in range(1, k_max + 1)])


def nehari_sweeps(seed: int, n: int, alpha: float, betas, trials: int, k_max: int) -> tuple:
    """Sampled alternating series against the claimed transform-weighted bound: one outcome per beta.

    Each trial draws three independent atom systems: h (whose coefficients
    feed the gamma ladder) and a generator pair (p, q) combined through the
    half-Hadamard rule b'_l = b_l c_l / 2, so that 1 + G is a Caratheodory
    member. The margin at k is 2 (1-beta) alpha^n / (alpha+k)^n - |A_k|;
    negative rows are genuine counterexamples to the claimed bound (expected
    for n >= 1 — see the audit notes in the verification harness).
    """
    bounds = [nehari_bounds(n, alpha, beta, k_max) for beta in betas]
    return _sweeps(seed, ("h", "p", "q"), nehari_magnitudes, n, alpha, betas, trials, 1, bounds)


def _ladder(atoms, m_max: int) -> list:
    """Columns gamma_0, ..., gamma_m_max of the gamma ladder of each trial's atoms.

    With d_mu = 2 sum_j w_j x_j^mu and sum_j w_j = 1 (every drawn row sums
    to 1.0 exactly), the binomial theorem turns each order of the ladder,
    `schemes.gamma_value`, into gamma_m = sum_j w_j ((1 + x_j) / 2)^m: the
    atom series of the weights w_j / 2 on the points (1 + x_j) / 2. gamma_0
    is the float 1.0, as in `schemes.gamma_value`, so the m = 1 weight of
    the Nehari sum stays a float column. The halved columns die on return,
    before the series of p and q exist (`nehari_magnitudes`).
    """
    weights, points = _columns(atoms)
    return atom_coefficients([w * 0.5 for w in weights], [(x + 1.0) * 0.5 for x in points], m_max, 1.0)


def nehari_magnitudes(h, p, q, n: int, alpha: float, beta, k_max: int) -> np.ndarray:
    """|A_k| for k = 1..k_max, one row per trial.

    h, p and q are (weights, points) atom arrays with one row per trial.
    ``beta`` is one float or a float64 column with one per row (a complex
    column would turn the m = 1 weight's float divide into a complex one).
    The gamma ladder comes from h's atoms (`_ladder`), before the series of
    p and q exist: a 4096-row block at k_max 12 peaks at 58.6 complex
    columns of traced heap.
    """
    alpha = FLOAT.scalar(alpha)
    half = FLOAT.scalar(Fraction(1, 2))
    gammas = _ladder(h, k_max - 1)
    r = half_hadamard_coefficients(
        _generator_coefficients(p, k_max), _generator_coefficients(q, k_max), FLOAT.one, half
    )
    A = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, alpha, beta, FLOAT.zero)
    return _magnitudes(A[1:])
