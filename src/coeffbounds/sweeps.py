"""Vectorized random-trial sweeps for the verification suites.

The randomized suites run thousands of generator trials per parameter
point. `sample_atoms` draws the trials straight into zero-padded
``(trials, max_atoms)`` weight and point arrays (padding: weight 0, point
1) with `caratheodory.draw_atoms`, the package's one random draw, and
checks them with the `HerglotzAtoms` rules vectorized over the rows. The
margins then split those arrays into per-atom numpy columns and feed them
to the library's own coefficient kernels (the atom series, the transform,
the beta shift, the real power, the gamma ladder and the Nehari sum): the
scalar series classes and the sweeps run one implementation of every
recurrence, on backend scalars or on columns holding one value per trial.
Besides sampling, this module adds only the bounds, the stacking of the
margins into ``(trials, k)`` arrays and the summary.

Trials are processed in chunks of `CHUNK_TRIALS`, so memory stays flat in
the trial count. Each sweep keeps the worst margin (the first occurrence,
as ``np.argmin`` over all trials would give), the total number of
violations (margins below ``-bounds.SLACK``) and only the first five of
them in (trial, k) order.
`HerglotzAtoms` are built only to rebuild a witness.

Seed contract: the trials of a suite at a parameter point read one
counter-based atom stream whose 64-bit key is

    key = blake2b("{suite}|{seed}|{n}|{alpha}|{beta}|", digest_size=8)

interpreted big-endian (`stream_key`; nehari draws three streams, with
the suites "nehari:h", "nehari:p" and "nehari:q"). Uniform i of trial j is
the SplitMix64 finalizer of ``key + (j B + i + 1) * 0x9E3779B97F4A7C15``
(mod 2^64) with ``B = 1 + 2 max_atoms`` uniforms per trial; see
`caratheodory.draw_atoms` for how they become atoms. A block of trials is
one pass of numpy array operations, chunked and unchunked runs agree bit
for bit, and a failure report's (stream key, trial) pair is enough to
rebuild the offending generators with `caratheodory.trial_atoms`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends import FLOAT
from .bounds import SLACK
from .caratheodory import (
    _UNIMODULAR_TOL,
    _WEIGHT_SUM_TOL,
    MAX_ATOMS,
    HerglotzAtoms,
    atom_coefficients,
    draw_atoms,
    half_hadamard_coefficients,
    shift_coefficients,
    transform_coefficients,
    trial_atoms,
)
from .schemes import gamma_ladder, nehari_coefficients
from .series import real_power_coefficients


def _scalar_token(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def stream_key(seed: int, suite: str, n: int, alpha, beta) -> int:
    """64-bit key of the atom stream of one suite at one parameter point."""
    label = f"{suite}|{seed}|{n}|{_scalar_token(alpha)}|{_scalar_token(beta)}|"
    return int.from_bytes(hashlib.blake2b(label.encode("ascii"), digest_size=8).digest(), "big")


CHUNK_TRIALS = 4096
_MAX_LISTED_VIOLATIONS = 5


def sample_atoms(
    seed: int, suite: str, n: int, alpha, beta, start: int, stop: int, max_atoms: int = MAX_ATOMS
):
    """Checked atoms of trials start..stop-1 as zero-padded (weights, points) rows."""
    key = stream_key(seed, suite, n, alpha, beta)
    weights, points, counts = draw_atoms(key, start, stop, max_atoms)
    check_atom_rows(weights, points, counts)
    return weights, points


def check_atom_rows(weights: np.ndarray, points: np.ndarray, counts: np.ndarray) -> None:
    """The float `HerglotzAtoms` checks, over rows whose first counts[t] slots are used."""
    used = np.arange(weights.shape[1]) < counts[:, None]
    if not (weights[used] > 0).all():
        raise ValueError("weights must be positive")
    totals = weights.sum(axis=1)
    off = ~(np.abs(totals - 1.0) <= _WEIGHT_SUM_TOL)
    if off.any():
        raise ValueError(f"weights must sum to 1, got {float(totals[off][0])!r}")
    used_points = points[used]
    off = ~(np.abs(np.abs(used_points) - 1.0) <= _UNIMODULAR_TOL)
    if off.any():
        raise ValueError(f"point {complex(used_points[off][0])!r} is not unimodular")


def _columns(atoms) -> tuple:
    """Split (trials, max_atoms) weight and point arrays into per-atom columns."""
    return tuple(list(np.ascontiguousarray(a.T)) for a in atoms)


def _generator_coefficients(atoms, order: int) -> list:
    """Columns 1, b_1, ..., b_order of the generator series of each trial's atoms."""
    return atom_coefficients(*_columns(atoms), order, FLOAT.one, FLOAT.zero)


@dataclass(frozen=True)
class SweepOutcome:
    """Summary of one randomized sweep at one parameter point."""

    trials: int
    k_values: tuple
    worst_trial: int
    worst_k: int
    worst_margin: float
    violations: tuple  # first _MAX_LISTED_VIOLATIONS (trial, k, margin) rows with margin < -SLACK
    violation_count: int  # all such rows


def _chunked_sweep(trials: int, k_values: np.ndarray, margins_of) -> SweepOutcome:
    """Summarize ``margins_of(start, stop)`` over the trials, one chunk at a time."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    worst = worst_trial = worst_i = None
    violations = []
    count = 0
    for start in range(0, trials, CHUNK_TRIALS):
        margins = margins_of(start, min(start + CHUNK_TRIALS, trials))
        t, i = divmod(int(np.argmin(margins)), margins.shape[1])
        m = margins[t, i]
        # first occurrence wins, and so does the first NaN, as in np.argmin
        if worst is None or (not np.isnan(worst) and (np.isnan(m) or m < worst)):
            worst, worst_trial, worst_i = m, start + t, i
        bad = margins < -SLACK
        count += int(np.count_nonzero(bad))
        for flat in np.flatnonzero(bad)[: _MAX_LISTED_VIOLATIONS - len(violations)]:
            bt, bi = divmod(int(flat), margins.shape[1])
            violations.append((start + bt, int(k_values[bi]), float(margins[bt, bi])))
    return SweepOutcome(
        trials=trials,
        k_values=tuple(int(k) for k in k_values),
        worst_trial=worst_trial,
        worst_k=int(k_values[worst_i]),
        worst_margin=float(worst),
        violations=tuple(violations),
        violation_count=count,
    )


def dominance_sweep(seed: int, n: int, alpha: float, beta: float, trials: int, k_max: int) -> SweepOutcome:
    """Random generators against the sharp bound: margin = bound - |a_k|.

    Coefficients a_2..a_{k_max} only need the quotient series through order
    k_max - 1, and truncation is exact on leading coefficients, so the sweep
    runs at that reduced order.
    """
    def margins_of(start, stop):
        atoms = sample_atoms(seed, "random", n, alpha, beta, start, stop)
        return dominance_margins(*atoms, n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(2, k_max + 1), margins_of)


def dominance_margins(
    weights: np.ndarray, points: np.ndarray, n: int, alpha: float, beta: float, k_max: int
) -> np.ndarray:
    """Margins bound - |a_k| for k = 2..k_max, one row per row of atoms."""
    alpha, beta = FLOAT.scalar(alpha), FLOAT.scalar(beta)
    b = _generator_coefficients((weights, points), k_max - 1)
    g = shift_coefficients(transform_coefficients(b, alpha, n), beta, FLOAT.one)
    u = real_power_coefficients(g, 1 / alpha, FLOAT.one, FLOAT.zero)
    k = np.arange(2, k_max + 1)
    bound = 2.0 * (1.0 - beta) * alpha ** (n - 1) / (alpha + k - 1.0) ** n
    return bound - np.abs(np.stack(u[1:], axis=1))


def dominance_witness(seed: int, n: int, alpha, beta, trial: int) -> HerglotzAtoms:
    """Rebuild the generator a dominance-sweep trial used."""
    return trial_atoms(stream_key(seed, "random", n, alpha, beta), trial)


def nehari_sweep(seed: int, n: int, alpha: float, beta: float, trials: int, k_max: int) -> SweepOutcome:
    """Sampled alternating series against the claimed transform-weighted bound.

    Each trial draws three independent atom systems: h (whose coefficients
    feed the gamma ladder) and a generator pair (p, q) combined through the
    half-Hadamard rule b'_l = b_l c_l / 2, so that 1 + G is a Caratheodory
    member. The margin at k is 2 (1-beta) alpha^n / (alpha+k)^n - |A_k|;
    negative rows are genuine counterexamples to the claimed bound (expected
    for n >= 1 — see the audit notes in the verification harness).
    """
    def margins_of(start, stop):
        h, p, q = (
            sample_atoms(seed, role, n, alpha, beta, start, stop)
            for role in ("nehari:h", "nehari:p", "nehari:q")
        )
        return nehari_margins(h, p, q, n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(1, k_max + 1), margins_of)


def nehari_margins(h, p, q, n: int, alpha: float, beta: float, k_max: int) -> np.ndarray:
    """Margins 2 (1-beta) alpha^n / (alpha+k)^n - |A_k| for k = 1..k_max.

    h, p and q are (weights, points) atom arrays with one row per trial.
    """
    alpha, beta = FLOAT.scalar(alpha), FLOAT.scalar(beta)
    half = FLOAT.scalar(Fraction(1, 2))
    d = _generator_coefficients(h, k_max - 1)
    r = half_hadamard_coefficients(
        _generator_coefficients(p, k_max), _generator_coefficients(q, k_max), FLOAT.one, half
    )
    gammas = gamma_ladder(d[1:], k_max - 1, half)
    A = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, alpha, beta, FLOAT.zero)
    k = np.arange(1, k_max + 1)
    bound = 2.0 * (1.0 - beta) * alpha**n / (alpha + k.astype(np.float64)) ** n
    return bound - np.abs(np.stack(A[1:], axis=1))


def nehari_witness(seed: int, n: int, alpha, beta, trial: int):
    """Rebuild the (h, p, q) atom systems a nehari-sweep trial used."""
    return tuple(
        trial_atoms(stream_key(seed, role, n, alpha, beta), trial)
        for role in ("nehari:h", "nehari:p", "nehari:q")
    )
