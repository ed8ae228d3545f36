"""Vectorized random-trial sweeps for the verification suites.

The randomized suites run thousands of generator trials per parameter
point. Each sweep draws its trials with `caratheodory.draw_atoms`, the
package's one random draw, which returns zero-padded ``(trials,
MAX_ATOMS)`` weight and point arrays (padding: weight 0, point 1) that
already pass the float `HerglotzAtoms` rules. The margins split those
arrays into per-atom numpy columns and feed them to the library's own
coefficient kernels (the atom series, the transform, the beta shift, the
real power, the gamma ladder and the Nehari sum): the scalar series
classes and the sweeps run one implementation of every recurrence, on
backend scalars or on columns holding one value per trial. Besides the
stream keys, this module adds only the claimed Nehari bound, the stacking
of the margins into ``(trials, k)`` arrays and the summary.

Trials are processed in chunks of `CHUNK_TRIALS`, so memory stays flat in
the trial count. Each sweep keeps the worst margin (the first occurrence,
as ``np.argmin`` over all trials would give), the total number of
violations (margins below ``-bounds.SLACK``, and NaN margins, which never
pass) and only the first five of them in (trial, k) order.

Seed contract: each role of a suite at a parameter point reads one
counter-based atom stream whose 64-bit key is

    key = blake2b("{label}|{seed}|{n}|{alpha}|{beta}|", digest_size=8)

interpreted big-endian (`stream_key`), where `STREAM_LABELS` maps the
role to its label: the dominance sweep's one role "random" reads
"random", and the nehari sweep's roles h, p and q read "nehari:h",
"nehari:p" and "nehari:q". Uniform i of trial j is the SplitMix64
finalizer of ``key + (j B + i + 1) * 0x9E3779B97F4A7C15`` (mod 2^64) with
``B = 1 + 2 MAX_ATOMS`` uniforms per trial; see `caratheodory.draw_atoms`
for how they become atoms. A block of trials is one pass of numpy array
operations, and chunked and unchunked runs agree bit for bit. A sweep's
`SweepOutcome` carries its role -> key map, and a (stream key, trial)
pair is enough to rebuild the trial's atoms with
`caratheodory.trial_atoms`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends import FLOAT
from .bounds import SLACK, ClassParams, sharp_bounds
from .caratheodory import (
    atom_coefficients,
    draw_atoms,
    half_hadamard_coefficients,
    shift_coefficients,
    transform_coefficients,
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


#: The stream label each sampling role reads; see the seed contract above.
STREAM_LABELS = {"random": "random", "h": "nehari:h", "p": "nehari:p", "q": "nehari:q"}


def _stream_keys(seed: int, roles, n: int, alpha, beta) -> dict:
    return {role: stream_key(seed, STREAM_LABELS[role], n, alpha, beta) for role in roles}


CHUNK_TRIALS = 4096
_MAX_LISTED_VIOLATIONS = 5


def _columns(atoms) -> tuple:
    """Split (trials, MAX_ATOMS) weight and point arrays into per-atom complex columns.

    The weights are cast to complex128 once here, so each product w x^k in
    the atom series is one complex multiply with no per-product cast; numpy
    would cast a float weight to complex for that same multiply anyway.
    """
    weights, points = atoms
    return list(weights.T.astype(np.complex128, order="C")), list(np.ascontiguousarray(points.T))


def _generator_coefficients(atoms, order: int) -> list:
    """Columns 1, b_1, ..., b_order of the generator series of each trial's atoms."""
    return atom_coefficients(*_columns(atoms), order, FLOAT.one, FLOAT.zero)


@dataclass(frozen=True)
class SweepOutcome:
    """Summary of one randomized sweep at one parameter point."""

    trials: int
    k_values: tuple
    stream_keys: dict  # role -> key of the atom stream the role's trials read
    worst_trial: int
    worst_k: int
    worst_margin: float
    violations: tuple  # first _MAX_LISTED_VIOLATIONS (trial, k, margin) rows, margin < -SLACK or NaN
    violation_count: int  # all such rows


def _chunked_sweep(trials: int, k_values: np.ndarray, stream_keys: dict, margins_of) -> SweepOutcome:
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
        bad = ~(margins >= -SLACK)  # a NaN margin is a violation too
        count += int(np.count_nonzero(bad))
        for flat in np.flatnonzero(bad)[: _MAX_LISTED_VIOLATIONS - len(violations)]:
            bt, bi = divmod(int(flat), margins.shape[1])
            violations.append((start + bt, int(k_values[bi]), float(margins[bt, bi])))
    return SweepOutcome(
        trials=trials,
        k_values=tuple(int(k) for k in k_values),
        stream_keys=stream_keys,
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
    keys = _stream_keys(seed, ("random",), n, alpha, beta)

    def margins_of(start, stop):
        return dominance_margins(*draw_atoms(keys["random"], start, stop)[:2], n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(2, k_max + 1), keys, margins_of)


def dominance_margins(
    weights: np.ndarray, points: np.ndarray, n: int, alpha: float, beta: float, k_max: int
) -> np.ndarray:
    """Margins bound - |a_k| for k = 2..k_max, one row per row of atoms."""
    alpha, beta = FLOAT.scalar(alpha), FLOAT.scalar(beta)
    b = _generator_coefficients((weights, points), k_max - 1)
    g = shift_coefficients(transform_coefficients(b, alpha, n), beta, FLOAT.one)
    u = real_power_coefficients(g, 1 / alpha, FLOAT.one, FLOAT.zero)
    params = ClassParams(n, alpha, beta)
    bound = np.array(sharp_bounds(params, k_max))
    return bound - np.abs(np.stack(u[1:], axis=1))


def nehari_sweep(seed: int, n: int, alpha: float, beta: float, trials: int, k_max: int) -> SweepOutcome:
    """Sampled alternating series against the claimed transform-weighted bound.

    Each trial draws three independent atom systems: h (whose coefficients
    feed the gamma ladder) and a generator pair (p, q) combined through the
    half-Hadamard rule b'_l = b_l c_l / 2, so that 1 + G is a Caratheodory
    member. The margin at k is 2 (1-beta) alpha^n / (alpha+k)^n - |A_k|;
    negative rows are genuine counterexamples to the claimed bound (expected
    for n >= 1 — see the audit notes in the verification harness).
    """
    keys = _stream_keys(seed, ("h", "p", "q"), n, alpha, beta)

    def margins_of(start, stop):
        h, p, q = (draw_atoms(key, start, stop)[:2] for key in keys.values())
        return nehari_margins(h, p, q, n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(1, k_max + 1), keys, margins_of)


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

