"""Vectorized random-trial sweeps for the verification suites.

The randomized suites run thousands of generator trials per parameter
point. `sample_atoms` draws the trials straight into zero-padded
``(trials, max_atoms)`` weight and point arrays (padding: weight 0, point
1), through the same `draw_atoms` routine `random_herglotz` uses, and checks
them with the `HerglotzAtoms` rules vectorized over the rows. The series
arithmetic — atom powers, the transform, the real-power recurrence, batch
Cauchy products — then runs across the trials in numpy.

Trials are processed in chunks of `CHUNK_TRIALS`, so memory stays flat in
the trial count. Each sweep keeps the worst margin (the first occurrence,
as ``np.argmin`` over all trials would give), the total number of
violations and only the first five of them in (trial, k) order.
`HerglotzAtoms` are built only to rebuild a witness. The scalar helpers
at the bottom recompute a single trial through the series classes; tests
pin the two paths together.

Seed splitting is deterministic and documented: trial j of a suite at a
parameter point draws its atoms from ``random.Random(s)`` with

    s = blake2b("{suite}|{seed}|{n}|{alpha}|{beta}|{trial}", digest_size=8)

interpreted big-endian (one reused ``Random`` reseeded with ``seed(s)``
gives the same stream), so chunked and unchunked runs agree and a failure
report's (suite, seed, parameters, trial) tuple is enough to rebuild the
offending generators anywhere.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import ClassParams, f_from_p, sharp_bound
from .caratheodory import (
    _UNIMODULAR_TOL,
    _WEIGHT_SUM_TOL,
    HerglotzAtoms,
    draw_atoms,
    half_hadamard,
    random_herglotz,
)
from .schemes import nehari_series
from .series import constant_one


def _scalar_token(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def _point_key(seed: int, suite: str, n: int, alpha, beta) -> str:
    """The part of a trial's seed key that is shared by every trial of a point."""
    return f"{suite}|{seed}|{n}|{_scalar_token(alpha)}|{_scalar_token(beta)}|"


def _keyed_seed(point_key: str, trial: int) -> int:
    digest = hashlib.blake2b(f"{point_key}{trial}".encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def trial_seed(seed: int, suite: str, n: int, alpha, beta, trial: int) -> int:
    """Per-trial RNG seed derived from the suite position (stable everywhere)."""
    return _keyed_seed(_point_key(seed, suite, n, alpha, beta), trial)


CHUNK_TRIALS = 4096
_MAX_LISTED_VIOLATIONS = 5


def sample_atoms(seed: int, suite: str, n: int, alpha, beta, start: int, stop: int, max_atoms: int = 4):
    """Atoms of trials start..stop-1 as zero-padded (weights, points) rows.

    Row j holds the atoms of ``random_herglotz(trial_seed(seed, suite, n,
    alpha, beta, start + j), max_atoms)`` bit for bit, padded to max_atoms
    columns with weight 0 and point 1.
    """
    rows = stop - start
    weights = np.zeros((rows, max_atoms))
    points = np.ones((rows, max_atoms), dtype=np.complex128)
    counts = np.empty(rows, dtype=np.intp)
    point_key = _point_key(seed, suite, n, alpha, beta)
    rng = random.Random()
    for j in range(rows):
        rng.seed(_keyed_seed(point_key, start + j))
        w, x = draw_atoms(rng, max_atoms)
        counts[j] = len(w)
        weights[j, : len(w)] = w
        points[j, : len(x)] = x
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


def batch_series(weights: np.ndarray, points: np.ndarray, order: int) -> np.ndarray:
    """Coefficient rows 1 + sum_k (2 sum_j w_j x_j^k) z^k, one per trial."""
    trials = weights.shape[0]
    coeffs = np.empty((trials, order + 1), dtype=np.complex128)
    coeffs[:, 0] = 1.0
    cur = np.ones_like(points)
    for k in range(1, order + 1):
        cur = cur * points
        coeffs[:, k] = 2.0 * np.einsum("ta,ta->t", weights, cur)
    return coeffs


def batch_real_power(g: np.ndarray, c: float) -> np.ndarray:
    """Row-wise g^c for rows with g[:, 0] = 1 (same recurrence as the scalar path)."""
    trials, width = g.shape
    u = np.zeros_like(g)
    u[:, 0] = 1.0
    for k in range(1, width):
        j = np.arange(1, k + 1)
        w = c * j - (k - j)
        u[:, k] = (w * g[:, 1 : k + 1] * u[:, k - 1 :: -1]).sum(axis=1) * (1.0 / k)
    return u


def batch_power_quotient(b: np.ndarray, n: int, alpha: float, beta: float) -> np.ndarray:
    """Rows of (f/z): transform the generator rows, shift by beta, take the 1/alpha power."""
    width = b.shape[1]
    l = np.arange(1, width, dtype=np.float64)
    factor = (1.0 - beta) * (alpha / (alpha + l)) ** n
    g = np.empty_like(b)
    g[:, 0] = 1.0
    g[:, 1:] = factor * b[:, 1:]
    return batch_real_power(g, 1.0 / alpha)


def batch_cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated Cauchy product of two equal-shape coefficient arrays."""
    width = a.shape[1]
    out = np.zeros_like(a)
    for k in range(width):
        out[:, k] = np.einsum("tj,tj->t", a[:, : k + 1], b[:, k :: -1])
    return out


def batch_gammas(d: np.ndarray, m_max: int) -> np.ndarray:
    """Row-wise ladder gamma_0..gamma_{m_max} from coefficient rows d_1, d_2, ...."""
    comb = np.zeros((m_max + 1, m_max))
    for m in range(m_max + 1):
        for mu in range(1, m + 1):
            comb[m, mu - 1] = math.comb(m, mu)
    halves = 0.5 ** np.arange(m_max + 1)
    return (1.0 + 0.5 * (d[:, :m_max] @ comb.T)) * halves


@dataclass(frozen=True)
class SweepOutcome:
    """Summary of one randomized sweep at one parameter point."""

    trials: int
    k_values: tuple
    worst_trial: int
    worst_k: int
    worst_margin: float
    violations: tuple  # first _MAX_LISTED_VIOLATIONS (trial, k, margin) rows with margin < -slack
    violation_count: int  # all such rows


def _chunked_sweep(trials: int, k_values: np.ndarray, slack: float, margins_of) -> SweepOutcome:
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
        bad = margins < -slack
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


def dominance_sweep(
    seed: int,
    n: int,
    alpha: float,
    beta: float,
    trials: int,
    k_max: int,
    *,
    max_atoms: int = 4,
    slack: float = 1e-9,
) -> SweepOutcome:
    """Random generators against the sharp bound: margin = bound - |a_k|.

    Coefficients a_2..a_{k_max} only need the quotient series through order
    k_max - 1, and truncation is exact on leading coefficients, so the sweep
    runs at that reduced order.
    """
    def margins_of(start, stop):
        atoms = sample_atoms(seed, "random", n, alpha, beta, start, stop, max_atoms)
        return dominance_margins(*atoms, n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(2, k_max + 1), slack, margins_of)


def dominance_margins(
    weights: np.ndarray, points: np.ndarray, n: int, alpha: float, beta: float, k_max: int
) -> np.ndarray:
    """Margins bound - |a_k| for k = 2..k_max, one row per row of atoms."""
    b = batch_series(weights, points, k_max - 1)
    u = batch_power_quotient(b, n, alpha, beta)
    k = np.arange(2, k_max + 1)
    bound = 2.0 * (1.0 - beta) * alpha ** (n - 1) / (alpha + k - 1.0) ** n
    return bound - np.abs(u[:, 1:k_max])


def dominance_witness(seed: int, n: int, alpha, beta, trial: int, *, max_atoms: int = 4) -> HerglotzAtoms:
    """Rebuild the generator a dominance-sweep trial used."""
    return random_herglotz(trial_seed(seed, "random", n, alpha, beta, trial), max_atoms)


def dominance_margins_scalar(atoms: HerglotzAtoms, n: int, alpha, beta, k_max: int):
    """One trial of the dominance sweep through the scalar series pipeline."""
    params = ClassParams(n, alpha, beta)
    f = f_from_p(atoms, params, k_max)
    return [
        float(sharp_bound(params, k)) - abs(f.coefficient(k)) for k in range(2, k_max + 1)
    ]


def nehari_sweep(
    seed: int,
    n: int,
    alpha: float,
    beta: float,
    trials: int,
    k_max: int,
    *,
    max_atoms: int = 4,
    slack: float = 1e-9,
) -> SweepOutcome:
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
            sample_atoms(seed, role, n, alpha, beta, start, stop, max_atoms)
            for role in ("nehari:h", "nehari:p", "nehari:q")
        )
        return nehari_margins(h, p, q, n, alpha, beta, k_max)

    return _chunked_sweep(trials, np.arange(1, k_max + 1), slack, margins_of)


def nehari_margins(h, p, q, n: int, alpha: float, beta: float, k_max: int) -> np.ndarray:
    """Margins 2 (1-beta) alpha^n / (alpha+k)^n - |A_k| for k = 1..k_max.

    h, p and q are (weights, points) atom arrays with one row per trial.
    """
    d = batch_series(*h, k_max - 1)
    G = 0.5 * batch_series(*p, k_max) * batch_series(*q, k_max)
    G[:, 0] = 0.0
    gammas = batch_gammas(d[:, 1:], k_max - 1)
    A = np.zeros_like(G)
    power = G.copy()
    for m in range(1, k_max + 1):
        eta = (1.0 - beta) * alpha**n * gammas[:, m - 1] / (alpha + m - 1.0) ** n
        if m % 2 == 0:
            eta = -eta
        A += eta[:, None] * power
        if m < k_max:
            power = batch_cauchy(power, G)
    k = np.arange(1, k_max + 1)
    bound = 2.0 * (1.0 - beta) * alpha**n / (alpha + k.astype(np.float64)) ** n
    return bound - np.abs(A[:, 1:])


def nehari_witness(seed: int, n: int, alpha, beta, trial: int, *, max_atoms: int = 4):
    """Rebuild the (h, p, q) atom systems a nehari-sweep trial used."""
    return tuple(
        random_herglotz(trial_seed(seed, role, n, alpha, beta, trial), max_atoms)
        for role in ("nehari:h", "nehari:p", "nehari:q")
    )


def nehari_margins_scalar(h_atoms, p_atoms, q_atoms, n: int, alpha, beta, k_max: int):
    """One trial of the nehari sweep through the scalar series pipeline."""
    h = h_atoms.series(k_max - 1)
    r = half_hadamard(p_atoms.series(k_max), q_atoms.series(k_max))
    G = r - constant_one(k_max)
    A = nehari_series(h, G, ClassParams(n, alpha, beta), k_max)
    af = float(alpha)
    bf = float(beta)
    return [
        2.0 * (1.0 - bf) * af**n / (af + k) ** n - abs(A.coefficient(k))
        for k in range(1, k_max + 1)
    ]
