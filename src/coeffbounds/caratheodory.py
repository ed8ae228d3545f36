"""Carathéodory-class generators and the iterated integral transform.

Members of the class P (analytic, p(0) = 1, positive real part) are modeled
as finite convex combinations of rotated Moebius kernels,

    p(z) = sum_j  lambda_j (1 + x_j z) / (1 - x_j z),     |x_j| = 1,

whose k-th coefficient is b_k = 2 sum_j lambda_j x_j^k, so |b_k| <= 2 always.
On the rational backend the unimodular points come from the Pythagorean
parametrization (exactly on the circle), or are given outright as exact
points for the few angles the parametrization cannot reach (x = -1).

The iterated integral transform acts diagonally on coefficients: one
application multiplies the k-th coefficient by alpha / (alpha + k), and n
applications by (alpha / (alpha + k))^n, with the constant term fixed at 1.

numpy is imported inside the functions that build arrays (`check_atom_rows`
and the atom stream), which only the sweeps call, so the exact and scalar
paths never load it.
"""

from __future__ import annotations

import cmath
import math

from ._rational import RationalComplex, Ratio, t_from_unimodular, unimodular_from_t
from .backends import FLOAT, RATIONAL, Backend, get_backend
from .series import TruncatedSeries

_WEIGHT_SUM_TOL = 1e-12
_UNIMODULAR_TOL = 1e-12
#: The fields an atom of each backend's documents may carry.
_ATOM_FIELDS = {"float": {"weight", "angle_radians"}, "rational": {"weight", "t", "x_re", "x_im"}}
#: Largest atom count of a random generator (the count is uniform on 1..MAX_ATOMS).
MAX_ATOMS = 4


# -- coefficient kernels ------------------------------------------------------
#
# Plain functions over coefficient sequences whose entries are backend
# scalars or 1-D numpy columns (one value per trial); see `series`.


def atom_coefficients(weights, points, order: int, one) -> list:
    """1, b_1, ..., b_order with b_k = 2 sum_j w_j x_j^k.

    Each atom keeps its running weighted power t_j = (2 w_j) x_j^k, one
    product per atom and order, and b_k is the sum of the t_j. Each t_j is
    a fresh product, never updated in place (see `series`).
    """
    coeffs = [one]
    terms = [w + w for w in weights]
    for _ in range(order):
        terms = [t * x for t, x in zip(terms, points)]
        acc = terms[0] + terms[1] if len(terms) > 1 else terms[0]
        for t in terms[2:]:
            acc += t
        coeffs.append(acc)
    return coeffs


def half_hadamard_coefficients(p, q, one, half) -> list:
    """1, half p_1 q_1, half p_2 q_2, ...: the Nehari-Netanyahu composition."""
    return [one, *(half * (pk * qk) for pk, qk in zip(p[1:], q[1:]))]


def transform_coefficients(coeffs, alpha, n: int, zero) -> list:
    """Multiply the k-th coefficient by (alpha / (alpha + k))^n, k >= 1.

    That is n applications of p -> (alpha / z^alpha) integral_0^z t^(alpha-1) p(t) dt.
    An entry that is the caller's ``zero`` object passes through unchanged
    (see `series.real_power_coefficients`).
    """
    if n == 0:
        return list(coeffs)
    out = [coeffs[0]]
    for k in range(1, len(coeffs)):
        c = coeffs[k]
        out.append(c if c is zero else (alpha / (alpha + k)) ** n * c)
    return out


def shift_coefficients(coeffs, beta, one, zero) -> list:
    """beta + (1 - beta) p for p_0 = 1: every coefficient past the first times 1 - beta.

    An entry that is the caller's ``zero`` object passes through unchanged.
    """
    one_minus = 1 - beta
    return [one, *(c if c is zero else one_minus * c for c in coeffs[1:])]


def check_atom_rows(weights, points, counts) -> None:
    """The float atom rules over numpy rows whose first counts[t] slots are used.

    Used weights are positive, each row's weights sum to 1 within
    `_WEIGHT_SUM_TOL` and used points lie within `_UNIMODULAR_TOL` of the
    unit circle. Each comparison is written so that NaN fails it, and unused
    points are masked out of the last rule.
    """
    import numpy as np

    used = (np.arange(weights.shape[1])[:, None] < counts).T  # atom-major, as `draw_atoms` stores
    if not ((weights > 0) | ~used).all():
        raise ValueError("weights must be positive")
    totals = weights.sum(axis=1)
    off = ~(np.abs(totals - 1.0) <= _WEIGHT_SUM_TOL)
    if off.any():
        raise ValueError(f"weights must sum to 1, got {float(totals[off][0])!r}")
    off = ~(np.abs(np.abs(points) - 1.0) <= _UNIMODULAR_TOL)
    off &= used
    if off.any():
        raise ValueError(f"point {complex(points[off][0])!r} is not unimodular")


def _check_atom_row(weights: tuple, points: tuple) -> None:
    """`check_atom_rows` on one row of Python floats and complexes.

    The rules, their order and the messages are the same. The sum runs left
    to right, as numpy sums a row of up to 7 weights; the moduli come from
    `math.hypot`, which may round the last bit unlike numpy's `abs`.
    """
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    total = 0.0
    for w in weights:
        total += w
    if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    for x in points:
        if not abs(math.hypot(x.real, x.imag) - 1.0) <= _UNIMODULAR_TOL:
            raise ValueError(f"point {x!r} is not unimodular")


class HerglotzAtoms:
    """Finite atomic Herglotz data: positive weights on unimodular points.

    Float atoms obey the rules of `check_atom_rows`; rational atoms obey
    the same rules exactly.
    """

    __slots__ = ("backend", "weights", "points")

    def __init__(self, weights, points, *, backend: Backend = FLOAT):
        weights = tuple(backend.scalar(w) for w in weights)
        points = tuple(backend.coeff(x) for x in points)
        if not weights or len(weights) != len(points):
            raise ValueError("need one weight per point, at least one atom")
        if backend is RATIONAL:
            if any(w <= 0 for w in weights):
                raise ValueError("weights must be positive")
            total = sum(weights)
            if total != 1:
                raise ValueError(f"weights must sum to 1 exactly, got {total}")
            for x in points:
                if x.abs2() != 1:
                    raise ValueError(f"point {x} is not exactly unimodular")
        else:
            _check_atom_row(weights, points)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError("HerglotzAtoms is immutable")

    def __len__(self):
        return len(self.weights)

    def __eq__(self, other):
        if not isinstance(other, HerglotzAtoms):
            return NotImplemented
        return (
            self.backend is other.backend
            and self.weights == other.weights
            and self.points == other.points
        )

    def __repr__(self):
        return f"HerglotzAtoms({len(self)} atoms, backend={self.backend.name})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_angles(cls, weights, angles) -> "HerglotzAtoms":
        """Float-backend atoms from angles in radians."""
        points = [cmath.exp(1j * float(a)) for a in angles]
        return cls(weights, points, backend=FLOAT)

    @classmethod
    def from_rational(cls, weights, ts) -> "HerglotzAtoms":
        """Rational-backend atoms from Pythagorean parameters t."""
        points = [unimodular_from_t(t) for t in ts]
        return cls(weights, points, backend=RATIONAL)

    # -- series -----------------------------------------------------------

    def series(self, order: int) -> TruncatedSeries:
        """1 + sum_k b_k z^k with b_k = 2 sum_j lambda_j x_j^k."""
        backend = self.backend
        coeffs = atom_coefficients(self.weights, self.points, order, backend.one)
        return TruncatedSeries(coeffs, order, backend=backend)

    # -- serialization ------------------------------------------------------

    def to_document(self) -> dict:
        """JSON-ready atom document.

        Float backend: {"atoms": [{"weight": w, "angle_radians": a}]}.
        Rational backend: weights and points as exact fraction strings; the
        Pythagorean parameter "t" when it exists, otherwise the explicit
        point ("x_re"/"x_im", needed only for x = -1).
        """
        if self.backend is FLOAT:
            atoms = [
                {"weight": float(w), "angle_radians": math.atan2(x.imag, x.real)}
                for w, x in zip(self.weights, self.points)
            ]
            return {"backend": "float", "atoms": atoms}
        atoms = []
        for w, x in zip(self.weights, self.points):
            entry = {"weight": str(Ratio(w))}
            try:
                entry["t"] = str(t_from_unimodular(x))
            except ValueError:
                entry["x_re"] = str(x.re)
                entry["x_im"] = str(x.im)
            atoms.append(entry)
        return {"backend": "rational", "atoms": atoms}

    @classmethod
    def from_document(cls, doc: dict) -> "HerglotzAtoms":
        """Parse an atom document (the inverse of :meth:`to_document`).

        Rational weights, t parameters and explicit points are fraction
        strings. A document or atom field the backend does not read is an
        error, and so is a rational atom that gives both t and the point.
        """
        if not isinstance(doc, dict) or "atoms" not in doc:
            raise ValueError("atom document must be an object with an 'atoms' list")
        unknown = sorted(set(doc) - {"backend", "atoms"})
        if unknown:
            raise ValueError(f"unknown document fields {unknown}")
        raw = doc["atoms"]
        # before _doc_backend, which may read the first atom
        if not isinstance(raw, list) or not raw:
            raise ValueError("'atoms' must be a non-empty list")
        backend = _doc_backend(doc)
        weights, points, angles = [], [], []
        fields = _ATOM_FIELDS[backend.name]
        for entry in raw:
            if not isinstance(entry, dict):
                raise ValueError("each atom must be an object")
            unknown = sorted(set(entry) - fields)
            if unknown:
                raise ValueError(f"unknown {backend.name} atom fields {unknown}")
            if "weight" not in entry:
                raise ValueError("atom entry missing 'weight'")
            if backend is FLOAT:
                # FLOAT.scalar refuses a JSON boolean, which float() would read as 0 or 1
                weights.append(FLOAT.scalar(entry["weight"]))
                if "angle_radians" in entry:
                    angles.append(FLOAT.scalar(entry["angle_radians"]))
                else:
                    raise ValueError("float atom needs 'angle_radians'")
            else:
                weights.append(Ratio(str(entry["weight"])))
                if "t" in entry and ("x_re" in entry or "x_im" in entry):
                    raise ValueError("rational atom takes 't' or 'x_re'/'x_im', not both")
                if "t" in entry:
                    points.append(unimodular_from_t(Ratio(str(entry["t"]))))
                elif "x_re" in entry and "x_im" in entry:
                    points.append(
                        RationalComplex(Ratio(str(entry["x_re"])), Ratio(str(entry["x_im"])))
                    )
                else:
                    raise ValueError("rational atom needs 't' or 'x_re'/'x_im'")
        if backend is FLOAT:
            return cls.from_angles(weights, angles)
        return cls(weights, points, backend=RATIONAL)


def _doc_backend(doc: dict) -> Backend:
    if not isinstance(doc, dict):
        raise ValueError(f"atom document must be an object, got {type(doc).__name__}")
    name = doc.get("backend")
    if name is not None:
        return get_backend(name)
    # infer from the first atom's fields
    atoms = doc.get("atoms") or [{}]
    first = atoms[0] if isinstance(atoms[0], dict) else {}
    if "angle_radians" in first:
        return FLOAT
    return RATIONAL


# -- the atom stream -----------------------------------------------------------
#
# SplitMix64 (Steele, Lea & Flood, OOPSLA'14) read as a counter-based
# generator (Salmon et al., SC'11): output m >= 1 of the stream with 64-bit
# key K is the finalizer applied to K + m * GOLDEN (mod 2^64), so any block
# of outputs is a handful of uint64 array operations and needs no state.
# Array arithmetic wraps silently; uint64 *scalar* arithmetic would warn.

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _uniforms(runs):
    """Uniforms first..stop-1 of stream key for each run (key, first, stop), back to back.

    Each run's counters become its uint64 column of key + m * GOLDEN, and one
    finalizer pass over all the columns turns them into doubles
    (x >> 11) 2^-53 in [0, 1). Every step is elementwise, so a run's
    uniforms do not depend on the runs around it.
    """
    import numpy as np

    z = np.empty(sum(stop - first for _, first, stop in runs), dtype=np.uint64)
    at = 0
    for key, first, stop in runs:
        column = z[at : at + stop - first]
        np.multiply(np.arange(first + 1, stop + 1, dtype=np.uint64), np.uint64(_GOLDEN), out=column)
        column += np.uint64(key)
        at += stop - first
    shifted = np.empty_like(z)  # the finalizer runs in place, with this one scratch array
    z ^= np.right_shift(z, 30, out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, 27, out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, 31, out=shifted)
    z >>= 11
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def draw_atoms(segments):
    """Atom systems of the segments (key, start, stop), as padded rows.

    This is the only random draw in the package. A segment is trials
    start..stop-1 of stream ``key``, and the rows of all segments come back
    to back, in order, from one pass: one block of a sweep draws each role's
    segments, one per point, with one call. Trial j of a stream reads the
    B = 2 MAX_ATOMS uniforms jB .. jB + B - 1 of that stream: the atom count
    c, uniform on 1..MAX_ATOMS, then MAX_ATOMS point uniforms, then
    MAX_ATOMS - 1 weight uniforms; the first c point uniforms and c - 1
    weight uniforms are used. From the uniforms on, the draw is +, -, *, /
    and floor, min and max, which IEEE 754 rounds alike on every host, and no
    transcendental function.

    - Point: with q = floor(4u) and t = 2(4u - q) - 1 in [-1, 1), both exact,
      x = i^q ((1 - t^2) + 2ti) / (1 + t^2), the float form of the exactly
      unimodular i^q (1 + it) / (1 - it); each part is within 4 * 2^-53 of it.
      The multiply by i^q is exact. The law on the circle is invariant under
      quarter turns but not uniform: every angle is reached from two of the
      four turned half-circle arcs 2 arctan t, and the density varies by
      about a factor 1.3.
    - Weights: the spacings 0 = s_0 <= s_1 <= ... <= s_{c-1} <= 1 of the used
      weight uniforms, sorted by an odd-even min/max network after the unused
      ones are set to 1.0, so unused slots get spacing 0. This is
      Dirichlet(1, ..., 1), uniform on the probability simplex. Every weight
      is a multiple of 2^-53, so each row sums to exactly 1.0 in any order.
      Two equal weight uniforms, or a zero one, give a zero weight, which
      `check_atom_rows` refuses: a chance of about 1e-15 per trial.

    Every step is elementwise per row, so trial j drawn alone (the segment
    (key, j, j + 1)) is the same row as in any draw that contains it.

    Returns ``(weights, points, counts)``: (rows, MAX_ATOMS) arrays whose
    first counts[t] slots of row t are used, padded with weight 0 and point 1.
    The two arrays are stored atom-major, so ``weights.T`` and ``points.T``
    are C-contiguous.
    Every row passes `check_atom_rows`.
    """
    segments = list(segments)
    for key, start, stop in segments:
        if not 0 <= key < 2**64:
            raise ValueError(f"stream key must be a 64-bit unsigned integer, got {key!r}")
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got {start!r}, {stop!r}")
    import numpy as np

    width = 2 * MAX_ATOMS
    u = _uniforms([(key, start * width, stop * width) for key, start, stop in segments]).reshape(-1, width)
    rows = len(u)
    counts = np.minimum(1 + (u[:, 0] * MAX_ATOMS).astype(np.intp), MAX_ATOMS)
    # the point and weight uniforms, atom-major, with the unused ones padded:
    # a point uniform of 1/8 gives t = q = 0 and so the point 1 exactly, and a
    # weight uniform of 1.0 sorts last and leaves a spacing of 0. Point
    # uniform j is used when atom j is, weight uniform j when atom j + 1 is.
    atom = np.array([*range(MAX_ATOMS), *range(1, MAX_ATOMS)])[:, None]
    pad = np.array([0.125] * MAX_ATOMS + [1.0] * (MAX_ATOMS - 1))[:, None]
    slots = np.where(atom >= counts, pad, u[:, 1:].T)
    t, sorted_u = slots[:MAX_ATOMS], list(slots[MAX_ATOMS:])
    t *= 4.0
    q = np.floor(t)
    t -= q
    t *= 2.0
    t -= 1.0
    squares = t * t
    denominators = squares + 1.0
    points = np.empty((MAX_ATOMS, rows), dtype=np.complex128)
    np.subtract(1.0, squares, out=points.real)
    points.real /= denominators
    np.multiply(2.0, t, out=points.imag)
    points.imag /= denominators
    points *= np.array([1, 1j, -1, -1j])[q.astype(np.intp)]
    # odd-even transposition sort: rounds of min/max on neighbouring columns
    for r in range(len(sorted_u)):
        for i in range(r % 2, len(sorted_u) - 1, 2):
            low, high = sorted_u[i], sorted_u[i + 1]
            sorted_u[i] = np.minimum(low, high)
            np.maximum(low, high, out=high)
    edges = [0.0, *sorted_u, 1.0]
    weights = np.empty((MAX_ATOMS, rows))
    for j, column in enumerate(weights):
        np.subtract(edges[j + 1], edges[j], out=column)
    weights, points = weights.T, points.T
    check_atom_rows(weights, points, counts)
    return weights, points, counts


def trial_atoms(key: int, trial: int) -> HerglotzAtoms:
    """The atoms of one trial of stream ``key``: the one-row draw trial..trial+1."""
    weights, points, counts = draw_atoms([(key, trial, trial + 1)])
    used = counts[0]
    return HerglotzAtoms(weights[0, :used].tolist(), points[0, :used].tolist())

