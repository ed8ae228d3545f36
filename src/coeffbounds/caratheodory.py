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
from fractions import Fraction

from ._rational import RationalComplex, t_from_unimodular, unimodular_from_t
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


def atom_coefficients(weights, points, order: int, one, zero) -> list:
    """1, b_1, ..., b_order with b_k = 2 sum_j w_j x_j^k."""
    coeffs = [one]
    powers = list(points)
    for _ in range(order):
        acc = zero
        for w, p in zip(weights, powers):
            acc += w * p
        acc += acc
        coeffs.append(acc)
        powers = [p * x for p, x in zip(powers, points)]
    return coeffs


def half_hadamard_coefficients(p, q, one, half) -> list:
    """1, half p_1 q_1, half p_2 q_2, ...: the Nehari-Netanyahu composition."""
    return [one, *(half * (pk * qk) for pk, qk in zip(p[1:], q[1:]))]


def transform_coefficients(coeffs, alpha, n: int) -> list:
    """Multiply the k-th coefficient by (alpha / (alpha + k))^n, k >= 1.

    That is n applications of p -> (alpha / z^alpha) integral_0^z t^(alpha-1) p(t) dt.
    """
    if n == 0:
        return list(coeffs)
    out = [coeffs[0]]
    for k in range(1, len(coeffs)):
        w = alpha / (alpha + k)
        out.append((w**n) * coeffs[k])
    return out


def shift_coefficients(coeffs, beta, one) -> list:
    """beta + (1 - beta) p for p_0 = 1: every coefficient past the first times 1 - beta."""
    one_minus = 1 - beta
    return [one, *(one_minus * c for c in coeffs[1:])]


def check_atom_rows(weights, points, counts) -> None:
    """The float atom rules over numpy rows whose first counts[t] slots are used.

    Used weights are positive, each row's weights sum to 1 within
    `_WEIGHT_SUM_TOL` and used points lie within `_UNIMODULAR_TOL` of the
    unit circle. Each comparison is written so that NaN fails it.
    """
    import numpy as np

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
        _fill_atoms(self, backend, weights, points)

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
    def _from_checked(cls, weights: tuple, points: tuple) -> "HerglotzAtoms":
        """Float atoms from a row that already passed `check_atom_rows`; it is not checked again."""
        atoms = object.__new__(cls)
        _fill_atoms(atoms, FLOAT, weights, points)
        return atoms

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
        coeffs = atom_coefficients(self.weights, self.points, order, backend.one, backend.zero)
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
            entry = {"weight": str(Fraction(w))}
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
        strings. An atom field the backend does not read is an error.
        """
        if not isinstance(doc, dict) or "atoms" not in doc:
            raise ValueError("atom document must be an object with an 'atoms' list")
        backend = get_doc_backend(doc)
        raw = doc["atoms"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'atoms' must be a non-empty list")
        weights, points = [], []
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
                    points.append(cmath.exp(1j * FLOAT.scalar(entry["angle_radians"])))
                else:
                    raise ValueError("float atom needs 'angle_radians'")
            else:
                weights.append(Fraction(str(entry["weight"])))
                if "t" in entry:
                    points.append(unimodular_from_t(Fraction(str(entry["t"]))))
                elif "x_re" in entry and "x_im" in entry:
                    points.append(
                        RationalComplex(Fraction(str(entry["x_re"])), Fraction(str(entry["x_im"])))
                    )
                else:
                    raise ValueError("rational atom needs 't' or 'x_re'/'x_im'")
        return cls(weights, points, backend=backend)


def _fill_atoms(atoms: HerglotzAtoms, backend: Backend, weights: tuple, points: tuple) -> None:
    object.__setattr__(atoms, "backend", backend)
    object.__setattr__(atoms, "weights", weights)
    object.__setattr__(atoms, "points", points)


def get_doc_backend(doc: dict) -> Backend:
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


def half_hadamard(p: TruncatedSeries, q: TruncatedSeries) -> TruncatedSeries:
    """r = 1 + (1/2) sum_k p_k q_k z^k for two class-P series.

    By the Nehari-Netanyahu composition lemma r is again in P whenever p and
    q are; the tests check that numerically on sampled generators.
    """
    if p.backend is not q.backend or p.order != q.order:
        raise ValueError("half_hadamard needs two series of equal order on one backend")
    backend = p.backend
    if p.coeffs[0] != backend.one or q.coeffs[0] != backend.one:
        raise ValueError("half_hadamard expects constant terms equal to 1")
    half = backend.scalar(Fraction(1, 2))
    coeffs = half_hadamard_coefficients(p.coeffs, q.coeffs, backend.one, half)
    return TruncatedSeries(coeffs, p.order, backend=backend)


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


def _uniforms(key: int, first: int, stop: int):
    """Uniforms first..stop-1 of stream ``key``, as doubles (x >> 11) 2^-53 in [0, 1)."""
    import numpy as np

    z = np.arange(first + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key)
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


def draw_atoms(key: int, start: int, stop: int):
    """Atom systems of trials start..stop-1 of stream ``key`` as padded rows.

    This is the only random draw in the package. Trial j reads the B = 1 +
    2 MAX_ATOMS uniforms jB .. jB + B - 1 of the stream: the atom count,
    uniform on 1..MAX_ATOMS, then MAX_ATOMS angles, uniform on the circle,
    then MAX_ATOMS exponentials; the first count angles and exponentials
    are used. The weights are the normalized
    exponentials, i.e. uniform on the probability simplex. Every step is
    elementwise per row, so trial j drawn alone (start=j, stop=j+1) is the
    same row as in any block that contains it. The uniforms are integer
    arithmetic and so the same on every platform; the atoms go through
    numpy's cos, sin and log1p.

    Returns ``(weights, points, counts)``: (trials, MAX_ATOMS) arrays whose
    first counts[t] slots of row t are used, padded with weight 0 and point 1.
    Every row passes `check_atom_rows`.
    """
    if not 0 <= key < 2**64:
        raise ValueError(f"stream key must be a 64-bit unsigned integer, got {key!r}")
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start!r}, {stop!r}")
    import numpy as np

    rows, width = stop - start, 1 + 2 * MAX_ATOMS
    u = _uniforms(key, start * width, stop * width).reshape(rows, width)
    counts = np.minimum(1 + (u[:, 0] * MAX_ATOMS).astype(np.intp), MAX_ATOMS)
    unused = np.arange(MAX_ATOMS) >= counts[:, None]
    angles = 2.0 * math.pi * u[:, 1 : 1 + MAX_ATOMS]
    points = np.empty((rows, MAX_ATOMS), dtype=np.complex128)
    np.cos(angles, out=points.real)
    np.sin(angles, out=points.imag)
    points[unused] = 1.0
    # the exponentials -log1p(-u), made in place, then normalized in place
    weights = np.negative(u[:, 1 + MAX_ATOMS :])
    np.log1p(weights, out=weights)
    np.negative(weights, out=weights)
    weights[unused] = 0.0
    # cumsum adds left to right, so a row sums alike alone or in a block
    weights /= np.cumsum(weights, axis=1)[:, -1:]
    # renormalize the last used weight so the sum is exactly 1.0 in floating point
    row, last = np.arange(rows), counts - 1
    rest = np.cumsum(weights, axis=1)[row, last - 1]
    weights[row, last] = 1.0 - np.where(last > 0, rest, 0.0)
    check_atom_rows(weights, points, counts)
    return weights, points, counts


def trial_atoms(key: int, trial: int) -> HerglotzAtoms:
    """The atoms of one trial of stream ``key``: the one-row draw trial..trial+1.

    `draw_atoms` has checked the row, so the atoms are built without a second check.
    """
    weights, points, counts = draw_atoms(key, trial, trial + 1)
    used = counts[0]
    return HerglotzAtoms._from_checked(tuple(weights[0, :used].tolist()), tuple(points[0, :used].tolist()))

