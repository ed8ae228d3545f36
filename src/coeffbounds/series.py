"""Truncated formal power series over an arithmetic backend.

A series of order N is the coefficient vector (c_0, ..., c_N), and every
recurrence below is computed modulo z^{N+1}. Truncation is closed and,
importantly, lower-triangular: the k-th output coefficient of a product,
power, or real power depends only on input coefficients with index <= k.
Tests rely on that to compare values computed at different working orders.

Two backends are supported (see :mod:`coeffbounds.backends`): exact rational
complex coefficients, and double-precision complex coefficients.

The recurrences themselves are the plain functions ``cauchy_coefficients``,
``power_tails`` and ``real_power_coefficients``, written over a sequence of
coefficients. An entry is either a backend scalar (what the scalar commands
pass) or a 1-D numpy column holding one value per random trial (what the
sweeps pass); the same additions and multiplications run in the same order
either way. The constants they need (zero, one, the exponent) come from
the caller, typed for the backend, so a column never meets a `Fraction`.

A kernel updates in place only objects it created, and never an input. A
Cauchy sum starts from its first product, a fresh column, and ``acc += y``
then adds each further term into it without a temporary; no pass adds an
exact zero. The real power's accumulators alone start at the caller's
scalar ``zero``, so the first term x makes a fresh column ``zero + x``:
its results keep the signed zeros of that +0 start, which the structural
zero path below relies on. On Python ``complex``, ``Fraction`` and
``RationalComplex`` there is no in-place operator, ``+=`` falls back to
``+``, and scalars and columns run the same code.

Never multiply complex columns in place: every product is a fresh column.
numpy 2.4.6 on x86-64 (AVX2 and AVX-512 dispatch alike) rounds an
in-place complex128 multiply of a length-1 array without fused
multiply-adds, unlike the same product inside a longer array or out of
place: 883 of 2000 random products differed in their last bits. A kernel
that multiplied in place would give a one-trial sweep block other bits than
the same trial inside a longer block (`tests/test_inplace.py` checks every
column kernel on one-row columns against a 4096-row call).

An entry that *is* the caller's ``zero`` object (a structural zero, as in
the sparse extremal series 1 + 2 z^(k-1) of ``harness.run_extremal_suite``)
is known to vanish: ``real_power_coefficients`` skips its terms, and the
transform and the shift of `caratheodory` pass it through unchanged
(`schemes.gamma_value` skips the d's of `schemes.hk_schemes` the same way). On
finite values a skipped term is an exact zero, and adding one to an
accumulator that started at +0 changes none of its bits, so the result is
the dense recurrence's bit for bit. A computed zero or a numpy column is
never the ``zero`` object and takes the dense path.
"""

from __future__ import annotations

from fractions import Fraction

from .backends import FLOAT, Backend


def cauchy_coefficients(a, b) -> list:
    """Truncated Cauchy product c_k = sum_{j=0}^{k} a_j b_{k-j}, k < len(a)."""
    out = []
    for k in range(len(a)):
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return out


def power_tails(h, count: int):
    """Yield T_1..T_count, the tails (z h)^m = z^m T_m, T_m through order len(h) - m.

    T_1 = h and T_{m+1} is the Cauchy product of T_m (its top entry dropped)
    with h. The powers of a series G with G_0 = 0 are read off G = z h this
    way: G^m vanishes below z^m, so T_m holds coefficients m..len(h) of G^m
    and no product with those leading zeros is formed.
    """
    tail = list(h)
    for m in range(1, count + 1):
        yield tail
        if m < count:
            tail = cauchy_coefficients(tail[:-1], h)


def real_power_coefficients(g, c, one, zero) -> list:
    """Coefficients of g^c for g_0 = 1, from the logarithmic-derivative recurrence

        u_0 = 1,   k u_k = sum_{j=1}^{k} (j c - (k - j)) g_j u_{k-j}.

    1/k is typed like the exponent: a Fraction for a Fraction c, a float otherwise.
    The terms of an entry g_j that is the caller's ``zero`` object are never
    formed, so a series with one other entry past g_0 costs O(len(g)) terms.
    """
    terms = [j for j in range(1, len(g)) if g[j] is not zero]
    exact = isinstance(c, Fraction)  # an ABC check, so once per call
    u = [one]
    for k in range(1, len(g)):
        acc = zero
        for j in terms:
            if j > k:
                break
            acc += (c * j - (k - j)) * g[j] * u[k - j]
        if exact:
            u.append(acc * Fraction(1, k))
        else:
            acc *= 1.0 / k
            u.append(acc)
    return u


class TruncatedSeries:
    """Immutable coefficient vector (c_0 .. c_N) on one backend.

    The leading coefficients given are zero-padded up to ``order``, and any
    beyond it are dropped (truncation semantics). Every entry is coerced
    through ``backend.coeff``. The arithmetic lives in the kernels above.
    """

    __slots__ = ("backend", "coeffs")

    def __init__(self, coeffs, order: int | None = None, *, backend: Backend = FLOAT):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"order must be a non-negative integer, got {order!r}")
        coeffs = coeffs[: order + 1]
        coeffs += [backend.zero] * (order + 1 - len(coeffs))
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "coeffs", tuple(backend.coeff(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        """c_k; raises IndexError beyond the truncation order."""
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient index {k} outside order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.backend is other.backend
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order}, backend={self.backend.name})"
