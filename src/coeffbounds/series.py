"""Truncated formal power series over an arithmetic backend.

A series of order N is the coefficient vector (c_0, ..., c_N); every ring
operation is computed modulo z^{N+1}. Truncation is closed and, importantly,
lower-triangular: the k-th output coefficient of a sum, product, power, or
real power depends only on input coefficients with index <= k. Tests rely on
that to compare values computed at different working orders.

Two backends are supported (see :mod:`coeffbounds.backends`): exact rational
complex coefficients, and double-precision complex coefficients.

The recurrences themselves are the plain functions ``cauchy_coefficients``,
``power_tails`` and ``real_power_coefficients``, written over a sequence of
coefficients. An entry is either a backend scalar (what `TruncatedSeries`
passes) or a 1-D numpy column holding one value per random trial (what the
sweeps pass); the same additions and multiplications run in the same order
either way. The constants they need (zero, one, the exponent) come from
the caller, typed for the backend, so a column never meets a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

from .backends import FLOAT, Backend


def cauchy_coefficients(a, b, zero) -> list:
    """Truncated Cauchy product c_k = sum_{j=0}^{k} a_j b_{k-j}, k < len(a)."""
    out = []
    for k in range(len(a)):
        acc = zero
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def power_tails(h, count: int, zero):
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
            tail = cauchy_coefficients(tail[:-1], h, zero)


def real_power_coefficients(g, c, one, zero) -> list:
    """Coefficients of g^c for g_0 = 1, from the logarithmic-derivative recurrence

        u_0 = 1,   k u_k = sum_{j=1}^{k} (j c - (k - j)) g_j u_{k-j}.

    1/k is typed like the exponent: a Fraction for a Fraction c, a float otherwise.
    """
    u = [one]
    for k in range(1, len(g)):
        acc = zero
        for j in range(1, k + 1):
            acc = acc + (c * j - (k - j)) * g[j] * u[k - j]
        if isinstance(c, Fraction):
            u.append(acc * Fraction(1, k))
        else:
            u.append(acc * (1.0 / k))
    return u


class TruncatedSeries:
    """Coefficient vector (c_0 .. c_N) with ring operations modulo z^{N+1}.

    The leading coefficients given are zero-padded up to ``order``, and any
    beyond it are dropped (truncation semantics).
    """

    __slots__ = ("backend", "coeffs")

    def __init__(self, coeffs, order: int | None = None, *, backend: Backend = FLOAT):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"order must be a non-negative integer, got {order!r}")
        coeffs = coeffs[: order + 1]
        coeffs += [backend.zero] * (order + 1 - len(coeffs))
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "coeffs", tuple(backend.coeff(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- basic structure --------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        """c_k; raises IndexError beyond the truncation order."""
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient index {k} outside order {self.order}")
        return self.coeffs[k]

    def __getitem__(self, k: int):
        return self.coefficient(k)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.backend is other.backend
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.backend.name, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order}, backend={self.backend.name})"

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.backend is not self.backend:
            raise ValueError("mixed backends: convert explicitly before combining")
        if other.order != self.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def _wrap(self, coeffs):
        return TruncatedSeries(coeffs, self.order, backend=self.backend)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_compatible(other)
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def scale(self, lam) -> "TruncatedSeries":
        """Multiply every coefficient by the scalar (or coefficient) lam."""
        lam = self.backend.coeff(lam)
        return self._wrap([lam * a for a in self.coeffs])

    def __mul__(self, other):
        """Cauchy product truncated at the common order.

        c_k = sum_{j=0}^{k} a_j b_{k-j}.
        """
        self._check_compatible(other)
        return self._wrap(cauchy_coefficients(self.coeffs, other.coeffs, self.backend.zero))

    def integer_power(self, m: int) -> "TruncatedSeries":
        """m-th power by the first-order product recursion.

        c^{(0)} = 1 and c_k^{(m)} = sum_{j=0}^{k} c_j c_{k-j}^{(m-1)}: each step
        is one Cauchy product against the base series, so the whole power is a
        left fold of multiplications. Exact on the rational backend.
        """
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"integer power wants a non-negative integer, got {m!r}")
        out = self._wrap([self.backend.one])
        for _ in range(m):
            out = out * self
        return out

    def real_power(self, c) -> "TruncatedSeries":
        """g^c for a series with constant term exactly 1.

        Built from the logarithmic-derivative identity u' g = c g' u, which
        gives the first-order recurrence

            u_0 = 1,   k u_k = sum_{j=1}^{k} (j c - (k - j)) g_j u_{k-j}.

        The exponent c is a backend scalar (Fraction or float); on the
        rational backend the result is exact, and for integer c it agrees with
        :meth:`integer_power` coefficient by coefficient.
        """
        c = self.backend.scalar(c)
        if self.coeffs[0] != self.backend.one:
            raise ValueError("real_power needs constant term exactly 1")
        return self._wrap(
            real_power_coefficients(self.coeffs, c, self.backend.one, self.backend.zero)
        )

    def salagean(self, n: int) -> "TruncatedSeries":
        """Apply the Salagean operator n times: the k-th coefficient gains k^n.

        n = 0 is the identity (0^0 = 1 keeps the constant term).
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"salagean wants a non-negative integer order, got {n!r}")
        return self._wrap([(k**n) * c for k, c in enumerate(self.coeffs)])

    # -- evaluation and conversion ------------------------------------------

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at the point z."""
        z = self.backend.coeff(z)
        acc = self.backend.zero
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z (drops the top coefficient, keeps the order)."""
        return self._wrap([self.backend.zero, *self.coeffs[:-1]])

    def to_float(self) -> "TruncatedSeries":
        """Copy of the series on the float backend."""
        if self.backend is FLOAT:
            return self
        return TruncatedSeries([complex(c) for c in self.coeffs], self.order, backend=FLOAT)

    def truncate(self, order: int) -> "TruncatedSeries":
        """The same series at a lower (or equal) truncation order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order, backend=self.backend)


def constant_one(order: int, *, backend: Backend = FLOAT) -> TruncatedSeries:
    return TruncatedSeries([backend.one], order, backend=backend)


def geometric(order: int, ratio=1, *, backend: Backend = FLOAT) -> TruncatedSeries:
    """1 + r z + r^2 z^2 + ... truncated; handy closed-form fixture."""
    r = backend.coeff(ratio)
    coeffs = [backend.one]
    for _ in range(order):
        coeffs.append(coeffs[-1] * r)
    return TruncatedSeries(coeffs, order, backend=backend)
