"""Coefficient-bound formulas and the generator-to-function pipeline.

The function class studied here consists of normalized analytic functions
f(z) = z + a_2 z^2 + ... whose n-fold Salagean-normalized power quotient
D^n(f^alpha) / (alpha^n z^alpha) has real part exceeding beta. Structurally,
f belongs to the class exactly when

    (f(z)/z)^alpha = beta + (1 - beta) p_n(z)

for some Caratheodory generator p, where p_n is the n-fold iterated integral
transform of p. That gives both directions implemented here: rebuilding f
from a generator (``f_from_p``) and recovering the generator of a given f
(``p_from_f``, which applies the diagonal map ((alpha+k)/alpha)^n to
(f/z)^alpha to undo the transform, then undoes the beta shift).
``round_trip_tolerances`` bounds the float rounding of that round trip.

Four bound formulas are provided: the sharp one for alpha > 1
(``sharp_bound_rows``, attained by ``extremal_p``), the piecewise small-alpha
one with its omega regions (``small_alpha_bound_rows``), the claimed Nehari
bound of the alternating series (``nehari_bound_rows``), and the exponential
estimate on the power-quotient coefficients (``growth_estimate``). The row
functions form what the indices and the betas of one (n, alpha) share once.
``applicable_bound_row`` picks the sharp or the small-alpha row that applies
at one point, and ``bound_gap`` is the one rule for whether |a_k| meets a bound.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple

from ._rational import Ratio
from .backends import FLOAT, RATIONAL, Backend
from .caratheodory import HerglotzAtoms, shift_coefficients, transform_coefficients
from .series import TruncatedSeries, power_tails, real_power_coefficients

#: A margin below -SLACK is a violation: in the sweeps and in the suites'
#: reference column. The per-k bound rows of ``expand`` scale it by
#: max(1, bound), so float rounding of a large bound is no violation.
SLACK = 1e-9
#: A float bound is met when |bound - |a_k|| is at most this times the bound.
SHARP_REL_TOL = 1e-10
#: Largest float |a_0| that `p_from_f` accepts; a_1 must be exactly 1.
NORMALIZATION_TOL = 1e-12
#: The constant C of `round_trip_tolerances`.
ROUND_TRIP_C = 16


class ClassParams(namedtuple("ClassParams", "n alpha beta")):
    """Class parameters: iteration count n >= 0, exponent alpha > 0, order beta.

    Every construction, ``_replace`` included, goes through the checks of `_make`.
    """

    __slots__ = ()

    def __new__(cls, n, alpha, beta):
        return cls._make((n, alpha, beta))

    @classmethod
    def _make(cls, values):
        n, alpha, beta = values
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha!r}")
        if not (0 <= beta < 1):
            raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
        return tuple.__new__(cls, (n, alpha, beta))


class Region(enum.Enum):
    """Alpha regions of the piecewise small-alpha bound."""

    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OMEGA3 = "omega3"
    OUT_OF_RANGE = "out_of_range"


def classify_region(alpha, k: int) -> Region:
    """Locate alpha relative to the omega regions for coefficient index k.

    Boundaries follow the conventions 1/(k-2) = +inf at k = 2 and
    1/(k-3) = +inf at k = 3, so k = 2 is all of (0, inf) and k = 3 splits
    into (0, 1) and [1, inf). With alpha = num/den in lowest terms, alpha <
    1/(k-2) is num (k-2) < den, so the comparisons are exact integer ones
    for both backends.
    """
    _check_index(k)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if k == 2:
        return Region.OMEGA1
    try:
        num, den = alpha.as_integer_ratio()
    except OverflowError:
        raise ValueError(f"alpha must be finite, got {alpha!r}") from None
    if num * (k - 2) < den:
        return Region.OMEGA1
    if k % 2 == 0:
        if num * (k - 3) <= den:
            return Region.OMEGA2
    else:
        if k == 3 or num * (k - 3) < den:
            return Region.OMEGA3
    return Region.OUT_OF_RANGE


def _check_index(k):
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")


def _group_indices(n, alpha, betas, k_max) -> range:
    """The indices 2..k_max of a group row, after the checks a `ClassParams` of each beta makes."""
    for beta in betas:
        ClassParams(n, alpha, beta)
    _check_index(k_max)
    return range(2, k_max + 1)


def sharp_bound_rows(n: int, alpha, betas, k_max: int) -> list:
    """2 (1 - beta) alpha^(n-1) / (alpha + k - 1)^n for k = 2..k_max, one row for each beta of ``betas``.

    The formula evaluates for every alpha > 0; it is the sharp bound for
    alpha > 1 (reports mark it inapplicable otherwise). Exact in rational
    inputs; formed by `_power_ratio_rows` with p = n - 1 and j = k - 1.
    """
    _group_indices(n, alpha, betas, k_max)
    # j = k - 1 is added to alpha in one rounding: (alpha + k) - 1 can be an ulp off (alpha = 1.1)
    return _power_ratio_rows(n - 1, n, alpha, betas, range(1, k_max))


def _power_ratio_rows(p: int, n: int, alpha, betas, js) -> list:
    """2 (1 - beta) alpha^p / (alpha + j)^n for each j of ``js``, one row for each beta of ``betas``.

    alpha^p and each (alpha + j)^n are formed once for the group, in Python
    scalars (numpy's ``power`` rounds differently with and without
    AVX-512); each row is the head 2 (1 - beta) alpha^p divided by them.
    """
    power = alpha**p
    dens = [(alpha + j) ** n for j in js]
    heads = [2 * (1 - beta) * power for beta in betas]
    return [[head / den for den in dens] for head in heads]


class SmallAlphaBound(namedtuple("SmallAlphaBound", "value region")):
    """Piecewise bound value (None outside the omega regions) plus the region."""

    __slots__ = ()


def small_alpha_bound_rows(n: int, alpha, betas, k_max: int) -> list:
    """The small-alpha piecewise bound on |a_k| for k = 2..k_max, one row for each beta of ``betas``.

    With B_m = 2^m (1-beta)^m alpha^(m(n-1)) prod_{j=0}^{m-1} (1 - j alpha) / m!
    and Q the coefficients of powers of sum_{j>=1} z^j / (alpha + j)^n, the
    bound is sum_{m=1}^{k-1} B_m Q_{k-1}^(m) on omega1 and omega2, and the
    shorter sum to k-2 on omega3. Outside the regions no value is fabricated.

    What does not depend on beta is formed once for the group: the region
    of each k, the tails T_m of the powers, sized to the largest k in a
    region, and the factors alpha^(m(n-1)), prod_j (1 - j alpha) and m! of
    B_m. Each beta then forms its B_m and sums. Entry i of T_m depends only
    on entries <= i of the base, and B_m multiplies its factors in the order
    written, so every value is the one a ladder cut to one beta and to k
    alone gives, bit for bit on floats.
    """
    ks = _group_indices(n, alpha, betas, k_max)
    regions = [classify_region(alpha, k) for k in ks]
    # the number of powers summed at each k; none outside the regions
    m_tops = [
        0 if region is Region.OUT_OF_RANGE else k - 2 if region is Region.OMEGA3 else k - 1
        for k, region in zip(ks, regions)
    ]
    k_top = max((k for k, m_top in zip(ks, m_tops) if m_top), default=1)
    zero = alpha * 0
    # the base series is z times these; Q_{k-1}^(m) is entry k-1-m of the m-th tail
    tail_base = [1 / (alpha + j) ** n for j in range(1, k_top)]
    tails = []
    factors = []  # (alpha^(m(n-1)), prod_{j<m} (1 - j alpha), m!) for m = 1, 2, ...
    sign_prod = 1 - 0 * alpha  # prod_{j=0}^{m-1} (1 - j alpha), starts at 1
    factorial = 1
    for m, tail in enumerate(power_tails(tail_base, max(m_tops)), start=1):
        if m > 1:
            sign_prod = sign_prod * (1 - (m - 1) * alpha)
            factorial *= m
        factors.append((alpha ** (m * (n - 1)), sign_prod, factorial))
        tails.append(tail)
    rows = []
    for beta in betas:
        b = [(2**m) * (1 - beta) ** m * power * prod / m_factorial
             for m, (power, prod, m_factorial) in enumerate(factors, start=1)]
        row = []
        for k, region, m_top in zip(ks, regions, m_tops):
            if not m_top:
                row.append(SmallAlphaBound(None, region))
                continue
            total = zero
            for m in range(1, m_top + 1):
                total = total + b[m - 1] * tails[m - 1][k - 1 - m]
            row.append(SmallAlphaBound(total, region))
        rows.append(row)
    return rows


def nehari_bound_rows(n: int, alpha, betas, k_max: int) -> list:
    """The claimed bounds 2 (1 - beta) alpha^n / (alpha + k)^n for k = 1..k_max, one row for each beta.

    Exact in rational inputs; formed by `_power_ratio_rows` with p = n and
    j = k. A k_max below 1 gives empty rows.
    """
    for beta in betas:
        ClassParams(n, alpha, beta)
    return _power_ratio_rows(n, n, alpha, betas, range(1, k_max + 1))


def growth_estimate(alpha, k: int) -> float:
    """exp(0.624 alpha^2 + (2 alpha^2 - 1/2) H_k) with H_k the harmonic sum.

    Estimates the k-th power-quotient coefficient |A_(k+1)(alpha)| (a
    different object from a_k); always evaluated in floating point.
    Saturates to +inf when the exponent exceeds the float range (around
    alpha = 10, k = 14), or alpha itself does, which keeps the
    upper-estimate semantics intact.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"index must be a non-negative integer, got {k!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    try:
        a = float(alpha)
    except OverflowError:  # an exact alpha beyond the float range
        return math.inf
    harmonic = sum(1.0 / j for j in range(1, k + 1))
    try:
        return math.exp(0.624 * a * a + (2.0 * a * a - 0.5) * harmonic)
    except OverflowError:
        return math.inf


def _generator_coefficients(p, order: int):
    """The generator's coefficients 0..order and its backend."""
    if isinstance(p, HerglotzAtoms):
        return p.series(order).coeffs, p.backend
    if isinstance(p, TruncatedSeries):
        if p.order < order:
            raise ValueError(f"generator series order {p.order} is below the needed {order}")
        return p.coeffs[: order + 1], p.backend
    raise TypeError("generator must be HerglotzAtoms or TruncatedSeries")


def f_quotient_coefficients(coeffs, n: int, alpha, beta, one, zero) -> list:
    """Coefficients of f/z = (beta + (1 - beta) p_n)^(1/alpha) from those of p, p_0 = 1.

    On backend scalars or on numpy columns with one value per trial (``beta``
    may be such a column). An entry that is the ``zero`` object costs nothing
    (see `series`). Rebinding ``coeffs`` frees each list once the next exists.
    """
    coeffs = transform_coefficients(coeffs, alpha, n, zero)
    coeffs = shift_coefficients(coeffs, beta, one, zero)
    return real_power_coefficients(coeffs, 1 / alpha, one, zero)


def f_from_p(p, params: ClassParams, order: int) -> TruncatedSeries:
    """Rebuild the class member from its generator.

    f(z) = z * (beta + (1 - beta) p_n(z))^(1/alpha) where p_n is the n-fold
    transform of p. The result has f_0 = 0, f_1 = 1 and the requested order.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    coeffs, backend = _generator_coefficients(p, order - 1)
    if coeffs[0] != backend.one:
        raise ValueError("f_from_p needs a generator with constant term 1")
    u = f_quotient_coefficients(
        coeffs, params.n, backend.scalar(params.alpha), backend.scalar(params.beta), backend.one, backend.zero
    )
    return TruncatedSeries([backend.zero, *u], order, backend=backend)


def _transform_inverse(alpha, n: int, k: int):
    """((alpha + k) / alpha)^n, the factor that undoes the transform at index k."""
    try:
        return ((alpha + k) / alpha) ** n
    except OverflowError:
        raise ValueError(f"((alpha + {k}) / alpha)^{n} overflows") from None


def p_from_f(f: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """The generator of a class member: the inverse of `f_from_p`.

    (f/z)^alpha = beta + (1 - beta) p_n, so the k-th coefficient of
    (f/z)^alpha times ((alpha + k)/alpha)^n, divided by 1 - beta, is p_k
    for k >= 1; the diagonal map undoes the transform without evaluating
    multivalued powers. The result has order f.order - 1. An f that does
    not start as z + a_2 z^2 + ..., a float f with a NaN or infinite
    coefficient, and a float generator that overflowed are ValueErrors.
    """
    backend = f.backend
    if f.order < 1:
        raise ValueError("f must carry at least the z term")
    if backend is RATIONAL:
        a0_off = f.coeffs[0] != backend.zero
    else:
        if not all(cmath.isfinite(c) for c in f.coeffs):
            raise ValueError("f has a non-finite coefficient")
        a0_off = not abs(f.coeffs[0]) <= NORMALIZATION_TOL
    # the real-power recurrence assumes a_1 = 1 exactly, on both backends
    if a0_off or f.coeffs[1] != backend.one:
        raise ValueError("f must start as z + a_2 z^2 + ...")
    alpha = backend.scalar(params.alpha)
    one_minus = 1 - backend.scalar(params.beta)
    e = real_power_coefficients(f.coeffs[1:], alpha, backend.one, backend.zero)
    p = [backend.one]
    for k in range(1, len(e)):
        p.append(_transform_inverse(alpha, params.n, k) * e[k] / one_minus)
    if backend is FLOAT and not all(cmath.isfinite(c) for c in p):
        raise ValueError("the generator rebuilt from f is not finite")
    return TruncatedSeries(p, f.order - 1, backend=backend)


def round_trip_tolerances(f: TruncatedSeries, params: ClassParams) -> list:
    """Float tolerances on |p_from_f(f)_k - p_k| for k = 0..f.order - 1.

    tol_k = C k eps ((alpha + k)/alpha)^n U_k / (1 - beta) with C =
    `ROUND_TRIP_C` = 16 and eps = 2^-53. U is the real-power recurrence of
    (f/z)^alpha run on absolute values, U_0 = 1 and

        k U_k = sum_{j=1}^{k} |alpha j - (k - j)| |g_j| U_{k-j},   g = f/z,

    so k eps U_k bounds the rounding of the k-th coefficient of (f/z)^alpha
    up to a small multiple; the other two factors are the scalings
    `p_from_f` applies after it. A term with a zero factor is skipped, so an
    overflowed U reads inf, never NaN. f must pass the checks of `p_from_f`.
    """
    alpha = float(params.alpha)
    g = [abs(c) for c in f.coeffs[1:]]
    u = [1.0]
    for k in range(1, len(g)):
        acc = 0.0
        for j in range(1, k + 1):
            weight = abs(alpha * j - (k - j)) * g[j]
            if weight and u[k - j]:
                acc += weight * u[k - j]
        u.append(acc / k)
    scale = ROUND_TRIP_C * 2.0**-53 / (1 - float(params.beta))
    return [scale * k * _transform_inverse(alpha, params.n, k) * u[k] for k in range(len(u))]


def extremal_p(k: int, *, backend: Backend = FLOAT) -> HerglotzAtoms:
    """Equal weights on the (k-1)-th roots of unity: the sharpness generator.

    Its series is 1 + 2 z^(k-1) + 2 z^(2(k-1)) + ..., so only the m = 1 term
    feeds a_k and the sharp bound is attained exactly. On the rational
    backend only k = 2 and k = 3 exist (higher k needs irrational roots).
    """
    _check_index(k)
    count = k - 1
    if backend is RATIONAL:
        if k == 2:
            return HerglotzAtoms([Ratio(1)], [backend.coeff(1)], backend=RATIONAL)
        if k == 3:
            half = Ratio(1, 2)
            return HerglotzAtoms(
                [half, half], [backend.coeff(1), backend.coeff(-1)], backend=RATIONAL
            )
        raise ValueError("rational backend carries the extremal generator only for k in {2, 3}")
    weights = [1.0 / count] * count
    weights[-1] = 1.0 - sum(weights[:-1])
    angles = [2.0 * math.pi * j / count for j in range(count)]
    return HerglotzAtoms.from_angles(weights, angles)


def applicable_bound_row(n: int, alpha, beta, k_max: int) -> list:
    """(source, bound, region) of the bound that applies to |a_k| at (n, alpha, beta), for k = 2..k_max.

    alpha > 1 takes the sharp formula (source "sharp"), which has no
    region (None); otherwise the omega-region bound (source "small_alpha")
    where alpha falls inside a region, and (None, None, region) in the open
    window, which carries no fabricated value. Only the formula that
    applies is formed.
    """
    if alpha > 1:
        return [("sharp", bound, None) for bound in sharp_bound_rows(n, alpha, (beta,), k_max)[0]]
    row = small_alpha_bound_rows(n, alpha, (beta,), k_max)[0]
    return [("small_alpha" if piece.value is not None else None, piece.value, piece.region) for piece in row]


def bound_gap(a_k, bound) -> tuple:
    """(met, gap): whether |a_k| meets ``bound``, and the relative gap |bound - |a_k|| / bound.

    An exact (Ratio) bound is met only by |a_k|^2 = bound^2, with gap 0.0;
    an unmet one's gap is taken in floats. A float bound is met when
    |bound - |a_k|| <= `SHARP_REL_TOL` * bound, with no division: a bound
    that underflowed to 0.0 is met only by 0 (gap 0.0; else inf).
    """
    if type(bound) is Ratio:
        if a_k.abs2() == bound * bound:
            return True, 0.0
        met, bound, a_abs = False, float(bound), abs(complex(a_k))
    else:
        a_abs = abs(a_k)
        met = abs(bound - a_abs) <= SHARP_REL_TOL * bound
    diff = abs(bound - a_abs)
    return met, diff / bound if bound else (math.inf if diff else 0.0)
