"""Coefficient-bound formulas and the generator-to-function pipeline.

The function class studied here consists of normalized analytic functions
f(z) = z + a_2 z^2 + ... whose n-fold Salagean-normalized power quotient
D^n(f^alpha) / (alpha^n z^alpha) has real part exceeding beta. Structurally,
f belongs to the class exactly when

    (f(z)/z)^alpha = beta + (1 - beta) p_n(z)

for some Caratheodory generator p, where p_n is the n-fold iterated integral
transform of p. That gives both directions implemented here: rebuilding f
from a generator (``f_from_p``) and checking membership of a given f
(``verify_membership``, which applies the diagonal map ((alpha+k)/alpha)^n to
undo the transform and then samples the real part).

Three bound formulas are provided: the sharp one for alpha > 1
(``sharp_bound``, attained by ``extremal_p``), the piecewise small-alpha one
with its omega regions (``small_alpha_bound``), and the exponential estimate on
the power-quotient coefficients (``growth_estimate``).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .backends import FLOAT, RATIONAL, Backend
from .caratheodory import HerglotzAtoms, min_real_part, shift_coefficients, transform_coefficients
from .series import TruncatedSeries, power_tails, real_power_coefficients

#: A margin below -SLACK is a violation: in the sweeps, in the suites'
#: reference column and in the per-k bound rows of ``expand``.
SLACK = 1e-9
#: ``BoundReport.sharp_hit`` when |bound - |a_k|| is at most this (float comparison).
SHARP_HIT_TOL = 1e-9
#: Largest float |a_0| that `verify_membership` accepts; a_1 must be exactly 1.
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class ClassParams:
    """Class parameters: iteration count n >= 0, exponent alpha > 0, order beta."""

    n: int
    alpha: object
    beta: object

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (0 <= self.beta < 1):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")


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
    into (0, 1) and [1, inf). Fraction boundaries keep the comparisons exact
    for both backends.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    lower = Fraction(1, k - 2) if k > 2 else None  # None means +inf
    upper = Fraction(1, k - 3) if k > 3 else None
    if lower is None or alpha < lower:
        return Region.OMEGA1
    if k % 2 == 0:
        if upper is None or alpha <= upper:
            return Region.OMEGA2
    else:
        if upper is None or alpha < upper:
            return Region.OMEGA3
    return Region.OUT_OF_RANGE


def sharp_bound(params: ClassParams, k: int):
    """2 (1 - beta) alpha^(n-1) / (alpha + k - 1)^n for k >= 2.

    The formula evaluates for every alpha > 0; it is the sharp bound for
    alpha > 1 (reports mark it inapplicable otherwise). Exact in rational
    inputs.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    alpha, beta, n = params.alpha, params.beta, params.n
    return 2 * (1 - beta) * alpha ** (n - 1) / (alpha + k - 1) ** n


@dataclass(frozen=True)
class SmallAlphaBound:
    """Piecewise bound value (None outside the omega regions) plus the region."""

    value: object
    region: Region


def small_alpha_bound(params: ClassParams, k: int) -> SmallAlphaBound:
    """Small-alpha piecewise bound on |a_k|.

    With B_m = 2^m (1-beta)^m alpha^(m(n-1)) prod_{j=0}^{m-1} (1 - j alpha) / m!
    and Q the coefficients of powers of sum_{j>=1} z^j / (alpha + j)^n, the
    bound is sum_{m=1}^{k-1} B_m Q_{k-1}^(m) on omega1 and omega2, and the
    shorter sum to k-2 on omega3. Outside the regions no value is fabricated.
    """
    region = classify_region(params.alpha, k)
    if region is Region.OUT_OF_RANGE:
        return SmallAlphaBound(None, region)
    m_top = k - 1 if region in (Region.OMEGA1, Region.OMEGA2) else k - 2
    alpha, beta, n = params.alpha, params.beta, params.n
    zero = alpha * 0
    # the base series is z times these; Q_{k-1}^(m) is entry k-1-m of the m-th tail
    tail_base = [1 / (alpha + j) ** n for j in range(1, k)]
    total = zero
    sign_prod = 1 - 0 * alpha  # prod_{j=0}^{m-1} (1 - j alpha), starts at 1
    factorial = 1
    for m, tail in enumerate(power_tails(tail_base, m_top, zero), start=1):
        if m > 1:
            sign_prod = sign_prod * (1 - (m - 1) * alpha)
            factorial *= m
        b_m = (2**m) * (1 - beta) ** m * alpha ** (m * (n - 1)) * sign_prod / factorial
        total = total + b_m * tail[k - 1 - m]
    return SmallAlphaBound(total, region)


def growth_estimate(alpha, k: int) -> float:
    """exp(0.624 alpha^2 + (2 alpha^2 - 1/2) H_k) with H_k the harmonic sum.

    Estimates the k-th power-quotient coefficient |A_(k+1)(alpha)| (a
    different object from a_k); always evaluated in floating point.
    Saturates to +inf when the exponent exceeds the float range (around
    alpha = 10, k = 14), which keeps the upper-estimate semantics intact.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"index must be a non-negative integer, got {k!r}")
    a = float(alpha)
    if not a > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
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


def f_from_p(p, params: ClassParams, order: int) -> TruncatedSeries:
    """Rebuild the class member from its generator.

    f(z) = z * (beta + (1 - beta) p_n(z))^(1/alpha) where p_n is the n-fold
    transform of p. The result has f_0 = 0, f_1 = 1 and the requested order.
    The transform, the beta shift and the real power run as one pass over
    the coefficient list.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    coeffs, backend = _generator_coefficients(p, order - 1)
    if coeffs[0] != backend.one:
        raise ValueError("f_from_p needs a generator with constant term 1")
    alpha = backend.scalar(params.alpha)
    q_n = transform_coefficients(coeffs, alpha, params.n)
    shifted = shift_coefficients(q_n, backend.scalar(params.beta), backend.one)
    u = real_power_coefficients(shifted, 1 / alpha, backend.one, backend.zero)
    return TruncatedSeries([backend.zero, *u], order, backend=backend)


def verify_membership(f: TruncatedSeries, params: ClassParams, radius: float, samples: int) -> float:
    """Minimum over |z| = radius of Re D^n(f^alpha)/(alpha^n z^alpha) - beta.

    Positive means the sampled circle is consistent with membership. The
    diagonal map ((alpha + k)/alpha)^n on the coefficients of (f/z)^alpha
    realizes the Salagean normalization without evaluating multivalued
    powers. An f that does not start as z + a_2 z^2 + ..., a float f with
    a NaN or infinite coefficient, and a minimum that overflowed are
    ValueErrors.
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
    e = real_power_coefficients(f.coeffs[1:], alpha, backend.one, backend.zero)
    normalized = TruncatedSeries(
        [(((alpha + k) / alpha) ** params.n) * c for k, c in enumerate(e)],
        f.order - 1,
        backend=backend,
    )
    minimum = min_real_part(normalized, radius, samples)
    if not math.isfinite(minimum):  # inf: every sampled value was NaN
        raise ValueError("the sampled real part is not finite")
    return minimum - float(params.beta)


def extremal_p(k: int, *, backend: Backend = FLOAT) -> HerglotzAtoms:
    """Equal weights on the (k-1)-th roots of unity: the sharpness generator.

    Its series is 1 + 2 z^(k-1) + 2 z^(2(k-1)) + ..., so only the m = 1 term
    feeds a_k and the sharp bound is attained exactly. On the rational
    backend only k = 2 and k = 3 exist (higher k needs irrational roots).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    count = k - 1
    if backend is RATIONAL:
        if k == 2:
            return HerglotzAtoms([Fraction(1)], [backend.coeff(1)], backend=RATIONAL)
        if k == 3:
            half = Fraction(1, 2)
            return HerglotzAtoms(
                [half, half], [backend.coeff(1), backend.coeff(-1)], backend=RATIONAL
            )
        raise ValueError("rational backend carries the extremal generator only for k in {2, 3}")
    weights = [1.0 / count] * count
    weights[-1] = 1.0 - sum(weights[:-1])
    angles = [2.0 * math.pi * j / count for j in range(count)]
    return HerglotzAtoms.from_angles(weights, angles)


@dataclass(frozen=True)
class BoundReport:
    """Observed |a_k| against the applicable bound at one parameter point."""

    k: int
    a_abs: float
    bound: float
    bound_source: str | None
    region: Region
    margin: float
    sharp_hit: bool
    applicable: bool


def bound_report(params: ClassParams, k: int, a_k, *, backend: Backend) -> BoundReport:
    """Pick the applicable bound for (params, k) and compare |a_k| to it.

    alpha > 1 uses the sharp formula; otherwise the omega-region bound if
    alpha falls inside one; otherwise the report is marked inapplicable (the
    open window) and carries no fabricated value.
    """
    region = classify_region(params.alpha, k)
    a_abs = abs(complex(a_k))
    if params.alpha > 1:
        bound_exact = sharp_bound(params, k)
        bound = float(bound_exact)
        if backend is RATIONAL:
            hit = a_k.abs2() == bound_exact * bound_exact
        else:
            hit = abs(bound - a_abs) <= SHARP_HIT_TOL
        return BoundReport(k, a_abs, bound, "sharp", region, bound - a_abs, hit, True)
    t1 = small_alpha_bound(params, k)
    if t1.value is not None:
        bound = float(t1.value)
        margin = bound - a_abs
        return BoundReport(
            k, a_abs, bound, "small_alpha", region, margin, abs(margin) <= SHARP_HIT_TOL, True
        )
    return BoundReport(k, a_abs, math.nan, None, region, math.nan, False, False)
