"""Weight ladders and the per-index generator constructions.

The sharpness argument runs through an alternating series: for h in the
Caratheodory class with coefficients d_mu, the ladder

    gamma_m = 2^(-m) [1 + 1/2 sum_{mu=1}^{m} C(m, mu) d_mu],   gamma_0 = 1

(``gamma_ladder``) feeds the weights eta_m = (1-beta) alpha^n gamma_m /
(alpha+m)^n of the Nehari-type series sum_m (-1)^(m+1) eta_{m-1} G^m
(``nehari_coefficients``). Since G(0) = 0, G = z H and G^m = z^m T_m: at
truncation order K the series is summed from the tails T_m, each through
order K - m, so the leading zeros of the powers are never multiplied.

Hitting the sharp coefficient bound at index k requires the ladder value at
order m = k-1 to equal the target product

    gamma_{m-1} = prod_{j=1}^{m-1} (j alpha - 1) / (m! alpha^(m-1)),

and ``build_hk`` constructs, for each k, a genuine Caratheodory function
(an explicit convex combination of Moebius-type kernels, with the weights
of ``hk_weights``) whose coefficients d_mu satisfy exactly that.
``check_gamma_identity`` verifies the identity at the orders the
construction pins down; ``gamma_identity_row`` gives the ladder-vs-target
row at any order for auditing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .backends import FLOAT, Backend
from .series import power_tails

_HALF = Fraction(1, 2)
#: Largest |ladder - target| that `check_gamma_identity` accepts on float data.
IDENTITY_TOL = 1e-12


def gamma_target(m: int, alpha):
    """Target ladder value prod_{j=1}^{m-1} (j alpha - 1) / (m! alpha^(m-1)).

    Equals 1 at m = 1 and vanishes for m >= 2 at alpha = 1 (the j = 1 factor).
    Exact when alpha is a Fraction.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"ladder index must be a positive integer, got {m!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    prod = alpha**0
    for j in range(1, m):
        prod = prod * (j * alpha - 1)
    return prod / (math.factorial(m) * alpha ** (m - 1))


def gamma_ladder(ds, m_max: int, half) -> list:
    """gamma_m = half^m [1 + half sum_{mu=1}^{m} C(m, mu) d_mu] for m = 0..m_max.

    The entries of ds are backend scalars or numpy columns (see `series`),
    and ``half`` is 1/2 typed to match them; an exact 1/2 keeps rational
    inputs exact. ds needs at least m_max entries.
    """
    out = []
    for m in range(m_max + 1):
        acc = 0
        for mu in range(1, m + 1):
            acc += math.comb(m, mu) * ds[mu - 1]
        acc *= half
        acc += 1
        acc *= half**m
        out.append(acc)
    return out


def nehari_coefficients(gammas, G, n: int, alpha, beta, zero) -> list:
    """A_0..A_K of sum_{m=1}^{K} (-1)^(m+1) eta_{m-1} G^m with K = len(G) - 1.

    eta_{m-1} = (1-beta) alpha^n gamma_{m-1} / (alpha + m - 1)^n. G_0 is taken
    to vanish (it is never read), so G = z H and G^m = z^m T_m, where the
    tail T_m runs through order K - m (`series.power_tails`). Each weighted
    tail is added into A_m..A_K only: the products with the leading zeros
    of G^m, which added exact zeros, are never formed.
    """
    order = len(G) - 1
    total = [zero] * len(G)
    for m, tail in enumerate(power_tails(G[1:], order, zero), start=1):
        weight = (1 - beta) * alpha**n * gammas[m - 1] / (alpha + m - 1) ** n
        if m % 2 == 0:
            weight = -weight
        for i, c in enumerate(tail, start=m):
            total[i] += weight * c
    return total


@dataclass(frozen=True)
class GammaScheme:
    """The d / sigma / gamma data behind one h(z)_k construction.

    ``d`` holds d_1..d_{k-2} (empty at k = 2) and ``gammas`` the ladder
    values gamma_0..gamma_{k-2} derived from them. ``sigma`` is the shared
    even-index coefficient of the k >= 6 recipe (zero for smaller k, where
    the defining coefficient lives in ``d`` directly). ``weights`` are the
    convex-combination weights of h(z)_k, the constant kernel's first (see
    `build_hk`).
    """

    k: int
    alpha: object
    d: tuple
    sigma: object
    gammas: tuple
    weights: tuple


def hk_weights(k: int, alpha):
    """The convex weights of h(z)_k, the constant kernel's first, with sigma and s.

    Returns (weights, sigma, s): ``sigma`` is the shared even coefficient of
    the k >= 6 recipe (zero below k = 6), and ``s`` the sign of the defining
    coefficient d_(k-2) for k in {3, 4, 5} (1 for other k). `build_hk`
    gives the formulas. The weights are exact for a Fraction alpha, so
    ``harness.run_hk_audit`` certifies h in P from them alone. Requires
    alpha > 1.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    if not alpha > 1:
        raise ValueError(f"the generator construction needs alpha > 1, got {alpha!r}")
    one_s = alpha**0
    zero_s = alpha * 0
    if k == 2:
        return (one_s,), zero_s, 1
    if k == 3:
        lam = 1 / alpha
        return (one_s - lam, lam), zero_s, -1
    if k in (4, 5):
        if k == 4:
            dval = 2 * (alpha * alpha - 6 * alpha + 2) / (3 * alpha * alpha)
        else:
            dval = 2 * (3 * alpha**3 - 11 * alpha**2 + 6 * alpha - 1) / (3 * alpha**3)
        lam = abs(dval) / 2
        return (one_s - lam, lam), zero_s, 1 if dval >= 0 else -1
    lam1 = (2 * one_s) / (k - 2)
    even_binom_sum = 2 ** (k - 3) - 1  # C(k-2,2) + C(k-2,4) + ..., even indices up to k-2
    prod = one_s
    for j in range(1, k - 1):
        prod = prod * ((j * alpha - 1) / (j * alpha))
    sigma = 2 ** (k - 1) * prod / ((k - 1) * even_binom_sum)
    return (one_s - lam1 - sigma / 2, lam1, sigma / 2), sigma, 1


def build_hk(k: int, alpha, *, backend: Backend = FLOAT) -> GammaScheme:
    """The GammaScheme of the Caratheodory function h(z)_k.

    Each h is an explicit convex combination of kernels, chosen so that the
    ladder built from its coefficients hits gamma_target at the defining
    order m = k-1; ``scheme.weights`` lists the weights (`hk_weights`), the
    constant kernel's first:

      k = 2: h = 1, weights (1) (all d vanish; the target is gamma_0 = 1).
      k = 3: (1 - 1/alpha) + (1/alpha)(1-z)/(1+z), so d_1 = -2/alpha.
      k = 4: (1 - l) + l (1 + s z^2)/(1 - s z^2) with
             d_2 = 2(alpha^2 - 6 alpha + 2)/(3 alpha^2), l = |d_2|/2,
             s = sign(d_2); d_1 = 0.
      k = 5: same shape one step up: d_3 = 2(3 alpha^3 - 11 alpha^2 +
             6 alpha - 1)/(3 alpha^3) on z^3, d_1 = d_2 = 0.
      k >= 6: l0 + l1 (1 - z) + l2 (1 + z^2)/(1 - z^2) with l1 = 2/(k-2),
             l2 = sigma/2 and l0 = 1 - l1 - l2, where

               sigma = 2^(k-1) prod_{j=1}^{k-2} ((j alpha - 1)/(j alpha))
                       / [(k-1) (C(k-2,2) + C(k-2,4) + ... + C(k-2,xi))]

             with xi the largest even index <= k-2, giving d_1 = -2/(k-2),
             every even coefficient equal to sigma, and every odd
             coefficient above 1 equal to zero.

    d_1..d_{k-2} are formed from the weights alone. The kernels past the
    constant have disjoint supports, so each d is one weight times 2s, -1
    or 2 (exact in floating point too), or zero. P is convex, so h is in P
    exactly when the weights lie in the simplex, which
    ``harness.run_hk_audit`` certifies exactly.

    The sign-dependent kernel for k in {4, 5} covers both sides of the
    alpha where the defining coefficient changes sign with one formula (the
    two convex combinations it specializes to differ beyond the defining
    coefficient only in the sign pattern of the higher kernel powers).
    Requires alpha > 1; exact on the rational backend.
    """
    alpha = backend.scalar(alpha)
    weights, sigma, sign = hk_weights(k, alpha)
    d = [alpha * 0] * (k - 2)
    if 3 <= k <= 5:
        d[k - 3] = weights[1] * (2 * sign)  # (1 + s z^(k-2))/(1 - s z^(k-2)) starts 1 + 2s z^(k-2)
    elif k >= 6:
        d[0] = weights[1] * -1  # 1 - z
        even = weights[2] * 2  # (1 + z^2)/(1 - z^2) = 1 + 2 z^2 + 2 z^4 + ...
        for j in range(2, k - 1, 2):
            d[j - 1] = even
    d = tuple(d)
    gammas = tuple(gamma_ladder(d, k - 2, _HALF))
    return GammaScheme(k=k, alpha=alpha, d=d, sigma=sigma, gammas=gammas, weights=weights)


def gamma_identity_row(scheme: GammaScheme, m: int):
    """The ladder-vs-target row (m, ladder value, target, |residual|) at order m."""
    value = scheme.gammas[m - 1]
    target = gamma_target(m, scheme.alpha)
    return m, value, target, abs(complex(value - target))


def check_gamma_identity(scheme: GammaScheme) -> bool:
    """True when the ladder meets its target at the pinned orders.

    The d-choices for index k are solved from the identity at the defining
    order m = k-1 (plus the vacuous m = 1), and for k >= 4 those are the
    only orders the identity can hold at: the same d's feed every lower
    order, and e.g. k = 4 gives gamma_1 = 1/2 against an m = 2 target of
    (alpha-1)/(2 alpha), unequal for every alpha. So this checks m = 1 and
    m = k-1 — exactly on Fraction data, within `IDENTITY_TOL` otherwise — and
    leaves the full per-order picture to ``gamma_identity_row``.
    """
    exact = isinstance(scheme.alpha, Fraction)
    for m in (1, scheme.k - 1) if scheme.k > 2 else (1,):
        value = scheme.gammas[m - 1]
        target = gamma_target(m, scheme.alpha)
        if exact:
            if value != target:
                return False
        elif abs(complex(value - target)) > IDENTITY_TOL:
            return False
    return True


def recipe_even_constant(k: int) -> Fraction:
    """Rational factor c_k of the k >= 6 recipe's even coefficient.

    sigma factors as c_k * prod_{j=1}^{k-2} (j alpha - 1) / alpha^(k-2) with

        c_k = 2^(k-1) / [(k-1) * (2^(k-3) - 1) * (k-2)!],

    since the even-index binomials C(k-2, 2) + C(k-2, 4) + ... sum to
    2^(k-3) - 1 for either parity of k-2, and the j-product contributes
    1/(k-2)! times the alpha powers.
    """
    if not isinstance(k, int) or k < 6:
        raise ValueError(f"the general recipe starts at k = 6, got {k!r}")
    return Fraction(2 ** (k - 1), (k - 1) * (2 ** (k - 3) - 1) * math.factorial(k - 2))


#: External reference table for the even-coefficient constants c_k of the
#: k >= 6 recipe. Every entry except k = 8 reproduces recipe_even_constant(k);
#: the k = 8 value looks like a digit slip for Fraction(8, 9765). The audit
#: compares and reports — it never asserts these.
TABULATED_EVEN_CONSTANTS = {
    6: Fraction(4, 105),
    7: Fraction(4, 675),
    8: Fraction(8, 10765),
    9: Fraction(2, 19845),
    10: Fraction(4, 360045),
}


@dataclass(frozen=True)
class EvenConstantCheck:
    """One row of the recipe-vs-reference-table constant comparison."""

    k: int
    recomputed: Fraction
    tabulated: Fraction
    agree: bool


def compare_even_constants():
    """Recompute c_k for k = 6..10 and compare against the reference table."""
    rows = []
    for k, tab in sorted(TABULATED_EVEN_CONSTANTS.items()):
        rec = recipe_even_constant(k)
        rows.append(EvenConstantCheck(k=k, recomputed=rec, tabulated=tab, agree=rec == tab))
    return tuple(rows)
