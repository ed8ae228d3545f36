"""Weight ladders and the per-index generator constructions.

The sharpness argument runs through an alternating series: for h in the
Caratheodory class with coefficients d_mu, the ladder

    gamma_m = 2^(-m) [1 + 1/2 sum_{mu=1}^{m} C(m, mu) d_mu],   gamma_0 = 1

(``gamma_value`` forms one order of it) feeds the weights eta_m =
(1-beta) alpha^n gamma_m / (alpha+m)^n of the Nehari-type series
sum_m (-1)^(m+1) eta_{m-1} G^m (``nehari_coefficients``). Since G(0) = 0,
G = z H and G^m = z^m T_m: at truncation order K the series is summed from
the tails T_m, each through order K - m, so the leading zeros of the powers
are never multiplied.

Hitting the sharp coefficient bound at index k requires the ladder value at
order m = k-1 to equal the target product

    gamma_{m-1} = prod_{j=1}^{m-1} (j alpha - 1) / (m! alpha^(m-1)),

and ``hk_schemes`` constructs, for k = 2..k_max, a genuine Caratheodory
function h(z)_k (an explicit convex combination of Moebius-type kernels)
whose coefficients d_mu satisfy exactly that. Its weights come from
``hk_weight_row`` and its targets from ``gamma_target_row``; each row holds
its formula once, as one running product over the index. Every scheme is
built in exact arithmetic, and its ladder is formed only at the defining
order, the one order the identity pins down.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._rational import Ratio
from .series import power_tails

_HALF = Ratio(1, 2)


def gamma_target_row(m_max: int, alpha) -> list:
    """Target ladder values prod_{j=1}^{m-1} (j alpha - 1) / (m! alpha^(m-1)) for m = 1..m_max.

    Entry m-1 is the target at order m: 1 at m = 1, and 0 for m >= 2 at
    alpha = 1 (the j = 1 factor). The numerators are one running product,
    so the row forms m_max - 1 factors. Exact when alpha is a Fraction.
    """
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        raise ValueError(f"ladder index must be a positive integer, got {m_max!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    product = alpha**0
    row = []
    for m in range(1, m_max + 1):
        if m > 1:
            product = product * ((m - 1) * alpha - 1)
        row.append(product / (math.factorial(m) * alpha ** (m - 1)))
    return row


def gamma_value(ds, m: int, half, zero):
    """gamma_m = half^m [1 + half sum_{mu=1}^{m} C(m, mu) d_mu], the ladder at one order m.

    The entries of ds are backend scalars or numpy columns (see `series`),
    and ``half`` is 1/2 typed to match them; an exact 1/2 keeps rational
    inputs exact. ds needs at least m entries. A d that is the caller's
    scalar ``zero`` object forms no term (as in
    `series.real_power_coefficients`), and a sum at m >= 1 with no other
    term is that zero; gamma_0's empty sum is the int 0. The entries that
    are one object (the shared even d of `hk_schemes`) form one term, the
    sum of their binomials times it. The sum starts from its first term.
    """
    binomials = {}  # id(d) -> [d, sum of C(m, mu) over the mu that hold d]
    for mu in range(1, m + 1):
        d = ds[mu - 1]
        if d is not zero:
            binomials.setdefault(id(d), [d, 0])[1] += math.comb(m, mu)
    terms = (c * d for d, c in binomials.values())
    acc = next(terms, zero if m else 0)
    for term in terms:
        acc += term
    acc *= half
    acc += 1
    acc *= half**m
    return acc


def nehari_coefficients(gammas, G, n: int, alpha, beta, zero) -> list:
    """A_0..A_K of sum_{m=1}^{K} (-1)^(m+1) eta_{m-1} G^m with K = len(G) - 1.

    eta_{m-1} = (1-beta) alpha^n gamma_{m-1} / (alpha + m - 1)^n, with the
    factor (1-beta) alpha^n formed once. G_0 is taken to vanish (it is never
    read), so G = z H and G^m = z^m T_m, where the tail T_m runs through
    order K - m (`series.power_tails`). Each weighted tail is added into
    A_m..A_K only: the products with the leading zeros of G^m, which added
    exact zeros, are never formed. The m = 1 products start A_1..A_K, A_0 is
    the caller's ``zero``, and an even m subtracts its weighted tail, which
    gives the bits of adding the negated weight times it.
    """
    head = (1 - beta) * alpha**n
    total = [zero]
    for m, tail in enumerate(power_tails(G[1:], len(G) - 1), start=1):
        # one rounding: (alpha + m) - 1 can be an ulp off (alpha = 1.1), and is 0 at m = 1 for alpha below 2^-53
        weight = head * gammas[m - 1] / (alpha + (m - 1)) ** n
        if m == 1:
            total += [weight * c for c in tail]
        elif m % 2:
            for i, c in enumerate(tail, start=m):
                total[i] += weight * c
        else:
            for i, c in enumerate(tail, start=m):
                total[i] -= weight * c
    return total


class GammaScheme(namedtuple("GammaScheme", "k d gamma weights target")):
    """The d / gamma data behind one h(z)_k construction, all exact.

    ``d`` holds d_1..d_{k-2} (empty at k = 2) and ``gamma`` the ladder value
    gamma_{k-2} derived from them, at the defining order m = k-1; for
    k >= 6 every even-index d is the recipe's shared coefficient sigma.
    ``weights`` are the convex-combination weights of h(z)_k, the constant
    kernel's first, and ``target`` is the ladder target at the defining
    order (see `hk_schemes`); the identity holds when ``gamma == target``.
    """

    __slots__ = ()


def hk_weight_row(k_max: int, alpha) -> list:
    """The convex weights of h(z)_k for k = 2..k_max, the constant kernel's first, with s.

    Entry k-2 is (weights, s), with ``s`` the sign of the defining
    coefficient d_(k-2) for k in {3, 4, 5} (1 for other k).
    `hk_schemes` gives the formulas. The products prod_{j=1}^{k-2}
    (j alpha - 1) / (j alpha) of the recipe are one running product, so the
    row forms k_max - 2 factors. The weights are exact for a Fraction
    alpha, so ``harness.run_hk_audit`` certifies h in P from them alone.
    Requires alpha > 1.
    """
    if not isinstance(k_max, int) or k_max < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k_max!r}")
    if not alpha > 1:
        raise ValueError(f"the generator construction needs alpha > 1, got {alpha!r}")
    one_s = alpha**0
    product = one_s
    row = [((one_s,), 1)]
    for k in range(3, k_max + 1):
        product = product * (((k - 2) * alpha - 1) / ((k - 2) * alpha))
        if k == 3:
            lam = 1 / alpha
            row.append(((one_s - lam, lam), -1))
        elif k < 6:
            if k == 4:
                dval = 2 * (alpha * alpha - 6 * alpha + 2) / (3 * alpha * alpha)
            else:
                dval = 2 * (3 * alpha**3 - 11 * alpha**2 + 6 * alpha - 1) / (3 * alpha**3)
            lam = abs(dval) / 2
            row.append(((one_s - lam, lam), 1 if dval >= 0 else -1))
        else:
            lam1 = (2 * one_s) / (k - 2)
            even_binom_sum = 2 ** (k - 3) - 1  # C(k-2,2) + C(k-2,4) + ..., even indices up to k-2
            sigma = 2 ** (k - 1) * product / ((k - 1) * even_binom_sum)
            row.append(((one_s - lam1 - sigma / 2, lam1, sigma / 2), 1))
    return row


def hk_schemes(k_max: int, alpha):
    """An iterator over the GammaSchemes of the Caratheodory functions h(z)_k for k = 2..k_max.

    Each h is an explicit convex combination of kernels, chosen so that the
    ladder built from its coefficients hits its target (`gamma_target_row`)
    at the defining order m = k-1; ``scheme.weights`` lists the weights
    (`hk_weight_row`), the constant kernel's first:

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
    or 2, or zero; the zero d's are the one object ``alpha * 0``, whose
    terms `gamma_value` skips. P is convex, so h is in P exactly when the
    weights lie in the simplex, which ``harness.run_hk_audit`` certifies.

    The sign-dependent kernel for k in {4, 5} covers both sides of the
    alpha where the defining coefficient changes sign with one formula (the
    two convex combinations it specializes to differ beyond the defining
    coefficient only in the sign pattern of the higher kernel powers).
    Requires alpha > 1. Every scheme is exact: the construction runs on
    ``Ratio(alpha)``, so a float alpha is taken at the binary fraction it
    stores.

    The two rows are formed, and the arguments checked, on the call. The
    d's and the ladder value of each k, the costly part, are formed only
    when the iterator reaches that k, so a reader that stops early (as
    ``harness.run_hk_audit`` does at a value it cannot print) builds no
    later k.
    """
    alpha = Ratio(alpha)
    recipes = hk_weight_row(k_max, alpha)
    targets = gamma_target_row(k_max - 1, alpha)
    zero = alpha * 0
    return (_hk_scheme(k, recipe, target, zero)
            for k, recipe, target in zip(range(2, k_max + 1), recipes, targets))


def _hk_scheme(k: int, recipe: tuple, target, zero) -> GammaScheme:
    """The GammaScheme of h(z)_k from its (weights, sign) recipe and its ladder target."""
    weights, sign = recipe
    d = [zero] * (k - 2)
    if 3 <= k <= 5:
        d[k - 3] = weights[1] * (2 * sign)  # (1 + s z^(k-2))/(1 - s z^(k-2)) starts 1 + 2s z^(k-2)
    elif k >= 6:
        d[0] = weights[1] * -1  # 1 - z
        even = weights[2] * 2  # (1 + z^2)/(1 - z^2) = 1 + 2 z^2 + 2 z^4 + ...
        for j in range(2, k - 1, 2):
            d[j - 1] = even
    d = tuple(d)
    return GammaScheme(k=k, d=d, gamma=gamma_value(d, k - 2, _HALF, zero), weights=weights, target=target)


def recipe_even_constant(k: int) -> Ratio:
    """Rational factor c_k of the k >= 6 recipe's even coefficient.

    sigma factors as c_k * prod_{j=1}^{k-2} (j alpha - 1) / alpha^(k-2) with

        c_k = 2^(k-1) / [(k-1) * (2^(k-3) - 1) * (k-2)!],

    since the even-index binomials C(k-2, 2) + C(k-2, 4) + ... sum to
    2^(k-3) - 1 for either parity of k-2, and the j-product contributes
    1/(k-2)! times the alpha powers.
    """
    if not isinstance(k, int) or k < 6:
        raise ValueError(f"the general recipe starts at k = 6, got {k!r}")
    return Ratio(2 ** (k - 1), (k - 1) * (2 ** (k - 3) - 1) * math.factorial(k - 2))


#: External reference table for the even-coefficient constants c_k of the
#: k >= 6 recipe. Every entry except k = 8 reproduces recipe_even_constant(k);
#: the k = 8 value looks like a digit slip for Fraction(8, 9765). The audit
#: compares and reports — it never asserts these.
TABULATED_EVEN_CONSTANTS = {
    6: Ratio(4, 105),
    7: Ratio(4, 675),
    8: Ratio(8, 10765),
    9: Ratio(2, 19845),
    10: Ratio(4, 360045),
}


class EvenConstantCheck(namedtuple("EvenConstantCheck", "k recomputed tabulated agree")):
    """One row of the recipe-vs-reference-table constant comparison."""

    __slots__ = ()


def compare_even_constants():
    """Recompute c_k for k = 6..10 and compare against the reference table."""
    rows = []
    for k, tab in sorted(TABULATED_EVEN_CONSTANTS.items()):
        rec = recipe_even_constant(k)
        rows.append(EvenConstantCheck(k=k, recomputed=rec, tabulated=tab, agree=rec == tab))
    return tuple(rows)
