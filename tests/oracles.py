"""Independent routes the tests check the library against.

The library's `TruncatedSeries` only holds coefficients, so every oracle
here works on plain coefficient lists (``series.coeffs``), and the few list
operations the tests need live here too: ``mul_oracle`` (a schoolbook
product), ``add_coefficients``/``scale_coefficients`` and ``evaluate`` (a
Horner loop).

- ``transform_coefficients_by_quadrature`` recomputes the iterated integral
  transform without its closed form. The closed form multiplies the k-th
  coefficient by (alpha/(alpha+k))^n; this evaluates

      (T g)(z) = alpha * integral_0^1 s^(alpha-1) g(s z) ds

  by Gauss-Legendre quadrature (after s = u^2, which removes the endpoint
  singularity for alpha = 1/2 and keeps the integrand polynomial for the
  half-integer and integer alphas used in tests), nests the quadrature n
  times, and then reads coefficients off a circle by discrete Fourier
  transform.
- ``dominance_margins_scalar`` and ``nehari_margins_scalar`` recompute one
  sweep trial on scalars, one `HerglotzAtoms` system at a time: through
  `f_from_p`, and through the half-Hadamard, ladder and Nehari kernels on
  the atoms' coefficient lists. They share the coefficient kernels with the
  sweeps, so they check the column split, the padding and the bounds; the
  closed-form oracle ``a_k_direct`` checks the kernels themselves.
- ``a_k_direct`` expands a_k as a sum over powers of the transformed
  generator, without the real-power recurrence.
- ``f_from_p_by_wrappers`` is `f_from_p` as a composition of steps, one
  list per step: the generator cut to its order, the transform
  (``transform_list``), the beta shift (``shift_list``), the real-power
  kernel. The library runs the same arithmetic in one pass over the
  coefficient list, so it must match exactly: ``==`` on floats, as
  fractions on the rational backend.
- ``min_real_part_scalar`` is the minimum of Re over equally spaced points
  of a circle, one ``evaluate`` call per point on the ``complex``
  coefficients; the positivity probes of the half-Hadamard composition and
  of h(z)_k read it. The library samples no circle.
- ``hk_coefficients`` expands h(z)_k as the weighted sum of its kernels,
  each kernel written out term by term. `hk_schemes` forms only
  d_1..d_(k-2) straight from the exact weights, so they must equal
  coefficients 1..k-2 of this sum at the exact value of alpha.
- ``hk_weights`` and ``gamma_target`` are the weights of h(z)_k and the
  ladder target at one index, each forming its own running product from
  alpha^0. The library's rows (`hk_weight_row`, `gamma_target_row`) carry
  one running product across the indices; they multiply the same factors
  in the same order, so they must match bit for bit on floats.
- ``random_herglotz`` is the atom system of trial 0 of the stream keyed by
  a seed, a fixed random generator for tests.
- ``classify_region_by_fractions`` is the omega-region test with the
  boundaries 1/(k-2) and 1/(k-3) built as ``Fraction``s and compared
  against alpha; the library compares the integer ratio of alpha instead.
- ``sharp_bound_formula`` is the sharp bound at one index, formed whole;
  the library's row forms the head 2 (1-beta) alpha^(n-1) once per point.
- ``gamma_ladder`` is the whole ladder gamma_0..gamma_m_max, one
  `schemes.gamma_value` call per order; the library forms only the order it
  reads.
- ``scheme_etas`` forms the transformed ladder weights
  eta_m = (1-beta) alpha^n gamma_m / (alpha+m)^n of one `GammaScheme`.
- The ``*_parent`` functions are the coefficient kernels and the uniforms
  of the atom stream with no in-place update: ``acc = acc + x`` with a
  fresh temporary per term, float weight columns, and the SplitMix64
  finalizer built by whole-array expressions. The atom series runs the
  library's recurrence (running weighted powers (2 w_j) x_j^k), the others
  are the kernels as they stood before they accumulated in place. The
  library must match them bit for bit (``tobytes``) on columns and with
  ``==`` on scalars.
- ``draw_atoms_exact`` rebuilds each drawn row's atom system in exact
  arithmetic from its uniforms: dyadic weights and exactly unimodular
  points, which the float rows must equal (weights) or round (points).
- ``real_power_coefficients_dividing`` is the library's real power as it
  stood before indices below the first term became the ``zero`` object:
  it divides each of their empty sums by k. The two must agree in value
  and type, bit for bit on floats.
- ``nehari_coefficients_full`` and ``small_alpha_bound_full`` build every
  power of a series that vanishes at 0 as a full-length Cauchy product,
  leading zeros included. The library sums the same non-zero products in
  the same order from the shifted tails (`series.power_tails`), so it must
  match them exactly: bit for bit on floats, as fractions on the rational
  backend.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from coeffbounds import (
    FLOAT,
    ClassParams,
    HerglotzAtoms,
    TruncatedSeries,
    f_from_p,
)
from coeffbounds.bounds import Region
from coeffbounds._rational import RationalComplex
from coeffbounds.caratheodory import MAX_ATOMS, half_hadamard_coefficients, trial_atoms
from coeffbounds.schemes import gamma_value, hk_weight_row, nehari_coefficients
from coeffbounds.series import cauchy_coefficients, real_power_coefficients


def mul_oracle(a, b, zero) -> list:
    """Truncated product of two coefficient lists as a schoolbook double loop."""
    out = [zero] * len(a)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < len(a):
                out[i + j] = out[i + j] + ai * bj
    return out


def add_coefficients(a, b) -> list:
    return [x + y for x, y in zip(a, b)]


def scale_coefficients(lam, a) -> list:
    return [lam * x for x in a]


def evaluate(coeffs, z, zero):
    """Horner evaluation of the polynomial with these coefficients at z."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def transform_list(coeffs, alpha, n: int) -> list:
    """The n-fold transform: the k-th coefficient times (alpha / (alpha + k))^n, k >= 1."""
    if n == 0:
        return list(coeffs)
    return [coeffs[0], *((alpha / (alpha + k)) ** n * c for k, c in enumerate(coeffs[1:], start=1))]


def shift_list(coeffs, beta) -> list:
    """beta + (1 - beta) p for p_0 = 1."""
    return [coeffs[0], *((1 - beta) * c for c in coeffs[1:])]


def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _eval_iterated(coeffs, alpha, n, z, u, w):
    if n == 0:
        return _horner(coeffs, z)
    inner = _eval_iterated(coeffs, alpha, n - 1, np.outer(z, u * u).ravel(), u, w)
    inner = inner.reshape(len(z), len(u))
    kernel = 2.0 * alpha * w * u ** (2.0 * alpha - 1.0)
    return inner @ kernel


def transform_coefficients_by_quadrature(
    p: TruncatedSeries,
    alpha: float,
    n: int,
    k_max: int,
    *,
    nodes: int = 32,
    circle_points: int = 64,
    radius: float = 0.5,
) -> np.ndarray:
    """Coefficients 0..k_max of the n-fold transform of p, by quadrature.

    ``circle_points`` must comfortably exceed k_max so DFT aliasing (folded
    coefficients at k + j*circle_points, damped by radius^(j*circle_points))
    stays far below the comparison tolerance.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    if circle_points <= k_max:
        raise ValueError("need more circle points than coefficients")
    coeffs = np.array([complex(c) for c in p.coeffs])
    u, w = _gauss_nodes(nodes)
    angles = 2.0 * np.pi * np.arange(circle_points) / circle_points
    z = radius * np.exp(1j * angles)
    values = _eval_iterated(coeffs, float(alpha), n, z, u, w)
    spectrum = np.fft.fft(values) / circle_points
    return spectrum[: k_max + 1] / radius ** np.arange(k_max + 1)


def a_k_direct(p: TruncatedSeries, params: ClassParams, k: int):
    """k-th coefficient of f straight from the expansion, no root-taking.

    a_k = sum_{m=1}^{k-1} Btilde_m C_{k-1}^(m), where C^(m) are coefficients
    of powers of w(z) = sum_l b_l z^l / (alpha + l)^n and

        Btilde_m = (1-beta)^m alpha^(m(n-1)) prod_{j=0}^{m-1}(1 - j alpha) / m!.

    Independent route used to cross-check the f_from_p pipeline.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    if not isinstance(p, TruncatedSeries):
        raise TypeError("a_k_direct expects the generator as a TruncatedSeries")
    if p.order < k - 1:
        raise ValueError(f"generator order {p.order} is below k-1 = {k - 1}")
    backend = p.backend
    alpha, beta, n = (backend.scalar(params.alpha), backend.scalar(params.beta), params.n)
    w = [backend.zero] + [p.coeffs[l] * (1 / (alpha + l) ** n) for l in range(1, k)]
    total = backend.zero
    power = w
    sign_prod = alpha * 0 + 1
    factorial = 1
    for m in range(1, k):
        if m > 1:
            power = cauchy_coefficients(power, w)
            sign_prod = sign_prod * (1 - (m - 1) * alpha)
            factorial *= m
        b_m = (1 - beta) ** m * alpha ** (m * (n - 1)) * sign_prod / factorial
        total = total + b_m * power[k - 1]
    return total


def f_from_p_by_wrappers(p, params: ClassParams, order: int) -> TruncatedSeries:
    """`f_from_p` as the real power 1/alpha of shift_list(transform_list(q, n, alpha), beta)."""
    q = p.series(order - 1) if isinstance(p, HerglotzAtoms) else p
    backend = q.backend
    alpha = backend.scalar(params.alpha)
    g = shift_list(transform_list(q.coeffs[:order], alpha, params.n), backend.scalar(params.beta))
    u = real_power_coefficients(g, 1 / alpha, backend.one, backend.zero)
    return TruncatedSeries([backend.zero, *u], order, backend=backend)


def gamma_ladder(ds, m_max: int, half, zero) -> list:
    """gamma_0..gamma_m_max of coefficients ds, each order by `schemes.gamma_value`."""
    return [gamma_value(ds, m, half, zero) for m in range(m_max + 1)]


def dominance_margins_scalar(atoms, n: int, alpha, beta, k_max: int):
    """One trial of the dominance sweep through the scalar series pipeline."""
    params = ClassParams(n, alpha, beta)
    f = f_from_p(atoms, params, k_max)
    return [
        float(sharp_bound_formula(params, k)) - abs(f.coefficient(k)) for k in range(2, k_max + 1)
    ]


def nehari_margins_scalar(h_atoms, p_atoms, q_atoms, n: int, alpha, beta, k_max: int):
    """One trial of the nehari sweep through the kernels on scalar coefficient lists."""
    half = FLOAT.scalar(Fraction(1, 2))
    af = float(alpha)
    bf = float(beta)
    d = h_atoms.series(k_max - 1).coeffs
    p, q = p_atoms.series(k_max).coeffs, q_atoms.series(k_max).coeffs
    r = half_hadamard_coefficients(p, q, FLOAT.one, half)
    gammas = gamma_ladder(d[1:], k_max - 1, half, FLOAT.zero)
    A = nehari_coefficients(gammas, [FLOAT.zero, *r[1:]], n, af, bf, FLOAT.zero)
    return [
        2.0 * (1.0 - bf) * af**n / (af + k) ** n - abs(A[k])
        for k in range(1, k_max + 1)
    ]


def random_herglotz(seed: int) -> HerglotzAtoms:
    """Deterministic random atom system on the float backend.

    The atoms are trial 0 of the stream keyed by ``seed`` (0 <= seed <
    2^64), so the same seed always yields the same atoms.
    """
    return trial_atoms(seed, 0)


def min_real_part_scalar(p: TruncatedSeries, radius: float, samples: int) -> float:
    """Minimum of Re p on |z| = radius, one point at a time (first strict minimum, NaN skipped)."""
    coeffs = [complex(c) for c in p.coeffs]
    best = math.inf
    for j in range(samples):
        z = radius * cmath.exp(2j * math.pi * j / samples)
        value = evaluate(coeffs, z, 0j).real
        if value < best:
            best = value
    return best


def hk_coefficients(k: int, alpha, order: int) -> list:
    """Coefficients 0..order of h(z)_k: its kernels written out term by term, times their weights.

    ``alpha`` is a backend scalar (float or Fraction); the weights and the
    sign s come from `hk_weight_row`. The kernels are 1, (1 + s z^(k-2))/(1 - s
    z^(k-2)) for k in {3, 4, 5}, and 1, 1 - z, (1 + z^2)/(1 - z^2) for
    k >= 6.
    """
    weights, sign = hk_weight_row(k, alpha)[-1]

    def moebius(step, s):
        """(1 + s z^step)/(1 - s z^step) = 1 + 2 sum_i s^i z^(i step)."""
        return [1] + [2 * s ** (j // step) if j % step == 0 else 0 for j in range(1, order + 1)]

    kernels = [[1] + [0] * order]
    if 3 <= k <= 5:
        kernels.append(moebius(k - 2, sign))
    elif k >= 6:
        kernels += [[1, -1] + [0] * (order - 1), moebius(2, 1)]
    return [sum(w * kernel[j] for w, kernel in zip(weights, kernels)) for j in range(order + 1)]


def hk_weights(k: int, alpha):
    """(weights, s) of h(z)_k at one index: entry k-2 of `hk_weight_row`."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"coefficient index must be an integer >= 2, got {k!r}")
    if not alpha > 1:
        raise ValueError(f"the generator construction needs alpha > 1, got {alpha!r}")
    one_s = alpha**0
    if k == 2:
        return (one_s,), 1
    if k == 3:
        lam = 1 / alpha
        return (one_s - lam, lam), -1
    if k in (4, 5):
        if k == 4:
            dval = 2 * (alpha * alpha - 6 * alpha + 2) / (3 * alpha * alpha)
        else:
            dval = 2 * (3 * alpha**3 - 11 * alpha**2 + 6 * alpha - 1) / (3 * alpha**3)
        lam = abs(dval) / 2
        return (one_s - lam, lam), 1 if dval >= 0 else -1
    product = alpha**0
    for j in range(1, k - 1):
        product = product * ((j * alpha - 1) / (j * alpha))
    lam1 = (2 * one_s) / (k - 2)
    sigma = 2 ** (k - 1) * product / ((k - 1) * (2 ** (k - 3) - 1))
    return (one_s - lam1 - sigma / 2, lam1, sigma / 2), 1


def gamma_target(m: int, alpha):
    """prod_{j=1}^{m-1} (j alpha - 1) / (m! alpha^(m-1)): entry m-1 of `gamma_target_row`."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"ladder index must be a positive integer, got {m!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    product = alpha**0
    for j in range(1, m):
        product = product * (j * alpha - 1)
    return product / (math.factorial(m) * alpha ** (m - 1))


def negated(w):
    """-w, on exact values part by part: `RationalComplex` has no unary minus."""
    if isinstance(w, RationalComplex):
        return RationalComplex(-w.re, -w.im)
    return -w


def nehari_coefficients_full(gammas, G, n: int, alpha, beta, zero) -> list:
    """`schemes.nehari_coefficients` with every power G^m at full length K + 1."""
    order = len(G) - 1
    power = list(G)
    total = [zero] * len(G)
    for m in range(1, order + 1):
        weight = (1 - beta) * alpha**n * gammas[m - 1] / (alpha + (m - 1)) ** n
        if m % 2 == 0:
            weight = negated(weight)
        total = [t + weight * c for t, c in zip(total, power)]
        if m < order:
            power = cauchy_coefficients(power, G)
    return total


def classify_region_by_fractions(alpha, k: int) -> Region:
    """`bounds.classify_region` with Fraction boundaries (None means +inf)."""
    lower = Fraction(1, k - 2) if k > 2 else None
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


def sharp_bound_formula(params: ClassParams, k: int):
    """2 (1 - beta) alpha^(n-1) / (alpha + k - 1)^n as one expression."""
    alpha, beta, n = params.alpha, params.beta, params.n
    return 2 * (1 - beta) * alpha ** (n - 1) / (alpha + (k - 1)) ** n


def small_alpha_bound_full(params: ClassParams, k: int):
    """The value of `bounds.small_alpha_bound_rows` at one k, with every power of the base at full length k."""
    region = classify_region_by_fractions(params.alpha, k)
    if region is Region.OUT_OF_RANGE:
        return None
    m_top = k - 1 if region in (Region.OMEGA1, Region.OMEGA2) else k - 2
    alpha, beta, n = params.alpha, params.beta, params.n
    zero = alpha * 0
    base = [zero] + [1 / (alpha + j) ** n for j in range(1, k)]
    power = list(base)
    total = zero
    sign_prod = 1 - 0 * alpha
    factorial = 1
    for m in range(1, m_top + 1):
        if m > 1:
            power = cauchy_coefficients(power, base)
            sign_prod = sign_prod * (1 - (m - 1) * alpha)
            factorial *= m
        b_m = (2**m) * (1 - beta) ** m * alpha ** (m * (n - 1)) * sign_prod / factorial
        total = total + b_m * power[k - 1]
    return total


def scheme_etas(scheme, alpha, n: int, beta) -> tuple:
    """eta_m = (1-beta) alpha^n gamma_m / (alpha+m)^n for m = 0..k-2; eta_0 is 1-beta."""
    gammas = gamma_ladder(scheme.d, scheme.k - 2, Fraction(1, 2), None)
    return tuple((1 - beta) * alpha**n * g / (alpha + m) ** n for m, g in enumerate(gammas))


# -- the kernels without in-place updates ---------------------------------------
#
# The library's recurrences with a fresh temporary per term, named with a
# ``_parent`` suffix; each calls the other ``_parent`` functions, never the
# library's kernels.


def cauchy_coefficients_parent(a, b, zero) -> list:
    """Truncated Cauchy product c_k = sum_{j=0}^{k} a_j b_{k-j}, k < len(a)."""
    out = []
    for k in range(len(a)):
        acc = zero
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def power_tails_parent(h, count: int, zero):
    """Yield T_1..T_count, the tails (z h)^m = z^m T_m, T_m through order len(h) - m."""
    tail = list(h)
    for m in range(1, count + 1):
        yield tail
        if m < count:
            tail = cauchy_coefficients_parent(tail[:-1], h, zero)


def real_power_coefficients_parent(g, c, one, zero) -> list:
    """Coefficients of g^c for g_0 = 1, from the logarithmic-derivative recurrence."""
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


def real_power_coefficients_dividing(g, c, one, zero) -> list:
    """The library's real power as it stood before it appended the ``zero`` object below g's first term.

    It skips the terms of structural zeros as the library does, but divides
    the empty sum at each index below the first other entry by k.
    """
    terms = [j for j in range(1, len(g)) if g[j] is not zero]
    exact = isinstance(c, Fraction)
    u = [one]
    for k in range(1, len(g)):
        acc = zero
        for j in terms:
            if j > k:
                break
            acc += (c * j - (k - j)) * g[j] * u[k - j]
        if exact:
            u.append(acc / k)
        else:
            acc *= 1.0 / k
            u.append(acc)
    return u


def atom_coefficients_parent(weights, points, order: int, one) -> list:
    """1, b_1, ..., b_order with b_k the sum of the running weighted powers (2 w_j) x_j^k."""
    coeffs = [one]
    terms = [w + w for w in weights]
    for _ in range(order):
        terms = [t * x for t, x in zip(terms, points)]
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        coeffs.append(acc)
    return coeffs


def columns_parent(atoms) -> tuple:
    """Split (trials, MAX_ATOMS) weight and point arrays into per-atom columns."""
    return tuple(list(np.ascontiguousarray(a.T)) for a in atoms)


def gamma_ladder_parent(ds, m_max: int, half) -> list:
    """gamma_m = half^m [1 + half sum_{mu=1}^{m} C(m, mu) d_mu] for m = 0..m_max."""
    out = []
    for m in range(m_max + 1):
        acc = 0
        for mu in range(1, m + 1):
            acc = acc + math.comb(m, mu) * ds[mu - 1]
        out.append((1 + half * acc) * half**m)
    return out


def nehari_coefficients_parent(gammas, G, n: int, alpha, beta, zero) -> list:
    """A_0..A_K of sum_{m=1}^{K} (-1)^(m+1) eta_{m-1} G^m with K = len(G) - 1."""
    order = len(G) - 1
    total = [zero] * len(G)
    for m, tail in enumerate(power_tails_parent(G[1:], order, zero), start=1):
        weight = (1 - beta) * alpha**n * gammas[m - 1] / (alpha + (m - 1)) ** n
        if m % 2 == 0:
            weight = negated(weight)
        total[m:] = [t + weight * c for t, c in zip(total[m:], tail)]
    return total


_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _uniforms_parent(key: int, first: int, stop: int):
    """Uniforms first..stop-1 of stream ``key``, as doubles (x >> 11) 2^-53 in [0, 1)."""
    z = np.arange(first + 1, stop + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(key)
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    z ^= z >> 31
    return (z >> 11).astype(np.float64) * 2.0**-53


def draw_atoms_exact(key: int, start: int, stop: int) -> list:
    """The exact atom system behind each row of `draw_atoms`: (count, weights, points) per trial.

    Read from the trial's uniforms in Fractions and `RationalComplex`: the
    weights are the spacings of the sorted used weight uniforms, and point j
    is i^q (1 + it) / (1 - it) with q = floor(4u) and t = 2(4u - q) - 1.
    Unused slots hold weight 0 and point 1.
    """
    width = 2 * MAX_ATOMS
    out = []
    for row in _uniforms_parent(key, start * width, stop * width).reshape(stop - start, width).tolist():
        u = [Fraction(x) for x in row]
        count = min(1 + math.floor(u[0] * MAX_ATOMS), MAX_ATOMS)
        points = []
        for x in u[1 : 1 + count]:
            q = math.floor(4 * x)
            t = 2 * (4 * x - q) - 1
            turn = (RationalComplex(1), RationalComplex(0, 1), RationalComplex(-1), RationalComplex(0, -1))[q]
            points.append(turn * (RationalComplex(1, t) / RationalComplex(1, -t)))
        edges = [Fraction(0), *sorted(u[1 + MAX_ATOMS : MAX_ATOMS + count]), Fraction(1)]
        weights = [b - a for a, b in zip(edges, edges[1:])]
        pad = MAX_ATOMS - count
        out.append((count, weights + [Fraction(0)] * pad, points + [RationalComplex(1)] * pad))
    return out
