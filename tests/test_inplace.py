"""The in-place kernels and the atom draw: exact where they can be, and no aliasing.

The coefficient kernels accumulate into columns they created (``acc += x``)
and the atom stream's uniforms are made in place. The ``*_parent`` oracles
are the same functions as they stood before, each term a fresh temporary;
the library must match them exactly, on stream columns, on columns with
planted signed zeros, infinities and NaN, and on every scalar type. The
atom draw builds its rows in place too, and each row must be its exact
atom system (``draw_atoms_exact``) rounded: the same dyadic weights, and
points within 4 * 2^-53 per part of exactly unimodular ones.
"""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from coeffbounds import FLOAT, RATIONAL, HerglotzAtoms
from coeffbounds.caratheodory import (
    MAX_ATOMS,
    _uniforms,
    atom_coefficients,
    check_atom_rows,
    draw_atoms,
    shift_coefficients,
    transform_coefficients,
    trial_atoms,
)
from coeffbounds.schemes import nehari_coefficients
from coeffbounds.series import cauchy_coefficients, real_power_coefficients
from coeffbounds.sweeps import _columns, _ladder
from oracles import (
    _uniforms_parent,
    atom_coefficients_parent,
    cauchy_coefficients_parent,
    columns_parent,
    draw_atoms_exact,
    gamma_ladder,
    gamma_ladder_parent,
    nehari_coefficients_parent,
    real_power_coefficients_parent,
)

ORDER = 8
ALPHA, BETA, N = 1.5, 0.25, 2


def same_bits(got, want):
    """Entry by entry: equal bytes, dtype and shape for columns, == for scalars."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray)
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        else:
            assert type(g) is type(w)
            assert g == w


def stream_columns(key: int, rows: int):
    """Per-atom float weight and complex point columns of rows trials of one stream."""
    return columns_parent(draw_atoms([(key, 0, rows)])[:2])


def plant(columns, seed: int):
    """Copies of the columns with +-0.0, +-inf and NaN written into a few rows of each."""
    rng = np.random.default_rng(seed)
    specials = (0.0, -0.0, np.inf, -np.inf, np.nan)
    out = []
    for col in columns:
        col = col.copy()
        rows = rng.choice(col.size, size=min(col.size, 2 * len(specials)), replace=False)
        for i, row in enumerate(rows):
            value = specials[i % len(specials)]
            if np.iscomplexobj(col):
                other = specials[(i + 2) % len(specials)] if i % 2 else col[row].imag
                col[row] = complex(value, other)
            else:
                col[row] = value
        out.append(col)
    return out


def column_cases():
    """(label, weights, points, zero, one) over stream, one-row, float-only and planted columns."""
    cases = []
    for rows in (4096, 1):
        weights, points = stream_columns(0x243F6A8885A308D3 + rows, rows)
        cases.append((f"complex-{rows}", weights, points, FLOAT.zero, FLOAT.one))
        real = [np.ascontiguousarray(p.real) for p in points]
        cases.append((f"float64-{rows}", weights, real, 0.0, 1.0))
    weights, points = stream_columns(0x13198A2E03707344, 4096)
    cases.append(("planted-complex", plant(weights, 1), plant(points, 2), FLOAT.zero, FLOAT.one))
    real = [np.ascontiguousarray(p.real) for p in points]
    cases.append(("planted-float64", plant(weights, 3), plant(real, 4), 0.0, 1.0))
    return cases


CASES = column_cases()
IDS = [case[0] for case in CASES]


#: atom series, Cauchy product, real power, gamma ladder, Nehari sum
LIBRARY_KERNELS = (atom_coefficients, cauchy_coefficients, real_power_coefficients, gamma_ladder,
                   nehari_coefficients)
PARENT_KERNELS = (atom_coefficients_parent, cauchy_coefficients_parent, real_power_coefficients_parent,
                  gamma_ladder_parent, nehari_coefficients_parent)


def kernel_runs(kernels, weights, points, zero, one, half=0.5, alpha=ALPHA, beta=BETA, c=1 / ALPHA):
    """Every kernel once, each on inputs the parent kernels built, so a difference shows where it is made."""
    atom_k, cauchy_k, power_k, ladder_k, nehari_k = kernels
    if kernels is PARENT_KERNELS:  # the parent Cauchy product starts its sums at the caller's zero
        cauchy_k = partial(cauchy_k, zero=zero)
    else:  # the library ladder skips the caller's zero object, which no column is
        ladder_k = partial(ladder_k, zero=zero)
    atoms = atom_coefficients_parent(weights, points, ORDER, one)
    other = atom_coefficients_parent(weights[::-1], points[::-1], ORDER, one)
    g = shift_coefficients(transform_coefficients(atoms, alpha, N, zero), beta, one, zero)
    gammas = gamma_ladder_parent(atoms[1:], ORDER - 1, half)
    G = [zero, *cauchy_coefficients_parent(atoms, other, zero)[1:]]
    return {
        "atom_coefficients": atom_k(weights, points, ORDER, one),
        "cauchy_coefficients": cauchy_k(atoms, other),
        "real_power_coefficients": power_k(g, c, one, zero),
        "gamma_ladder": ladder_k(atoms[1:], ORDER - 1, half),
        "nehari_coefficients": nehari_k(gammas, G, N, alpha, beta, zero),
    }


@pytest.mark.parametrize("label, weights, points, zero, one", CASES, ids=IDS)
def test_column_kernels_match_parent_bits(label, weights, points, zero, one):
    with np.errstate(all="ignore"):
        got = kernel_runs(LIBRARY_KERNELS, weights, points, zero, one)
        want = kernel_runs(PARENT_KERNELS, weights, points, zero, one)
    for name in want:
        same_bits(got[name], want[name])


def scalar_cases():
    """(label, weights, points, zero, one, half, alpha, beta, c) on each scalar type."""
    atoms = draw_atoms([(0x0123456789ABCDEF, 7, 8)])
    used = atoms[2][0]
    float_w = [float(w) for w in atoms[0][0, :used]]
    float_x = [complex(x) for x in atoms[1][0, :used]]
    exact = HerglotzAtoms.from_rational([Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)],
                                        [Fraction(1, 2), Fraction(-3, 4), Fraction(2)])
    return [
        ("complex", float_w, float_x, FLOAT.zero, FLOAT.one, 0.5, ALPHA, BETA, 1 / ALPHA),
        ("rational-complex", list(exact.weights), list(exact.points), RATIONAL.zero, RATIONAL.one,
         Fraction(1, 2), Fraction(3, 2), Fraction(1, 4), Fraction(2, 3)),
        ("fraction", [Fraction(1, 4), Fraction(3, 4)], [Fraction(1), Fraction(-1)], Fraction(0),
         Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(1, 4), Fraction(2, 3)),
    ]


SCALAR_CASES = scalar_cases()


@pytest.mark.parametrize("label, weights, points, zero, one, half, alpha, beta, c",
                         SCALAR_CASES, ids=[case[0] for case in SCALAR_CASES])
def test_scalar_kernels_match_parent(label, weights, points, zero, one, half, alpha, beta, c):
    got = kernel_runs(LIBRARY_KERNELS, weights, points, zero, one, half, alpha, beta, c)
    want = kernel_runs(PARENT_KERNELS, weights, points, zero, one, half, alpha, beta, c)
    for name in want:
        same_bits(got[name], want[name])


def draw_cases():
    """200 (key, start, stop): 1-row draws, blocks, an empty draw and starts near 10^12."""
    rng = np.random.default_rng(2024)
    cases = [(0, 0, 0), (2**64 - 1, 0, 1), (0, 10**12, 10**12 + 1)]
    for i in range(197):
        key = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
        start = int(rng.integers(10**12 - 10**6, 10**12 + 10**6)) if i % 3 == 0 else int(rng.integers(0, 10**5))
        rows = 1 if i % 2 == 0 else int(rng.integers(2, 300))
        cases.append((key, start, start + rows))
    return cases


DRAW_CASES = draw_cases()


def test_uniforms_match_parent_bits():
    assert len(DRAW_CASES) >= 200
    width = 2 * MAX_ATOMS
    for key, start, stop in DRAW_CASES:
        assert _uniforms([(key, start * width, stop * width)]).tobytes() == (
            _uniforms_parent(key, start * width, stop * width).tobytes())


def test_draw_is_block_invariant_over_random_splits():
    rng = np.random.default_rng(7)
    for key, start, stop in DRAW_CASES:
        whole = draw_atoms([(key, start, stop)])
        cuts = sorted(int(c) for c in rng.integers(start, stop + 1, size=int(rng.integers(0, 4))))
        edges = [start, *cuts, stop]
        pieces = [draw_atoms([(key, a, b)]) for a, b in zip(edges, edges[1:])]
        for parts, want in zip(zip(*pieces), whole):
            got = np.concatenate(parts)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (key, start, stop, edges)


def block_cases():
    """100 segment lists over 1-4 stream keys, with empty, one-row and longer segments, and no segment."""
    rng = np.random.default_rng(2025)
    cases = [[]]
    for _ in range(99):
        keys = [int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 5)))]
        segments = []
        for _ in range(int(rng.integers(1, 9))):
            start = int(rng.integers(0, 10**12)) if rng.integers(0, 4) == 0 else int(rng.integers(0, 5000))
            rows = int(rng.choice([0, 1, int(rng.integers(2, 300))]))
            segments.append((keys[int(rng.integers(0, len(keys)))], start, start + rows))
        cases.append(segments)
    return cases


def test_block_draw_equals_its_one_segment_draws():
    for segments in block_cases():
        given = list(segments)
        block = draw_atoms(segments)
        assert segments == given
        for i, a in enumerate(block):
            assert not any(np.shares_memory(a, b) for b in block[i + 1 :])
        assert len(block[2]) == sum(stop - start for _, start, stop in segments)
        pieces = [draw_atoms([segment]) for segment in segments]
        for parts, got in zip(zip(*pieces), block):
            want = np.concatenate(parts)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), segments
        check_atom_rows(*block)
        assert block[0].T.flags.c_contiguous and block[1].T.flags.c_contiguous
        row = 0
        for key, start, stop in segments:
            row += stop - start
            if stop > start:
                # the last trial of each segment rebuilds to its row
                weights, points, counts = (a[row - 1] for a in block)
                atoms = trial_atoms(key, stop - 1)
                assert atoms.weights == tuple(weights[:counts].tolist())
                assert atoms.points == tuple(points[:counts].tolist())


def test_draw_returns_fresh_arrays():
    key, start, stop = 0x3243F6A8885A308D, 5, 300
    first = draw_atoms([(key, start, stop)])
    want = [a.copy() for a in first]
    for i, a in enumerate(first):
        assert not any(np.shares_memory(a, b) for b in first[i + 1 :])
    for a in first:
        a[...] = 0
    second = draw_atoms([(key, start, stop)])
    for got, w in zip(second, want):
        assert got.tobytes() == w.tobytes()
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_rows_round_exact_atom_systems():
    # 4 * 2^-53 is 4 ulps of a part in [1/2, 1), and 2 of the unit
    tolerance = Fraction(4, 2**53)
    for key, start, stop in DRAW_CASES:
        weights, points, counts = draw_atoms([(key, start, stop)])
        check_atom_rows(weights, points, counts)
        for row, (count, exact_weights, exact_points) in enumerate(draw_atoms_exact(key, start, stop)):
            assert counts[row] == count
            drawn_weights = [Fraction(w) for w in weights[row].tolist()]
            assert drawn_weights == exact_weights
            assert sum(drawn_weights) == 1
            for x, twin in zip(points[row].tolist(), exact_points):
                assert twin.abs2() == 1
                assert abs(Fraction(x.real) - twin.re) <= tolerance, (key, start + row, x)
                assert abs(Fraction(x.imag) - twin.im) <= tolerance, (key, start + row, x)


@pytest.mark.parametrize("rows", [4096, 1])
def test_float_weight_columns_give_the_parent_series(rows):
    atoms = draw_atoms([(0x452821E638D01377, 3, 3 + rows)])[:2]
    weights, points = _columns(atoms)
    assert all(w.dtype == np.float64 and w.flags.c_contiguous for w in weights)
    assert all(x.dtype == np.complex128 and x.flags.c_contiguous for x in points)
    got = atom_coefficients(weights, points, 12, FLOAT.one)
    want = atom_coefficients_parent(*columns_parent(atoms), 12, FLOAT.one)
    same_bits(got, want)


def test_one_row_columns_give_the_rows_of_a_long_call():
    # numpy rounds an in-place complex multiply of a length-1 array without fused multiply-adds
    # (`series`), so a kernel that multiplied complex columns in place would fail here
    atoms = draw_atoms([(0xA4093822299F31D0, 0, 4096)])[:2]
    weights, points = _columns(atoms)

    def runs(rows):
        out = kernel_runs(LIBRARY_KERNELS, [w[rows] for w in weights], [x[rows] for x in points],
                          FLOAT.zero, FLOAT.one)
        out["sweeps._ladder"] = _ladder([a[rows] for a in atoms], ORDER)
        return out

    long = runs(slice(None))
    for row in (0, 1, 2, 1000, 4095):
        for name, got in runs(slice(row, row + 1)).items():
            want = [x[row : row + 1] if isinstance(x, np.ndarray) else x for x in long[name]]
            same_bits(got, want)


@pytest.mark.parametrize("label, weights, points, zero, one", CASES, ids=IDS)
def test_kernels_leave_inputs_and_share_no_memory(label, weights, points, zero, one):
    with np.errstate(all="ignore"):
        atoms = atom_coefficients_parent(weights, points, ORDER, one)
        other = atom_coefficients_parent(weights[::-1], points[::-1], ORDER, one)
        g = shift_coefficients(transform_coefficients(atoms, ALPHA, N, zero), BETA, one, zero)
        gammas = gamma_ladder_parent(atoms[1:], ORDER - 1, 0.5)
    G = [zero, *other[1:]]
    runs = (
        (atom_coefficients, (weights, points, ORDER, one)),
        (cauchy_coefficients, (atoms, other)),
        (real_power_coefficients, (g, 1 / ALPHA, one, zero)),
        (gamma_ladder, (atoms[1:], ORDER - 1, 0.5, zero)),
        (nehari_coefficients, (gammas, G, N, ALPHA, BETA, zero)),
    )
    for kernel, args in runs:
        inputs = [x for arg in args if isinstance(arg, list) for x in arg if isinstance(x, np.ndarray)]
        before = [x.tobytes() for x in inputs]
        with np.errstate(all="ignore"):
            out = [x for x in kernel(*args) if isinstance(x, np.ndarray)]
        assert [x.tobytes() for x in inputs] == before, kernel.__name__
        for i, x in enumerate(out):
            assert not any(np.shares_memory(x, y) for y in inputs), kernel.__name__
            assert not any(np.shares_memory(x, y) for y in out[i + 1 :]), kernel.__name__
