"""The qubit-row kernels formed from real and imaginary parts, a component
at a time, give the bits of the complex routes they replaced, zero signs
included.

On the running host: ``core._cis`` is held to ``np.exp(1j * x)``; the
rows ``matrix_exponential_su2`` writes from their parts to the complex
products cos(angle/2) 1 - (1j sin(angle/2)) (n . sigma) it takes
elsewhere; ``pure_interference_profile`` to the complex superposition
summed by einsum; and the geodesic closure, whose last block now closes
the ring in place, to the blocks closed by a copy of the first state.
``matrix_exponential_su2``, ``geodesic_unitary`` on a degenerate row and
``geometry._exact_overlap`` are also held to float.hex values recorded
from the earlier complex routes (numpy 2.4, x86-64).  Those cases take no
BLAS step whose rounding could depend on the host: every axis has an
exact length, and every overlap is formed elementwise.
"""

import numpy as np
import pytest

from pancha.core import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _cis,
    _unit_axes,
    _unit_bloch,
    haar_state,
    matrix_exponential_su2,
)
from pancha import transport
from pancha.geometry import _exact_overlap, geodesic_unitary
from pancha.phase import _chi_grid, pure_interference_profile
from pancha.transport import DiscretePath, geodesic_closure_solid_angle


def hexes(a):
    """float.hex of every real and imaginary part, in row-major order."""
    parts = np.atleast_1d(np.asarray(a, dtype=complex)).view(float)
    return [float(v).hex() for v in parts.ravel()]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# e^{ix}

RNG = np.random.default_rng(31)
ANGLES = {
    "signed zeros, pi and multiples of pi/2":
        np.array([0.0, -0.0, np.pi, -np.pi, *(np.arange(-8, 9) * (np.pi / 2.0))]),
    "up to 1e6": np.concatenate([RNG.uniform(-1e6, 1e6, 500), RNG.uniform(-4.0, 4.0, 500),
                                 [1e6, -1e6, 5e-324, -5e-324]]),
    "nan and inf": np.array([np.nan, -np.nan, np.inf, -np.inf, 1.0]),
    "rows of a grid": RNG.uniform(-np.pi, np.pi, (3, 7)),
    "one angle": np.float64(-0.0),
}


@pytest.mark.parametrize("x", ANGLES.values(), ids=ANGLES.keys())
def test_cis_gives_the_bits_of_the_complex_exponential(x):
    with np.errstate(invalid="ignore"):
        same_bits(_cis(x), np.exp(1j * np.asarray(x)))


# ---------------------------------------------------------------------------
# SU(2) rotations

def complex_route(axis, angle):
    """cos(angle/2) 1 - (1j sin(angle/2)) (n . sigma), through complex
    products of Pauli constants."""
    half = np.asarray(angle, dtype=float)[..., None, None] / 2.0
    n = _unit_axes(axis)
    n_sigma = (n[..., 0, None, None] * SIGMA_X + n[..., 1, None, None] * SIGMA_Y
               + n[..., 2, None, None] * SIGMA_Z)
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * n_sigma


def _axes_and_angles():
    """Batches that are written from their parts (random rows, and x and z
    parts of either zero sign) and batches that take the complex products
    (a zero angle of either sign, a zero y part, the pole axis)."""
    axes = RNG.standard_normal((500, 3))
    angles = RNG.uniform(-4.0 * np.pi, 4.0 * np.pi, 500)
    signed = axes.copy()
    signed[::3, 0], signed[1::3, 0], signed[::5, 2], signed[1::5, 2] = 0.0, -0.0, 0.0, -0.0
    zeros, zero_angles = axes.copy(), angles.copy()
    zeros[::7, 1], zeros[1::7, 1] = 0.0, -0.0
    zero_angles[::11], zero_angles[1::11] = 0.0, -0.0
    return {
        "random rows": (axes, angles),
        "one axis, many angles": (axes[3], angles),
        "zero x and z parts": (signed, angles),
        "zero y parts": (zeros, angles),
        "zero angles": (axes, zero_angles),
        "pole axis": ((0.0, 0.0, 1.0), zero_angles),
    }


@pytest.mark.parametrize("axis, angle", _axes_and_angles().values(),
                         ids=_axes_and_angles().keys())
def test_su2_rows_give_the_bits_of_the_complex_products(axis, angle):
    same_bits(matrix_exponential_su2(axis, angle), complex_route(axis, angle))


SU2_CASES = {  # axis, angles: float.hex of every part of the rotations
    "zero angle": ((2.0, -1.0, 2.0), 0.0, [
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]),
    "negative zero angle": ((2.0, -1.0, 2.0), -0.0, [
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]),
    "pole axis": ((0.0, 0.0, 1.0), [1.0, -4.0], [
        "0x1.c1528065b7d50p-1", "-0x1.eaee8744b05f0p-2", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.c1528065b7d50p-1", "0x1.eaee8744b05f0p-2",
        "-0x1.aa22657537205p-2", "0x1.d18f6ead1b446p-1", "-0x0.0p+0", "0x0.0p+0",
        "-0x0.0p+0", "0x0.0p+0", "-0x1.aa22657537205p-2", "-0x1.d18f6ead1b446p-1"]),
    "x axis": ((1.0, 0.0, 0.0), [-4.0, 4.0], [
        "-0x1.aa22657537205p-2", "0x0.0p+0", "-0x0.0p+0", "0x1.d18f6ead1b446p-1",
        "-0x0.0p+0", "0x1.d18f6ead1b446p-1", "-0x1.aa22657537205p-2", "0x0.0p+0",
        "-0x1.aa22657537205p-2", "0x0.0p+0", "-0x0.0p+0", "-0x1.d18f6ead1b446p-1",
        "-0x0.0p+0", "-0x1.d18f6ead1b446p-1", "-0x1.aa22657537205p-2", "0x0.0p+0"]),
    "y axis": ((0.0, 1.0, 0.0), [-4.0, 4.0], [
        "-0x1.aa22657537205p-2", "0x0.0p+0", "0x1.d18f6ead1b446p-1", "0x0.0p+0",
        "-0x1.d18f6ead1b446p-1", "0x0.0p+0", "-0x1.aa22657537205p-2", "0x0.0p+0",
        "-0x1.aa22657537205p-2", "0x0.0p+0", "-0x1.d18f6ead1b446p-1", "0x0.0p+0",
        "0x1.d18f6ead1b446p-1", "0x0.0p+0", "-0x1.aa22657537205p-2", "0x0.0p+0"]),
    "tilted axes": ([(3.0, 4.0, 0.0), (2.0, -1.0, 2.0)], [-4.0, 2.5], [
        "-0x1.aa22657537205p-2", "0x0.0p+0", "0x1.7472bef0e29d2p-1", "0x1.17560f34a9f5dp-1",
        "-0x1.7472bef0e29d2p-1", "0x1.17560f34a9f5dp-1", "-0x1.aa22657537205p-2", "0x0.0p+0",
        "0x1.42e3dd88bd952p-2", "-0x1.43eb8a960d65dp-1", "0x1.43eb8a960d65dp-2",
        "-0x1.43eb8a960d65dp-1", "-0x1.43eb8a960d65dp-2", "-0x1.43eb8a960d65dp-1",
        "0x1.42e3dd88bd952p-2", "0x1.43eb8a960d65dp-1"]),
    "nan angle": ((2.0, -1.0, 2.0), [1.0, np.nan], [
        "0x1.c1528065b7d50p-1", "-0x1.4749af83203f5p-2", "0x1.4749af83203f5p-3",
        "-0x1.4749af83203f5p-2", "-0x1.4749af83203f5p-3", "-0x1.4749af83203f5p-2",
        "0x1.c1528065b7d50p-1", "0x1.4749af83203f5p-2", *["nan"] * 8]),
    "nan axis": ([(2.0, -1.0, 2.0), (np.nan, 0.0, 1.0)], 1.0, [
        "0x1.c1528065b7d50p-1", "-0x1.4749af83203f5p-2", "0x1.4749af83203f5p-3",
        "-0x1.4749af83203f5p-2", "-0x1.4749af83203f5p-3", "-0x1.4749af83203f5p-2",
        "0x1.c1528065b7d50p-1", "0x1.4749af83203f5p-2", *["nan"] * 8]),
}


@pytest.mark.parametrize("axis, angle, want", SU2_CASES.values(), ids=SU2_CASES.keys())
def test_su2_gives_the_recorded_entries(axis, angle, want):
    with np.errstate(invalid="ignore"):
        assert hexes(matrix_exponential_su2(axis, angle)) == want


def test_degenerate_geodesic_gives_the_recorded_identity():
    u = np.array([0.6, 0.8, 0.0])
    assert hexes(geodesic_unitary(u, u)) == [
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]


# ---------------------------------------------------------------------------
# overlaps

def _overlap_pairs():
    rng = np.random.default_rng(31)
    pairs = {}
    for d in (2, 3, 4):
        x, y = (rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
                for _ in range(2))
        pairs[f"d {d}"] = (x, y)
    # rows whose component terms are all -0.0 in Re, then in Im, and a NaN row
    x = np.array([[complex(-0.0, 0.0)] * 2, [complex(-0.0, 0.0)] * 2, [np.nan, 0.5j]])
    y = np.array([[complex(1.0, -1.0)] * 2, [complex(1.0, 1.0)] * 2, [1.0, 0.25]])
    pairs["signed zeros and nan"] = (x, y)
    return pairs


OVERLAP_PAIRS = _overlap_pairs()
OVERLAPS = {  # float.hex of Re and Im of each row's <x|y>
    "d 2": ["-0x1.ff7f1a3cab316p-1", "-0x1.ee8179ab68010p-3",
            "-0x1.be515dd8d8db0p-3", "0x1.fdedd0ae29928p-3"],
    "d 3": ["0x1.568b0af77635ap-3", "0x1.1cb57534d8286p+0",
            "-0x1.b1ae86012c60bp-1", "-0x1.77b3e2365d73dp+1"],
    "d 4": ["0x1.23eb94380d51dp+0", "-0x1.bd618ad14da3dp-1",
            "-0x1.5afecd7e199b1p+0", "-0x1.3ce3cdf64323fp+2"],
    "signed zeros and nan": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "nan", "nan"],
}


@pytest.mark.parametrize("name", OVERLAPS)
def test_exact_overlap_gives_the_recorded_parts(name):
    x, y = OVERLAP_PAIRS[name]
    assert hexes(_exact_overlap(x, y)) == OVERLAPS[name]
    rows = [_exact_overlap(a, b) for a, b in zip(x, y)]
    assert all(type(z) is complex for z in rows)
    assert [h for z in rows for h in hexes(z)] == OVERLAPS[name]


# ---------------------------------------------------------------------------
# fringes

def einsum_profile(a, b, chis):
    """|e^{i chi} a + b|^2 through complex superpositions and einsum."""
    shift = np.exp(1j * np.asarray(chis, dtype=float))[..., :, None]
    superposed = (shift * np.asarray(a, dtype=complex)[..., None, :]
                  + np.asarray(b, dtype=complex)[..., None, :])
    return np.einsum("...ij,...ij->...i", superposed.conj(), superposed).real


def _fringe_cases():
    rng = np.random.default_rng(31)
    a, b = haar_state(rng, 2, (40,)), haar_state(rng, 2, (40,))
    signed = np.array([[complex(-0.0, 0.0), complex(1.0, -0.0)], [1.0, 0.0]])
    return {
        "qubit rows, shared grid": (a, b, _chi_grid(64)),
        "qubit rows, a grid each": (a, b, rng.uniform(0.0, 2.0 * np.pi, (40, 16))),
        "qutrit rows": (haar_state(rng, 3, (5,)), haar_state(rng, 3, (5,)), _chi_grid(9)),
        "one pair": (a[0], b[0], _chi_grid(8)),
        "signed zeros and orthogonal states": (signed, signed[::-1], _chi_grid(8)),
    }


@pytest.mark.parametrize("a, b, chis", _fringe_cases().values(), ids=_fringe_cases().keys())
def test_profile_gives_the_bits_of_the_complex_superposition(a, b, chis):
    same_bits(pure_interference_profile(a, b, chis), einsum_profile(a, b, chis))


# ---------------------------------------------------------------------------
# the closing block of the geodesic closure

def closed_by_copy(path):
    """The closure's block sums with the last block closed by a copy of the
    first state, as it was before the ring was written in place."""
    states, rows = path.states, int(np.prod(path.states.shape[:-2]))
    total = 0.0
    for lo, hi in transport._blocks(path.n_samples, rows):
        block = states[..., lo:hi + 1, :]
        if hi == path.n_samples:
            block = np.concatenate([block, states[..., :1, :]], axis=-2)
        total = total + transport._swept_area(*_unit_bloch(block))[0]
    return total


def _ring(rows, n):
    """A path of n steps between random states, off the polar axis."""
    rng = np.random.default_rng([rows or 0, n])
    shape = (n + 1,) if rows is None else (rows, n + 1)
    return DiscretePath(np.linspace(0.0, 1.0, n + 1), haar_state(rng, 2, shape))


RINGS = {  # rows (None: a single path), steps
    "one step": (None, 1), "three steps": (None, 3),
    "three blocks": (None, 2 * transport._BLOCK + 5),
    "batch, three steps": (3, 3), "batch, two blocks": (3, 3000),
}


@pytest.mark.parametrize("rows, n", RINGS.values(), ids=RINGS.keys())
def test_closure_ring_gives_the_bits_of_the_copied_block(rows, n):
    path = _ring(rows, n)
    same_bits(geodesic_closure_solid_angle(path), closed_by_copy(path))
