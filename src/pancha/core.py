"""Complex linear-algebra substrate: qubit states and their Bloch vectors
(the one route from a state is ``_unit_bloch``), tensor products, SU(2)
rotations, and Haar-random states.

Conventions used throughout the package:

* State vectors and operators are plain numpy complex arrays.  Kernels
  work row by row over leading batch axes, a single call being a batch
  of one; where a single call raises a domain error, a batch marks the
  row NaN instead (``undefined_rows``, then ``mark_undefined``).
* ``bloch_to_state`` fixes the global-phase gauge to a real, non-negative
  first amplitude: ``(cos(theta/2), exp(i*phi) sin(theta/2))``.
* All phases are reported on the principal branch ``(-pi, pi]``.
* Randomness comes from numpy's seeded PCG64 generator, which is
  documented and platform-stable, so every seeded test reproduces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

#: basis kets used all over the tests
KET_PLUS_Z = np.array([1.0, 0.0], dtype=complex)
KET_MINUS_Z = np.array([0.0, 1.0], dtype=complex)


def wrap_angle(angle):
    """Reduce an angle (or array of angles) to the principal branch (-pi, pi]."""
    wrapped = np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def principal_angle(z):
    """arg(z) in (-pi, pi], rowwise; maps the -pi branch edge (Im = -0.0)
    to +pi.  A complex scalar gives a float."""
    a = np.angle(z)
    if a.ndim == 0:
        return np.pi if a <= -np.pi else float(a)
    return np.where(a <= -np.pi, np.pi, a)


def from_parts(re, im):
    """The complex re + i im, bit for bit (numpy's re + 1j * im can flip
    the sign of a zero imaginary part); scalars give a complex."""
    if not isinstance(re, np.ndarray) and not isinstance(im, np.ndarray):
        return complex(re, im)
    re, im = np.broadcast_arrays(re, im)
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def undefined_rows(flags, error, message):
    """The rows ``flags`` marks undefined, as a bool array with one entry
    per row of a batch; a single call, whose flag is 0-d, raises
    ``error(message)`` instead when it is set.  ``message`` may be a
    callable, called only to raise, so a batch formats none of its data."""
    flags = np.asarray(flags)
    if flags.ndim == 0 and flags:
        raise error(message() if callable(message) else message)
    return flags


def mark_undefined(values, undefined):
    """``values`` with the rows flagged ``undefined`` set to NaN, the way
    a batched kernel reports rows where a single call would raise; one
    row gives a float."""
    values = np.where(undefined, np.nan, values)
    return float(values) if values.ndim == 0 else values


def inner_product(a, b):
    """Hermitian inner product <a|b> = sum conj(a_i) b_i over the last
    axis, rowwise over broadcast leading axes; 1-d inputs give a complex.

    Rows go through a stacked matmul, which takes np.vdot's BLAS path:
    every row equals np.vdot of that row bit for bit.

    Raises:
        ValueError: if the vectors have different dimensions.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim == b.ndim == 1:
        return complex(np.vdot(a, b))
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


class BlochPoint(NamedTuple):
    """Polar chart (theta in [0, pi], phi in [0, 2*pi)) of a qubit pure state."""

    theta: float
    phi: float

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector on the Bloch sphere; array angles give
        one row per point, shape (..., 3)."""
        st = np.sin(self.theta)
        return np.stack(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)],
            axis=-1)


def bloch_to_state(point) -> np.ndarray:
    """Map Bloch angles to the qubit state (cos(theta/2), e^{i phi} sin(theta/2)).

    The global phase is gauge-fixed: the first amplitude is real and
    non-negative, and the north pole (theta = 0) maps to (1, 0) exactly.
    Array angles give one state per point, shape (..., 2).
    """
    theta, phi = point
    half = np.asarray(theta, dtype=float) / 2.0
    return np.stack([np.cos(half), np.exp(1j * np.asarray(phi)) * np.sin(half)],
                    axis=-1)


def _products(a, b, c, d, scratch, out=None, subtract=False):
    """a b + c d, or a b - c d, in ``out`` (a new array by default), the
    second product formed in ``scratch``: no other temporary is made."""
    out, add = np.multiply(a, b, out=out), np.subtract if subtract else np.add
    return add(out, np.multiply(c, d, out=scratch), out=out)


def _unit_bloch(states):
    """Unit Bloch components (x, y, z) of qubit rows (..., rows, 2), each
    (..., rows), from the real and imaginary parts of the amplitudes a
    and b: 2 Re(a* b), 2 Im(a* b) and |a|^2 - |b|^2, each over the
    length |a|^2 + |b|^2 of the Bloch vector (0-d arrays for one state).
    This is the one route from a state to its Bloch vector."""
    a, b = states[..., 0], states[..., 1]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    pa, pb, scale, x, y, t = (np.empty(ar.shape) for _ in range(6))
    pa, pb = _products(ar, ar, ai, ai, t, pa), _products(br, br, bi, bi, t, pb)
    np.divide(2.0, np.add(pa, pb, out=scale), out=scale)
    np.multiply(_products(ar, br, ai, bi, t, x), scale, out=x)
    np.multiply(_products(ar, bi, ai, br, t, y, subtract=True), scale, out=y)
    np.subtract(pa, pb, out=pa)
    return x, y, np.multiply(pa, np.multiply(0.5, scale, out=t), out=pa)


def orthogonal_complement(state: np.ndarray) -> np.ndarray:
    """The unique (up to phase) qubit state orthogonal to ``state``,
    rowwise over (..., 2)."""
    state = np.asarray(state, dtype=complex)
    return np.stack([-state[..., 1].conj(), state[..., 0].conj()], axis=-1)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors in (system x ancilla) index order,
    rowwise over broadcast leading axes.

    Component (i, j) of the pair lands at flat index i * dim(b) + j, i.e.
    the first factor varies slowest.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    pair = a[..., :, None] * b[..., None, :]
    return pair.reshape(pair.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def _dot(a, b):
    """Dot products over the last axis, rowwise; a stacked matmul takes
    np.dot's BLAS path, so each row equals np.dot bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def hermitian_rows(m) -> np.ndarray:
    """Rows of the (..., d, d) matrices ``m`` that are finite and within
    1e-12 of their conjugate transpose, entry by entry: a non-finite entry
    leaves a NaN or infinite defect, which fails the test."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge entries
        defect = np.abs(m - m.conj().swapaxes(-1, -2))
    return (defect <= 1e-12).all(axis=(-2, -1))


def haar_state(rng: np.random.Generator, dim: int = 2, shape=()) -> np.ndarray:
    """Haar-random unit vectors drawn from an existing generator, shape
    ``shape + (dim,)``.

    One standard_normal(shape + (2, dim)) call gives each vector its dim
    real parts, then its dim imaginary parts, so a block consumes the
    generator exactly as drawing its vectors one at a time does, and
    gives the same vectors.
    """
    z = rng.standard_normal(tuple(shape) + (2, dim))
    re, im = z[..., 0, :], z[..., 1, :]
    return (re + 1j * im) / np.sqrt(_dot(re, re) + _dot(im, im))[..., None]


def _n_dot_sigma(axis) -> np.ndarray:
    """n . sigma for the unit vectors n along the rows of ``axis``
    (..., 3); ValueError if any row is zero."""
    axis = np.asarray(axis, dtype=float)
    norm = np.sqrt(_dot(axis, axis))
    if (norm == 0.0).any():
        raise ValueError("axis must be nonzero")
    n = axis / norm[..., None]
    return (n[..., 0, None, None] * SIGMA_X + n[..., 1, None, None] * SIGMA_Y
            + n[..., 2, None, None] * SIGMA_Z)


def matrix_exponential_su2(axis, angle) -> np.ndarray:
    """SU(2) rotation exp(-i * angle * (axis . sigma) / 2).

    Equals cos(angle/2) * 1 - i sin(angle/2) * (axis . sigma); axis is
    normalized first. Rotates Bloch vectors by ``angle`` about ``axis``
    (right-hand rule) and has determinant one.  Rowwise over (..., 3)
    axes and array angles, which broadcast: the result has shape
    broadcast(angle.shape, axis.shape[:-1]) + (2, 2), so one axis and an
    array of angles give angle.shape + (2, 2) rotations.

    Raises:
        ValueError: for a zero axis.
    """
    half = np.asarray(angle, dtype=float)[..., None, None] / 2.0
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * _n_dot_sigma(axis)


def qubit_density(r, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Qubit density operator with Bloch radius r about the (nonzero) axis,
    rowwise over radii and (..., 3) axes, which broadcast."""
    r = np.asarray(r, dtype=float)
    if not ((-1.0 <= r) & (r <= 1.0)).all():
        raise ValueError("Bloch radius must lie in [-1, 1]")
    return 0.5 * (IDENTITY_2 + r[..., None, None] * _n_dot_sigma(axis))
