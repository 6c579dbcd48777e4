"""Complex linear-algebra substrate: qubit states, Bloch-sphere charts,
tensor products, SU(2) rotations, and reproducible random states.

Conventions used throughout the package:

* State vectors and operators are plain numpy complex arrays.
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

ATOL_NORM = 1e-12


def wrap_angle(angle):
    """Reduce an angle (or array of angles) to the principal branch (-pi, pi]."""
    wrapped = np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def principal_angle(z: complex) -> float:
    """arg(z) in (-pi, pi]; maps the -pi branch edge (Im = -0.0) to +pi."""
    a = float(np.angle(z))
    return np.pi if a <= -np.pi else a


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product <a|b> = sum conj(a_i) b_i.

    Raises:
        ValueError: if the vectors have different dimensions.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


class BlochPoint(NamedTuple):
    """Polar chart (theta in [0, pi], phi in [0, 2*pi)) of a qubit pure state."""

    theta: float
    phi: float

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector on the Bloch sphere."""
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "BlochPoint":
        """Inverse of unit_vector; phi = 0 at the poles by convention."""
        v = np.asarray(v, dtype=float)
        theta = np.arctan2(np.hypot(v[0], v[1]), v[2])
        phi = np.arctan2(v[1], v[0]) % (2.0 * np.pi)
        if theta == 0.0 or theta == np.pi:
            phi = 0.0
        return cls(float(theta), float(phi))


def bloch_to_state(point) -> np.ndarray:
    """Map Bloch angles to the qubit state (cos(theta/2), e^{i phi} sin(theta/2)).

    The global phase is gauge-fixed: the first amplitude is real and
    non-negative, and the north pole (theta = 0) maps to (1, 0) exactly.
    """
    theta, phi = point
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def state_to_bloch(state: np.ndarray) -> BlochPoint:
    """Inverse chart: unit-norm qubit state to Bloch angles.

    theta = 2*arccos(|a0|), evaluated in the equivalent atan2 form that
    stays accurate at the poles; phi = arg(a1) - arg(a0) mod 2*pi, set to
    0 at the poles where the azimuth is a chart artifact.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (2,):
        raise ValueError("state_to_bloch expects a single qubit state")
    a0, a1 = state
    theta = 2.0 * np.arctan2(abs(a1), abs(a0))
    if abs(a0) < ATOL_NORM or abs(a1) < ATOL_NORM:
        return BlochPoint(0.0 if abs(a1) < abs(a0) else np.pi, 0.0)
    phi = (np.angle(a1) - np.angle(a0)) % (2.0 * np.pi)
    return BlochPoint(float(theta), float(phi))


def bloch_vector(state: np.ndarray) -> np.ndarray:
    """Cartesian Bloch vectors (<sx>, <sy>, <sz>), rowwise over (..., 2):
    2 Re(a0* a1), 2 Im(a0* a1) and |a0|^2 - |a1|^2."""
    state = np.asarray(state, dtype=complex)
    a0, a1 = state[..., 0], state[..., 1]
    cross = a0.conj() * a1
    return np.stack([2.0 * cross.real, 2.0 * cross.imag,
                     np.abs(a0) ** 2 - np.abs(a1) ** 2], axis=-1)


def orthogonal_complement(state: np.ndarray) -> np.ndarray:
    """The unique (up to phase) qubit state orthogonal to ``state``."""
    a0, a1 = np.asarray(state, dtype=complex)
    return np.array([-np.conj(a1), np.conj(a0)])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in (system x ancilla) index order.

    Component (i, j) of the pair lands at flat index i * dim(b) + j, i.e.
    the first factor varies slowest.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def haar_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unit vector drawn from an existing generator."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_state(seed: int, dim: int = 2) -> np.ndarray:
    """Deterministic Haar-random unit vector.

    Draws dim complex standard normals (real parts first, imaginary
    second) from PCG64 seeded with ``seed`` and normalizes.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return haar_state(np.random.Generator(np.random.PCG64(seed)), dim)


def _n_dot_sigma(axis) -> np.ndarray:
    """n . sigma for the unit vector n along ``axis``; ValueError if zero."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("axis must be nonzero")
    n = axis / norm
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def matrix_exponential_su2(axis, angle) -> np.ndarray:
    """SU(2) rotation exp(-i * angle * (axis . sigma) / 2).

    Equals cos(angle/2) * 1 - i sin(angle/2) * (axis . sigma); axis is
    normalized first. Rotates Bloch vectors by ``angle`` about ``axis``
    (right-hand rule) and has determinant one.  An array of angles gives
    angle.shape + (2, 2) rotations; a scalar angle gives one 2x2 matrix.

    Raises:
        ValueError: for a zero axis.
    """
    half = np.asarray(angle, dtype=float)[..., None, None] / 2.0
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * _n_dot_sigma(axis)


def qubit_density(r: float, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Qubit density operator with Bloch radius r about the (nonzero) axis."""
    if not -1.0 <= r <= 1.0:
        raise ValueError("Bloch radius must lie in [-1, 1]")
    return 0.5 * (IDENTITY_2 + r * _n_dot_sigma(axis))
