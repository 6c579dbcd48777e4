"""Test-side helpers and oracles that the library does not need.

Each is a small formula or convenience that only tests call, kept here
so that ``src/pancha`` holds no test-only code: seeded Haar states, the
Cartesian Bloch vector (independent of the closure's own components),
the inverse polar chart, reversed triangles and triples, random smooth
paths, the spin-arm fringe, and the closed forms and evolutions the
tests compare library kernels against.
"""

import numpy as np

from pancha import checks
from pancha.core import SIGMA_Z, BlochPoint, haar_state, wrap_angle
from pancha.dual import spin_arm_states
from pancha.geometry import MixedTriple, SphericalTriangle
from pancha.phase import pure_interference_profile


def random_state(seed: int, dim: int = 2) -> np.ndarray:
    """Haar-random unit vector from PCG64 seeded with ``seed``."""
    return haar_state(np.random.Generator(np.random.PCG64(seed)), dim)


def bloch_vector(state) -> np.ndarray:
    """Cartesian Bloch vectors (<sx>, <sy>, <sz>), rowwise over (..., 2):
    2 Re(a0* a1), 2 Im(a0* a1) and |a0|^2 - |a1|^2."""
    state = np.asarray(state, dtype=complex)
    a0, a1 = state[..., 0], state[..., 1]
    cross = a0.conj() * a1
    return np.stack([2.0 * cross.real, 2.0 * cross.imag,
                     np.abs(a0) ** 2 - np.abs(a1) ** 2], axis=-1)


def point_from_vector(v) -> BlochPoint:
    """Inverse of BlochPoint.unit_vector; phi = 0 at the poles."""
    v = np.asarray(v, dtype=float)
    theta = np.arctan2(np.hypot(v[0], v[1]), v[2])
    phi = np.arctan2(v[1], v[0]) % (2.0 * np.pi)
    if theta == 0.0 or theta == np.pi:
        phi = 0.0
    return BlochPoint(float(theta), float(phi))


def reversed_triangle(t: SphericalTriangle) -> SphericalTriangle:
    """Same vertices, opposite orientation."""
    return SphericalTriangle(t.a, t.c, t.b)


def reversed_triple(mt: MixedTriple) -> MixedTriple:
    """Opposite orientation: stations b and c swapped, transport inverted."""
    return MixedTriple(mt.weights, mt.basis_a, mt.basis_c, mt.basis_b,
                       np.swapaxes(np.asarray(mt.u, dtype=complex).conj(), -1, -2))


def random_smooth_path(rng, n=256, dim=2):
    """Schroedinger evolution under a random fixed generator, drawn and
    evolved as the geometric-phase battery draws and evolves its paths."""
    return checks._evolved_path(*checks._random_generator(rng, dim), n)


def product_loop_phase(omega, omega_prime) -> float:
    """Relative phase -(omega + omega')/2 of a product pair, principal branch."""
    return wrap_angle(-(omega + omega_prime) / 2.0)


def spin_interference_profile(spec, chis):
    """Two-beam fringe |e^{i chi} initial + precessed|^2 of the spin arm,
    by direct arithmetic."""
    return pure_interference_profile(*spin_arm_states(spec), chis)


def auxiliary_hamiltonian(spec) -> np.ndarray:
    """Generator (cos(theta)/2) sz of the phase-cancelling auxiliary evolution."""
    return 0.5 * np.cos(spec.theta) * SIGMA_Z


def evolution(h, t) -> np.ndarray:
    """exp(-i h t) for a hermitian h, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
