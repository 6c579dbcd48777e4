"""Spin-arm interferometry and its spatial split-beam dual.

In the usual arrangement a spin precesses in one beam of a two-beam
interferometer and the fringe shift reads out the spin relative phase.
In the dual arrangement the beam pair itself carries the phase: both
beams see a transverse field (different strengths), and a spin analyser
behind each beam reads the relative phase of the two spatial states
|A+> and |A->, whose roles mirror the initial and precessed spin states
under the substitution (precession angle) <-> (field-angle difference).
Both closed forms evaluate the one tilted-overlap law of ``pancha.phase``;
their independent routes (explicitly built states, the end-to-end
analyser fringe) are compared against them in ``pancha.checks``.
Every kernel is rowwise: spec angles may be arrays, which broadcast, and
a batch marks undefined rows NaN where a single spec raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KET_MINUS_Z, KET_PLUS_Z, matrix_exponential_su2, tensor
from .errors import OrthogonalStatesError
from .phase import (
    InterferenceProfile,
    PhaseResult,
    fit_fringe,
    tilted_overlap,
)

_X_AXIS = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class SpinArmSpec:
    """Spin tilted by theta from +z, precessing about z by varphi."""

    theta: float
    varphi: float


def spin_arm_states(spec: SpinArmSpec) -> tuple[np.ndarray, np.ndarray]:
    """Initial and precessed spin states of the single-arm experiment."""
    c, s = np.cos(spec.theta / 2.0), np.sin(spec.theta / 2.0)
    initial = np.stack([c, s], axis=-1).astype(complex)
    final = np.stack([np.exp(-1j * spec.varphi / 2.0) * c,
                      np.exp(1j * spec.varphi / 2.0) * s], axis=-1)
    return initial, final


def spin_pancharatnam(spec: SpinArmSpec) -> PhaseResult:
    """Relative phase and visibility of the precessed spin state.

    Closed forms: phase -arctan(cos(theta) tan(varphi/2)) on the
    overlap-tracking branch, visibility |cos(varphi/2) - i cos(theta)
    sin(varphi/2)|, the modulus of the same tilted overlap.  The overlap
    of the explicitly constructed states (``spin_arm_states``) is the
    independent route ``check_duality_identity`` compares against.

    Raises:
        OrthogonalStatesError: where the visibility vanishes
            (theta = pi/2 with varphi = pi).
    """
    return PhaseResult.from_overlap(
        tilted_overlap(spec.varphi / 2.0, np.cos(spec.theta)), OrthogonalStatesError)


@dataclass(frozen=True)
class DualSetupSpec:
    """Split-beam arrangement: beam-splitter tilt plus per-beam field angles.

    The transmission amplitude is cos(theta/2); varphi0 and varphi1 are
    the x-axis precession angles picked up in beams 0 and 1.
    """

    theta: float
    varphi0: float
    varphi1: float

    @property
    def delta_phi(self) -> float:
        return self.varphi0 - self.varphi1

    @property
    def chi(self) -> float:
        return (self.varphi0 + self.varphi1) / 2.0


def prepare_beam_state(spec: DualSetupSpec) -> np.ndarray:
    """Post-splitter state [cos(theta/2)|0> + sin(theta/2)|1>] x |+z>.

    Four components in (beam x spin) order: the beam index varies
    slowest.
    """
    half = np.asarray(spec.theta) / 2.0
    return tensor(np.stack([np.cos(half), np.sin(half)], axis=-1), KET_PLUS_Z)


def apply_arm_fields(psi: np.ndarray, spec: DualSetupSpec) -> np.ndarray:
    """Apply the per-beam x-axis spin rotations to a (beam x spin) state.

    The operator is |0><0| x exp(-i varphi0 sx/2) + |1><1| x
    exp(-i varphi1 sx/2); unitary, so norms are preserved.  States
    (..., 4) broadcast against the field angles.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (4,):
        raise ValueError("expected a 4-component (beam x spin) state")
    beams = [matrix_exponential_su2(_X_AXIS, varphi) @ half[..., None]
             for varphi, half in ((spec.varphi0, psi[..., :2]),
                                  (spec.varphi1, psi[..., 2:]))]
    return np.concatenate(np.broadcast_arrays(*beams), axis=-2)[..., 0]


def spatial_vectors(spec: DualSetupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The beam-pair states |A+> and |A-> whose relative phase is measured.

    |A+-> = e^{-+ i dphi/4} cos(theta/2)|0> + e^{+- i dphi/4}
    sin(theta/2)|1> with dphi the field-angle difference.
    """
    quarter = spec.delta_phi / 4.0
    c, s = np.cos(spec.theta / 2.0), np.sin(spec.theta / 2.0)
    a_plus = np.stack([np.exp(-1j * quarter) * c, np.exp(1j * quarter) * s], axis=-1)
    a_minus = np.stack([np.exp(1j * quarter) * c, np.exp(-1j * quarter) * s], axis=-1)
    return a_plus, a_minus


def predicted_final_state(spec: DualSetupSpec) -> np.ndarray:
    """Final state rewritten in terms of the beam-pair vectors.

    (1/2)[e^{-i chi/2}|A+> + e^{i chi/2}|A->] x |+z> +
    (1/2)[e^{-i chi/2}|A+> - e^{i chi/2}|A->] x |-z>; agrees with
    apply_arm_fields on the prepared state to floating precision.
    """
    a_plus, a_minus = spatial_vectors(spec)
    half_chi = np.asarray(spec.chi)[..., None] / 2.0
    early = np.exp(-1j * half_chi) * a_plus
    late = np.exp(1j * half_chi) * a_minus
    return (tensor(0.5 * (early + late), KET_PLUS_Z)
            + tensor(0.5 * (early - late), KET_MINUS_Z))


def dual_phase_closed_form(spec: DualSetupSpec) -> PhaseResult:
    """Dual relative phase arg<A-|A+> and visibility |<A-|A+>|.

    The spin-arm law with the precession angle replaced by the
    field-angle difference.  The direct two-dimensional inner product of
    ``spatial_vectors`` is the independent route
    ``check_duality_identity`` compares against.

    Raises:
        OrthogonalStatesError: at theta = pi/2 with delta_phi = pi.
    """
    return PhaseResult.from_overlap(
        tilted_overlap(spec.delta_phi / 2.0, np.cos(spec.theta)), OrthogonalStatesError)


def dual_coincidence_profile(theta, delta_phi, chis,
                             channel: int = +1) -> InterferenceProfile:
    """Summed analyser fringe in one spin channel, swept in chi.

    The final states for every chi are built at once, end to end, with
    the field angles chi +- delta_phi/2; both beams are projected onto the
    chosen spin channel (+1 or -1), and the two analyser intensities are
    summed.  The raw sum is rescaled by 4 so the result follows the common
    2 + 2 V cos(chi - phase) convention of the other profiles.  Array
    theta and delta_phi give one profile per row on the shared grid.
    """
    if channel not in (+1, -1):
        raise ValueError("channel must be +1 or -1")
    chis = np.asarray(chis, dtype=float)
    theta = np.asarray(theta, dtype=float)[..., None]
    half_dphi = np.asarray(delta_phi, dtype=float)[..., None] / 2.0
    spin_slot = 0 if channel == +1 else 1
    spec = DualSetupSpec(theta, chis + half_dphi, chis - half_dphi)
    psi = apply_arm_fields(prepare_beam_state(spec), spec)
    intensities = 4.0 * (np.abs(psi[..., spin_slot]) ** 2
                         + np.abs(psi[..., 2 + spin_slot]) ** 2)
    return InterferenceProfile(chis, intensities, fit_fringe(chis, intensities))
