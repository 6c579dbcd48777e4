"""Spin-arm interferometry and its spatial split-beam dual: one law.

In the usual arrangement a spin precesses in one beam of a two-beam
interferometer and the fringe shift reads out the spin relative phase.
In the dual arrangement the beam pair itself carries the phase: both
beams see a transverse field (different strengths), and a spin analyser
behind each beam reads the relative phase of the two spatial states
|A+> and |A->, whose roles mirror the initial and precessed spin states
under the substitution (precession angle) <-> (field-angle difference).
So one closed form, ``dual_phase_closed_form(theta, angle)``, states the
relative-phase law of both arrangements; the overlaps of each one's
explicitly built states and the end-to-end analyser fringe are the
independent routes ``pancha.checks`` compares against it.  The analyser
pass builds the final states once and ``analyser_intensities`` reads
both spin channels from them; the spin-up channel is the fringe that
``fit_fringe`` reads the phase from.
Every kernel takes the angles it computes on: the splitter tilt theta
(``prepare_beam_state(theta)``), the two beams' field angles
(``apply_arm_fields(psi, varphi0, varphi1)``,
``predicted_final_state(theta, varphi0, varphi1)``) or their
difference.  Every kernel is rowwise: angles may be arrays, which
broadcast, and a batch marks undefined rows NaN where a single call
raises.
"""

from __future__ import annotations

import numpy as np

from .core import KET_MINUS_Z, KET_PLUS_Z, tensor
from .errors import OrthogonalStatesError
from .phase import PhaseResult, tilted_overlap


def spin_arm_states(theta, varphi) -> tuple[np.ndarray, np.ndarray]:
    """Initial and precessed states of the single-arm experiment: a spin
    tilted by theta from +z, precessing about z by varphi."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    initial = np.stack([c, s], axis=-1).astype(complex)
    final = np.stack([np.exp(-1j * varphi / 2.0) * c,
                      np.exp(1j * varphi / 2.0) * s], axis=-1)
    return initial, final


def prepare_beam_state(theta) -> np.ndarray:
    """Post-splitter state [cos(theta/2)|0> + sin(theta/2)|1>] x |+z>.

    theta is the beam-splitter tilt, so the transmission amplitude is
    cos(theta/2).  Four components in (beam x spin) order: the beam index
    varies slowest.
    """
    half = np.asarray(theta) / 2.0
    return tensor(np.stack([np.cos(half), np.sin(half)], axis=-1), KET_PLUS_Z)


def apply_arm_fields(psi: np.ndarray, varphi0, varphi1) -> np.ndarray:
    """Apply the per-beam x-axis spin rotations to a (beam x spin) state.

    varphi0 and varphi1 are the precession angles picked up in beams 0
    and 1; the operator is |0><0| x exp(-i varphi0 sx/2) + |1><1| x
    exp(-i varphi1 sx/2); unitary, so norms are preserved.  Each beam's
    spin (a, b) becomes (c a - i s b, c b - i s a) with c, s = cos, sin
    of half its angle.  States (..., 4) broadcast against the field
    angles.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (4,):
        raise ValueError("expected a 4-component (beam x spin) state")
    spins = []
    for varphi, a, b in ((varphi0, psi[..., 0], psi[..., 1]),
                         (varphi1, psi[..., 2], psi[..., 3])):
        half = np.asarray(varphi, dtype=float) / 2.0
        c, s = np.cos(half), np.sin(half)
        spins += [c * a - 1j * s * b, c * b - 1j * s * a]
    return np.stack(np.broadcast_arrays(*spins), axis=-1)


def spatial_vectors(theta, delta_phi) -> tuple[np.ndarray, np.ndarray]:
    """The beam-pair states |A+> and |A-> whose relative phase is measured.

    |A+-> = e^{-+ i dphi/4} cos(theta/2)|0> + e^{+- i dphi/4}
    sin(theta/2)|1> with dphi the field-angle difference.
    """
    quarter = delta_phi / 4.0
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    a_plus = np.stack([np.exp(-1j * quarter) * c, np.exp(1j * quarter) * s], axis=-1)
    a_minus = np.stack([np.exp(1j * quarter) * c, np.exp(-1j * quarter) * s], axis=-1)
    return a_plus, a_minus


def predicted_final_state(theta, varphi0, varphi1) -> np.ndarray:
    """Final state rewritten in terms of the beam-pair vectors.

    (1/2)[e^{-i chi/2}|A+> + e^{i chi/2}|A->] x |+z> +
    (1/2)[e^{-i chi/2}|A+> - e^{i chi/2}|A->] x |-z>, with chi the mean
    of the field angles and |A+-> at their difference; agrees with
    apply_arm_fields on the prepared state to floating precision.
    """
    a_plus, a_minus = spatial_vectors(theta, varphi0 - varphi1)
    half_chi = np.asarray((varphi0 + varphi1) / 2.0)[..., None] / 2.0
    early = np.exp(-1j * half_chi) * a_plus
    late = np.exp(1j * half_chi) * a_minus
    return (tensor(0.5 * (early + late), KET_PLUS_Z)
            + tensor(0.5 * (early - late), KET_MINUS_Z))


def dual_phase_closed_form(theta, angle) -> PhaseResult:
    """Relative phase and visibility of both arrangements, one law.

    For the beam pair, angle is the field-angle difference and the
    result is arg<A-|A+> and |<A-|A+>|; for the spin arm, angle is the
    precession angle and the result is that of the precessed against the
    initial spin.  Closed forms: phase -arctan(cos(theta) tan(angle/2))
    on the overlap-tracking branch, visibility |cos(angle/2) - i
    cos(theta) sin(angle/2)|, the modulus of the same tilted overlap.  The
    overlaps of ``spatial_vectors`` and of ``spin_arm_states`` are the
    independent routes ``check_duality_identity`` compares against.

    Raises:
        OrthogonalStatesError: where the visibility vanishes (theta =
            pi/2 with angle = pi).
    """
    return PhaseResult.from_overlap(
        tilted_overlap(angle / 2.0, np.cos(theta)), OrthogonalStatesError)


def _analyser_states(theta, delta_phi, chis) -> np.ndarray:
    """Final (beam x spin) states for every chi, built end to end with the
    field angles chi +- delta_phi/2; one row of the grid per setup."""
    theta = np.asarray(theta, dtype=float)[..., None]
    half_dphi = np.asarray(delta_phi, dtype=float)[..., None] / 2.0
    return apply_arm_fields(prepare_beam_state(theta), chis + half_dphi,
                            chis - half_dphi)


def _channel(psi, slot) -> np.ndarray:
    """Summed analyser intensity of spin channel ``slot`` (0 up, 1 down)
    over both beams, rescaled by 4 to the 2 + 2 V cos(chi - phase)
    convention of the other profiles."""
    return 4.0 * (np.abs(psi[..., slot]) ** 2 + np.abs(psi[..., 2 + slot]) ** 2)


def analyser_intensities(theta, delta_phi, chis) -> tuple[np.ndarray, np.ndarray]:
    """Summed analyser intensities (spin up, spin down), swept in chi.

    The final states are built once and both beams are projected onto
    each spin channel.  Array theta and delta_phi give one row per setup
    on the shared grid.
    """
    psi = _analyser_states(theta, delta_phi, np.asarray(chis, dtype=float))
    return _channel(psi, 0), _channel(psi, 1)
