"""Entangled two-photon polarisation phases under loop transport.

A photon pair in Schmidt form sqrt(lam)|AA'> + sqrt(1-lam)|Ap Ap'> is
driven around one spherical loop per photon.  Each loop holonomy phases
the vertex state by -Omega/2 and its orthogonal partner by +Omega/2, so
the pair overlap <initial|final> develops a phase that is nonlinear in
the loop areas whenever the state is entangled.  Each loop's start
vertex fixes its photon's Schmidt basis, so a pair is given by lam and
its two loops: ``simulate_loop_pair(lam, triangle_a, triangle_a_prime)``
and ``franson_coincidence_profile(lam, triangle_a, triangle_a_prime,
chis)`` take the weight (a number or an array) and two
``SphericalTriangle`` (one or a batch); the profile is the coincidence
intensities, off which ``fit_fringe`` reads the pair phase.  Closed
forms here are always checked against direct four-dimensional
simulation in the test batteries.
"""

from __future__ import annotations

import numpy as np

from .core import mark_undefined, tensor, undefined_rows
from .errors import (
    BranchAmbiguityError,
    OrthogonalStatesError,
    UndefinedRatioError,
)
from .geometry import _eigenbasis, loop_holonomy
from .phase import (
    EPS_ORTH,
    PhaseResult,
    pancharatnam_phase,
    pure_interference_profile,
    tilted_overlap,
)


def entangled_phase_closed_form(lam, omega, omega_prime) -> PhaseResult:
    """Closed-form pair phase and visibility after the two loops.

    The overlap is the tilted overlap cos(S/2) + i (1-2 lam) sin(S/2)
    with S = omega + omega', so the phase is arctan[(1-2 lam) tan(S/2)]
    continued through the tangent poles (the branch that tracks the
    overlap argument), and the visibility is the overlap's modulus.  At
    lam = 1/2 the phase is pinned to 0 or pi.  Arrays broadcast into a
    batched result whose vanishing rows are undefined.

    Raises:
        OrthogonalStatesError: where the visibility of a single pair
            vanishes (lam = 1/2 with cos(S/2) = 0).
    """
    lam = np.asarray(lam, dtype=float)
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
        raise ValueError("lam must lie in [0, 1]")
    return PhaseResult.from_overlap(
        tilted_overlap((omega + omega_prime) / 2.0, 2.0 * lam - 1.0),
        OrthogonalStatesError)


def _pair_transport(lam, triangle_a, triangle_a_prime):
    """Pair vectors sqrt(lam)|AA'> + sqrt(1-lam)|A_perp A'_perp>, whose
    Schmidt bases sit at the loops' start vertices, and their images under
    one holonomy per photon, the Kronecker product U_a x U_a' built
    rowwise, (..., 4) with photon 1's slot varying slowest."""
    lam = np.asarray(lam, dtype=float)
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
        raise ValueError("lam must lie in [0, 1]")
    a, ap = (_eigenbasis(t.states[..., 0, :]) for t in (triangle_a, triangle_a_prime))
    initial = (np.sqrt(lam[..., None]) * tensor(a[..., :, 0], ap[..., :, 0])
               + np.sqrt(1.0 - lam[..., None]) * tensor(a[..., :, 1], ap[..., :, 1]))
    u_a = loop_holonomy(triangle_a)
    u_ap = loop_holonomy(triangle_a_prime)
    u_pair = (u_a[..., :, None, :, None] * u_ap[..., None, :, None, :]).reshape(
        initial.shape[:-1] + (4, 4))
    return initial, (u_pair @ initial[..., None])[..., 0]


def simulate_loop_pair(lam, triangle_a, triangle_a_prime) -> PhaseResult:
    """Pair phase from direct 4-dim state evolution under the loop holonomies.

    The Schmidt weight lam is that of |AA'>, with |A> and |A'> the loops'
    start vertices.  One SU(2) holonomy per photon phases the vertex state
    by -Omega/2 and automatically phases the orthogonal partner by
    +Omega/2 (unit determinant), which realises the opposite-orientation,
    equal-area transport of the perpendicular components.  Array lam and
    batched triangles give a batched result whose vanishing rows are
    undefined.

    Raises:
        ValueError: if lam lies outside [0, 1].
        OrthogonalStatesError: if the final overlap of a single pair
            vanishes.
    """
    return pancharatnam_phase(*_pair_transport(lam, triangle_a, triangle_a_prime))


def nonlinearity_ratio(lam, omega, omega_prime):
    """|tan(entangled phase) / tan(product phase)|, the entanglement degree.

    The tangents are formed directly from the two closed forms (avoiding
    an arctan/tan round trip that would lose precision near the poles).
    Arrays broadcast, with NaN in the rows a single call would reject.

    Raises:
        UndefinedRatioError: if the product-phase tangent vanishes or
            either phase is undefined, as at a non-finite angle or lam.
    """
    lam, half = np.broadcast_arrays(lam, (omega + omega_prime) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tangent = np.sin(half) / np.cos(half)  # minus the product-phase tangent
        ratio = np.abs((1.0 - 2.0 * lam) * tangent / tangent)
        visibility = np.abs(tilted_overlap(half, 2.0 * lam - 1.0))
    undefined = False
    for flagged, reason in (
            (visibility < EPS_ORTH, "entangled phase undefined (vanishing visibility)"),
            (~np.isfinite(tangent), "tangents undefined (non-finite angle)"),
            (~np.isfinite(lam), "entangled phase undefined (non-finite lam)"),
            (np.abs(tangent) < 1e-12, "product-phase tangent vanishes")):
        undefined = undefined | undefined_rows(flagged, UndefinedRatioError, reason)
    return mark_undefined(ratio, undefined)


def ancilla_reduction_phase(lam, omega):
    """Pair phase when the second loop shrinks to a point.

    Returns arctan[(1-2 lam) tan(omega/2)] on the overlap-tracking
    branch.  Writing lam = (1+r)/2 this is exactly the mixed-state
    solid-angle phase at Bloch radius r, which is how attaching an
    ancilla purifies the mixed qubit phase.  Arrays broadcast, with NaN
    in the rows a single call would reject.

    Raises:
        BranchAmbiguityError: for |omega| >= 2*pi.
        OrthogonalStatesError: where the visibility vanishes.
    """
    multiturn = undefined_rows(np.abs(omega) >= 2.0 * np.pi, BranchAmbiguityError,
                               "|omega| >= 2*pi is outside the single-turn branch")
    return mark_undefined(entangled_phase_closed_form(lam, omega, 0.0).phase,
                          multiturn)


def franson_coincidence_profile(lam, triangle_a, triangle_a_prime,
                                chis) -> np.ndarray:
    """Coincidence intensities |e^{i chi} initial + final|^2 of the photon pair.

    Models simultaneous arrivals in a two-arm delay interferometer: both
    photons short (initial state, carrying the U(1) shift) or both long
    (loop-evolved state).  Sampled by direct 4-dim arithmetic; the phase
    and visibility that ``fit_fringe`` reads off them recover the closed
    forms.  Array lam and batched triangles take one row of a (..., n)
    grid each.
    """
    return pure_interference_profile(
        *_pair_transport(lam, triangle_a, triangle_a_prime), chis)
