"""Entangled two-photon polarisation phases under loop transport.

A photon pair in Schmidt form sqrt(lam)|AA'> + sqrt(1-lam)|Ap Ap'> is
driven around one spherical loop per photon.  Each loop holonomy phases
the vertex state by -Omega/2 and its orthogonal partner by +Omega/2, so
the pair overlap <initial|final> develops a phase that is nonlinear in
the loop areas whenever the state is entangled.  Closed forms here are
always checked against direct four-dimensional simulation in the test
batteries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _require_orthonormal,
    bloch_to_state,
    inner_product,
    mark_undefined,
    orthogonal_complement,
    tensor,
    wrap_angle,
)
from .errors import (
    BasisMisalignedError,
    BranchAmbiguityError,
    OrthogonalStatesError,
    UndefinedRatioError,
)
from .geometry import SphericalTriangle, loop_holonomy
from .phase import (
    EPS_ORTH,
    InterferenceProfile,
    PhaseResult,
    pancharatnam_phase,
    pure_interference_profile,
    tilted_overlap,
)


@dataclass(frozen=True)
class SchmidtState:
    """Two-photon polarisation state in Schmidt form.

    ``basis_a`` and ``basis_a_prime`` are 2x2 matrices whose columns are
    the local orthonormal pairs (|A>, |A_perp>) and (|A'>, |A'_perp>);
    the state itself is sqrt(lam)|AA'> + sqrt(1-lam)|A_perp A'_perp>.
    Storing (lam, bases) instead of the raw 4-vector keeps the degree of
    entanglement exact.  An array of lam with (..., 2, 2) bases makes a
    batch of pairs.
    """

    lam: float
    basis_a: np.ndarray
    basis_a_prime: np.ndarray

    def validate(self) -> "SchmidtState":
        lam = np.asarray(self.lam)
        if not ((0.0 <= lam) & (lam <= 1.0)).all():
            raise ValueError("lam must lie in [0, 1]")
        for name in ("basis_a", "basis_a_prime"):
            _require_orthonormal(getattr(self, name), name)
        return self

    def vector(self) -> np.ndarray:
        """The 4-dim amplitude vectors, photon 1 slot varying slowest."""
        a = np.asarray(self.basis_a, dtype=complex)
        ap = np.asarray(self.basis_a_prime, dtype=complex)
        lam = np.asarray(self.lam, dtype=float)[..., None]
        return (np.sqrt(lam) * tensor(a[..., :, 0], ap[..., :, 0])
                + np.sqrt(1.0 - lam) * tensor(a[..., :, 1], ap[..., :, 1]))


@dataclass(frozen=True)
class LoopPair:
    """One oriented spherical-triangle loop per photon; batched triangles
    make a batch of loop pairs."""

    triangle_a: SphericalTriangle
    triangle_a_prime: SphericalTriangle

    def __getitem__(self, rows) -> "LoopPair":
        """The loop pairs at ``rows`` of a batch."""
        return LoopPair(self.triangle_a[rows], self.triangle_a_prime[rows])


def degree_of_entanglement(s: SchmidtState) -> float:
    """|1 - 2 lam|: 1 for product states, 0 for maximally entangled ones."""
    return abs(1.0 - 2.0 * s.lam)


def product_loop_phase(omega: float, omega_prime: float) -> float:
    """Relative phase -(omega + omega')/2 of a product pair, principal branch."""
    return wrap_angle(-(omega + omega_prime) / 2.0)


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


def schmidt_state_for_loops(lam, loops: LoopPair) -> SchmidtState:
    """Schmidt state whose local bases sit at the loops' start vertices;
    batched loops (and lam) give a batch of states."""
    a = bloch_to_state(loops.triangle_a.a)
    ap = bloch_to_state(loops.triangle_a_prime.a)
    return SchmidtState(
        lam,
        np.stack([a, orthogonal_complement(a)], axis=-1),
        np.stack([ap, orthogonal_complement(ap)], axis=-1),
    )


def _pair_transport(s: SchmidtState, loops: LoopPair):
    """Validated pair vectors and their images under one holonomy per
    photon, the Kronecker product U_a x U_a' built rowwise, (..., 4)."""
    s.validate()
    u_a = loop_holonomy(loops.triangle_a)
    u_ap = loop_holonomy(loops.triangle_a_prime)
    initial = s.vector()
    u_pair = (u_a[..., :, None, :, None] * u_ap[..., None, :, None, :]).reshape(
        initial.shape[:-1] + (4, 4))
    return initial, (u_pair @ initial[..., None])[..., 0]


def simulate_loop_pair(s: SchmidtState, loops: LoopPair) -> PhaseResult:
    """Pair phase from direct 4-dim state evolution under the loop holonomies.

    One SU(2) holonomy per photon phases the vertex state by -Omega/2 and
    automatically phases the orthogonal partner by +Omega/2 (unit
    determinant), which realises the opposite-orientation, equal-area
    transport of the perpendicular components.  Batched states and loops
    give a batched result whose vanishing rows are undefined.

    Raises:
        BasisMisalignedError: if a Schmidt basis state does not sit at
            the first vertex of its loop.
        OrthogonalStatesError: if the final overlap of a single pair
            vanishes.
    """
    initial, final = _pair_transport(s, loops)
    for basis, triangle, name in (
        (s.basis_a, loops.triangle_a, "basis_a"),
        (s.basis_a_prime, loops.triangle_a_prime, "basis_a_prime"),
    ):
        vertex = bloch_to_state(triangle.a)
        overlap = np.abs(inner_product(np.asarray(basis)[..., :, 0], vertex))
        if (np.abs(overlap - 1.0) > 1e-8).any():
            worst = overlap.flat[np.argmax(np.abs(overlap - 1.0))]
            raise BasisMisalignedError(
                f"{name} is not at its loop's start vertex (|overlap| = {worst:.6f})"
            )
    return pancharatnam_phase(initial, final)


def nonlinearity_ratio(lam, omega, omega_prime):
    """|tan(entangled phase) / tan(product phase)|, the entanglement degree.

    The tangents are formed directly from the two closed forms (avoiding
    an arctan/tan round trip that would lose precision near the poles).
    Arrays broadcast, with NaN in the rows a single call would reject.

    Raises:
        UndefinedRatioError: if the product-phase tangent vanishes or
            either phase is undefined, as at a non-finite angle.
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
            (np.abs(tangent) < 1e-12, "product-phase tangent vanishes")):
        if lam.ndim == 0 and flagged:
            raise UndefinedRatioError(reason)
        undefined = undefined | flagged
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
    multiturn = np.abs(omega) >= 2.0 * np.pi
    if np.ndim(multiturn) == 0 and multiturn:
        raise BranchAmbiguityError("|omega| >= 2*pi is outside the single-turn branch")
    return mark_undefined(entangled_phase_closed_form(lam, omega, 0.0).phase,
                          multiturn)


def franson_coincidence_profile(s: SchmidtState, loops: LoopPair,
                                chis) -> InterferenceProfile:
    """Coincidence profile |e^{i chi} initial + final|^2 of the photon pair.

    Models simultaneous arrivals in a two-arm delay interferometer: both
    photons short (initial state, carrying the U(1) shift) or both long
    (loop-evolved state).  Sampled by direct 4-dim arithmetic; the fitted
    phase and visibility recover the closed forms.  Batched states and
    loops take one row of a (..., n) grid each.
    """
    return pure_interference_profile(*_pair_transport(s, loops), chis)
