"""Relative phase between quantum states and two-beam interference.

The relative phase between nonorthogonal states is the fringe-maximum
shift arg<A|B> observed when one beam gets a variable U(1) shift chi:

    I(chi) = |e^{i chi}|A> + |B>|^2 = 2 + 2 |<A|B>| cos(chi - arg<A|B>)

and it generalizes to a unitarily evolved mixed state as arg Tr(U rho)
with fringe contrast |Tr(U rho)|.  Interference profiles here are always
computed by direct state arithmetic, so the closed forms above stay
testable claims rather than baked-in assumptions; the comparisons live
in ``pancha.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    from_parts,
    hermitian_rows,
    inner_product,
    mark_undefined,
    principal_angle,
    undefined_rows,
)
from .errors import IllConditionedError, OrthogonalStatesError, VanishingTraceError

#: visibility below which a phase is declared undefined (arg of a
#: near-zero complex number carries no information)
EPS_ORTH = 1e-9


@dataclass(frozen=True)
class PhaseResult:
    """A relative phase with its fringe visibility.

    ``phase`` is on the principal branch (-pi, pi].  When ``defined`` is
    False the visibility fell below EPS_ORTH and ``phase`` is NaN; it
    must not be consumed.  A batch holds one array per field, row by
    row.
    """

    phase: float
    visibility: float
    defined: bool = True

    @classmethod
    def from_overlap(cls, z, error) -> "PhaseResult":
        """Phase and visibility of an overlap, or of an array of them with
        the rows whose visibility is below EPS_ORTH undefined; a single
        overlap that small raises the domain error ``error`` instead."""
        vis = np.hypot(np.real(z), np.imag(z))  # bit for bit abs(z); np.abs is not
        vanishing = undefined_rows(vis < EPS_ORTH, error, lambda: (
            f"overlap modulus {vis:.3e} below {EPS_ORTH:.0e}"))
        phase = mark_undefined(principal_angle(z), vanishing)
        if vanishing.ndim == 0:
            return cls(phase, float(vis))
        return cls(phase, vis, vis >= EPS_ORTH)  # False where NaN


@dataclass(frozen=True)
class InterferenceProfile:
    """Sampled intensity-versus-chi record with the fitted readout."""

    chis: np.ndarray
    intensities: np.ndarray
    extracted: PhaseResult = field(repr=False)


def tilted_overlap(half, k):
    """The overlap cos(half) - i k sin(half) behind every arctan-shaped law.

    Its argument is -arctan(k tan(half)) on the branch that is continuous
    at half = 0 and tracks the overlap through the tangent poles; its
    modulus is the visibility.  The mixed solid-angle, precession,
    entangled-pair, spin-arm and dual closed forms pick k (Bloch radius,
    cos(tilt), 2 lam - 1) and guard their own domains.  Arrays broadcast;
    scalars give a complex.
    """
    # 0.0 - x rather than -x keeps a zero imaginary part at +0.0, so a
    # zero phase is reported as 0.0, never -0.0
    return from_parts(np.cos(half), 0.0 - k * np.sin(half))


def pancharatnam_phase(a: np.ndarray, b: np.ndarray) -> PhaseResult:
    """Relative phase arg<a|b> and visibility |<a|b>|.

    Reduces to alpha for b = e^{i alpha} a.  Rowwise over (..., d)
    states; a batch marks its orthogonal rows undefined.

    Raises:
        OrthogonalStatesError: if |<a|b>| < EPS_ORTH (phase undefined)
            for a single pair of states.
    """
    return PhaseResult.from_overlap(inner_product(a, b), OrthogonalStatesError)


def _two_beam_intensities(a, b, chis) -> np.ndarray:
    """|e^{i chi} a + b|^2 for every chi, by direct state arithmetic;
    rowwise for (..., d) states with (..., n) grids."""
    superposed = (np.exp(1j * chis)[..., :, None] * a[..., None, :]
                  + b[..., None, :])
    return np.einsum("...ij,...ij->...i", superposed.conj(), superposed).real


def pure_interference_profile(a, b, chis) -> InterferenceProfile:
    """Two-beam profile |e^{i chi} a + b|^2 sampled by direct arithmetic.

    Orthogonal states are allowed: the profile is flat and the extracted
    result is marked undefined.  Rowwise over (..., d) states, against a
    shared (n,) grid or one row of a (..., n) grid each.

    Raises:
        IllConditionedError: from ``fit_fringe``, for a single profile on
            a grid that cannot carry the fit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    chis = np.asarray(chis, dtype=float)
    intensities = _two_beam_intensities(a, b, chis)
    return InterferenceProfile(chis, intensities, fit_fringe(chis, intensities))


def trace_overlap(rho, u):
    """Tr(U rho) over the last two axes, rowwise; one pair gives a complex.
    Operators of different dimensions raise ValueError (from the product)."""
    t = np.trace(np.asarray(u, dtype=complex) @ np.asarray(rho, dtype=complex),
                 axis1=-2, axis2=-1)
    return complex(t) if t.ndim == 0 else t


def mixed_phase(rho: np.ndarray, u: np.ndarray) -> PhaseResult:
    """Mixed-state relative phase arg Tr(U rho), visibility |Tr(U rho)|.

    For rank-1 rho = |A><A| this agrees with pancharatnam_phase(|A>, U|A>).
    Rowwise over (..., d, d) stacks; a batch marks its vanishing-trace
    rows undefined.

    Raises:
        VanishingTraceError: if |Tr(U rho)| < EPS_ORTH for a single pair.
    """
    return PhaseResult.from_overlap(trace_overlap(rho, u), VanishingTraceError)


def mixed_interference_profile(rho, u, chis) -> InterferenceProfile:
    """Mixed-state profile as an eigen-ensemble of pure-state profiles.

    Eigendecomposes rho and adds the weighted pure-state profiles of each
    eigenvector against its image under U.  The trace closed form
    2 + 2 Re(e^{i chi} conj(Tr(U rho))) is the independent route it is
    checked against (``check_mixed_profile_routes``, ``run_mixed``).
    Rowwise over (..., d, d) stacks, with one ``eigh`` over the stack,
    which reads one triangle: a rho with a non-finite entry, one further
    than 1e-12 from its conjugate transpose, or one whose eigenvectors are
    not finite gives a NaN profile, where a single rho raises LinAlgError.
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    chis = np.asarray(chis, dtype=float)
    hermitian = hermitian_rows(rho)
    weights, basis = np.linalg.eigh(np.where(hermitian[..., None, None], rho, np.nan))
    undefined_rows(~np.isfinite(basis).all(axis=(-2, -1)), np.linalg.LinAlgError,
                   "rho must be finite and hermitian, with a finite eigendecomposition")
    vectors = basis.swapaxes(-1, -2)  # one eigenvector per row
    images = (u[..., None, :, :] @ vectors[..., :, None])[..., 0]
    profiles = _two_beam_intensities(vectors, images, chis[..., None, :])
    simulated = (weights[..., None] * profiles).sum(axis=-2)
    return InterferenceProfile(chis, simulated, fit_fringe(chis, simulated))


def fit_fringe(chis, intensities) -> PhaseResult:
    """Least-squares harmonic fit I(chi) = c0 + c1 cos(chi) + c2 sin(chi).

    The extracted phase atan2(c2, c1) is the fringe-maximum location and
    the visibility is sqrt(c1^2 + c2^2) / c0, emulating an experimental
    fringe readout.  Needs at least three samples with distinct chi
    spanning at least pi.  Rowwise over (..., n) intensities against a
    shared (n,) grid or one grid per row: each grid's [1, cos chi, sin chi]
    design has one SVD, whose rank counts the singular values above
    lstsq's default cutoff and whose pseudo-inverse gives the coefficients.

    Raises:
        IllConditionedError: for a single row with fewer than three
            distinct chi or a rank-deficient design; a batch marks such
            rows NaN (``defined`` False).
        ValueError: if chis is neither an (n,) grid nor one per row.
    """
    chis = np.asarray(chis, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    if intensities.ndim == 0 or chis.shape not in (intensities.shape[-1:],
                                                   intensities.shape):
        raise ValueError("chis must be an (n,) grid or one grid per row")
    rows = intensities.shape[:-1]
    distinct = 1 + np.count_nonzero(np.diff(np.sort(chis)), axis=-1)
    u, s, vt = np.linalg.svd(np.stack([np.ones_like(chis), np.cos(chis), np.sin(chis)],
                                      axis=-1), full_matrices=False)
    kept = s > s[..., :1] * (np.finfo(float).eps * max(chis.shape[-1], 3))
    rank = np.count_nonzero(kept, axis=-1)
    unfitted = undefined_rows(np.broadcast_to(distinct < 3, rows), IllConditionedError,
                              "need at least 3 distinct chi samples")
    unfitted = unfitted | undefined_rows(np.broadcast_to(rank < 3, rows),
                                         IllConditionedError,
                                         lambda: f"design matrix rank {rank} < 3")
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    pinv = (vt.swapaxes(-1, -2) * s_inv[..., None, :]) @ u.swapaxes(-1, -2)
    c0, c1, c2 = np.moveaxis((pinv @ intensities[..., None])[..., 0], -1, 0)
    visibility = np.divide(np.hypot(c1, c2), c0, where=c0 > EPS_ORTH,
                           out=np.where(np.isnan(c0), np.nan, 0.0))
    defined = ~unfitted & (visibility >= EPS_ORTH)
    return PhaseResult(mark_undefined(np.arctan2(c2, c1), ~defined),
                       mark_undefined(visibility, unfitted),
                       bool(defined) if defined.ndim == 0 else defined)
