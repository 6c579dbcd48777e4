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

from .core import from_parts, inner_product, principal_angle
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
    def from_overlap(cls, z) -> "PhaseResult":
        """Phase and visibility of an overlap, or of an array of them,
        with the rows whose visibility is below EPS_ORTH undefined."""
        if isinstance(z, complex):
            vis = abs(z)
            if vis < EPS_ORTH:
                return cls(phase=float("nan"), visibility=vis, defined=False)
            return cls(phase=principal_angle(z), visibility=vis)
        vis = np.hypot(z.real, z.imag)  # bit for bit the scalar abs; np.abs is not
        defined = vis >= EPS_ORTH
        return cls(np.where(defined, principal_angle(z), np.nan), vis, defined)


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
    overlap = inner_product(a, b)
    if isinstance(overlap, complex) and abs(overlap) < EPS_ORTH:
        raise OrthogonalStatesError(
            f"overlap modulus {abs(overlap):.3e} below {EPS_ORTH:.0e}"
        )
    return PhaseResult.from_overlap(overlap)


def extract_fringe(chis, intensities) -> PhaseResult:
    """fit_fringe, degrading to an undefined result when the sample grid
    cannot support the three-parameter fit.  Rows of (..., n) grids are
    fitted one by one into a batched result."""
    if np.ndim(intensities) > 1:
        chis = np.broadcast_to(chis, np.shape(intensities))
        fits = [extract_fringe(c, i) for c, i in zip(chis, intensities)]
        return PhaseResult(np.array([f.phase for f in fits], dtype=float),
                           np.array([f.visibility for f in fits], dtype=float),
                           np.array([f.defined for f in fits], dtype=bool))
    try:
        return fit_fringe(chis, intensities)
    except IllConditionedError:
        return PhaseResult(float("nan"), 0.0, defined=False)


def _two_beam_intensities(a, b, chis) -> np.ndarray:
    """|e^{i chi} a + b|^2 for every chi, by direct state arithmetic;
    rowwise for (..., d) states with (..., n) grids."""
    superposed = (np.exp(1j * chis)[..., :, None] * a[..., None, :]
                  + b[..., None, :])
    return np.einsum("...ij,...ij->...i", superposed.conj(), superposed).real


def pure_interference_profile(a, b, chis) -> InterferenceProfile:
    """Two-beam profile |e^{i chi} a + b|^2 sampled by direct arithmetic.

    Orthogonal states are allowed: the profile is flat and the extracted
    result is marked undefined.  Rowwise over (..., d) states, each with
    its own row of a (..., n) grid.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    chis = np.asarray(chis, dtype=float)
    intensities = _two_beam_intensities(a, b, chis)
    return InterferenceProfile(chis, intensities, extract_fringe(chis, intensities))


def mixed_phase(rho: np.ndarray, u: np.ndarray) -> PhaseResult:
    """Mixed-state relative phase arg Tr(U rho), visibility |Tr(U rho)|.

    For rank-1 rho = |A><A| this agrees with pancharatnam_phase(|A>, U|A>).

    Raises:
        VanishingTraceError: if |Tr(U rho)| < EPS_ORTH.
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if rho.shape != u.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {u.shape}")
    t = complex(np.trace(u @ rho))
    if abs(t) < EPS_ORTH:
        raise VanishingTraceError(f"|Tr(U rho)| = {abs(t):.3e} below {EPS_ORTH:.0e}")
    return PhaseResult.from_overlap(t)


def mixed_interference_profile(rho, u, chis) -> InterferenceProfile:
    """Mixed-state profile as an eigen-ensemble of pure-state profiles.

    Eigendecomposes rho and adds the weighted pure-state profiles of each
    eigenvector against its image under U.  The trace closed form
    2 + 2 Re(e^{i chi} conj(Tr(U rho))) is the independent route it is
    checked against (``check_mixed_profile_routes``, ``run_mixed``).
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    chis = np.asarray(chis, dtype=float)

    weights, basis = np.linalg.eigh(rho)
    if not np.isfinite(basis).all():
        raise np.linalg.LinAlgError("eigendecomposition of rho failed")
    simulated = np.zeros_like(chis)
    for k in range(rho.shape[0]):
        vec = basis[:, k]
        simulated += weights[k] * _two_beam_intensities(vec, u @ vec, chis)
    return InterferenceProfile(chis, simulated, extract_fringe(chis, simulated))


def fit_fringe(chis, intensities) -> PhaseResult:
    """Least-squares harmonic fit I(chi) = c0 + c1 cos(chi) + c2 sin(chi).

    The extracted phase atan2(c2, c1) is the fringe-maximum location and
    the visibility is sqrt(c1^2 + c2^2) / c0, emulating an experimental
    fringe readout.  Needs at least three samples with distinct chi
    spanning at least pi.

    Raises:
        IllConditionedError: if the design matrix is rank deficient.
    """
    chis = np.asarray(chis, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    if chis.shape != intensities.shape or chis.ndim != 1:
        raise ValueError("chis and intensities must be 1-d arrays of equal length")
    if np.unique(chis).size < 3:
        raise IllConditionedError("need at least 3 distinct chi samples")

    design = np.column_stack([np.ones_like(chis), np.cos(chis), np.sin(chis)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, intensities, rcond=None)
    if rank < 3:
        raise IllConditionedError(f"design matrix rank {rank} < 3")
    c0, c1, c2 = coeffs
    amplitude = np.hypot(c1, c2)
    if c0 <= EPS_ORTH or amplitude / c0 < EPS_ORTH:
        return PhaseResult(float("nan"), 0.0 if c0 <= EPS_ORTH else amplitude / c0,
                           defined=False)
    return PhaseResult(float(np.arctan2(c2, c1)), float(amplitude / c0))
