"""Test-side helpers and oracles that the library does not need.

Each is a small formula or convenience that only tests call, kept here
so that ``src/pancha`` holds no test-only code: seeded Haar states, the
Cartesian Bloch vector (independent of the closure's own components),
the inverse polar chart, reversed triangles, random smooth paths, the
spin-arm fringe, and the closed forms and evolutions the tests compare
library kernels against.

The last sections keep verbatim copies of kernels as they were
before they were rewritten, and the rewrites must give the same bits,
the same NaN rows and the same errors.  First the transport kernels
before they formed each quantity once and wrote into their outputs in
place: ``_swept_area``, ``_precession_states``, ``_link_phases``,
``dynamical_phase`` and ``DiscretePath.validate`` (here
``validate(path)``).  Then the closure's Bloch components and arcs and
the energies before each block was written in place: ``_unit_bloch``,
``_swept_area`` (here ``_swept_area_allocating``) and ``_energies``.
Then the mixed-state triangle law as it was built through a
``MixedTriple`` carrier that re-validated its own data:
``qubit_mixed_triple``, ``MixedTriple.validate`` (with ``_coinciding``
and ``_require_orthonormal``) and ``mixed_bargmann(mt)`` (here
``mixed_triple_bargmann``); like the law, the copies of it here hold no
transport, since a qubit's transport never reached its phase, and they
form their own weighted sum (``weighted_invariant``) from the library's
pinned ``bargmann_invariant``, so a fault in the library's sum shows.
Then ``checks.random_triangle`` as it was when it converted the kept
states to Bloch angles a second time (it passes the samplers' overlap
floor on as the default it always was).  Then the fringe readout as it
was when a profile carried its own fit: ``PhaseResult`` with its
``defined`` flag (and ``from_overlap``), ``fit_fringe``,
``InterferenceProfile`` and ``dual_coincidence_profile``.  Then the
triangle as it was when it held Bloch angles and its kernels turned
them into unit vectors and states on each call: ``SphericalTriangle``
(built from states by ``state_to_bloch``), ``solid_angle``,
``geodesic_unitary`` on points, ``_arc_rotation``, ``loop_holonomy``,
``mixed_bargmann(t, r)`` (here ``angle_mixed_bargmann``),
``sample_triangle_path`` and ``twophoton._pair_transport``.
The earlier copies above that take a triangle (``qubit_mixed_triple``,
``random_triangle``) take and give this one.  Last, the two cyclic
overlap products before ``bargmann_invariant(*states)`` took any number
of states: the left-to-right ``_product``, the three-state
``bargmann_invariant(a, b, c)`` and ``multi_vertex_invariant``, which
formed its links with the BLAS ``inner_product``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pancha import checks
from pancha import geometry
from pancha.core import (
    SIGMA_Z,
    BlochPoint,
    _dot,
    bloch_to_state,
    from_parts,
    haar_state,
    hermitian_rows,
    inner_product,
    mark_undefined,
    matrix_exponential_su2,
    principal_angle,
    tensor,
    undefined_rows,
    wrap_angle,
)
from pancha.dual import _analyser_states, _channel, spin_arm_states
from pancha.errors import (
    AntipodalPointsError,
    DegenerateSpectrumError,
    DegenerateTriangleError,
    IllConditionedError,
    OrthogonalStatesError,
)
from pancha.geometry import (
    EPS_GEO,
    _edge,
    _eigenbasis,
    _exact_overlap,
    _guard,
    girard_signed_area,
)
from pancha.phase import EPS_ORTH, pure_interference_profile
from pancha.transport import DiscretePath, _blocks, _precession_axis


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


def reversed_triangle(t: geometry.SphericalTriangle) -> geometry.SphericalTriangle:
    """Same vertices, opposite orientation."""
    return t._of(t.vectors[..., [0, 2, 1], :], t.states[..., [0, 2, 1], :])


def random_smooth_path(rng, n=256, dim=2):
    """Schroedinger evolution under a random fixed generator, drawn and
    evolved as the geometric-phase battery draws and evolves its paths."""
    h, psi0 = checks._random_generators(rng, 1, dim)
    return checks._evolved_path(h[0], psi0[0], n)


def product_loop_phase(omega, omega_prime) -> float:
    """Relative phase -(omega + omega')/2 of a product pair, principal branch."""
    return wrap_angle(-(omega + omega_prime) / 2.0)


def spin_interference_profile(theta, varphi, chis):
    """Two-beam fringe intensities |e^{i chi} initial + precessed|^2 of the
    spin arm, by direct arithmetic."""
    return pure_interference_profile(*spin_arm_states(theta, varphi), chis)


def auxiliary_hamiltonian(spec) -> np.ndarray:
    """Generator (cos(theta)/2) sz of the phase-cancelling auxiliary evolution."""
    return 0.5 * np.cos(spec.theta) * SIGMA_Z


def evolution(h, t) -> np.ndarray:
    """exp(-i h t) for a hermitian h, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# transport kernels before the single-computation rewrite, verbatim


def validate(self):
    rows, batch = self.times.shape[:-1], self.states.shape[:-2]
    if (self.times.ndim < 1 or self.states.ndim < 2 or len(rows) > len(batch)
            or any(r not in (1, b) for r, b in zip(rows[::-1], batch[::-1]))):
        raise ValueError("times must be 1-d and states 2-d (after any batch "
                         "axes, which the times' leading axes broadcast against)")
    if self.times.shape[-1] != self.n_samples or self.n_samples < 2:
        raise ValueError("need one state per time and at least two samples")
    if not np.isfinite(self.times[..., [0, -1]]).all():
        raise ValueError("times must be finite")
    single = self.states.ndim == 2
    least, most = (np.minimum, np.maximum) if single else (np.fmin, np.fmax)
    low = high = 1.0
    for lo, hi in _blocks(self.n_samples, self.states[..., 0, 0].size):
        span = self.times[..., lo:hi + 1]
        if not (span[..., 1:] - span[..., :-1] > 0.0).all():
            raise ValueError("times must be strictly increasing")
        block = self.states[..., lo:hi, :]
        squared = np.zeros(block.shape[:-1])
        for k in range(block.shape[-1]):
            squared += np.square(block[..., k].real)
            squared += np.square(block[..., k].imag)
        low = least.reduce(squared, None, initial=low)
        high = most.reduce(squared, None, initial=high)
    if not np.abs(np.sqrt([low, high]) - 1.0).max() <= 1e-9:
        raise ValueError("path states must be unit vectors")
    if self.hamiltonian is not None:
        d = self.states.shape[-1]
        if self.hamiltonian.shape not in ((d, d), self.states.shape[:-2] + (d, d)):
            raise ValueError(f"hamiltonian must have shape ({d}, {d}) or "
                             f"one such per path, got {self.hamiltonian.shape}")
        if not hermitian_rows(self.hamiltonian).all():
            raise ValueError("hamiltonian must be finite and hermitian")
    return self


def _link_phases(path):
    states = path.states
    phases = np.empty(states.shape[:-2] + (path.n_samples - 1,))
    broken = np.zeros(states.shape[:-2], dtype=bool)
    for lo, hi in _blocks(path.n_samples - 1, broken.size):
        block = states[..., lo:hi + 1, :]
        links = np.einsum("...ij,...ij->...i", block[..., 1:, :].conj(),
                          block[..., :-1, :])
        kept = np.abs(links) >= EPS_ORTH  # a NaN link is not kept
        broken |= undefined_rows(
            ~kept.all(axis=-1), OrthogonalStatesError,
            lambda: f"adjacent overlap vanishes at link {lo + int(np.argmin(kept))}")
        phases[..., lo:hi] = np.angle(links)
    return phases, broken


def dynamical_phase(path):
    if path.hamiltonian is not None:
        states, times = path.states, path.times
        terms = np.empty(states.shape[:-2] + (path.n_samples - 1,))
        for lo, hi in _blocks(path.n_samples - 1, terms[..., 0].size):
            energies = _energies(states[..., lo:hi + 1, :], path.hamiltonian)
            terms[..., lo:hi] = ((times[..., lo + 1:hi + 1] - times[..., lo:hi])
                                 * (energies[..., 1:] + energies[..., :-1]) / 2.0)
        phase = -np.add.reduce(terms, axis=-1)
        return float(phase) if np.ndim(phase) == 0 else phase
    phases, broken = _link_phases(path)
    return mark_undefined(-phases.sum(axis=-1), broken)


def _precession_states(theta, times):
    axis = _precession_axis(theta)[..., None, :]
    sin_t, cos_t = axis[..., 0], axis[..., 2]
    rows = np.broadcast_shapes(axis.shape[:-2], times.shape[:-1])
    states = np.zeros(rows + (times.shape[-1], 2), dtype=complex)
    for lo, hi in _blocks(times.shape[-1], states[..., 0, 0].size):
        half = times[..., lo:hi] / 2.0
        sine, block = np.sin(half), states[..., lo:hi, :]
        block[..., 0].real = np.cos(half)
        block[..., 0].imag = 0.0 - sine * cos_t
        block[..., 1].imag = 0.0 - sine * sin_t
    return states


def _swept_area(x, y, z):
    rho2 = x * x + y * y
    u0, u1, u2 = x[..., :-1], y[..., :-1], z[..., :-1]
    v0, v1, v2 = x[..., 1:], y[..., 1:], z[..., 1:]
    e, sign = _edge((u0, u1, u2), (v0, v1, v2))
    det = u0 * e[1] - u1 * e[0]
    u_e, e_flat = u0 * e[0] + u1 * e[1], e[0] * e[0] + e[1] * e[1]
    cos_u = e[2] * rho2[..., :-1] - u2 * u_e
    gap = e[2] * u_e - u2 * e_flat + (sign - 1.0) * cos_u  # -cos_v - cos_u
    excess = (np.arctan2(det * gap, cos_u * (cos_u + gap) + det * det)
              + np.arctan2(det, u0 * v0 + u1 * v1))
    collapsed = e_flat + e[2] * e[2] < 1e-26
    antipodal = undefined_rows((collapsed & (sign < 0.0)).any(axis=-1),
                               DegenerateTriangleError,
                               "adjacent path points are antipodal")
    on_axis = rho2 < 1e-26
    south = undefined_rows(
        (on_axis & (z < 0.0)).any(axis=-1), DegenerateTriangleError,
        "path touches the south pole, where the azimuth chart is singular")
    swept = np.where(collapsed | on_axis[..., :-1] | on_axis[..., 1:], 0.0, excess)
    return swept.sum(axis=-1), antipodal | south


# ---------------------------------------------------------------------------
# the closure's Bloch components and arcs, and the energies, before each
# block was written in place, verbatim (the arcs as _swept_area_allocating,
# beside the earlier _swept_area above; dynamical_phase above calls this
# _energies; _unit_bloch copies its components into ``out`` when given, the
# closing block's buffer)


def _unit_bloch(states, out=None):
    a, b = states[..., 0], states[..., 1]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    pa, pb = ar * ar + ai * ai, br * br + bi * bi
    scale = 2.0 / (pa + pb)
    xyz = ((ar * br + ai * bi) * scale, (ar * bi - ai * br) * scale,
           (pa - pb) * (0.5 * scale))
    if out is not None:
        out[...] = xyz
    return xyz


def _swept_area_allocating(x, y, z):
    rho2 = x * x + y * y
    u0, u1, u2 = x[..., :-1], y[..., :-1], z[..., :-1]
    v0, v1, v2 = x[..., 1:], y[..., 1:], z[..., 1:]
    uv_flat = u0 * v0 + u1 * v1
    sign = np.where(uv_flat + u2 * v2 >= 0.0, 1.0, -1.0)  # _edge's sign
    e = [b - sign * a for a, b in ((u0, v0), (u1, v1), (u2, v2))]
    det = u0 * e[1] - u1 * e[0]
    u_e, e_flat = u0 * e[0] + u1 * e[1], e[0] * e[0] + e[1] * e[1]
    cos_u = e[2] * rho2[..., :-1] - u2 * u_e
    gap = e[2] * u_e - u2 * e_flat + (sign - 1.0) * cos_u  # -cos_v - cos_u
    excess = (np.arctan2(det * gap, cos_u * (cos_u + gap) + det * det)
              + np.arctan2(det, uv_flat))
    collapsed, on_axis = e_flat + e[2] * e[2] < 1e-26, rho2 < 1e-26
    broken = np.zeros(x.shape[:-1], dtype=bool)
    if collapsed.any() or on_axis.any():
        broken = undefined_rows(  # antipodal neighbours raise first
            (collapsed & (sign < 0.0)).any(axis=-1), DegenerateTriangleError,
            "adjacent path points are antipodal") | undefined_rows(
            (on_axis & (z < 0.0)).any(axis=-1), DegenerateTriangleError,
            "path touches the south pole, where the azimuth chart is singular")
        excess = np.where(collapsed | on_axis[..., :-1] | on_axis[..., 1:], 0.0, excess)
    return excess.sum(axis=-1), broken


def _energies(states: np.ndarray, h: np.ndarray) -> np.ndarray:
    re, im = states.real, states.imag
    energies = 0.0
    for k in range(states.shape[-1]):
        rk, ik = re[..., k], im[..., k]
        energies = energies + h[..., k, k, None].real * (rk * rk + ik * ik)
        for m in range(k + 1, states.shape[-1]):
            hkm = 2.0 * h[..., k, m, None]
            energies = (energies + hkm.real * (rk * re[..., m] + ik * im[..., m])
                        - hkm.imag * (rk * im[..., m] - ik * re[..., m]))
    return energies


# ---------------------------------------------------------------------------
# the mixed-state triangle law before it took a triangle and a radius,
# verbatim but for the transport it no longer forms


def _require_orthonormal(basis, name: str):
    basis = np.asarray(basis, dtype=complex)
    defect = np.abs(np.swapaxes(basis.conj(), -1, -2) @ basis
                    - np.eye(basis.shape[-1])).max(initial=0.0)
    if defect > 1e-10:
        raise ValueError(f"{name} not orthonormal (defect {defect:.3e})")


def _coinciding(weights):
    i, j = np.triu_indices(weights.shape[-1], 1)
    return np.abs(weights[..., i] - weights[..., j]) < 1e-12, i, j


@dataclass(frozen=True)
class MixedTriple:
    weights: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    basis_c: np.ndarray

    def validate(self) -> "MixedTriple":
        w = np.asarray(self.weights, dtype=float)
        if ((np.abs(w.sum(axis=-1) - 1.0) > 1e-12).any() or (w < -1e-12).any()
                or (w > 1 + 1e-12).any()):
            raise ValueError("weights must lie in [0, 1] and sum to 1")
        close, i, j = _coinciding(w)
        undefined_rows(close.any(axis=-1), DegenerateSpectrumError,
                       lambda: "weights {} and {} coincide; eigenbases not unique"
                       .format(i[np.argmax(close)], j[np.argmax(close)]))
        dim = w.shape[-1]
        for name, basis in (("a", self.basis_a), ("b", self.basis_b),
                            ("c", self.basis_c)):
            if np.shape(basis)[-2:] != (dim, dim):
                raise ValueError(f"basis {name} must be {dim}x{dim}")
            _require_orthonormal(basis, f"basis {name}")
        return self


def weighted_invariant(weights, bases):
    """arg sum_k w_k e^{i d_k}, with d_k the library's
    ``bargmann_invariant`` of the k-th eigenvector chain (pinned against
    the three-state copy below), guarded where the sum vanishes."""
    weights = np.asarray(weights, dtype=float)
    bases = [np.asarray(b, dtype=complex) for b in bases]
    total = sum(weights[..., k]
                * np.exp(1j * geometry.bargmann_invariant(*(b[..., :, k] for b in bases)))
                for k in range(weights.shape[-1]))
    undefined = _guard([("weighted invariant sum", total)])
    return mark_undefined(principal_angle(total), undefined)


def mixed_triple_bargmann(mt: MixedTriple):
    mt.validate()
    phase = weighted_invariant(mt.weights, [mt.basis_a, mt.basis_b, mt.basis_c])
    close, _, _ = _coinciding(np.asarray(mt.weights, dtype=float))
    return mark_undefined(phase, close.any(axis=-1))


def qubit_mixed_triple(t: SphericalTriangle, r) -> MixedTriple:
    sa, sb, sc = t.states()
    r = np.asarray(r, dtype=float)
    return MixedTriple(
        weights=np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0], axis=-1),
        basis_a=_eigenbasis(sa),
        basis_b=_eigenbasis(sb),
        basis_c=_eigenbasis(sc),
    )


# ---------------------------------------------------------------------------
# checks.random_triangle before it kept the triangle it drew, verbatim


def random_triangle(rng, n, max_area=2.0 * np.pi - 0.1):
    def draw(k):
        states = checks.random_qubit_tuple(rng, k, 3)
        omega = solid_angle(SphericalTriangle.from_states(*states.swapaxes(0, 1)))
        keep = np.abs(omega) < max_area
        return states[keep], omega[keep]

    states, omega = checks._first_kept(n, draw)
    return SphericalTriangle.from_states(*states.swapaxes(0, 1)), omega


# ---------------------------------------------------------------------------
# the fringe readout before a profile became its intensities, verbatim


@dataclass(frozen=True)
class PhaseResult:
    phase: float
    visibility: float
    defined: bool = True

    @classmethod
    def from_overlap(cls, z, error) -> "PhaseResult":
        vis = np.hypot(np.real(z), np.imag(z))  # bit for bit abs(z); np.abs is not
        vanishing = undefined_rows(~(vis >= EPS_ORTH), error, lambda: (
            f"overlap modulus {vis:.3e} below {EPS_ORTH:.0e}"))
        phase = mark_undefined(principal_angle(z), vanishing)
        if vanishing.ndim == 0:
            return cls(phase, float(vis))
        return cls(phase, vis, ~vanishing)


@dataclass(frozen=True)
class InterferenceProfile:
    chis: np.ndarray
    intensities: np.ndarray
    extracted: PhaseResult = field(repr=False)


def fit_fringe(chis, intensities) -> PhaseResult:
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


def dual_coincidence_profile(theta, delta_phi, chis) -> InterferenceProfile:
    chis = np.asarray(chis, dtype=float)
    up = _channel(_analyser_states(theta, delta_phi, chis), 0)
    return InterferenceProfile(chis, up, fit_fringe(chis, up))


# ---------------------------------------------------------------------------
# the triangle and its kernels before it held its vertex vectors and
# states, verbatim: vertices as Bloch angles, read back by state_to_bloch
# from states and turned into unit vectors and states in each kernel call
# (mixed_bargmann(t, r) here as angle_mixed_bargmann, with no transport)

ATOL_NORM = 1e-12


def state_to_bloch(state: np.ndarray) -> BlochPoint:
    state = np.asarray(state, dtype=complex)
    if state.shape[-1:] != (2,):
        raise ValueError("state_to_bloch expects qubit states")
    a0, a1 = state[..., 0], state[..., 1]
    m0, m1 = np.hypot(a0.real, a0.imag), np.hypot(a1.real, a1.imag)
    pole = (m0 < ATOL_NORM) | (m1 < ATOL_NORM)
    theta = np.where(pole, np.where(m1 < m0, 0.0, np.pi), 2.0 * np.arctan2(m1, m0))
    phi = np.where(pole, 0.0, (np.angle(a1) - np.angle(a0)) % (2.0 * np.pi))
    if theta.ndim == 0:
        return BlochPoint(float(theta), float(phi))
    return BlochPoint(theta, phi)


@dataclass(frozen=True)
class SphericalTriangle:
    a: BlochPoint
    b: BlochPoint
    c: BlochPoint

    @classmethod
    def from_states(cls, sa, sb, sc) -> "SphericalTriangle":
        return cls(state_to_bloch(sa), state_to_bloch(sb), state_to_bloch(sc))

    def unit_vectors(self) -> np.ndarray:
        return np.stack([p.unit_vector() for p in (self.a, self.b, self.c)],
                        axis=-2)

    def states(self):
        return tuple(bloch_to_state(p) for p in (self.a, self.b, self.c))

    def __getitem__(self, rows) -> "SphericalTriangle":
        return SphericalTriangle(*(BlochPoint(p.theta[rows], p.phi[rows])
                                   for p in (self.a, self.b, self.c)))


def solid_angle(t: SphericalTriangle):
    vecs = t.unit_vectors()
    following = np.roll(vecs, -1, axis=-2)
    degenerate = np.linalg.norm(np.cross(vecs, following), axis=-1) < EPS_GEO

    def message():
        i = int(np.argmax(degenerate))
        kind = "coincident" if np.dot(vecs[i], following[i]) > 0.0 else "antipodal"
        names = "abca"[i:i + 2]
        return f"vertices {names[0]}, {names[1]} are {kind}"

    undefined = undefined_rows(degenerate.any(axis=-1), DegenerateTriangleError,
                               message)
    omega = girard_signed_area(vecs[..., 0, :], vecs[..., 1, :], vecs[..., 2, :])
    return mark_undefined(omega, undefined)


def geodesic_unitary(p: BlochPoint, q: BlochPoint, fraction=1.0) -> np.ndarray:
    return _arc_rotation(p.unit_vector(), q.unit_vector(), fraction)


def _arc_rotation(u, v, fraction=1.0) -> np.ndarray:
    cross = np.cross(u, v)
    sine = np.sqrt(_dot(cross, cross))
    cosine = _dot(u, v)
    degenerate = sine < EPS_GEO
    antipodal = undefined_rows(degenerate & (cosine < 0.0), AntipodalPointsError,
                               "rotation axis undefined for antipodal points")
    # a degenerate row turns by zero about any axis: the identity
    axis = np.where(degenerate[..., None], (0.0, 0.0, 1.0),
                    cross / np.where(degenerate, 1.0, sine)[..., None])
    angle = np.where(degenerate, 0.0, np.arctan2(sine, cosine))
    rotation = matrix_exponential_su2(axis, angle * np.asarray(fraction, dtype=float))
    if antipodal.any():
        rotation = np.where(antipodal[..., None, None], np.nan, rotation)
    return rotation


def loop_holonomy(t: SphericalTriangle) -> np.ndarray:
    a, b, c = (p.unit_vector() for p in (t.a, t.b, t.c))
    u_ab, u_bc, u_ca = _arc_rotation(a, b), _arc_rotation(b, c), _arc_rotation(c, a)
    return u_ca @ u_bc @ u_ab


def angle_mixed_bargmann(t: SphericalTriangle, r):
    bases = [_eigenbasis(s) for s in t.states()]
    r = np.asarray(r, dtype=float)
    if (np.abs(r) > 1.0 + 2e-12).any():
        raise ValueError("weights must lie in [0, 1] and sum to 1")
    w = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0], axis=-1)
    degenerate = undefined_rows(
        np.abs(w[..., 0] - w[..., 1]) < 1e-12, DegenerateSpectrumError,
        "weights 0 and 1 coincide; eigenbases not unique")
    return mark_undefined(weighted_invariant(w, bases), degenerate)


def sample_triangle_path(triangle: SphericalTriangle, n: int = 4096) -> DiscretePath:
    per_side = max(1, n // 3)
    fractions = np.arange(1, per_side + 1) / per_side
    corners = [triangle.a, triangle.b, triangle.c, triangle.a]
    states = [bloch_to_state(triangle.a)[None, :]]
    for p, q in zip(corners[:-1], corners[1:]):
        states.append(geodesic_unitary(p, q, fractions) @ states[-1][-1])
    return DiscretePath(np.linspace(0.0, 1.0, 3 * per_side + 1),
                        np.concatenate(states))


def _pair_transport(lam, triangle_a, triangle_a_prime):
    lam = np.asarray(lam, dtype=float)
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
        raise ValueError("lam must lie in [0, 1]")
    a, ap = (_eigenbasis(bloch_to_state(t.a)) for t in (triangle_a, triangle_a_prime))
    initial = (np.sqrt(lam[..., None]) * tensor(a[..., :, 0], ap[..., :, 0])
               + np.sqrt(1.0 - lam[..., None]) * tensor(a[..., :, 1], ap[..., :, 1]))
    u_a = loop_holonomy(triangle_a)
    u_ap = loop_holonomy(triangle_a_prime)
    u_pair = (u_a[..., :, None, :, None] * u_ap[..., None, :, None, :]).reshape(
        initial.shape[:-1] + (4, 4))
    return initial, (u_pair @ initial[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the cyclic overlap products before one kernel took any number of
# states, verbatim


def _product(factors):
    re, im = np.real(factors[0]), np.imag(factors[0])
    for z in factors[1:]:
        zr, zi = np.real(z), np.imag(z)
        re, im = re * zr - im * zi, re * zi + im * zr
    return from_parts(re, im)


def bargmann_invariant(a, b, c):
    f_ac, f_cb, f_ba = (_exact_overlap(a, c), _exact_overlap(c, b),
                        _exact_overlap(b, a))
    undefined = _guard([("overlap <a|c>", f_ac), ("overlap <c|b>", f_cb),
                        ("overlap <b|a>", f_ba)])
    return mark_undefined(principal_angle(_product([f_ac, f_ba, f_cb])), undefined)


def multi_vertex_invariant(states):
    states = list(states)
    if len(states) < 2:
        raise ValueError("need at least two states")
    last = len(states) - 1
    links = [(f"closing overlap <s0|s{last}>", inner_product(states[0], states[-1]))]
    links += [(f"overlap <s{k}|s{k - 1}>", inner_product(states[k], states[k - 1]))
              for k in range(last, 0, -1)]
    undefined = _guard(links)
    return mark_undefined(principal_angle(_product([z for _, z in links])),
                          undefined)
