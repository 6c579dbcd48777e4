"""Discretized geometric phase along state-space paths.

A path of pure states carries a phase given by the argument of the
ordered chain of adjacent overlaps, closed with the endpoint overlap.
That chain phase is a property of the projector path alone (rephasing any
interior state leaves it untouched) and splits the endpoint Pancharatnam
phase into a geometric piece plus the accumulated local (dynamical)
phase.  This module provides the chain, parallel lifts that zero the
local piece, an auxiliary-evolution construction that cancels it without
touching the lift, the spin-1/2 precession worked example, and the
signed solid angle swept by a path closed with the shortest geodesic.
That angle is geometry only: a sum of the Girard excesses of the thin
triangles each segment spans with the north pole, each the pole case of
the corner-angle kernel, never the overlap chain it is compared with.
Every pass over a path (building, validating, the chain's links, the
energies, the closure's arcs) walks the cache-sized blocks of _blocks, so
no full-length temporaries are made, and writes each block straight into
its output, the closure's and the energies' temporaries too
(core._products, core._unit_bloch), by the same operations in the same
order as the plain expressions.
Paths are validated values, and leading axes of their states make a
batch: each kernel gives one value per path, NaN where a single path
would raise, as do the precession kernels on array angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Z,
    _products,
    _unit_bloch,
    hermitian_rows,
    inner_product,
    mark_undefined,
    matrix_exponential_su2,
    principal_angle,
    undefined_rows,
    wrap_angle,
)
from .errors import (
    AntipodalEndpointsError,
    BranchAmbiguityError,
    DegenerateTriangleError,
    OrthogonalStatesError,
    VanishingEndpointOverlapError,
)
from .geometry import (
    SphericalTriangle,
    _dot3,
    geodesic_unitary,
    mixed_solid_angle_phase,
)
from .phase import EPS_ORTH, PhaseResult, tilted_overlap

#: samples per block of every pass over a path (_blocks), shared by all
#: the paths of a batch: building, validating, the overlap chain's links,
#: the energies and the geodesic closure's arcs.  The dozen or so
#: block-length float arrays a closure block keeps live (about 1 MiB) stay
#: in a 2 MiB L2 cache; at 10^6 steps blocks of 8192 to 32768 time alike,
#: 4096 a quarter slower and 2048 half as slow again
_BLOCK = 8192

#: largest link phase is_parallel_lift takes for a real positive overlap
PARALLEL_TOL = 1e-10


def _blocks(n: int, rows: int):
    """The blocks [lo, hi) that cover range(n) for a batch of ``rows``
    paths, about _BLOCK elements each over the batch."""
    step = max(1, _BLOCK // max(1, rows))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


@dataclass(frozen=True)
class DiscretePath:
    """Time-sampled lift of a state-space path, validated once when made.

    ``states`` holds one unit vector per sample time, (n+1, d), or a
    batch (..., n+1, d); ``times`` is (n+1,), shared by the batch, or one
    row per path, (..., n+1), broadcasting against the states' leading
    axes.  NaN states go unchecked in a batch, whose kernels leave them in
    undefined rows; a single path with one raises, as one with any other
    non-unit state does.  ``hamiltonian`` optionally holds the fixed
    hermitian generator (in radians per unit time) of a Schroedinger
    evolution, (d, d) or one per path, (..., d, d).
    """

    times: np.ndarray
    states: np.ndarray
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        if self.hamiltonian is not None:
            object.__setattr__(self, "hamiltonian",
                               np.asarray(self.hamiltonian, dtype=complex))
        self.validate()

    @property
    def n_samples(self) -> int:
        return self.states.shape[-2]

    @property
    def generators(self) -> np.ndarray | None:
        """The hamiltonian at every sample: a read-only view, no copy."""
        if self.hamiltonian is None:
            return None
        h = self.hamiltonian[..., None, :, :]
        return np.broadcast_to(h, self.states.shape[:-1] + h.shape[-2:])

    def validate(self) -> "DiscretePath":
        rows, batch = self.times.shape[:-1], self.states.shape[:-2]
        if (self.times.ndim < 1 or self.states.ndim < 2 or len(rows) > len(batch)
                or any(r not in (1, b) for r, b in zip(rows[::-1], batch[::-1]))):
            raise ValueError("times must be 1-d and states 2-d (after any batch "
                             "axes, which the times' leading axes broadcast against)")
        if self.times.shape[-1] != self.n_samples or self.n_samples < 2:
            raise ValueError("need one state per time and at least two samples")
        if not np.isfinite(self.times[..., [0, -1]]).all():
            raise ValueError("times must be finite")
        # one pass, the blocks' times overlapping by a sample (increasing
        # times between finite ends are finite: a NaN compares false); the
        # squared moduli are summed in place from the real and imaginary
        # parts (any strides will do), starting with the first square; sqrt
        # is monotonic, so the running extremes hold the largest defect; a
        # batch's fmin and fmax pass over its NaN rows, a single path's
        # minimum and maximum keep a NaN
        single = self.states.ndim == 2
        least, most = (np.minimum, np.maximum) if single else (np.fmin, np.fmax)
        low = high = 1.0
        for lo, hi in _blocks(self.n_samples, self.states[..., 0, 0].size):
            span = self.times[..., lo:hi + 1]
            if not (span[..., 1:] > span[..., :-1]).all():
                raise ValueError("times must be strictly increasing")
            block = self.states[..., lo:hi, :]
            squared = np.square(block[..., 0].real)
            squared += np.square(block[..., 0].imag)
            for k in range(1, block.shape[-1]):
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


def _link_phases(path: DiscretePath):
    """arg<A_{j+1}|A_j> for every link of each path, and the paths where
    a link vanishes; a single path raises instead, naming the first.  The
    overlaps are formed about _BLOCK links at a time over all paths, so
    the only full-length array made is the phases."""
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
        np.arctan2(links.imag, links.real, out=phases[..., lo:hi])  # np.angle
    return phases, broken


def _endpoint_overlap(path: DiscretePath):
    """<A_0|A_t> of each path, and the paths where it vanishes; a single
    path raises instead."""
    overlap = inner_product(path.states[..., 0, :], path.states[..., -1, :])
    return overlap, undefined_rows(~(np.abs(overlap) >= EPS_ORTH),
                                   VanishingEndpointOverlapError,
                                   "endpoint states are orthogonal")


def chain_phase(path: DiscretePath):
    """Geometric phase of the path from the ordered overlap chain.

    Returns arg(<A_0|A_t> <A_t|A_{t-dt}> ... <A_dt|A_0>) wrapped to the
    principal branch.  Independent of any rephasing of individual states,
    so it depends only on the projector path.

    Raises:
        OrthogonalStatesError: naming the first vanishing link.
        VanishingEndpointOverlapError: if the endpoints are orthogonal.
    """
    phases, broken = _link_phases(path)
    overlap, vanishing = _endpoint_overlap(path)
    total = principal_angle(overlap) + phases.sum(axis=-1)
    return mark_undefined(wrap_angle(total), broken | vanishing)


def is_parallel_lift(path: DiscretePath):
    """True iff every adjacent overlap is real positive within PARALLEL_TOL;
    one bool per path of a batch.  A vanishing link is not parallel."""
    try:
        phases, broken = _link_phases(path)
    except OrthogonalStatesError:
        return False
    parallel = (np.abs(phases) <= PARALLEL_TOL).all(axis=-1) & ~broken
    return bool(parallel) if parallel.ndim == 0 else parallel


def make_parallel_lift(path: DiscretePath) -> DiscretePath:
    """Rephase the states so all adjacent overlaps are real positive.

    Preserves the projector path exactly, and the resulting endpoint
    phase arg<A_0|A_t> equals the chain phase of the input.  The
    hamiltonian is dropped: it generates the input lift, not the
    rephased one.  An undefined path of a batch comes back as NaN states.

    Raises:
        OrthogonalStatesError: naming the first vanishing link.
    """
    phases, broken = _link_phases(path)
    states = path.states.copy()
    states[..., 1:, :] *= np.exp(1j * np.cumsum(phases, axis=-1))[..., None]
    if broken.any():
        states[broken] = np.nan
    return DiscretePath(path.times, states)


def _energies(states: np.ndarray, h: np.ndarray) -> np.ndarray:
    """<psi|H|psi> at every sample from the real and imaginary parts of
    the states: h_kk |psi_k|^2 per diagonal entry of the hermitian H and
    2 Re(h_kl conj(psi_k) psi_l) per entry above it, each term formed in
    one block array and added in turn to energies that start at 0.0."""
    re, im = states.real, states.imag
    energies = np.zeros(states.shape[:-1])
    term, part = np.empty(energies.shape), np.empty(energies.shape)
    for k in range(states.shape[-1]):
        rk, ik = re[..., k], im[..., k]
        _products(rk, rk, ik, ik, part, term)
        energies += np.multiply(term, h[..., k, k, None].real, out=term)
        for m in range(k + 1, states.shape[-1]):
            hkm = 2.0 * h[..., k, m, None]
            _products(rk, re[..., m], ik, im[..., m], part, term)
            energies += np.multiply(term, hkm.real, out=term)
            _products(rk, im[..., m], ik, re[..., m], part, term, subtract=True)
            energies -= np.multiply(term, hkm.imag, out=term)
    return energies


def dynamical_phase(path: DiscretePath):
    """Accumulated local phase along the lift.

    With a hamiltonian this is -integral(<A_t|H|A_t>) dt by the
    trapezoidal rule; otherwise it is the per-link sum of
    arg<A_j|A_{j+1}>, which has the same continuum limit.  Unlike the
    chain phase it does depend on the lift: a parallel lift gives zero.

    Raises:
        OrthogonalStatesError: without a hamiltonian, naming the first
            vanishing link.
    """
    if path.hamiltonian is not None:
        # np.trapezoid's own terms, formed a block of links at a time from
        # elementwise arithmetic, and its own reduction: the same value
        states, times = path.states, path.times
        terms = np.empty(states.shape[:-2] + (path.n_samples - 1,))
        for lo, hi in _blocks(path.n_samples - 1, terms[..., 0].size):
            energies = _energies(states[..., lo:hi + 1, :], path.hamiltonian)
            np.divide((times[..., lo + 1:hi + 1] - times[..., lo:hi])
                      * (energies[..., 1:] + energies[..., :-1]), 2.0,
                      out=terms[..., lo:hi])
        phase = -np.add.reduce(terms, axis=-1)
        return float(phase) if np.ndim(phase) == 0 else phase
    phases, broken = _link_phases(path)
    return mark_undefined(-phases.sum(axis=-1), broken)


def pancharatnam_vs_auxiliary(path: DiscretePath):
    """Endpoint phase against an auxiliary evolution that cancels the local phase.

    The auxiliary path multiplies the start state by e^{i gamma(t)} with
    gamma the running dynamical phase, so the relative phase of the two
    endpoints, arg<A_0|A_t> - gamma(t), reproduces the chain phase up to
    discretization error.

    Raises:
        OrthogonalStatesError: as dynamical_phase does.
        VanishingEndpointOverlapError: if the endpoints are orthogonal.
    """
    gamma = dynamical_phase(path)
    overlap, vanishing = _endpoint_overlap(path)
    return mark_undefined(wrap_angle(principal_angle(overlap) - gamma), vanishing)


@dataclass(frozen=True)
class PrecessionSpec:
    """Spin-1/2 precession about the tilted axis (sin(theta), 0, cos(theta)).

    The generator has unit level splitting, so the precession angle phi
    doubles as the duration.  ``r`` is the Bloch radius used by the
    mixed-state variant.  Array angles (and radii), which broadcast, make
    a batch of precessions for every kernel.
    """

    theta: float
    phi: float
    r: float = 1.0


def _precession_axis(theta) -> np.ndarray:
    """The precession axis (sin(theta), 0, cos(theta)), (..., 3)."""
    axis = np.zeros(np.shape(theta) + (3,))
    axis[..., 0], axis[..., 2] = np.sin(theta), np.cos(theta)
    return axis


def precession_hamiltonian(theta) -> np.ndarray:
    """Generator (sin(theta) sx + cos(theta) sz) / 2 of the precession,
    (axis . sigma) / 2 for the axis of _precession_axis; (..., 2, 2)."""
    axis = _precession_axis(theta)
    return 0.5 * (axis[..., 0, None, None] * SIGMA_X
                  + axis[..., 2, None, None] * SIGMA_Z)


def _precession_states(theta, times) -> np.ndarray:
    """The lifts e^{-iHt}|+z> of the precessions about the axes of
    ``theta`` at the sample ``times`` (..., n+1), rowwise over broadcast
    leading axes: (..., n+1, 2).  The states
    (cos(t/2) - i sin(t/2) cos(theta), -i sin(t/2) sin(theta)) are written
    part by part, a block at a time, into the one full-length array."""
    axis = _precession_axis(theta)[..., None, :]
    sin_t, cos_t = axis[..., 0], axis[..., 2]
    rows = np.broadcast_shapes(axis.shape[:-2], times.shape[:-1])
    states = np.zeros(rows + (times.shape[-1], 2), dtype=complex)
    for lo, hi in _blocks(times.shape[-1], states[..., 0, 0].size):
        half = times[..., lo:hi] / 2.0
        sine, block = np.sin(half), states[..., lo:hi, :]
        np.cos(half, out=block[..., 0].real)  # a shared times row fills every row
        for part, factor in ((block[..., 0].imag, cos_t), (block[..., 1].imag, sin_t)):
            np.subtract(0.0, np.multiply(sine, factor, out=part), out=part)
    return states


def precession_path(spec: PrecessionSpec, n: int = 4096) -> DiscretePath:
    """Precession lift e^{-iHt}|+z> sampled at n equal steps (n+1 states),
    one path per row of the broadcast angles, each with its own times; a
    negative angle gives the same states at times |t| under -H."""
    if n < 1:
        raise ValueError("need at least one subdivision")
    theta, phi = np.broadcast_arrays(spec.theta, spec.phi)
    if not np.isfinite((theta, phi)).all():
        raise ValueError("precession angles must be finite")
    times = np.linspace(0.0, phi, n + 1, axis=-1)
    states = _precession_states(theta, times)
    hamiltonian = precession_hamiltonian(theta)
    backward = phi < 0.0
    if backward.any():
        # np.where, not a product with the sign, keeps the zero parts of H
        times = np.abs(times, out=times)
        hamiltonian = np.where(backward[..., None, None], -hamiltonian, hamiltonian)
    return DiscretePath(times, states, hamiltonian)


def precession_comparison_unitary(spec: PrecessionSpec) -> np.ndarray:
    """Net relative evolution, (..., 2, 2): the precession, then the inverse
    of the auxiliary evolution under (cos(theta)/2) sz, a z-rotation by
    phi cos(theta) that reproduces the precession's running local phase on
    the +z start state."""
    axis = _precession_axis(spec.theta)
    undo_aux = matrix_exponential_su2((0.0, 0.0, 1.0), -spec.phi * axis[..., 2])
    return undo_aux @ matrix_exponential_su2(axis, spec.phi)


def precession_phase_simulated(spec: PrecessionSpec):
    """Relative phase of the precessed +z state against the auxiliary path,
    from the net evolution's matrix element; a batch marks a vanishing one NaN."""
    overlap = precession_comparison_unitary(spec)[..., 0, 0]
    return PhaseResult.from_overlap(overlap, OrthogonalStatesError).phase


def precession_phase_closed_form(spec: PrecessionSpec):
    """Closed-form noncyclic geometric phase of the precession.

    Returns -arctan(cos(theta) tan(phi/2)) + (phi/2) cos(theta), wrapped
    to the principal branch, with the arctan taken on the branch that is
    continuous in phi at 0 and follows the overlap argument through the
    tangent poles.  Equals minus half the solid angle enclosed by the
    precession arc and its closing geodesic.  A batch gives NaN in its
    multi-turn rows.

    Raises:
        BranchAmbiguityError: for |phi| >= 2*pi, outside the single-turn
            branch.
    """
    theta, phi = np.broadcast_arrays(spec.theta, spec.phi)
    multiturn = undefined_rows(np.abs(phi) >= 2.0 * np.pi, BranchAmbiguityError,
                               "|phi| >= 2*pi is outside the single-turn branch")
    half = phi / 2.0
    cos_t = np.cos(theta)
    return mark_undefined(
        wrap_angle(principal_angle(tilted_overlap(half, cos_t)) + half * cos_t),
        multiturn)


def _swept_area(x, y, z):
    """Signed area swept against the north pole N by the arcs joining
    consecutive points along the last axis of the unit Bloch components
    (from _unit_bloch), and the paths whose arcs are undefined; a single
    path raises instead.

    Each arc u -> v contributes the exact value of the line integral
    whose integrand is the azimuth differential weighted by (1 - cos(polar
    angle)): the spherical excess of the triangle (u, v, N), signed by
    orientation.  It is the pole case of girard_signed_area(u, v, N), the
    same sum of tangent-vector corner angles (the geometry module says why
    it must stay one), on the short edge e = v - s u of _edge (its sign
    test and the azimuth term share u0 v0 + u1 v1).  The three
    corners share the sine |det[u, v, N]| = |u0 e1 - u1 e0|, and det itself
    signs the sum (arctan2 is odd in its first argument).  At N the tangent
    parts of u and v are (u0, u1, 0) and (v0, v1, 0); at a vertex p that of
    N is (-p2 p0, -p2 p1, p0^2 + p1^2), its last entry 1 - p2^2 written so
    that it keeps its relative accuracy near either pole.  The angles alpha
    at u and beta at v enter as one arctan2 of alpha - (pi - beta), its
    sine carrying -cos_v - cos_u in products of the edge: no rounded pi,
    and no two nearly equal angles or cosines cancel.  Collapsed arcs
    (|e| = |u x v| below 1e-13), and arcs with an endpoint on the polar
    axis, which run along meridians, sweep nothing; the guards run only
    on a block that has such an arc.  On a block of near arcs (u.v >= 0,
    not NaN) the sign is 1: e = v - u and (sign - 1) cos_u = 0.0 cos_u.
    """
    t = np.empty(x.shape)  # the scratch array, of rho2 and then of the arcs
    rho2, t = _products(x, x, y, y, t), t[..., 1:]
    u0, u1, u2 = x[..., :-1], y[..., :-1], z[..., :-1]
    v0, v1, v2 = x[..., 1:], y[..., 1:], z[..., 1:]
    uv_flat = _products(u0, v0, u1, v1, t)
    ahead = np.add(uv_flat, np.multiply(u2, v2, out=t), out=t) >= 0.0
    near = ahead.all()
    sign = 1.0 if near else np.where(ahead, 1.0, -1.0)  # _edge's sign
    e = [b - a if near else b - sign * a for a, b in ((u0, v0), (u1, v1), (u2, v2))]
    det = _products(u0, e[1], u1, e[0], t, subtract=True)
    u_e, e_flat = _products(u0, e[0], u1, e[1], t), _products(e[0], e[0], e[1], e[1], t)
    cos_u = _products(e[2], rho2[..., :-1], u2, u_e, t, subtract=True)
    gap = _products(e[2], u_e, u2, e_flat, t, subtract=True)
    gap += np.multiply(sign - 1.0, cos_u, out=t)  # -cos_v - cos_u
    denominator = cos_u + gap
    _products(cos_u, denominator, det, det, t, denominator)
    excess = np.arctan2(np.multiply(det, gap, out=gap), denominator, out=denominator)
    excess += np.arctan2(det, uv_flat, out=uv_flat)
    collapsed = np.add(e_flat, np.multiply(e[2], e[2], out=t), out=t) < 1e-26
    on_axis = rho2 < 1e-26
    broken = np.zeros(x.shape[:-1], dtype=bool)
    if collapsed.any() or on_axis.any():
        broken = undefined_rows(  # antipodal neighbours raise first
            (collapsed & ~ahead).any(axis=-1), DegenerateTriangleError,
            "adjacent path points are antipodal") | undefined_rows(
            (on_axis & (z < 0.0)).any(axis=-1), DegenerateTriangleError,
            "path touches the south pole, where the azimuth chart is singular")
        excess = np.where(collapsed | on_axis[..., :-1] | on_axis[..., 1:], 0.0, excess)
    return excess.sum(axis=-1), broken


def geodesic_closure_solid_angle(path: DiscretePath):
    """Signed solid angle enclosed by a qubit path plus its closing geodesic.

    The Bloch-sphere trace of the path is closed with the shortest
    geodesic between its endpoints; the enclosed area is accumulated as a
    line integral, segment by segment, each segment contributing the
    exact signed area it sweeps relative to the north pole.  The closed
    rings are walked in blocks of _BLOCK segments over all paths, as the
    overlap chain's links are, the last block ending with the closing
    segment; each block's Bloch components are formed from the states'
    real and imaginary parts and its arcs summed in one pass, so no
    full-length array of Bloch vectors is made.
    The chain phase of the path converges to minus half this angle.  A
    batch gives one angle per path, NaN where a single path would raise.

    Raises:
        ValueError: for a path that is not a qubit path.
        AntipodalEndpointsError: if the endpoints are antipodal, leaving
            the shortest closing geodesic ambiguous.
        DegenerateTriangleError: if adjacent points are antipodal, or the
            path touches the south pole.
    """
    if path.states.shape[-1] != 2:
        raise ValueError("solid angles require qubit paths")
    states = path.states
    ends = np.stack(_unit_bloch(states[..., [0, -1], :]))
    first, last = ends[..., 0], ends[..., 1]
    cross = np.cross(first, last, axis=0)
    undefined = undefined_rows(
        (np.sqrt(_dot3(cross, cross)) < 1e-8) & (_dot3(first, last) < 0.0),
        AntipodalEndpointsError, "closing geodesic undefined for antipodal ends")

    total = 0.0
    for lo, hi in _blocks(path.n_samples, undefined.size):
        block = states[..., lo:hi + 1, :]
        if hi == path.n_samples:  # the last block closes the ring
            block = np.concatenate([block, states[..., :1, :]], axis=-2)
        area, broken = _swept_area(*_unit_bloch(block))
        total, undefined = total + area, undefined | broken
    return mark_undefined(total, undefined)


def mixed_noncyclic_phase(spec: PrecessionSpec):
    """Mixed-state noncyclic phase of the precession at Bloch radius r.

    The +z and -z eigenstates acquire opposite halves of the geodesically
    closed solid angle, so the weighted overlap sum collapses to the
    qubit closed form evaluated at that angle.  Agrees with
    arg Tr[(auxiliary-relative evolution) rho] for rho of radius r about z.
    Angles and radii broadcast: (k, 1) angles against (m,) radii give
    (k, m) phases, NaN where a single spec would raise.

    Raises:
        DegenerateSpectrumError: for r = 0.
        BranchAmbiguityError: outside the single-turn branch.
    """
    omega_gc = -2.0 * precession_phase_closed_form(spec)
    return mixed_solid_angle_phase(spec.r, omega_gc)


def sample_triangle_path(triangle: SphericalTriangle, n: int = 4096) -> DiscretePath:
    """Closed path tracing the triangle's geodesic sides in 3*(n//3) steps.

    States are transported by fractional geodesic rotations, so the final
    state is the loop holonomy applied to the first.

    Raises:
        ValueError: for n < 3, which leaves a side no step.
        AntipodalPointsError: if a side joins antipodal vertices.
    """
    if n < 3:
        raise ValueError("need at least one step a side")
    per_side = n // 3
    fractions = np.arange(1, per_side + 1) / per_side
    corners = triangle.vectors[[0, 1, 2, 0]]
    states = [triangle.states[None, 0]]
    for u, v in zip(corners[:-1], corners[1:]):
        states.append(geodesic_unitary(u, v, fractions) @ states[-1][-1])
    return DiscretePath(np.linspace(0.0, 1.0, 3 * per_side + 1),
                        np.concatenate(states))
