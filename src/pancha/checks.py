"""Seeded verification batteries behind ``pancha verify`` and the
acceptance tests.

Each check runs a closed-form phase law against an independent
brute-force route (state evolution, spherical excess, direct traces) over
seeded random inputs and reports the worst observed deviation.  The same
functions back the CLI ``verify`` verb and the test suite, so the two
never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _dot,
    bloch_to_state,
    haar_state,
    inner_product,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    qubit_density,
    state_to_bloch,
    wrap_angle,
)
from .dual import (
    DualSetupSpec,
    SpinArmSpec,
    apply_arm_fields,
    dual_coincidence_profile,
    dual_phase_closed_form,
    predicted_final_state,
    prepare_beam_state,
    spatial_vectors,
    spin_arm_states,
    spin_pancharatnam,
)
from .geometry import (
    SphericalTriangle,
    _eigenbasis,
    bargmann_invariant,
    geodesic_unitary,
    loop_holonomy,
    mixed_chain_invariant,
    mixed_solid_angle_phase,
    multi_vertex_invariant,
    qubit_mixed_triple,
    mixed_bargmann,
    solid_angle,
)
from .phase import (
    mixed_interference_profile,
    mixed_phase,
    pancharatnam_phase,
    tilted_overlap,
    trace_overlap,
)
from .transport import (
    DiscretePath,
    PrecessionSpec,
    _precession_states,
    chain_phase,
    dynamical_phase,
    geodesic_closure_solid_angle,
    is_parallel_lift,
    make_parallel_lift,
    mixed_noncyclic_phase,
    pancharatnam_vs_auxiliary,
    precession_comparison_unitary,
    precession_phase_closed_form,
    precession_phase_simulated,
)
from .twophoton import (
    LoopPair,
    ancilla_reduction_phase,
    entangled_phase_closed_form,
    franson_coincidence_profile,
    nonlinearity_ratio,
    schmidt_state_for_loops,
    simulate_loop_pair,
)

#: spin-tilt / precession-angle grid for the worked-example batteries
PRECESSION_GRID = tuple(
    (theta, phi)
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)
    for phi in (np.pi / 4, np.pi / 2, 3 * np.pi / 4)
)

BLOCH_RADII = (0.2, 0.5, 0.9)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification battery."""

    name: str
    suite: str
    stat: float
    threshold: float
    mode: str  # "max": stat <= threshold; "min": stat >= threshold
    passed: bool

    def line(self) -> str:
        label = "max dev" if self.mode == "max" else "min stat"
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {label} {self.stat:.3e} "
                f"(threshold {self.threshold:.3e}) {verdict}")


def _worst(*deviations) -> float:
    """Largest deviation over all rows (0 for none); NaN if any row is
    NaN, so an undefined instance fails its check."""
    return float(np.max(np.concatenate([np.ravel(d) for d in deviations]),
                        initial=0.0))


def _result(name, suite, stat, threshold, mode="max",
            tol_scale=1.0) -> CheckResult:
    """Verdict: stat <= threshold * tol_scale in max mode, stat * tol_scale
    >= threshold in min mode; the reported threshold bounds the raw stat."""
    if mode == "max":
        threshold = threshold * tol_scale
        passed = stat <= threshold
    else:
        passed = stat * tol_scale >= threshold
        threshold = threshold / tol_scale if tol_scale > 0 else np.inf
    return CheckResult(name, suite, float(stat), float(threshold), mode, passed)


# ---------------------------------------------------------------------------
# random input generators

def _first_kept(n, draw):
    """The first n rows that ``draw`` keeps, in draw order.

    draw(k) makes k attempts and returns a tuple of arrays holding the
    rows it kept.  Asking each time only for the rows still missing never
    draws past the n-th kept row, so the generator is consumed exactly as
    by one attempt at a time.
    """
    parts = [draw(n)]
    kept = len(parts[0][0])
    while kept < n:
        parts.append(draw(n - kept))
        kept += len(parts[-1][0])
    return tuple(np.concatenate(rows) for rows in zip(*parts))


def random_qubit_tuple(rng, n, count, min_overlap=0.05):
    """n tuples of ``count`` Haar states, shape (n, count, 2), whose
    cyclic-neighbour and closing overlaps stay away from zero.

    Tuples are drawn in blocks and accepted in draw order, so the result
    is what drawing one tuple at a time would accept.
    """
    pairs = [(i, (i + 1) % count) for i in range(count)]
    pairs.append((0, 2))  # splitting diagonal used by additivity
    first, second = np.array(pairs).T

    def draw(k):
        states = haar_state(rng, shape=(k, count))
        overlaps = inner_product(states[:, first], states[:, second])
        return (states[(np.abs(overlaps) > min_overlap).all(axis=1)],)

    return _first_kept(n, draw)[0]


def random_triangle(rng, n, min_overlap=0.05, max_area=2.0 * np.pi - 0.1):
    """n random vertex triples as one batched triangle, with their signed
    solid angles, all below max_area in magnitude; accepted in draw
    order, like random_qubit_tuple."""
    def draw(k):
        states = random_qubit_tuple(rng, k, 3, min_overlap)
        omega = solid_angle(SphericalTriangle.from_states(*states.swapaxes(0, 1)))
        keep = np.abs(omega) < max_area
        return states[keep], omega[keep]

    states, omega = _first_kept(n, draw)
    return SphericalTriangle.from_states(*states.swapaxes(0, 1)), omega


def _complex_normal(rng, dim):
    """A (dim, dim) complex Gaussian matrix, real parts drawn first."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(m):
    """Haar unitaries from (..., d, d) complex Gaussians by one stacked QR."""
    q, r = np.linalg.qr(m)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _random_generator(rng, dim=2):
    """A random hermitian generator and a Haar start state."""
    m = _complex_normal(rng, dim)
    return (m + m.conj().T) / 2.0, haar_state(rng, dim)


def _evolved_path(h, psi0, n) -> DiscretePath:
    """Schroedinger evolution of psi0 under the fixed generator h at n
    equal steps over unit time, one path per row of stacked (h, psi0)."""
    evals, evecs = np.linalg.eigh(h)
    times = np.linspace(0.0, 1.0, n + 1)
    phases = np.exp(-1j * (times[:, None] * evals[..., None, :]))
    coeffs = evecs.conj().swapaxes(-1, -2) @ psi0[..., None]
    states = (evecs[..., None, :, :] * phases[..., None, :]) @ coeffs[..., None, :, :]
    return DiscretePath(times, states[..., 0], h)


def _precession_batch(spec, n):
    """The n-step precession paths of a batched ``spec`` as one batch,
    timed by the fraction of each duration: the kernels it serves read no
    times.  Each row's states are those of precession_path: the times of
    linspace(0, phi, n + 1) are those of one linspace over all the rows
    when no phi is zero."""
    times = np.linspace(0.0, spec.phi, n + 1, axis=-1)
    return DiscretePath(np.linspace(0.0, 1.0, n + 1),
                        _precession_states(spec.theta, times))


# ---------------------------------------------------------------------------
# geometry suite

def check_solid_angle_law(seed, tol_scale=1.0, n=1000):
    """Overlap-product invariant equals -Omega/2 from spherical excess."""
    rng = np.random.default_rng([seed, 1])
    a, b, c = random_qubit_tuple(rng, n, 3).swapaxes(0, 1)
    omega = solid_angle(SphericalTriangle.from_states(a, b, c))
    dev = np.abs(wrap_angle(bargmann_invariant(a, b, c) + omega / 2.0))
    return _result("invariant equals -solid_angle/2", "geometry", _worst(dev),
                   1e-9, tol_scale=tol_scale)


def check_additivity(seed, tol_scale=1.0, n=1000):
    """Four-vertex invariant splits along the diagonal."""
    rng = np.random.default_rng([seed, 2])
    a, b, c, d = random_qubit_tuple(rng, n, 4).swapaxes(0, 1)
    total = multi_vertex_invariant([a, b, c, d])
    split = bargmann_invariant(a, b, c) + bargmann_invariant(a, c, d)
    return _result("four-vertex additivity", "geometry",
                   _worst(np.abs(wrap_angle(total - split))), 1e-9,
                   tol_scale=tol_scale)


def check_orientation(seed, tol_scale=1.0, n=1000):
    """Swapping the last two vertices negates the invariant exactly."""
    rng = np.random.default_rng([seed, 3])
    a, b, c = random_qubit_tuple(rng, n, 3).swapaxes(0, 1)
    dev = np.abs(wrap_angle(bargmann_invariant(a, c, b) + bargmann_invariant(a, b, c)))
    return _result("orientation antisymmetry (exact)", "geometry", _worst(dev),
                   0.0, tol_scale=tol_scale)


def check_holonomy_spectrum(seed, tol_scale=1.0, n=300):
    """Loop holonomy phases the vertex state by -Omega/2, its complement
    by +Omega/2."""
    rng = np.random.default_rng([seed, 4])
    tri, omega = random_triangle(rng, n, max_area=4.0 * np.pi)
    u = loop_holonomy(tri)
    vertex = bloch_to_state(tri.a)
    devs = []
    for state, sign in ((vertex, +1.0), (orthogonal_complement(vertex), -1.0)):
        val = inner_product(state, (u @ state[..., None])[..., 0])
        devs += [np.abs(np.abs(val) - 1.0),
                 np.abs(wrap_angle(principal_angle(val) + sign * omega / 2.0))]
    return _result("holonomy eigenphases are -/+ solid_angle/2", "geometry",
                   _worst(*devs), 1e-8, tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# mixed suite

def check_mixed_profile_routes(seed, tol_scale=1.0, n=200, n_chi=64):
    """Eigen-ensemble profile equals the trace closed form pointwise."""
    rng = np.random.default_rng([seed, 5])
    chis = np.linspace(0.0, 2.0 * np.pi, n_chi, endpoint=False)
    draws = [(0.0 if k == 0 else rng.uniform(0.0, 1.0),  # include degenerate rho
              rng.standard_normal(3), _complex_normal(rng, 2)) for k in range(n)]
    r, axes, m = map(np.array, zip(*draws))
    rho = qubit_density(r, axes / np.sqrt(_dot(axes, axes))[..., None])
    u = _haar_unitary(m)
    profile = mixed_interference_profile(rho, u, chis)
    closed = 2.0 + 2.0 * np.real(np.exp(1j * chis)
                                 * np.conj(trace_overlap(rho, u))[..., None])
    return _result("ensemble profile equals trace profile", "mixed",
                   _worst(np.abs(profile.intensities - closed)), 1e-9,
                   tol_scale=tol_scale)


def check_mixed_solid_angle_law(seed, tol_scale=1.0, n=200):
    """Weighted invariant along composed geodesics equals the closed form."""
    rng = np.random.default_rng([seed, 6])
    tri, omega = random_triangle(rng, n)
    devs = [np.abs(wrap_angle(mixed_bargmann(qubit_mixed_triple(tri, r))
                              - mixed_solid_angle_phase(r, omega)))
            for r in BLOCH_RADII]
    return _result("weighted invariant matches arctan law", "mixed",
                   _worst(*devs), 1e-8, tol_scale=tol_scale)


def check_trace_basis_independence(seed, tol_scale=1.0, n=200):
    """arg Tr(U rho) agrees with the weighted eigenvector overlap sum."""
    rng = np.random.default_rng([seed, 7])
    by_dim = {}
    for _ in range(n):
        dim = int(rng.integers(2, 5))
        by_dim.setdefault(dim, []).append((rng.dirichlet(np.ones(dim)),
                                           _complex_normal(rng, dim),
                                           _complex_normal(rng, dim)))
    devs = []
    for draws in by_dim.values():
        weights, m_basis, m_u = map(np.array, zip(*draws))
        basis, u = _haar_unitary(m_basis), _haar_unitary(m_u)
        rho = (basis * weights[..., None, :]) @ basis.conj().swapaxes(-1, -2)
        vectors = basis.swapaxes(-1, -2)  # one eigenvector per row
        overlaps = inner_product(vectors,
                                 (u[..., None, :, :] @ vectors[..., None])[..., 0])
        total = sum(w * overlap for w, overlap in zip(weights.T, overlaps.T))
        kept = np.abs(total) >= 1e-6
        got = mixed_phase(rho[kept], u[kept]).phase
        devs.append(np.abs(wrap_angle(got - principal_angle(total[kept]))))
    return _result("trace phase is basis independent", "mixed", _worst(*devs),
                   1e-10, tol_scale=tol_scale)


def check_mixed_nonadditivity(seed, tol_scale=1.0):
    """Regression fixture: the weighted invariant is NOT additive.

    One four-station example must violate the diagonal-splitting identity
    by a finite margin (the pure invariant satisfies it exactly).  The
    counterexample is frozen: a fixture must not drift with the caller's
    seed (some quadruples are accidentally near-additive).
    """
    rng = np.random.default_rng([2026, 8])
    r = 0.5
    weights = np.array([(1.0 + r) / 2.0, (1.0 - r) / 2.0])
    states = random_qubit_tuple(rng, 1, 4)[0]
    bases = [_eigenbasis(s) for s in states]
    points = [state_to_bloch(s) for s in states]
    legs = [geodesic_unitary(points[i], points[i + 1]) for i in range(3)]

    u_abcd = legs[2] @ legs[1] @ legs[0]
    u_abc = legs[1] @ legs[0]
    u_acd = legs[2] @ (geodesic_unitary(points[0], points[2]))
    total = mixed_chain_invariant(weights, bases, u_abcd)
    split = (mixed_chain_invariant(weights, [bases[0], bases[1], bases[2]], u_abc)
             + mixed_chain_invariant(weights, [bases[0], bases[2], bases[3]],
                                     u_acd))
    gap = abs(wrap_angle(total - split))
    return _result("weighted invariant is nonadditive (fixture)", "mixed",
                   gap, 1e-3, mode="min", tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# two-photon suite

def _random_loop_pairs(rng, n):
    """n loop pairs, pair i from the random triangles 2i and 2i + 1 of
    one batch (as drawn pair by pair), with their solid angles."""
    tri, omega = random_triangle(rng, 2 * n)
    return LoopPair(tri[0::2], tri[1::2]), omega[0::2], omega[1::2]


def check_pair_oracle(seed, tol_scale=1.0, n=500):
    """Simulated 4-dim pair phase/visibility equal the closed forms."""
    rng = np.random.default_rng([seed, 9])

    def draw(k):
        loops, omega_a, omega_ap = _random_loop_pairs(rng, k)
        lam = rng.uniform(0.0, 1.0, k)
        closed = entangled_phase_closed_form(lam, omega_a, omega_ap)
        keep = closed.visibility >= 1e-6
        sim = simulate_loop_pair(schmidt_state_for_loops(lam[keep], loops[keep]),
                                 loops[keep])
        return (np.abs(wrap_angle(sim.phase - closed.phase[keep])),
                np.abs(sim.visibility - closed.visibility[keep]))

    return _result("pair simulation matches closed forms", "two-photon",
                   _worst(*_first_kept(n, draw)), 1e-8, tol_scale=tol_scale)


def check_maximal_entanglement_quantisation(seed, tol_scale=1.0, n=300):
    """At lam = 1/2 every defined pair phase is 0 or pi."""
    rng = np.random.default_rng([seed, 10])

    def draw(k):
        loops, _, _ = _random_loop_pairs(rng, k)
        sim = simulate_loop_pair(schmidt_state_for_loops(0.5, loops), loops)
        phase = sim.phase[sim.visibility > 1e-6]
        return (np.minimum(np.abs(wrap_angle(phase)),
                           np.abs(wrap_angle(phase - np.pi))),)

    return _result("maximally entangled phases pinned to {0, pi}",
                   "two-photon", _worst(*_first_kept(n, draw)), 1e-8,
                   tol_scale=tol_scale)


def check_visibility_bound(seed, tol_scale=1.0, n=500):
    """Pair visibility never exceeds one."""
    rng = np.random.default_rng([seed, 11])
    half, lam = rng.uniform((-2.0 * np.pi, 0.0), (2.0 * np.pi, 1.0), (n, 2)).T
    overlap = tilted_overlap(half, 2.0 * lam - 1.0)
    worst = np.max(np.hypot(overlap.real, overlap.imag) - 1.0, initial=-np.inf)
    return _result("pair visibility bounded by one", "two-photon", worst,
                   1e-12, tol_scale=tol_scale)


def check_franson_fringe(seed, tol_scale=1.0, n=100, n_chi=64):
    """Coincidence-fringe fit recovers the closed forms; swing is 4V."""
    rng = np.random.default_rng([seed, 12])
    grid = np.linspace(0.0, 2.0 * np.pi, n_chi, endpoint=False)

    def draw(k):
        loops, omega_a, omega_ap = _random_loop_pairs(rng, k)
        lam = rng.uniform(0.0, 1.0, k)
        closed = entangled_phase_closed_form(lam, omega_a, omega_ap)
        keep = closed.visibility >= 1e-6
        phase, vis = closed.phase[keep], closed.visibility[keep]
        chis = np.concatenate([  # each row's grid plus its fringe extrema
            np.broadcast_to(grid, (phase.size, n_chi)),
            np.stack([phase, phase + np.pi], axis=-1),
        ], axis=-1)
        profile = franson_coincidence_profile(
            schmidt_state_for_loops(lam[keep], loops[keep]), loops[keep], chis)
        swing = profile.intensities.max(axis=-1) - profile.intensities.min(axis=-1)
        return (np.abs(wrap_angle(profile.extracted.phase - phase)),
                np.abs(profile.extracted.visibility - vis),
                np.abs(swing - 4.0 * vis))

    return _result("coincidence fringe recovers phase and visibility",
                   "two-photon", _worst(*_first_kept(n, draw)), 1e-8,
                   tol_scale=tol_scale)


def check_nonlinearity_law(seed, tol_scale=1.0, n=500):
    """|tan(entangled)/tan(product)| equals the entanglement degree."""
    rng = np.random.default_rng([seed, 13])

    def draw(k):  # (lam, omega, omega') triples, redrawn where the ratio is NaN
        lam, omega, omega_p = rng.uniform((0.0, -2.0 * np.pi, -2.0 * np.pi),
                                          (1.0, 2.0 * np.pi, 2.0 * np.pi), (k, 3)).T
        dev = np.abs(nonlinearity_ratio(lam, omega, omega_p) - np.abs(1.0 - 2.0 * lam))
        return (dev[~np.isnan(dev)],)

    return _result("tangent ratio equals entanglement degree", "two-photon",
                   _worst(*_first_kept(n, draw)), 1e-10, tol_scale=tol_scale)


def check_ancilla_reduction(seed, tol_scale=1.0, n=500):
    """Pair phase with photon 2 idle equals the ancilla-reduction and mixed
    arctan laws at r = 2 lam - 1.

    The pair sqrt(lam)|00> + sqrt(1 - lam)|11>, held as (k, 2, 2)
    amplitudes, is simulated with photon 1 taken round a loop of solid
    angle omega at the pole; the phase is arg<pair|moved>.
    """
    rng = np.random.default_rng([seed, 14])
    lam_draws = (rng.uniform(0.0, 1.0) for _ in range(n))
    lams, omegas = np.array([  # each kept lam's omega is drawn right after it
        (lam, rng.uniform(-2.0 * np.pi + 0.1, 2.0 * np.pi - 0.1))
        for lam in lam_draws if abs(lam - 0.5) >= 1e-3]).reshape(-1, 2).T
    pair = np.zeros((lams.size, 2, 2), dtype=complex)
    pair[:, 0, 0], pair[:, 1, 1] = np.sqrt(lams), np.sqrt(1.0 - lams)
    moved = matrix_exponential_su2((0.0, 0.0, 1.0), omegas) @ pair
    simulated = np.angle(np.einsum("kij,kij->k", pair.conj(), moved))
    devs = [np.abs(wrap_angle(law - simulated))
            for law in (ancilla_reduction_phase(lams, omegas),
                        mixed_solid_angle_phase(2.0 * lams - 1.0, omegas))]
    return _result("ancilla reduction matches mixed arctan law", "two-photon",
                   _worst(*devs), 1e-10, tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# geometric-phase suite

def check_lift_independence(seed, tol_scale=1.0, n=100):
    """Chain phase is untouched by rephasing every state."""
    rng = np.random.default_rng([seed, 15])
    draws = [(*_random_generator(rng), rng.uniform(-np.pi, np.pi, 201))
             for _ in range(n)]
    h, psi0, angles = map(np.stack, zip(*draws))
    path = _evolved_path(h, psi0, 200)
    rephased = DiscretePath(path.times, np.exp(1j * angles)[..., None] * path.states)
    dev = np.abs(wrap_angle(chain_phase(rephased) - chain_phase(path)))
    return _result("chain phase is lift independent", "geometric-phase",
                   _worst(dev), 1e-10, tol_scale=tol_scale)


def check_parallel_lift(seed, tol_scale=1.0, n=100):
    """Parallel lift: real-positive links, unchanged projectors, endpoint
    phase equal to the chain phase."""
    rng = np.random.default_rng([seed, 16])
    draws = [_random_generator(rng) for _ in range(n)]
    path = _evolved_path(*map(np.stack, zip(*draws)), 200)
    lifted = make_parallel_lift(path)
    overlap_moduli = np.abs(
        np.einsum("...ij,...ij->...i", path.states.conj(), lifted.states))
    endpoint = principal_angle(
        inner_product(lifted.states[..., 0, :], lifted.states[..., -1, :]))
    dev = _worst(np.where(is_parallel_lift(lifted, 1e-10), 0.0, 1.0),
                 np.abs(overlap_moduli - 1.0),
                 np.abs(wrap_angle(endpoint - chain_phase(path))),
                 np.abs(dynamical_phase(lifted)))
    return _result("parallel lift is parallel and projector preserving",
                   "geometric-phase", dev, 1e-10, tol_scale=tol_scale)


def check_cancellation_identity(seed, tol_scale=1.0, n=60):
    """Auxiliary-evolution phase equals the chain phase within 5/N."""
    rng = np.random.default_rng([seed, 17])
    by_steps = {}
    for _ in range(n):
        steps = int(rng.choice([64, 256, 1024]))
        by_steps.setdefault(steps, []).append(_random_generator(rng))
    gaps = []
    for steps, draws in by_steps.items():
        path = _evolved_path(*map(np.stack, zip(*draws)), steps)
        gap = np.abs(wrap_angle(pancharatnam_vs_auxiliary(path) - chain_phase(path)))
        gaps.append(gap * steps / 5.0)  # normalized to the 5/N budget
    return _result("local-phase cancellation within 5/N", "geometric-phase",
                   _worst(*gaps), 1.0, tol_scale=tol_scale)


def check_precession_three_way(seed, tol_scale=1.0, n_steps=10_000):
    """Closed form, auxiliary-evolution simulation, chain, and geodesic
    closure agree on the worked-example grid."""
    spec = PrecessionSpec(*np.array(PRECESSION_GRID).T)
    closed = precession_phase_closed_form(spec)
    simulated = precession_phase_simulated(spec)
    batch = _precession_batch(spec, n_steps)
    chain = chain_phase(batch)
    omega_gc = geodesic_closure_solid_angle(batch)
    # deviations reported as fractions of their individual budgets
    stat = max(_worst(np.abs(wrap_angle(simulated - closed))) / 1e-9,
               _worst(np.abs(wrap_angle(chain - closed))) / 1e-3,
               _worst(np.abs(wrap_angle(-omega_gc / 2.0 - closed))) / 1e-4)
    return _result("precession three-way agreement (budget fractions)",
                   "geometric-phase", stat, 1.0, tol_scale=tol_scale)


def check_chain_convergence(seed, tol_scale=1.0, n_coarse=1000):
    """Halving the step at least roughly halves the chain-phase error."""
    spec = PrecessionSpec(*np.array(PRECESSION_GRID).T)
    exact = precession_phase_closed_form(spec)
    err_n, err_2n = (
        np.abs(wrap_angle(chain_phase(_precession_batch(spec, n)) - exact))
        for n in (n_coarse, 2 * n_coarse))
    resolved = err_2n > 1e-13  # skip grid points at the floating noise floor
    ratio = float(np.mean(err_n[resolved] / err_2n[resolved]))
    return _result("chain error ratio under step halving", "geometric-phase",
                   ratio, 1.9, mode="min", tol_scale=tol_scale)


def check_mixed_noncyclic(seed, tol_scale=1.0):
    """Mixed noncyclic closed form equals the direct trace phase."""
    theta, phi = np.array(PRECESSION_GRID).T[..., None]  # (12, 1) against 3 radii
    spec = PrecessionSpec(theta, phi, np.array(BLOCH_RADII))
    want = mixed_phase(qubit_density(spec.r), precession_comparison_unitary(spec))
    dev = np.abs(wrap_angle(mixed_noncyclic_phase(spec) - want.phase))
    return _result("mixed noncyclic phase matches trace oracle",
                   "geometric-phase", _worst(dev), 1e-8, tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# dual suite

def _dual_grid(n=20):
    """The (theta, delta_phi) grid as one batch of n * n rows, theta slowest."""
    thetas = np.linspace(0.05, np.pi - 0.05, n)
    dphis = np.linspace(-np.pi + 0.1, np.pi - 0.1, n)
    return tuple(axis.ravel() for axis in np.meshgrid(thetas, dphis, indexing="ij"))


#: lower ends and widths of the random arm setups' (tilt, varphi0, varphi1)
#: ranges; low + width * rng.random() is bit for bit rng.uniform(low, high)
_ARM_LOW, _ARM_WIDTH = np.array([[0.0, -2.0 * np.pi, -2.0 * np.pi],
                                 [np.pi, 4.0 * np.pi, 4.0 * np.pi]])


def check_dual_fringe(seed, tol_scale=1.0, n_chi=64):
    """End-to-end summed-analyser fringe recovers the closed forms."""
    theta, dphi = _dual_grid()
    chis = np.linspace(0.0, 2.0 * np.pi, n_chi, endpoint=False)
    closed = dual_phase_closed_form(DualSetupSpec(theta, dphi / 2.0, -dphi / 2.0))
    fitted = dual_coincidence_profile(theta, dphi, chis).extracted
    return _result("dual fringe recovers phase and visibility", "dual",
                   _worst(np.abs(wrap_angle(fitted.phase - closed.phase)),
                          np.abs(fitted.visibility - closed.visibility)),
                   1e-8, tol_scale=tol_scale)


def check_duality_identity(seed, tol_scale=1.0):
    """Beam-pair and spin-arm closed forms, one law at swapped angles, each
    equal the overlap of their own explicitly built states."""
    theta, dphi = _dual_grid()
    dual_spec = DualSetupSpec(theta, dphi / 2.0, -dphi / 2.0)
    a_plus, a_minus = spatial_vectors(dual_spec)
    spin_spec = SpinArmSpec(theta, dphi)
    devs = []
    for closed, direct in (
        (dual_phase_closed_form(dual_spec), pancharatnam_phase(a_minus, a_plus)),
        (spin_pancharatnam(spin_spec),
         pancharatnam_phase(*spin_arm_states(spin_spec))),
    ):
        devs += [np.abs(wrap_angle(closed.phase - direct.phase)),
                 np.abs(closed.visibility - direct.visibility)]
    return _result("duality with the spin-arm law", "dual", _worst(*devs), 1e-10,
                   tol_scale=tol_scale)


def check_channel_sum(seed, tol_scale=1.0, n_chi=64):
    """Spin-up plus spin-down analyser profiles are flat (probability
    conservation)."""
    theta, dphi = _dual_grid(7)
    chis = np.linspace(0.0, 2.0 * np.pi, n_chi, endpoint=False)
    up, down = (dual_coincidence_profile(theta, dphi, chis, channel).intensities
                for channel in (+1, -1))
    return _result("analyser channels sum to a constant", "dual",
                   _worst(np.abs(up + down - 4.0)), 1e-10, tol_scale=tol_scale)


def check_arm_unitarity(seed, tol_scale=1.0, n=500):
    """Arm fields preserve the norm of arbitrary beam-spin states."""
    rng = np.random.default_rng([seed, 18])
    psi, unit = map(np.array, zip(*[(haar_state(rng, 4), rng.random(3))
                                    for _ in range(n)]))
    final = apply_arm_fields(psi, DualSetupSpec(*(_ARM_LOW + _ARM_WIDTH * unit).T))
    norm = np.sqrt(_dot(final.real, final.real) + _dot(final.imag, final.imag))
    return _result("arm fields are unitary", "dual", _worst(np.abs(norm - 1.0)),
                   1e-12, tol_scale=tol_scale)


def check_final_state_expansion(seed, tol_scale=1.0, n=200):
    """Beam-pair expansion of the final state matches direct application."""
    rng = np.random.default_rng([seed, 19])
    spec = DualSetupSpec(*(_ARM_LOW + _ARM_WIDTH * rng.random((n, 3))).T)
    direct = apply_arm_fields(prepare_beam_state(spec), spec)
    return _result("beam-pair expansion of the final state", "dual",
                   _worst(np.abs(direct - predicted_final_state(spec))), 1e-10,
                   tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# suite registry

SUITES = {
    "geometry": (
        check_solid_angle_law,
        check_additivity,
        check_orientation,
        check_holonomy_spectrum,
    ),
    "mixed": (
        check_mixed_profile_routes,
        check_mixed_solid_angle_law,
        check_trace_basis_independence,
        check_mixed_nonadditivity,
    ),
    "two-photon": (
        check_pair_oracle,
        check_maximal_entanglement_quantisation,
        check_visibility_bound,
        check_franson_fringe,
        check_nonlinearity_law,
        check_ancilla_reduction,
    ),
    "geometric-phase": (
        check_lift_independence,
        check_parallel_lift,
        check_cancellation_identity,
        check_precession_three_way,
        check_chain_convergence,
        check_mixed_noncyclic,
    ),
    "dual": (
        check_dual_fringe,
        check_duality_identity,
        check_channel_sum,
        check_arm_unitarity,
        check_final_state_expansion,
    ),
}


def run_suites(names, seed=0, tol_scale=1.0):
    """Run the named suites (or 'all'), returning every CheckResult."""
    if isinstance(names, str):
        names = [names]
    selected = []
    for name in names:
        if name == "all":
            selected = list(SUITES)
            break
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from "
                           f"{sorted(SUITES)} or 'all'")
        selected.append(name)
    results = []
    for suite in selected:
        for fn in SUITES[suite]:
            results.append(fn(seed, tol_scale=tol_scale))
    return results
