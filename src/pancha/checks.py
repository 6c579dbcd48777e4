"""Seeded verification batteries behind ``pancha verify`` and the
acceptance tests.

Each check runs a closed-form phase law against an independent
brute-force route (state evolution, spherical excess, direct traces) over
seeded random inputs and reports the worst observed deviation.  Where a
runner reports the same pairing, both call one row function beside the
law, ``<law>_routes``: it takes the pairing's inputs, chi grid included,
and returns ``(values, deviations)``, the deviations rowwise under the
runner's oracle-delta names; the check yields them, the runner its row.

A battery is a generator function ``check_<law>(seed, ...)`` whose
keyword arguments are its instance counts, decorated with
``@_battery(suite, name, threshold, mode)``.  It yields its rows: arrays
of deviations, one entry per instance, or in ``"min"`` mode the one
statistic that must reach the threshold.  The decorator states the
verdict once for every battery: the stat is the largest (``"max"``) or
smallest (``"min"``) yielded entry, NaN if any entry is NaN or none was
yielded, so an undefined instance fails; ``tol_scale`` scales the
verdict; the check returns a ``CheckResult`` and is appended to its
suite in ``SUITES`` in definition order.  A ``fixture`` ignores its seed.

Each check draws each kind of input once, as an (n, ...) block in the
order its code states; a normal block equals one-at-a-time draws, so
``check_parallel_lift`` sees the inputs of per-instance drawing.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .core import (
    _cis,
    _dot,
    haar_state,
    inner_product,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    qubit_density,
    wrap_angle,
)
from .dual import (
    analyser_intensities,
    apply_arm_fields,
    channel_sum_routes,
    dual_fringe_routes,
    duality_routes,
    predicted_final_state,
    prepare_beam_state,
)
from .geometry import (
    SphericalTriangle,
    _eigenbasis,
    bargmann_invariant,
    loop_holonomy,
    mixed_chain_invariant,
    mixed_solid_angle_phase,
    mixed_solid_angle_routes,
    solid_angle,
    solid_angle_routes,
)
from .phase import (
    PhaseResult,
    _chi_grid,
    mixed_phase,
    mixed_profile_routes,
    tilted_overlap,
)
from .transport import (
    DiscretePath,
    PrecessionSpec,
    chain_phase,
    dynamical_phase,
    is_parallel_lift,
    make_parallel_lift,
    mixed_noncyclic_routes,
    pancharatnam_vs_auxiliary,
    precession_path,
    precession_phase_closed_form,
    precession_routes,
)
from .twophoton import (
    _pair_transport,
    entangled_phase_closed_form,
    franson_routes,
    nonlinearity_ratio,
    pair_routes,
    simulate_loop_pair,
)

#: the worked-example tilts and angles, their grid tilt-major, and the grid as one batch
PRECESSION_TILTS = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)
PRECESSION_ANGLES = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)
PRECESSION_GRID = tuple((t, p) for t in PRECESSION_TILTS for p in PRECESSION_ANGLES)
_GRID_SPEC = PrecessionSpec(*np.ix_(PRECESSION_TILTS, PRECESSION_ANGLES))

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
    fixture: bool = False  # a check that ignores its seed by design

    def line(self) -> str:
        label = "max dev" if self.mode == "max" else "min stat"
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {label} {self.stat:.3e} "
                f"(threshold {self.threshold:.3e}) {verdict}")


#: every battery by suite, in definition order (filled by ``_battery``)
SUITES: dict[str, tuple] = {}

_TOL_SCALE = inspect.Parameter("tol_scale", inspect.Parameter.POSITIONAL_OR_KEYWORD,
                               default=1.0)


def _battery(suite, name, threshold, mode="max", fixture=False):
    """Make a generator of rows a registered check (module docstring); the
    reported threshold bounds the raw stat under any ``tol_scale``."""
    extreme = np.max if mode == "max" else np.min

    def register(rows):
        @functools.wraps(rows)
        def check(seed, tol_scale=1.0, *sizes, **named_sizes):
            values = np.concatenate([np.ravel(deviations) for deviations
                                     in rows(seed, *sizes, **named_sizes)])
            stat = float(extreme(values)) if values.size else np.nan
            if mode == "max":
                bound = threshold * tol_scale
                passed = stat <= bound
            else:
                passed = stat * tol_scale >= threshold
                bound = threshold / tol_scale if tol_scale > 0 else np.inf
            return CheckResult(name, suite, stat, float(bound), mode, passed, fixture)

        seed, *sizes = inspect.signature(rows).parameters.values()
        check.__signature__ = inspect.Signature([seed, _TOL_SCALE, *sizes])
        check.fixture = fixture
        SUITES[suite] = SUITES.get(suite, ()) + (check,)
        return check

    return register


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


#: least overlap modulus the samplers keep between cyclic neighbours
MIN_OVERLAP = 0.05


def random_qubit_tuple(rng, n, count):
    """n tuples of ``count`` Haar states, shape (n, count, 2), whose
    cyclic-neighbour and closing overlaps exceed MIN_OVERLAP in modulus.

    Tuples are drawn in blocks and accepted in draw order, so the result
    is what drawing one tuple at a time would accept.
    """
    pairs = [(i, (i + 1) % count) for i in range(count)]
    pairs.append((0, 2))  # splitting diagonal used by additivity
    first, second = np.array(pairs).T

    def draw(k):
        states = haar_state(rng, shape=(k, count))
        overlaps = inner_product(states[:, first], states[:, second])
        return (states[(np.abs(overlaps) > MIN_OVERLAP).all(axis=1)],)

    return _first_kept(n, draw)[0]


def random_triangle(rng, n, max_area=2.0 * np.pi - 0.1):
    """n random vertex triples as one batched triangle, with their signed
    solid angles, all below max_area in magnitude; accepted in draw
    order, like random_qubit_tuple."""
    def draw(k):
        states = random_qubit_tuple(rng, k, 3)
        omega = solid_angle(SphericalTriangle.from_states(states))
        keep = np.abs(omega) < max_area
        return states[keep], omega[keep]

    states, omega = _first_kept(n, draw)
    return SphericalTriangle.from_states(states), omega


def _haar_unitary(m):
    """Haar unitaries from (..., d, d) complex Gaussians by one stacked QR."""
    q, r = np.linalg.qr(m)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _random_generators(rng, n, dim=2):
    """n hermitian generators and Haar start states from one normal block
    whose rows hold a complex Gaussian's real then imaginary parts, then a
    state's, as n one-at-a-time draws consume and give them."""
    z = rng.standard_normal((n, 2 * dim * dim + 2 * dim))
    re, im = z[:, :2 * dim * dim].reshape(n, 2, dim, dim).swapaxes(0, 1)
    m = re + 1j * im
    re, im = z[:, 2 * dim * dim:].reshape(n, 2, dim).swapaxes(0, 1)
    psi0 = (re + 1j * im) / np.sqrt(_dot(re, re) + _dot(im, im))[..., None]
    return (m + m.conj().swapaxes(-1, -2)) / 2.0, psi0


def _evolved_path(h, psi0, n) -> DiscretePath:
    """Schroedinger evolution of psi0 under the fixed generator h at n
    equal steps over unit time, one path per row of stacked (h, psi0):
    the sum over eigenvectors v_k of v_k e^{-i lambda_k t} <v_k|psi0>, formed
    along the time axis a component at a time, as transport's kernels are."""
    evals, evecs = np.linalg.eigh(h)
    times = np.linspace(0.0, 1.0, n + 1)
    coeffs = (evecs.conj().swapaxes(-1, -2) @ psi0[..., None])[..., 0]
    x = evals[..., None] * times
    amplitudes = np.empty(x.shape, dtype=complex)  # np.exp(-1j x), from its parts
    np.cos(x, out=amplitudes.real)
    np.sin(-x, out=amplitudes.imag)
    amplitudes = amplitudes * coeffs[..., None]
    states = np.empty(x.shape[:-2] + (n + 1, h.shape[-1]), dtype=complex)
    for i in range(h.shape[-1]):
        np.multiply(evecs[..., i, 0, None], amplitudes[..., 0, :], out=states[..., i])
        for k in range(1, h.shape[-1]):
            states[..., i] += evecs[..., i, k, None] * amplitudes[..., k, :]
    return DiscretePath(times, states, h)


# ---------------------------------------------------------------------------
# geometry suite

@_battery("geometry", "invariant equals -solid_angle/2", 1e-9)
def check_solid_angle_law(seed, n=1000):
    """Overlap-product invariant equals -Omega/2 from spherical excess."""
    rng = np.random.default_rng([seed, 1])
    tri = SphericalTriangle.from_states(random_qubit_tuple(rng, n, 3))
    yield solid_angle_routes(tri)[1]["invariant_vs_half_area"]


@_battery("geometry", "four-vertex additivity", 1e-9)
def check_additivity(seed, n=1000):
    """Four-vertex invariant splits along the diagonal."""
    rng = np.random.default_rng([seed, 2])
    a, b, c, d = random_qubit_tuple(rng, n, 4).swapaxes(0, 1)
    total = bargmann_invariant(a, b, c, d)
    split = bargmann_invariant(a, b, c) + bargmann_invariant(a, c, d)
    yield np.abs(wrap_angle(total - split))


@_battery("geometry", "orientation antisymmetry (exact)", 0.0)
def check_orientation(seed, n=1000):
    """Swapping the last two vertices negates the invariant exactly."""
    rng = np.random.default_rng([seed, 3])
    a, b, c = random_qubit_tuple(rng, n, 3).swapaxes(0, 1)
    yield np.abs(wrap_angle(bargmann_invariant(a, c, b) + bargmann_invariant(a, b, c)))


@_battery("geometry", "holonomy eigenphases are -/+ solid_angle/2", 1e-8)
def check_holonomy_spectrum(seed, n=300):
    """Loop holonomy phases the vertex state by -Omega/2, its complement
    by +Omega/2."""
    rng = np.random.default_rng([seed, 4])
    tri, omega = random_triangle(rng, n, max_area=4.0 * np.pi)
    u = loop_holonomy(tri)
    vertex = tri.states[:, 0]
    for state, sign in ((vertex, +1.0), (orthogonal_complement(vertex), -1.0)):
        val = inner_product(state, (u @ state[..., None])[..., 0])
        yield np.abs(np.abs(val) - 1.0)
        yield np.abs(wrap_angle(principal_angle(val) + sign * omega / 2.0))


# ---------------------------------------------------------------------------
# mixed suite

@_battery("mixed", "ensemble profile equals trace profile", 1e-9)
def check_mixed_profile_routes(seed, n=200, n_chi=64):
    """Eigen-ensemble profile equals the trace closed form pointwise."""
    rng = np.random.default_rng([seed, 5])
    chis = _chi_grid(n_chi)
    r = rng.uniform(0.0, 1.0, n)
    r[:1] = 0.0  # include degenerate rho
    axes = rng.standard_normal((n, 3))
    m = rng.standard_normal((2, n, 2, 2))
    rho = qubit_density(r, axes / np.sqrt(_dot(axes, axes))[..., None])
    u = _haar_unitary(m[0] + 1j * m[1])
    yield mixed_profile_routes(rho, u, chis)[1]["profile_routes_max"]


@_battery("mixed", "weighted invariant matches arctan law", 1e-8)
def check_mixed_solid_angle_law(seed, n=200):
    """Weighted invariant of the vertex eigenbases equals the closed form,
    and so does the independent trace route arg Tr(rho_a H), where H is
    the triangle's geodesic loop holonomy and rho_a sits at vertex a."""
    rng = np.random.default_rng([seed, 6])
    tri, omega = random_triangle(rng, n)
    r = np.array(BLOCH_RADII)[:, None]  # one row of n triangles per radius
    values, deviations = mixed_solid_angle_routes(tri, r, omega)
    yield deviations["mixed_vs_closed_form"]
    rho = qubit_density(r, tri.vectors[:, 0])
    yield np.abs(wrap_angle(mixed_phase(rho, loop_holonomy(tri)).phase
                            - values["mixed_closed_form"]))


@_battery("mixed", "trace phase is basis independent", 1e-10)
def check_trace_basis_independence(seed, n=200):
    """arg Tr(U rho) agrees with the weighted eigenvector overlap sum."""
    rng = np.random.default_rng([seed, 7])
    counts = np.bincount(rng.integers(2, 5, n), minlength=5)
    for dim in (2, 3, 4):
        weights = rng.dirichlet(np.ones(dim), counts[dim])
        m = rng.standard_normal((4, counts[dim], dim, dim))
        basis, u = _haar_unitary(m[0] + 1j * m[1]), _haar_unitary(m[2] + 1j * m[3])
        rho = (basis * weights[..., None, :]) @ basis.conj().swapaxes(-1, -2)
        vectors = basis.swapaxes(-1, -2)  # one eigenvector per row
        overlaps = inner_product(vectors,
                                 (u[..., None, :, :] @ vectors[..., None])[..., 0])
        total = sum(w * overlap for w, overlap in zip(weights.T, overlaps.T))
        kept = np.abs(total) >= 1e-6
        got = mixed_phase(rho[kept], u[kept]).phase
        yield np.abs(wrap_angle(got - principal_angle(total[kept])))


@_battery("mixed", "weighted invariant is nonadditive (fixture)", 1e-3, mode="min",
          fixture=True)
def check_mixed_nonadditivity(seed):
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
    total = mixed_chain_invariant(weights, bases)
    split = (mixed_chain_invariant(weights, bases[:3])
             + mixed_chain_invariant(weights, [bases[0], bases[2], bases[3]]))
    yield abs(wrap_angle(total - split))


# ---------------------------------------------------------------------------
# two-photon suite

def _random_loop_pairs(rng, n):
    """n loop pairs, pair i from the random triangles 2i and 2i + 1 of
    one batch (as drawn pair by pair), as (triangles a, triangles a',
    their solid angles)."""
    tri, omega = random_triangle(rng, 2 * n)
    return tri[0::2], tri[1::2], omega[0::2], omega[1::2]


def _visible_pairs(rng, k):
    """k loop pairs with uniform weights, as (closed forms, pair transport)
    of the rows whose closed visibility is at least 1e-6."""
    tri_a, tri_ap, omega_a, omega_ap = _random_loop_pairs(rng, k)
    lam = rng.uniform(0.0, 1.0, k)
    closed = entangled_phase_closed_form(lam, omega_a, omega_ap)
    keep = closed.visibility >= 1e-6
    return (PhaseResult(closed.phase[keep], closed.visibility[keep]),
            _pair_transport(lam[keep], tri_a[keep], tri_ap[keep]))


@_battery("two-photon", "pair simulation matches closed forms", 1e-8)
def check_pair_oracle(seed, n=500):
    """Simulated 4-dim pair phase/visibility equal the closed forms."""
    rng = np.random.default_rng([seed, 9])

    def draw(k):
        return tuple(pair_routes(*_visible_pairs(rng, k))[1].values())

    yield from _first_kept(n, draw)


@_battery("two-photon", "maximally entangled phases pinned to {0, pi}", 1e-8)
def check_maximal_entanglement_quantisation(seed, n=300):
    """At lam = 1/2 every pair phase of visibility above 1e-6 is 0 or pi."""
    rng = np.random.default_rng([seed, 10])

    def draw(k):
        tri_a, tri_ap, _, _ = _random_loop_pairs(rng, k)
        sim = simulate_loop_pair(0.5, tri_a, tri_ap)
        phase = sim.phase[sim.visibility > 1e-6]
        return (np.minimum(np.abs(wrap_angle(phase)),
                           np.abs(wrap_angle(phase - np.pi))),)

    yield from _first_kept(n, draw)


@_battery("two-photon", "pair visibility bounded by one", 1e-12)
def check_visibility_bound(seed, n=500):
    """Pair visibility never exceeds one: the rows are visibility - 1."""
    rng = np.random.default_rng([seed, 11])
    half, lam = rng.uniform((-2.0 * np.pi, 0.0), (2.0 * np.pi, 1.0), (n, 2)).T
    overlap = tilted_overlap(half, 2.0 * lam - 1.0)
    yield np.hypot(overlap.real, overlap.imag) - 1.0


@_battery("two-photon", "coincidence fringe recovers phase and visibility", 1e-8)
def check_franson_fringe(seed, n=100, n_chi=64):
    """Coincidence-fringe fit recovers the closed forms; swing is 4V."""
    rng = np.random.default_rng([seed, 12])
    grid = _chi_grid(n_chi)

    def draw(k):
        closed, pair = _visible_pairs(rng, k)
        chis = np.concatenate([  # each row's grid plus its fringe extrema
            np.broadcast_to(grid, (closed.phase.size, n_chi)),
            np.stack([closed.phase, closed.phase + np.pi], axis=-1),
        ], axis=-1)
        fringe, deviations = franson_routes(closed, pair, chis)
        swing = fringe["intensities"].max(axis=-1) - fringe["intensities"].min(axis=-1)
        return (*deviations.values(), np.abs(swing - 4.0 * closed.visibility))

    yield from _first_kept(n, draw)


def _pole_pair_phase(lam, omega, omega_p=0.0):
    """arg<pair|moved> for the pair sqrt(lam)|00> + sqrt(1 - lam)|11>,
    held as (k, 2, 2) amplitudes, after photon 1 goes round a loop of
    solid angle omega at the pole and photon 2 round one of omega_p: the
    first rotation acts on the left of the amplitudes, the transpose of
    the second on the right."""
    pair = np.zeros((lam.size, 2, 2), dtype=complex)
    pair[:, 0, 0], pair[:, 1, 1] = np.sqrt(lam), np.sqrt(1.0 - lam)
    moved = (matrix_exponential_su2((0.0, 0.0, 1.0), omega) @ pair
             @ np.swapaxes(matrix_exponential_su2((0.0, 0.0, 1.0), omega_p), -1, -2))
    return np.angle(np.einsum("kij,kij->k", pair.conj(), moved))


@_battery("two-photon", "tangent ratio equals entanglement degree", 1e-10)
def check_nonlinearity_law(seed, n=500):
    """|tan(entangled)/tan(product)| equals the entanglement degree.

    The entangled phase phi is simulated on a pole pair; with
    h = (omega + omega')/2 the rows are |sin phi cos h| - ratio |cos phi
    sin h|, the tangent ratio cross-multiplied, which stays at rounding
    level where a quotient of tangents would lose precision near a pole.
    """
    rng = np.random.default_rng([seed, 13])

    def draw(k):  # (lam, omega, omega') triples, redrawn where the ratio is NaN
        lam, omega, omega_p = rng.uniform((0.0, -2.0 * np.pi, -2.0 * np.pi),
                                          (1.0, 2.0 * np.pi, 2.0 * np.pi), (k, 3)).T
        ratio = nonlinearity_ratio(lam, omega, omega_p)
        phase = _pole_pair_phase(lam, omega, omega_p)
        half = (omega + omega_p) / 2.0
        dev = np.abs(np.abs(np.sin(phase) * np.cos(half))
                     - ratio * np.abs(np.cos(phase) * np.sin(half)))
        return (dev[~np.isnan(dev)],)

    yield from _first_kept(n, draw)


@_battery("two-photon", "ancilla reduction matches mixed arctan law", 1e-10)
def check_ancilla_reduction(seed, n=500):
    """Pair phase with photon 2 idle equals the mixed arctan law at
    r = 2 lam - 1, the ancilla purification of the mixed qubit."""
    rng = np.random.default_rng([seed, 14])
    lams = rng.uniform(0.0, 1.0, n)
    omegas = rng.uniform(-2.0 * np.pi + 0.1, 2.0 * np.pi - 0.1, n)
    kept = np.abs(lams - 0.5) >= 1e-3
    lams, omegas = lams[kept], omegas[kept]
    yield np.abs(wrap_angle(mixed_solid_angle_phase(2.0 * lams - 1.0, omegas)
                            - _pole_pair_phase(lams, omegas)))


# ---------------------------------------------------------------------------
# geometric-phase suite

@_battery("geometric-phase", "chain phase is lift independent", 1e-10)
def check_lift_independence(seed, n=100):
    """Chain phase is untouched by rephasing every state."""
    rng = np.random.default_rng([seed, 15])
    path = _evolved_path(*_random_generators(rng, n), 200)
    turn = _cis(rng.uniform(-np.pi, np.pi, (n, 201)))
    rephased = DiscretePath(path.times, np.stack(
        [turn * path.states[..., k] for k in range(2)], axis=-1))
    yield np.abs(wrap_angle(chain_phase(rephased) - chain_phase(path)))


@_battery("geometric-phase", "parallel lift is parallel and projector preserving",
          1e-10)
def check_parallel_lift(seed, n=100):
    """Parallel lift: real-positive links, unchanged projectors, endpoint
    phase equal to the chain phase."""
    path = _evolved_path(*_random_generators(np.random.default_rng([seed, 16]), n), 200)
    lifted = make_parallel_lift(path)
    overlap_moduli = np.abs(
        np.einsum("...ij,...ij->...i", path.states.conj(), lifted.states))
    endpoint = principal_angle(
        inner_product(lifted.states[..., 0, :], lifted.states[..., -1, :]))
    yield np.where(is_parallel_lift(lifted), 0.0, 1.0)
    yield np.abs(overlap_moduli - 1.0)
    yield np.abs(wrap_angle(endpoint - chain_phase(path)))
    yield np.abs(dynamical_phase(lifted))


@_battery("geometric-phase", "local-phase cancellation within 5/N", 1.0)
def check_cancellation_identity(seed, n=60):
    """Auxiliary-evolution phase equals the chain phase within 5/N."""
    rng = np.random.default_rng([seed, 17])
    steps = rng.choice([64, 256, 1024], n)
    h, psi0 = _random_generators(rng, n)
    for n_steps in dict.fromkeys(steps.tolist()):  # in order of first draw
        rows = steps == n_steps
        path = _evolved_path(h[rows], psi0[rows], n_steps)
        gap = np.abs(wrap_angle(pancharatnam_vs_auxiliary(path) - chain_phase(path)))
        yield gap * n_steps / 5.0  # normalized to the 5/N budget


@_battery("geometric-phase", "precession three-way agreement (budget fractions)", 1.0,
          fixture=True)
def check_precession_three_way(seed, n_steps=10_000):
    """Closed form, auxiliary-evolution simulation, chain, and geodesic
    closure agree on the worked-example grid; each deviation is yielded
    as a fraction of its own budget."""
    deviations = precession_routes(_GRID_SPEC, n_steps)[1]
    yield deviations["sim_vs_closed"] / 1e-9
    yield deviations["chain_vs_closed"] / 1e-3
    yield deviations["half_area_vs_closed"] / 1e-4


@_battery("geometric-phase", "chain error ratio under step halving", 1.9, mode="min",
          fixture=True)
def check_chain_convergence(seed, n_coarse=1000):
    """Halving the step at least roughly halves the chain-phase error."""
    exact = precession_phase_closed_form(_GRID_SPEC)
    err_n, err_2n = (
        np.abs(wrap_angle(chain_phase(precession_path(_GRID_SPEC, n)) - exact))
        for n in (n_coarse, 2 * n_coarse))
    resolved = err_2n > 1e-13  # skip grid points at the floating noise floor
    yield np.mean(err_n[resolved] / err_2n[resolved])


@_battery("geometric-phase", "mixed noncyclic phase matches trace oracle", 1e-8,
          fixture=True)
def check_mixed_noncyclic(seed):
    """Mixed noncyclic closed form equals the direct trace phase."""
    spec = PrecessionSpec(*np.ix_(PRECESSION_TILTS, PRECESSION_ANGLES, BLOCH_RADII))
    yield mixed_noncyclic_routes(spec)[1]["mixed_vs_trace"]


# ---------------------------------------------------------------------------
# dual suite

def _dual_grid(n=20):
    """The (theta, delta_phi) grid as one batch of n * n rows, theta slowest."""
    thetas = np.linspace(0.05, np.pi - 0.05, n)
    dphis = np.linspace(-np.pi + 0.1, np.pi - 0.1, n)
    return tuple(axis.ravel() for axis in np.meshgrid(thetas, dphis, indexing="ij"))


#: lower ends and widths of the random arm setups' (tilt, varphi0, varphi1)
#: ranges (the arm fields alone take the last two); low + width *
#: rng.random() is bit for bit rng.uniform(low, high)
_ARM_LOW, _ARM_WIDTH = np.array([[0.0, -2.0 * np.pi, -2.0 * np.pi],
                                 [np.pi, 4.0 * np.pi, 4.0 * np.pi]])


@_battery("dual", "dual fringe recovers phase and visibility", 1e-8, fixture=True)
def check_dual_fringe(seed, n_chi=64):
    """End-to-end summed-analyser fringe recovers the closed forms."""
    yield from dual_fringe_routes(*_dual_grid(), _chi_grid(n_chi))[1].values()


@_battery("dual", "duality with the spin-arm law", 1e-10, fixture=True)
def check_duality_identity(seed):
    """The one closed form equals both arrangements' built-state overlaps."""
    yield from duality_routes(*_dual_grid())[1].values()


@_battery("dual", "analyser channels sum to a constant", 1e-10, fixture=True)
def check_channel_sum(seed, n_chi=64):
    """Spin-up plus spin-down analyser intensities are flat (probability
    conservation)."""
    channels = analyser_intensities(*_dual_grid(7), _chi_grid(n_chi))
    yield channel_sum_routes(*channels)[1]["channel_sum_max_dev"]


@_battery("dual", "arm fields are unitary", 1e-12)
def check_arm_unitarity(seed, n=500):
    """Arm fields preserve the norm of arbitrary beam-spin states."""
    rng = np.random.default_rng([seed, 18])
    psi = haar_state(rng, 4, (n,))
    varphi0, varphi1 = (_ARM_LOW[1:] + _ARM_WIDTH[1:] * rng.random((n, 2))).T
    final = apply_arm_fields(psi, varphi0, varphi1)
    norm = np.sqrt(_dot(final.real, final.real) + _dot(final.imag, final.imag))
    yield np.abs(norm - 1.0)


@_battery("dual", "beam-pair expansion of the final state", 1e-10)
def check_final_state_expansion(seed, n=200):
    """Beam-pair expansion of the final state matches direct application."""
    rng = np.random.default_rng([seed, 19])
    theta, varphi0, varphi1 = (_ARM_LOW + _ARM_WIDTH * rng.random((n, 3))).T
    direct = apply_arm_fields(prepare_beam_state(theta), varphi0, varphi1)
    yield np.abs(direct - predicted_final_state(theta, varphi0, varphi1))


# ---------------------------------------------------------------------------
# running

def run_suites(name, seed=0, tol_scale=1.0):
    """Run the named suite, or every suite for 'all', returning every
    CheckResult."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)} or 'all'")
    return [fn(seed, tol_scale=tol_scale)
            for suite in (SUITES if name == "all" else [name])
            for fn in SUITES[suite]]
