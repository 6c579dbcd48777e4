"""Named desk-scale experiments behind the CLI.

Each runner takes its parameters as keyword arguments (already
validated; its signature is the one statement of their names, order and
defaults, from which ``cli.PARAM_SCHEMAS`` is derived), executes one
scenario end to end, and returns scalar results, oracle deltas (closed
form versus independently simulated route; where a battery holds the
pairing, the row function it calls states them, see ``pancha.checks``),
and an optional interference profile.  Everything is deterministic for a
given parameter set.

Every runner uses ``core``, ``phase`` and ``errors``; each imports the
rest of what it calls in its own body, so a cold ``pancha run`` loads
only its own experiment's modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BlochPoint,
    bloch_to_state,
    inner_product,
    matrix_exponential_su2,
    qubit_density,
    wrap_angle,
)
from .errors import UndefinedRatioError
from .phase import (
    _chi_grid,
    deviations,
    fit_fringe,
    mixed_phase,
    mixed_profile_routes,
    pancharatnam_phase,
    pure_interference_profile,
)


@dataclass
class ExperimentOutcome:
    """Scalar results, oracle deltas, and an optional fringe profile: the
    (chis, intensities) pair the fitted phase was read from."""

    results: dict[str, float]
    oracle_deltas: dict[str, float]
    profile: tuple[np.ndarray, np.ndarray] | None = None
    #: result keys that are phases (get an unwrapped twin in sweeps)
    phase_keys: tuple[str, ...] = field(default=())


def _triangle(vertices):
    from .geometry import SphericalTriangle

    points = [BlochPoint(float(t), float(p)) for t, p in vertices]
    return SphericalTriangle(*points)


def _fringe_outcome(direct, chis, intensities, name, deltas) -> ExperimentOutcome:
    """The direct and fitted phases and visibilities, the fit's deltas
    ``name`` against the direct ones, which no battery holds, after ``deltas``."""
    fitted = fit_fringe(chis, intensities)
    return ExperimentOutcome(
        results={
            "phase": direct.phase,
            "visibility": direct.visibility,
            "fitted_phase": fitted.phase,
            "fitted_visibility": fitted.visibility,
        },
        oracle_deltas={**deltas, **deviations(name, fitted, direct)},
        profile=(chis, intensities),
        phase_keys=("phase", "fitted_phase"),
    )


def run_pair(theta_a, phi_a, theta_b, phi_b, alpha=0.0,
             samples=64) -> ExperimentOutcome:
    """Two pure qubit states interfering in a two-beam arrangement."""
    a = bloch_to_state(BlochPoint(theta_a, phi_a))
    b = np.exp(1j * alpha) * bloch_to_state(BlochPoint(theta_b, phi_b))
    direct = pancharatnam_phase(a, b)
    chis = _chi_grid(samples)
    return _fringe_outcome(direct, chis, pure_interference_profile(a, b, chis),
                           "fit_vs_overlap", {})


def run_mixed(r, angle, axis=(0.0, 0.0, 1.0), samples=64) -> ExperimentOutcome:
    """Mixed qubit state (radius r about z) under a unitary rotation."""
    rho = qubit_density(r)
    u = matrix_exponential_su2(np.asarray(axis, dtype=float), angle)
    direct = mixed_phase(rho, u)
    chis = _chi_grid(samples)
    profile, deltas = mixed_profile_routes(rho, u, chis)
    return _fringe_outcome(direct, chis, profile["intensities"], "fit_vs_trace", deltas)


def run_triangle(vertices, r=0.5) -> ExperimentOutcome:
    """Solid-angle law on one triangle, pure and mixed."""
    from .geometry import loop_holonomy, mixed_solid_angle_routes, solid_angle_routes

    tri = _triangle(vertices)
    pure, pure_deltas = solid_angle_routes(tri)
    start = tri.states[0]
    holonomy_phase = float(np.angle(inner_product(start, loop_holonomy(tri) @ start)))
    mixed, mixed_deltas = mixed_solid_angle_routes(tri, r, pure["solid_angle"])
    return ExperimentOutcome(
        results={**pure, "holonomy_phase": holonomy_phase, **mixed},
        oracle_deltas={
            **pure_deltas,
            "holonomy_vs_invariant": abs(wrap_angle(holonomy_phase - pure["invariant"])),
            **mixed_deltas,
        },
        phase_keys=("invariant", "mixed_invariant"),
    )


def run_two_photon(lam, triangle_a, triangle_a_prime,
                   samples=64) -> ExperimentOutcome:
    """Entangled pair driven around one loop per photon."""
    from .geometry import solid_angle
    from .twophoton import (_pair_transport, entangled_phase_closed_form,
                            franson_routes, nonlinearity_ratio, pair_routes)

    loops = (_triangle(triangle_a), _triangle(triangle_a_prime))
    lam = float(lam)
    omega, omega_prime = map(solid_angle, loops)
    closed = entangled_phase_closed_form(lam, omega, omega_prime)
    pair = _pair_transport(lam, *loops)  # the overlap's and the fringe's
    sim, sim_deltas = pair_routes(closed, pair)
    chis = _chi_grid(samples)
    fringe, fit_deltas = franson_routes(closed, pair, chis)
    intensities = fringe.pop("intensities")
    try:
        ratio = nonlinearity_ratio(lam, omega, omega_prime)
    except UndefinedRatioError:
        ratio = float("nan")
    return ExperimentOutcome(
        results={
            "phase": closed.phase,
            "visibility": closed.visibility,
            **sim,
            **fringe,
            "solid_angle_a": omega,
            "solid_angle_a_prime": omega_prime,
            "nonlinearity_ratio": ratio,
        },
        oracle_deltas={**sim_deltas, **fit_deltas},
        profile=(chis, intensities),
        phase_keys=("phase", "simulated_phase", "fitted_phase"),
    )


def run_precession(theta, phi, r=0.5, subdivisions=4096) -> ExperimentOutcome:
    """Spin-1/2 precession: closed form, chain, geodesic closure, mixed."""
    from .transport import PrecessionSpec, mixed_noncyclic_routes, precession_routes

    spec = PrecessionSpec(theta, phi, r)
    pure, pure_deltas = precession_routes(spec, int(subdivisions))
    mixed, mixed_deltas = mixed_noncyclic_routes(spec)
    return ExperimentOutcome(
        results={**pure, "half_area_phase": wrap_angle(-pure["solid_angle_gc"] / 2.0),
                 **mixed},
        oracle_deltas={**pure_deltas, **mixed_deltas},
        phase_keys=("closed_form", "simulated", "chain", "mixed_closed_form"),
    )


def run_dual(theta, delta_phi, samples=64) -> ExperimentOutcome:
    """Split-beam dual readout with fixed field difference, swept sum."""
    from .dual import channel_sum_routes, dual_fringe_routes, duality_routes

    theta = float(theta)
    delta_phi = float(delta_phi)
    chis = _chi_grid(samples)
    fringe, fringe_deltas = dual_fringe_routes(theta, delta_phi, chis)
    channels = fringe.pop("channels")
    return ExperimentOutcome(
        # the spin arm obeys the same law; its columns stay in the output
        results={**fringe, "spin_arm_phase": fringe["phase"],
                 "spin_arm_visibility": fringe["visibility"]},
        oracle_deltas={**fringe_deltas, **duality_routes(theta, delta_phi)[1],
                       **channel_sum_routes(*channels)[1]},
        profile=(chis, channels[0]),
        phase_keys=("phase", "fitted_phase", "spin_arm_phase"),
    )


RUNNERS = {
    "pair": run_pair,
    "mixed": run_mixed,
    "triangle": run_triangle,
    "two-photon": run_two_photon,
    "precession": run_precession,
    "dual": run_dual,
}
