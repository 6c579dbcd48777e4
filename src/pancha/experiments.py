"""Named desk-scale experiments behind the CLI.

Each runner takes its parameters as keyword arguments (already
validated; its signature is the one statement of their names, order and
defaults, from which ``cli.PARAM_SCHEMAS`` is derived), executes one
scenario end to end, and returns scalar results, oracle deltas (closed
form versus independently simulated route), and an optional interference
profile.  Everything is deterministic for a given parameter set.

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
    _trace_profile,
    fit_fringe,
    mixed_interference_profile,
    mixed_phase,
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


def run_pair(theta_a, phi_a, theta_b, phi_b, alpha=0.0,
             samples=64) -> ExperimentOutcome:
    """Two pure qubit states interfering in a two-beam arrangement."""
    a = bloch_to_state(BlochPoint(theta_a, phi_a))
    b = np.exp(1j * alpha) * bloch_to_state(BlochPoint(theta_b, phi_b))
    direct = pancharatnam_phase(a, b)
    chis = _chi_grid(samples)
    intensities = pure_interference_profile(a, b, chis)
    fitted = fit_fringe(chis, intensities)
    return ExperimentOutcome(
        results={
            "phase": direct.phase,
            "visibility": direct.visibility,
            "fitted_phase": fitted.phase,
            "fitted_visibility": fitted.visibility,
        },
        oracle_deltas={
            "fit_vs_overlap_phase": abs(wrap_angle(fitted.phase - direct.phase)),
            "fit_vs_overlap_visibility": abs(fitted.visibility - direct.visibility),
        },
        profile=(chis, intensities),
        phase_keys=("phase", "fitted_phase"),
    )


def run_mixed(r, angle, axis=(0.0, 0.0, 1.0), samples=64) -> ExperimentOutcome:
    """Mixed qubit state (radius r about z) under a unitary rotation."""
    rho = qubit_density(r)
    u = matrix_exponential_su2(np.asarray(axis, dtype=float), angle)
    direct = mixed_phase(rho, u)
    chis = _chi_grid(samples)
    intensities = mixed_interference_profile(rho, u, chis)
    fitted = fit_fringe(chis, intensities)
    closed = _trace_profile(rho, u, chis)
    return ExperimentOutcome(
        results={
            "phase": direct.phase,
            "visibility": direct.visibility,
            "fitted_phase": fitted.phase,
            "fitted_visibility": fitted.visibility,
        },
        oracle_deltas={
            "profile_routes_max": float(np.abs(intensities - closed).max()),
            "fit_vs_trace_phase": abs(wrap_angle(fitted.phase - direct.phase)),
            "fit_vs_trace_visibility": abs(fitted.visibility - direct.visibility),
        },
        profile=(chis, intensities),
        phase_keys=("phase", "fitted_phase"),
    )


def run_triangle(vertices, r=0.5) -> ExperimentOutcome:
    """Solid-angle law on one triangle, pure and mixed."""
    from .geometry import (bargmann_invariant, loop_holonomy, mixed_bargmann,
                           mixed_solid_angle_phase, solid_angle)

    tri = _triangle(vertices)
    sa, sb, sc = tri.states
    invariant = bargmann_invariant(sa, sb, sc)
    omega = solid_angle(tri)
    holonomy_phase = float(np.angle(inner_product(sa, loop_holonomy(tri) @ sa)))
    weighted = mixed_bargmann(tri, r)
    weighted_closed = mixed_solid_angle_phase(r, omega)
    return ExperimentOutcome(
        results={
            "invariant": invariant,
            "solid_angle": omega,
            "holonomy_phase": holonomy_phase,
            "mixed_invariant": weighted,
            "mixed_closed_form": weighted_closed,
        },
        oracle_deltas={
            "invariant_vs_half_area": abs(wrap_angle(invariant + omega / 2.0)),
            "holonomy_vs_invariant": abs(wrap_angle(holonomy_phase - invariant)),
            "mixed_vs_closed_form": abs(wrap_angle(weighted - weighted_closed)),
        },
        phase_keys=("invariant", "mixed_invariant"),
    )


def run_two_photon(lam, triangle_a, triangle_a_prime,
                   samples=64) -> ExperimentOutcome:
    """Entangled pair driven around one loop per photon."""
    from .geometry import solid_angle
    from .twophoton import (_pair_transport, entangled_phase_closed_form,
                            nonlinearity_ratio)

    loops = (_triangle(triangle_a), _triangle(triangle_a_prime))
    lam = float(lam)
    omega, omega_prime = map(solid_angle, loops)
    closed = entangled_phase_closed_form(lam, omega, omega_prime)
    pair = _pair_transport(lam, *loops)  # simulate_loop_pair's and the profile's
    sim = pancharatnam_phase(*pair)
    chis = _chi_grid(samples)
    intensities = pure_interference_profile(*pair, chis)
    fitted = fit_fringe(chis, intensities)
    try:
        ratio = nonlinearity_ratio(lam, omega, omega_prime)
    except UndefinedRatioError:
        ratio = float("nan")
    return ExperimentOutcome(
        results={
            "phase": closed.phase,
            "visibility": closed.visibility,
            "simulated_phase": sim.phase,
            "simulated_visibility": sim.visibility,
            "fitted_phase": fitted.phase,
            "fitted_visibility": fitted.visibility,
            "solid_angle_a": omega,
            "solid_angle_a_prime": omega_prime,
            "nonlinearity_ratio": ratio,
        },
        oracle_deltas={
            "sim_vs_closed_phase": abs(wrap_angle(sim.phase - closed.phase)),
            "sim_vs_closed_visibility": abs(sim.visibility - closed.visibility),
            "fit_vs_closed_phase": abs(wrap_angle(fitted.phase - closed.phase)),
            "fit_vs_closed_visibility": abs(fitted.visibility - closed.visibility),
        },
        profile=(chis, intensities),
        phase_keys=("phase", "simulated_phase", "fitted_phase"),
    )


def run_precession(theta, phi, r=0.5, subdivisions=4096) -> ExperimentOutcome:
    """Spin-1/2 precession: closed form, chain, geodesic closure, mixed."""
    from .transport import (PrecessionSpec, chain_phase,
                            geodesic_closure_solid_angle, mixed_noncyclic_phase,
                            precession_comparison_unitary, precession_path,
                            precession_phase_closed_form,
                            precession_phase_simulated)

    spec = PrecessionSpec(theta, phi, r)
    closed = precession_phase_closed_form(spec)
    simulated = precession_phase_simulated(spec)
    path = precession_path(spec, int(subdivisions))
    chain = chain_phase(path)
    omega_gc = geodesic_closure_solid_angle(path)
    mixed_closed = mixed_noncyclic_phase(spec)
    mixed_trace = mixed_phase(qubit_density(spec.r),
                              precession_comparison_unitary(spec)).phase
    return ExperimentOutcome(
        results={
            "closed_form": closed,
            "simulated": simulated,
            "chain": chain,
            "solid_angle_gc": omega_gc,
            "half_area_phase": wrap_angle(-omega_gc / 2.0),
            "mixed_closed_form": mixed_closed,
            "mixed_trace": mixed_trace,
        },
        oracle_deltas={
            "sim_vs_closed": abs(wrap_angle(simulated - closed)),
            "chain_vs_closed": abs(wrap_angle(chain - closed)),
            "half_area_vs_closed": abs(wrap_angle(-omega_gc / 2.0 - closed)),
            "mixed_vs_trace": abs(wrap_angle(mixed_closed - mixed_trace)),
        },
        phase_keys=("closed_form", "simulated", "chain", "mixed_closed_form"),
    )


def run_dual(theta, delta_phi, samples=64) -> ExperimentOutcome:
    """Split-beam dual readout with fixed field difference, swept sum."""
    from .dual import (analyser_intensities, dual_phase_closed_form,
                       spatial_vectors, spin_arm_states)

    theta = float(theta)
    delta_phi = float(delta_phi)
    closed = dual_phase_closed_form(theta, delta_phi)
    chis = _chi_grid(samples)
    up, down = analyser_intensities(theta, delta_phi, chis)
    fitted = fit_fringe(chis, up)
    a_plus, a_minus = spatial_vectors(theta, delta_phi)
    directs = (pancharatnam_phase(a_minus, a_plus),
               pancharatnam_phase(*spin_arm_states(theta, delta_phi)))
    return ExperimentOutcome(
        results={
            "phase": closed.phase,
            "visibility": closed.visibility,
            "fitted_phase": fitted.phase,
            "fitted_visibility": fitted.visibility,
            # the spin arm obeys the same law; its columns stay in the output
            "spin_arm_phase": closed.phase,
            "spin_arm_visibility": closed.visibility,
        },
        oracle_deltas={
            "fit_vs_closed_phase": abs(wrap_angle(fitted.phase - closed.phase)),
            "fit_vs_closed_visibility": abs(fitted.visibility - closed.visibility),
            "duality_phase": max(abs(wrap_angle(closed.phase - d.phase))
                                 for d in directs),
            "duality_visibility": max(abs(closed.visibility - d.visibility)
                                      for d in directs),
            "channel_sum_max_dev": float(np.abs(up + down - 4.0).max()),
        },
        profile=(chis, up),
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
