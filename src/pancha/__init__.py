"""Pancharatnam relative phases and their generalisations.

Simulation library for relative-phase interferometry on qubits: pure and
mixed two-beam fringes, Bloch-sphere solid-angle laws, entangled
two-photon loop phases, noncyclic geometric phases via parallel
transport, and the split-beam dual readout.  Every closed-form phase law
ships with an independent brute-force oracle, exercised by the bundled
verification suites (``pancha verify all``).

The public names below are loaded on first use (PEP 562), so importing
the package, or one command of the CLI, loads only the modules it needs.
"""

import importlib

#: defining module of each public name
_EXPORTS = {
    "core": ("BlochPoint", "bloch_to_state", "inner_product",
             "matrix_exponential_su2", "orthogonal_complement",
             "principal_angle", "qubit_density", "tensor", "wrap_angle"),
    "dual": ("analyser_intensities", "apply_arm_fields",
             "dual_phase_closed_form", "prepare_beam_state"),
    "errors": ("AntipodalEndpointsError", "AntipodalPointsError",
               "BranchAmbiguityError", "DegenerateSpectrumError",
               "DegenerateTriangleError",
               "IllConditionedError", "OrthogonalStatesError",
               "PhaseDomainError", "UndefinedRatioError",
               "VanishingEndpointOverlapError", "VanishingTraceError"),
    "geometry": ("SphericalTriangle", "bargmann_invariant", "geodesic_unitary",
                 "loop_holonomy", "mixed_bargmann", "mixed_solid_angle_phase",
                 "multi_vertex_invariant", "solid_angle"),
    "phase": ("EPS_ORTH", "PhaseResult", "fit_fringe",
              "mixed_interference_profile", "mixed_phase",
              "pancharatnam_phase", "pure_interference_profile"),
    "transport": ("DiscretePath", "PrecessionSpec", "chain_phase",
                  "dynamical_phase", "geodesic_closure_solid_angle",
                  "is_parallel_lift", "make_parallel_lift",
                  "mixed_noncyclic_phase", "pancharatnam_vs_auxiliary",
                  "precession_path", "precession_phase_closed_form",
                  "precession_phase_simulated", "sample_triangle_path"),
    "twophoton": ("ancilla_reduction_phase", "entangled_phase_closed_form",
                  "franson_coincidence_profile", "nonlinearity_ratio",
                  "simulate_loop_pair"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
