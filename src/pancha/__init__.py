"""Pancharatnam relative phases and their generalisations.

Simulation library for relative-phase interferometry on qubits: pure and
mixed two-beam fringes, Bloch-sphere solid-angle laws, entangled
two-photon loop phases, noncyclic geometric phases via parallel
transport, and the split-beam dual readout.  Every closed-form phase law
ships with an independent brute-force oracle, exercised by the bundled
verification suites (``pancha verify all``).
"""

from .core import (
    BlochPoint,
    bloch_to_state,
    inner_product,
    matrix_exponential_su2,
    orthogonal_complement,
    principal_angle,
    qubit_density,
    state_to_bloch,
    tensor,
    wrap_angle,
)
from .dual import (
    DualSetupSpec,
    SpinArmSpec,
    apply_arm_fields,
    dual_coincidence_profile,
    dual_phase_closed_form,
    prepare_beam_state,
    spin_pancharatnam,
)
from .errors import (
    AntipodalEndpointsError,
    AntipodalPointsError,
    BasisMisalignedError,
    BranchAmbiguityError,
    DegenerateSpectrumError,
    DegenerateTriangleError,
    IllConditionedError,
    OrthogonalStatesError,
    PhaseDomainError,
    UndefinedRatioError,
    VanishingEndpointOverlapError,
    VanishingTraceError,
)
from .geometry import (
    MixedTriple,
    SphericalTriangle,
    bargmann_invariant,
    geodesic_unitary,
    loop_holonomy,
    mixed_bargmann,
    mixed_solid_angle_phase,
    multi_vertex_invariant,
    solid_angle,
)
from .phase import (
    EPS_ORTH,
    InterferenceProfile,
    PhaseResult,
    fit_fringe,
    mixed_interference_profile,
    mixed_phase,
    pancharatnam_phase,
    pure_interference_profile,
)
from .transport import (
    DiscretePath,
    PrecessionSpec,
    chain_phase,
    dynamical_phase,
    geodesic_closure_solid_angle,
    is_parallel_lift,
    make_parallel_lift,
    mixed_noncyclic_phase,
    pancharatnam_vs_auxiliary,
    precession_path,
    precession_phase_closed_form,
    precession_phase_simulated,
    sample_triangle_path,
)
from .twophoton import (
    LoopPair,
    SchmidtState,
    ancilla_reduction_phase,
    entangled_phase_closed_form,
    franson_coincidence_profile,
    nonlinearity_ratio,
    schmidt_state_for_loops,
    simulate_loop_pair,
)

__version__ = "0.1.0"
